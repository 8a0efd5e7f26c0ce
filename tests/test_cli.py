"""Command line surface: outputs, exit codes, determinism."""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pottsloop import cli
from pottsloop.cli import main

GOLDEN = Path(__file__).parent / "golden"

# (golden file stem, argv, formats, exit code)
GOLDEN_CASES = (
    ("check-loops", "check-loops --nx 3 --ng 3", ("json", "text"), 0),
    ("check-loops-printed-c1_4", "check-loops --nx 3 --ng 3 --catalog printed --c 1/4", ("json", "text"), 1),
    ("check-sd", "check-sd --nx 3 --ng 3", ("json", "text"), 0),
    ("check-sd-c-2_3", "check-sd --nx 3 --ng 3 --c -2/3", ("json", "text"), 0),
    ("check-curve", "check-curve --nx 4 --ng 4", ("json", "text"), 0),
    ("check-curve-c1_4", "check-curve --nx 4 --ng 4 --c 1/4", ("json", "text"), 0),
    ("check-curve-1212", "check-curve --nx 4 --ng 4 --moment-variant 1212", ("json", "text"), 0),
    ("check-curve-6-6", "check-curve --nx 6 --ng 6", ("json",), 0),
    ("check-recurrences", "check-recurrences --ng 4", ("json", "text"), 0),
    ("export", "export --ng 4", ("json", "text"), 0),
    ("compare", "compare --max-len 3", ("json", "text"), 0),
    ("compare-c1_4", "compare --max-len 3 --c 1/4", ("json", "text"), 0),
    ("solve", "solve", ("json", "text"), 0),
    ("solve-c1_4", "solve --c 1/4", ("json", "text"), 0),
    ("solve-pure-gravity", "solve --kind pure-gravity", ("json", "text"), 0),
    ("oracle", "oracle --word 0112 --nvertices 2", ("json", "text"), 0),
)


def _cli_output(argv: list) -> tuple:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def _golden_runs():
    for stem, cmd, formats, code in GOLDEN_CASES:
        for fmt in formats:
            yield stem, cmd.split() + ["--format", fmt], GOLDEN / f"{stem}.{'json' if fmt == 'json' else 'txt'}", code


def write_golden() -> None:
    """Rewrite every file under tests/golden from the current CLI."""
    GOLDEN.mkdir(exist_ok=True)
    for _stem, argv, path, _code in _golden_runs():
        path.write_text(_cli_output(argv)[1])


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


@pytest.mark.parametrize(
    "argv, path, code", [pytest.param(a, p, c, id=p.name) for _s, a, p, c in _golden_runs()]
)
def test_cli_output_matches_golden(argv, path, code):
    """json and text output, byte for byte, against files written by an earlier tree.

    Regenerate (only when an output change is intended) from the repository root with
    ``PYTHONPATH=src python -c "import tests.test_cli as t; t.write_golden()"``.
    """
    got_code, out = _cli_output(argv)
    assert got_code == code
    assert out == path.read_text()


def test_solve_json_gaussian(capsys):
    code, out = run(capsys, "solve", "--ng", "0", "--lmax", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["00"] == {"0": "1"}
    assert data["01"] == {"0": "c"}


def test_negative_rational_coupling_as_separate_argument(capsys):
    code, out = run(capsys, "solve", "--ng", "0", "--lmax", "2", "--c", "-2/3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["00"] == {"0": "1"}
    assert data["01"] == {"0": "-2/3"}
    _, joined = run(capsys, "solve", "--ng", "0", "--lmax", "2", "--c=-2/3", "--format", "json")
    assert joined == out


def test_check_recurrences(capsys):
    code, out = run(capsys, "check-recurrences", "--ng", "4")
    assert code == 0
    assert out.count("[PASS]") == 3


@pytest.mark.parametrize("c", ["1/4", "0"])
def test_check_recurrences_at_numeric_c(capsys, c):
    code, out = run(capsys, "check-recurrences", "--ng", "4", "--c", c)
    assert code == 0
    assert out.count("[PASS]") == 3


def test_check_loops_text(capsys):
    code, out = run(capsys, "check-loops", "--nx", "2", "--ng", "2")
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 24  # generating equation plus the 23 scalar entries
    assert all("[PASS]" in l for l in lines)


def test_check_loops_at_an_odd_grade(capsys):
    # nx + ng = 5 solves an odd region, whose top slots the recast form cannot read
    code, out = run(capsys, "check-loops", "--nx", "2", "--ng", "3")
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 24
    assert all("[PASS]" in l for l in lines)
    assert "grade 5" in lines[0]


def test_check_loops_printed_catalog_fails(capsys):
    code, out = run(capsys, "check-loops", "--nx", "2", "--ng", "2", "--catalog", "printed")
    assert code == 1
    assert "[FAIL]" in out


def test_printed_catalog_witness_at_numeric_c(capsys):
    code, out = run(capsys, "check-loops", "--nx", "2", "--ng", "2", "--catalog", "printed", "--c", "1/4", "--format", "json")
    assert code == 1
    entries = {e["index"]: e for e in json.loads(out)["equations"]}
    for index in (20, 21):
        # -2c^2 - 4c^3 + 8c^4 - 2c^5 at c = 1/4
        assert entries[index]["first_nonzero"] == {"x_power": 1, "g_power": 1, "value": "-81/512"}
    assert all(e["status"] == "PASS" for i, e in entries.items() if i not in (20, 21))


def test_check_sd(capsys):
    code, out = run(capsys, "check-sd", "--nx", "2", "--ng", "2")
    assert code == 0
    assert out.count("[PASS]") == 23


def test_check_curve_auto(capsys):
    code, out = run(capsys, "check-curve", "--nx", "3", "--ng", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["passing_variant"] == "1202"


def test_oracle_word(capsys):
    code, out = run(capsys, "oracle", "--word", "0011", "--nvertices", "0")
    assert code == 0
    assert out.strip() == "1+c^2"


def test_compare(capsys):
    code, out = run(capsys, "compare", "--max-len", "3", "--max-n", "2")
    assert code == 0
    assert "PASS" in out


def test_export_csv(capsys):
    code, out = run(capsys, "export", "--ng", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "moment,g_power,value"
    assert any(l.startswith("p12,0,c") for l in lines)


def test_determinism(capsys):
    _, first = run(capsys, "solve", "--ng", "2", "--lmax", "3", "--format", "json")
    _, second = run(capsys, "solve", "--ng", "2", "--lmax", "3", "--format", "json")
    assert first == second


def test_usage_error_exit_code(capsys):
    assert main(["check-loops", "--c", "1"]) == 2
    assert main(["solve", "--ng", "nope"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        "oracle --kind pure-gravity --word 01",  # the one-matrix model has only the letter 0
        "oracle --word 0011 --nvertices -1",
        "solve --c abc",
        "check-curve --nx -1 --ng 2",  # an empty rectangle would print PASS
    ],
)
def test_inputs_outside_the_model_exit_2(capsys, argv):
    assert main(argv.split()) == 2
    assert capsys.readouterr().out == ""


def test_out_file(tmp_path, capsys):
    path = tmp_path / "table.json"
    code = main(["solve", "--ng", "0", "--lmax", "2", "--format", "json", "--out", str(path)])
    assert code == 0
    data = json.loads(path.read_text())
    assert data["11"] == {"0": "1"}


def test_check_loops_refuses_before_the_dense_solve(capsys, monkeypatch):
    def no_dense_solve(spec):
        raise AssertionError("a refused catalog truncation reached the dense solve")

    monkeypatch.setattr(cli, "solve_series", no_dense_solve)
    # the lazy catalog table at max_len 30, ng 14 is beyond the packed headroom
    assert main(["check-loops", "--nx", "8", "--ng", "14"]) == 2
    assert capsys.readouterr().out == ""


def test_check_curve_refuses_a_negative_order_before_the_dense_solve(capsys, monkeypatch):
    def no_dense_solve(spec):
        raise AssertionError("a negative order reached the dense solve")

    monkeypatch.setattr(cli, "solve_series", no_dense_solve)
    assert main(["check-curve", "--nx", "-1", "--ng", "8"]) == 2
    assert capsys.readouterr().out == ""


# one tiny run of every subcommand, with its exit code
NO_NUMPY_RUNS = {
    "solve": ("solve --ng 1 --lmax 2", 0),
    "check-loops": ("check-loops --nx 1 --ng 1", 0),
    "check-sd": ("check-sd --nx 1 --ng 1", 0),
    "check-curve": ("check-curve --nx 2 --ng 2", 0),
    "check-recurrences": ("check-recurrences --ng 2", 0),
    "oracle": ("oracle --word 0011", 0),
    "compare": ("compare --max-len 2 --max-n 1", 0),
    "export": ("export --ng 2", 0),
}

_NO_NUMPY_SCRIPT = """
import contextlib, io, json, pkgutil, sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
import pottsloop
from pottsloop.cli import main
for mod in pkgutil.iter_modules(pottsloop.__path__):
    __import__("pottsloop." + mod.name)
codes = {}
for name, argv in json.loads(sys.argv[1]).items():
    with contextlib.redirect_stdout(io.StringIO()):
        codes[name] = main(argv.split())
print(json.dumps(codes))
"""


def test_cli_runs_without_numpy():
    """Every subcommand runs in one interpreter where numpy cannot be imported."""
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(NO_NUMPY_RUNS)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    argvs = json.dumps({name: argv for name, (argv, _) in NO_NUMPY_RUNS.items()})
    proc = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY_SCRIPT, argvs], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {name: code for name, (_, code) in NO_NUMPY_RUNS.items()}
