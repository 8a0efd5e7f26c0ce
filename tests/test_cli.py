"""Command line surface: outputs, exit codes, determinism."""

import argparse
import contextlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from pottsloop import cli
from pottsloop.cli import main
from pottsloop.model import ModelSpec
from pottsloop.recursion import LazyTable

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


def test_oracle_refuses_a_word_outside_the_alphabet(capsys):
    code = main(["oracle", "--word", "０"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "error: letter '０' of word '０' outside alphabet {0,1,2}\n"


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


def test_usage_error_exit_code(capsys, tmp_path):
    assert main(["check-loops", "--c", "1"]) == 2
    assert main(["solve", "--ng", "nope"]) == 2
    # an --out that cannot be written: a directory, a missing parent directory
    capsys.readouterr()
    for argv in (["check-sd", "--nx", "1", "--ng", "1"], ["solve", "--ng", "1", "--lmax", "1"]):
        for out in (tmp_path, tmp_path / "missing" / "x.txt"):
            assert main(argv + ["--out", str(out)]) == 2
            stdout, err = capsys.readouterr()
            assert stdout == "" and err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "argv",
    [
        "oracle --kind pure-gravity --word 01",  # the one-matrix model has only the letter 0
        "oracle --word 0011 --nvertices -1",
        "solve --c abc",
        "solve --c -1/2",  # a pole of the propagator
        "check-curve --nx -1 --ng 2",  # an empty rectangle would print PASS
    ],
)
def test_inputs_outside_the_model_exit_2(capsys, argv):
    assert main(argv.split()) == 2
    assert capsys.readouterr().out == ""


def test_a_potts_pole_is_refused_for_potts3_alone(capsys, monkeypatch):
    # pure gravity has one letter and no propagator, so its table does not depend on c
    code, out = run(capsys, *"solve --kind pure-gravity --c 1 --ng 2 --lmax 2 --format json".split())
    assert code == 0 and json.loads(out) == {"ε": {"0": "1"}, "0": {"1": "1"}, "00": {"0": "1", "2": "4"}}

    def no_table(*args, **kwargs):
        raise AssertionError("a refused coupling reached the solver")

    monkeypatch.setattr(cli, "LazyTable", no_table)
    for c in ("1", "-1/2"):
        assert main(["solve", "--c", c, "--ng", "2"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"argument --c: coupling c = {c} is a pole of the propagator (c in {{1, -1/2}})" in err


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
    # the lazy catalog table at max_len 27, ng 14 is beyond the packed headroom (a 65-bit bound)
    assert main(["check-loops", "--nx", "8", "--ng", "14"]) == 2
    assert capsys.readouterr().out == ""


def test_check_loops_line_zero_refuses_a_region_past_the_size_guard(capsys, monkeypatch):
    import pottsloop.recursion as recursion

    one_letter = recursion._solve_dense

    def no_potts_solve(nlet, *args):
        assert nlet == 1, "a refused region reached the three-letter solve"
        return one_letter(nlet, *args)

    monkeypatch.setattr(recursion, "_solve_dense", no_potts_solve)
    # line 0 would solve the dense region S 16, ng 8: 72.6M slots
    assert main(["check-loops", "--nx", "8", "--ng", "8"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "72637649 slots" in err


def test_solve_refuses_a_listing_past_the_slot_bound(capsys, monkeypatch):
    import pottsloop.tables as tables
    import pottsloop.words as words

    def no_listing(*args):
        raise AssertionError("a refused listing reached the word enumeration")

    monkeypatch.setattr(tables, "_lex", no_listing)
    # every word of up to 16 letters at g^0: 64,570,081 slots
    assert main(["solve", "--ng", "0", "--lmax", "16"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "64570081 slots, beyond the 2^20 slot bound" in err
    # the bound admits twelve letters at g^0 (797,161 slots) and refuses them at g^0..g^1
    words.check_listing(3, 12, 0)
    with pytest.raises(ValueError, match="1594322 slots"):
        words.check_listing(3, 12, 1)


def test_solve_streams_each_word_as_it_reads_it(tmp_path, monkeypatch):
    # the export writes every word as it reads it, so above the lazy memo it holds a few
    # words at a time, never the whole answer as one dict of the same listing
    table = LazyTable(ModelSpec(ng=0, ltarget=8), max_len=8)

    def whole():
        return dict(table.listing(8, 0))

    data = whole()  # solves every slot the export reads

    def filled_table(spec, max_len):
        assert (spec, max_len) == (table.spec, table.S)
        return table

    def traced(call):
        tracemalloc.start()
        try:
            return call(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    monkeypatch.setattr(cli, "LazyTable", filled_table)
    out = tmp_path / "solve.json"
    code, streamed = traced(lambda: main(["solve", "--ng", "0", "--lmax", "8", "--format", "json", "--out", str(out)]))
    assert code == 0 and out.read_text() == json.dumps(data, indent=2, sort_keys=True) + "\n"
    assert streamed < traced(whole)[1] / 4


def test_check_curve_refuses_a_negative_order_before_the_dense_solve(capsys, monkeypatch):
    def no_dense_solve(spec):
        raise AssertionError("a negative order reached the dense solve")

    monkeypatch.setattr(cli, "solve_series", no_dense_solve)
    assert main(["check-curve", "--nx", "-1", "--ng", "8"]) == 2
    assert capsys.readouterr().out == ""


def test_numeric_moment_commands_refuse_past_the_symbolic_order(capsys, monkeypatch):
    def no_table(*args, **kwargs):
        raise AssertionError("a refused moment order reached the lazy table")

    monkeypatch.setattr(cli, "LazyTable", no_table)
    refused = {}
    # solve and compare build their tables in the same place, so they refuse the same way
    for argv, bits in (
        ("export --ng 18 --c 1/3", 66),
        ("check-recurrences --ng 40 --c -2/3", 147),
        ("solve --ng 20 --lmax 2 --c 1/3", 70),
        ("solve --kind pure-gravity --ng 40 --lmax 2 --c 1/4", 79),
        ("compare --max-len 2 --max-n 30 --c 1/3", 106),
    ):
        assert main(argv.split()) == 2, argv
        out, refused[argv] = capsys.readouterr()
        assert out == "" and f"(a {bits}-bit bound), beyond the 2^62 digit guard" in refused[argv], argv
    # at the bound and below, the table is built
    class Built(Exception):
        pass

    def built(spec, max_len):
        raise Built(spec.ng, max_len)

    monkeypatch.setattr(cli, "LazyTable", built)
    for argv in ("export --ng 16 --c 1/3", "check-recurrences --ng 17 --c 2"):
        with pytest.raises(Built):
            main(argv.split())
    monkeypatch.undo()
    assert main("export --ng 3 --c 1/3".split()) == 0
    assert capsys.readouterr().out
    # symbolic c refuses the same orders, in the same words, when it builds the table
    for argv, err in refused.items():
        assert main(argv.split()[:-2]) == 2
        assert capsys.readouterr() == ("", err)


def test_numeric_catalog_and_curve_commands_refuse_where_symbolic_c_does(capsys, monkeypatch):
    def no_table(*args, **kwargs):
        raise AssertionError("a refused truncation reached the lazy table")

    monkeypatch.setattr(cli, "LazyTable", no_table)
    # catalog edge 39 and curve edge 34 at g^30; the catalog (12, 12) at edge 29; the curve at g^18
    refused = {}
    for argv, bits in (
        ("check-sd --nx 4 --ng 30 --c 1/3", 117),
        ("check-curve --nx 4 --ng 30 --c 1/3", 110),
        ("check-sd --nx 12 --ng 12 --c -2/3", 63),
        ("check-curve --nx 4 --ng 18 --c 2", 66),
        ("check-loops --nx 12 --ng 12 --c 1/4", 63),
    ):
        assert main(argv.split()) == 2, argv
        out, refused[argv] = capsys.readouterr()
        assert out == "" and f"(a {bits}-bit bound), beyond the 2^62 digit guard" in refused[argv], argv

    # where symbolic c admits the truncation, the numeric table is built
    class Built(Exception):
        pass

    def built(spec, max_len):
        raise Built(spec.ng, max_len)

    monkeypatch.setattr(cli, "LazyTable", built)
    for argv, edge in (("check-sd --nx 6 --ng 14 --c 1/3", 25), ("check-curve --nx 4 --ng 17 --c -2/3", 21)):
        with pytest.raises(Built) as exc:
            main(argv.split())
        assert exc.value.args[1] == edge
    # symbolic c refuses the same truncations, in the same words, when it builds the table
    monkeypatch.undo()
    for argv, err in refused.items():
        assert main(argv.split()[:-2]) == 2
        assert capsys.readouterr() == ("", err)


def test_moment_commands_solve_no_dense_table(capsys, monkeypatch):
    def no_dense_solve(spec):
        raise AssertionError("a moment command reached the dense solve")

    monkeypatch.setattr(cli, "solve_series", no_dense_solve)
    code, out = run(capsys, *"check-curve --nx 10 --ng 10".split())
    assert code == 0
    assert out == (
        "[PASS] quintic residual, fourth moment from word 1202\n"
        "[FAIL] quintic residual, fourth moment from word 1212  first nonzero at x^6 g^6: "
        "8*c^3+48*c^4-8*c^5-448*c^6-56*c^7+1968*c^8-648*c^9-4224*c^10+4080*c^11+2176*c^12"
        "-5616*c^13+3680*c^14-1088*c^15+128*c^16\n"
    )
    code, out = run(capsys, *"check-recurrences --ng 8".split())
    assert code == 0 and out == (GOLDEN / "check-recurrences.txt").read_text()
    # the rows of g-order <= 4 are the golden --ng 4 export
    code, out = run(capsys, *"export --ng 8".split())
    rows = out.splitlines()
    assert code == 0 and len(rows) == 48
    assert [r for r in rows if not r.startswith("p") or int(r.split(",")[1]) <= 4] == (GOLDEN / "export.txt").read_text().splitlines()


def test_solve_and_compare_solve_no_dense_table(capsys, monkeypatch, master_table):
    assert master_table.spec == ModelSpec(ng=8, ltarget=4)
    dense = json.dumps(dict(master_table.listing(4, 8)), indent=2, sort_keys=True) + "\n"

    def no_dense_solve(spec):
        raise AssertionError("solve or compare reached the dense solve")

    monkeypatch.setattr(cli, "solve_series", no_dense_solve)
    code, out = run(capsys, *"solve --ng 8 --lmax 4 --format json".split())
    assert code == 0 and out == dense
    code, out = run(capsys, *"compare --max-len 3".split())
    assert code == 0 and out == (GOLDEN / "compare.txt").read_text()
    code, out = run(capsys, *"solve --kind pure-gravity".split())
    assert code == 0 and out == (GOLDEN / "solve-pure-gravity.txt").read_text()


def test_check_loops_line_zero_solves_what_its_residual_reads(capsys, monkeypatch):
    # at nx > ng the residual grade is 2 ng and every slot it reads has |w| + n <= 2 ng,
    # so line 0 solves ltarget ng; the report is the one of the region a letter longer
    specs, reports = [], []
    solve, residual = cli.solve_series, cli.solver.generating_residual
    monkeypatch.setattr(cli, "solve_series", lambda spec: specs.append(spec) or solve(spec))
    monkeypatch.setattr(cli.solver, "generating_residual", lambda table: reports.append(residual(table)) or reports[-1])
    monkeypatch.setattr(cli.loopcat, "check_loops", lambda *args, **kwargs: [])
    code, out = run(capsys, *"check-loops --nx 12 --ng 5".split())
    assert code == 0 and out == "[PASS]  0  generating equation (fixed-point and derivative forms, grade 10)\n"
    assert specs == [ModelSpec(ng=5, ltarget=5)]
    assert reports == [residual(solve(ModelSpec(ng=5, ltarget=6)))]


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


# Tier-1 contract sweep: one template per subcommand and failing variant, with
# the exit codes it may give; {kind} and {word} vary only where the command
# takes a model kind.
_SWEEP_TEMPLATES = (
    ("solve --kind {kind} --ng {a} --lmax {b}", (0,)),
    ("check-loops --nx {a} --ng {b}", (0,)),
    ("check-loops --nx {a} --ng {b} --catalog printed", (0, 1)),
    ("check-sd --nx {a} --ng {b}", (0,)),
    ("check-curve --nx {a} --ng {b}", (0,)),
    ("check-curve --nx {a} --ng {b} --moment-variant 1212", (0, 1)),
    ("check-recurrences --ng {a}", (0,)),
    ("oracle --kind {kind} --word {word} --nvertices {a}", (0,)),
    ("compare --kind {kind} --max-len {a} --max-n {b}", (0,)),
    ("export --ng {a}", (0,)),
)
_SWEEP_COUPLINGS = ("symbolic", "1/4", "-2/3", "0", "2")
_SWEEP_PER_TEMPLATE = 8

# refusals, each before any output: bad couplings, poles, orders, letters and
# choices, and truncations past a size or headroom guard
_SWEEP_REFUSALS = (
    "check-loops --nx 2 --ng 2 --c abc",
    "solve --c 1/0",
    "solve --c 1 --ng 2",
    "compare --c -1/2",
    "check-curve --nx -1 --ng 2",
    "export --ng x",
    "oracle --word 0113",
    "oracle --kind pure-gravity --word 01",
    "oracle --word 00 --nvertices 40",
    "compare --max-len 16 --max-n 0",
    "solve --ng 0 --lmax 16",
    "check-loops --nx 8 --ng 8",
    "check-curve --nx 14 --ng 16",
    "check-recurrences --ng 40",
    "check-recurrences --ng 40 --c 1/3",
    "export --ng 18 --c 1/3",
    "check-sd --nx 4 --ng 30 --c 1/3",
    "check-curve --nx 4 --ng 30 --c 1/3",
    "compare --kind ising",
    "check-curve --moment-variant 9999",
    "check-sd --nx 3 --bogus",
    "frobnicate",
)


def _sweep_calls() -> list:
    """A fixed sample of (argv, allowed exit codes): every template at each coupling, kind, truncation up to 3 and format."""
    rng = random.Random(26)
    calls = []
    for template, codes in _SWEEP_TEMPLATES:
        grid = []
        for c, kind, a, b, fmt in itertools.product(
            _SWEEP_COUPLINGS, ("potts3", "pure-gravity"), range(4), range(4), ("text", "json")
        ):
            if ("{kind}" in template or kind == "potts3") and ("{b}" in template or b == 0):
                word = ("0" * b if kind == "pure-gravity" else "0120"[:b]) or "ε"
                argv = template.format(kind=kind, a=a, b=b, word=word).split()
                grid.append((argv + ["--c", c, "--format", fmt], codes))
        calls += rng.sample(grid, _SWEEP_PER_TEMPLATE)
    return calls + [(argv.split(), (2,)) for argv in _SWEEP_REFUSALS]


def test_cli_contract_sweep():
    for argv, codes in _sweep_calls():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)  # an exception escaping main fails the sweep here
        assert code in codes, (argv, code, err.getvalue())
        if code == 2:
            assert out.getvalue() == "" and err.getvalue(), argv
        else:
            assert out.getvalue(), argv
