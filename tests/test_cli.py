"""Command line surface: outputs, exit codes, determinism."""

import json

import pytest

from pottsloop.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


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


def test_check_loops_text(capsys):
    code, out = run(capsys, "check-loops", "--nx", "2", "--ng", "2")
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 24  # generating equation plus the 23 scalar entries
    assert all("[PASS]" in l for l in lines)


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


def test_out_file(tmp_path, capsys):
    path = tmp_path / "table.json"
    code = main(["solve", "--ng", "0", "--lmax", "2", "--format", "json", "--out", str(path)])
    assert code == 0
    data = json.loads(path.read_text())
    assert data["11"] == {"0": "1"}
