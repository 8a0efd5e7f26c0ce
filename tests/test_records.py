"""The record types: one contract for every input and result class, an import that stays light, one home per name."""

import ast
import importlib
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from pottsloop.catalog import Amp, LoopEquation, Term
from pottsloop.curve import CurveCheck, ShiftedResolvent, check_curve, curve_edge
from pottsloop.loopcat import CheckResult, Reparameterisation
from pottsloop.model import ModelSpec
from pottsloop.moments import MOMENT_LABELS, MomentSet, RecurrenceReport
from pottsloop.oracle import CompareReport
from pottsloop.poly import Poly
from pottsloop.record import FrozenRecord, Record
from pottsloop.recursion import LazyTable
from pottsloop.solver import PureGravityResult, ResidualReport

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pottsloop"
WORKER = ROOT / "perfbench" / "worker.py"

# (record, a value for every field, the defaults of its trailing fields)
RECORDS = (
    (ModelSpec, ("pure-gravity", Fraction(1, 3), 2, 3), {"kind": "potts3", "c": "symbolic", "ng": 4, "ltarget": 4}),
    (ResidualReport, ([("00", 1, Poly((1,)))], [], [], 6), {}),
    (PureGravityResult, ("table", "phi", "branch", "other", (2, 1)), {}),
    (Amp, ("12", 1, True, 2, "0"), {"delta": 0, "sym": False, "letter": 0, "post": ""}),
    (Term, ((1, 1), (Amp("1"),), "11", 1, 2), {"p_label": None, "g_power": 0, "x_power": 0}),
    (LoopEquation, (3, "x0 x1...x1", (), ()), {"emended": None}),
    (Reparameterisation, (2, (("1", 0, "1"),)), {}),
    (CheckResult, (4, "x0...x0", False, (1, 1, "c"), 2), {"first_nonzero": None, "bad_slots": 0}),
    (MomentSet, tuple(range(10)) + (ModelSpec(c=2),), {"spec": ModelSpec()}),
    (RecurrenceReport, ("p11", False, 3, 2), {"first_bad_order": None, "bad_orders": 0}),
    (ShiftedResolvent, ("ytilde", Poly((1, -1))), {}),
    (CurveCheck, ("1212", False, (6, 6, "c"), 1), {"bad_slots": 0}),
    (CompareReport, (12, [("01", 0, "c", "c^2")]), {}),
)
FROZEN = {ModelSpec, Amp, Term, LoopEquation, Reparameterisation, MomentSet, ShiftedResolvent}


def _subclasses(cls) -> set:
    return {s for d in cls.__subclasses__() for s in {d} | _subclasses(d)}


def test_every_record_is_covered():
    assert _subclasses(Record) - {FrozenRecord} == {r for r, _, _ in RECORDS}
    assert _subclasses(FrozenRecord) == FROZEN


@pytest.mark.parametrize("cls, values, defaults", RECORDS, ids=[r.__name__ for r, _, _ in RECORDS])
def test_record_contract(cls, values, defaults):
    names = cls._fields
    assert len(names) == len(values) and list(defaults) == list(names[len(names) - len(defaults) :])
    # positional and keyword construction agree, field by field
    r = cls(*values)
    assert r == cls(**dict(zip(names, values))) == cls(*values[:1], **dict(zip(names[1:], values[1:])))
    assert [getattr(r, n) for n in names] == list(values)
    assert not hasattr(r, "__dict__")  # fields live in __slots__
    assert repr(r).startswith(f"{cls.__name__}({names[0]}=")
    # the trailing fields default
    required = values[: len(names) - len(defaults)]
    assert [getattr(cls(*required), n) for n in defaults] == list(defaults.values())
    # == compares values and class; replace builds a new record through __init__
    if defaults:
        assert cls(*required) != r
    new = values[-1] + 1 if isinstance(values[-1], int) else "changed"
    other = r.replace(**{names[-1]: new})
    assert other != r and getattr(other, names[-1]) == new
    assert other.replace(**{names[-1]: values[-1]}) == r
    assert r.replace() == r and r.replace() is not r
    assert r != tuple(values)
    # a missing, unknown or repeated field, or one value too many, is refused
    refused = [(values, {"bogus": 1}), (values, {names[0]: values[0]}), (values + (0,), {})]
    if required:
        refused.append((required[:-1], {}))
    for args, kw in refused:
        with pytest.raises(TypeError):
            cls(*args, **kw)
    if cls in FROZEN:
        assert hash(r) == hash(cls(*values)) == hash(r.replace())
        for mutate in (lambda: setattr(r, names[0], values[0]), lambda: delattr(r, names[0])):
            with pytest.raises(AttributeError):
                mutate()
        assert [getattr(r, n) for n in names] == list(values)
    else:
        with pytest.raises(TypeError):
            hash(r)
        setattr(r, names[-1], "assigned")
        assert getattr(r, names[-1]) == "assigned"


def test_model_spec_validates_every_construction():
    assert ModelSpec(c="-2/3").c == Fraction(-2, 3)  # the coupling is parsed once
    assert ModelSpec(c="1/4").replace(ng=2) == ModelSpec(c=Fraction(1, 4), ng=2)
    for bad in ({"c": 1}, {"c": "-1/2"}, {"c": "abc"}, {"c": "1/0"}, {"kind": "ising"}, {"ng": -1}):
        with pytest.raises(ValueError):
            ModelSpec(**bad)
        with pytest.raises(ValueError):
            ModelSpec().replace(**bad)
    assert ModelSpec(kind="pure-gravity", c=1).c == 1  # the one-letter model has no propagator pole


def test_moment_labels_are_the_moment_set_fields():
    assert MOMENT_LABELS == ("1", "11", "12", "112", "012", "1122", "1120", "1202", "1212", "0121")
    assert MomentSet._fields == tuple("p" + label for label in MOMENT_LABELS) + ("spec",)


_IMPORT_SCRIPT = """
import sys
heavy = ("dataclasses", "inspect")
loaded = [m for m in heavy if m in sys.modules]
import pottsloop.cli
loaded += [("pottsloop.cli", m) for m in heavy if m in sys.modules]
import pottsloop.oracle
loaded += [("pottsloop.oracle", m) for m in heavy if m in sys.modules]
print(loaded)
"""


def test_the_package_import_loads_neither_dataclasses_nor_inspect():
    """``dataclasses`` pulls in ``inspect``, ``ast`` and ``dis``: about 0.9 MiB on every command's peak RSS."""
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    # -S: no site hook loads anything before the package does
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _IMPORT_SCRIPT], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_leaves_the_oracle_uncompiled():
    """``cli`` imports ``oracle`` inside the two commands that use it, so the others never compile it."""
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    script = "import sys, pottsloop.cli; print('pottsloop.oracle' in sys.modules)"
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


_MAX_AST_NODES = 2500  # the largest module, series.py, has 2,469


def test_no_module_compiles_past_the_node_bound():
    """A deterministic stand-in for the import's memory high-water, which is the largest single module compile.

    Without a bytecode cache every module compiles at import, and the compile
    of a module of about 5,000 AST nodes raised the import's peak RSS by
    about 2 MiB; at 2,500 nodes or fewer the rise is at most about 1 MiB.
    """
    sizes = {p.name: sum(1 for _ in ast.walk(ast.parse(p.read_text()))) for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: n for name, n in sizes.items() if n > _MAX_AST_NODES} == {}


def _modules() -> dict:
    return {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}


def _own_names(tree: ast.Module) -> set:
    """The names a module's own top-level code binds: functions, classes and assignments, not imports."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


def _package_imports(tree: ast.Module):
    """(module, name, line) for every ``from pottsloop.module import name`` in a file outside the package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("pottsloop."):
            for alias in node.names:
                yield node.module.split(".", 1)[1], alias.name, node.lineno


def _layout() -> list:
    """The modules of README's layout table, in its order."""
    lines = (ROOT / "README.md").read_text().splitlines()
    start = lines.index("| module     | contents |") + 2
    rows = lines[start : lines.index("", start)]
    return [row.split("|")[1].strip().strip("`") for row in rows]


def test_every_import_names_the_module_that_defines_it():
    """One home per name: an import names the module whose own code defines the name, and no module
    imports a name its code does not use, except the names ``perfbench/worker.py`` imports from it."""
    modules = _modules()
    homes = {m: _own_names(tree) for m, tree in modules.items()}
    kept = {(m, name) for m, name, _ in _package_imports(ast.parse(WORKER.read_text()))}
    elsewhere, unused = [], []
    for m, tree in modules.items():
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                for alias in node.names:
                    if alias.name not in homes[node.module]:
                        elsewhere.append(f"{m}.py:{node.lineno} .{node.module}.{alias.name}")
                    if alias.name not in used and (m, alias.name) not in kept:
                        unused.append(f"{m}.py:{node.lineno} {alias.name}")
    for path in sorted((ROOT / "tests").glob("*.py")):
        for m, name, line in _package_imports(ast.parse(path.read_text())):
            if name not in homes[m]:
                elsewhere.append(f"{path.name}:{line} pottsloop.{m}.{name}")
    assert elsewhere == []
    assert unused == []


def test_every_module_reference_in_the_docs_names_the_module_that_defines_it():
    """Every `` `module.name` `` in README.md and in the package's own text names the module whose own
    code defines ``name``, by the rule of the import test above; a ``*.py`` file name is no reference."""
    homes = {m: _own_names(tree) for m, tree in _modules().items()}
    stale = []
    for path in [ROOT / "README.md", *sorted(PACKAGE.glob("*.py"))]:
        for line, text in enumerate(path.read_text().splitlines(), 1):
            for m, name in re.findall(r"`(\w+)\.(\w+)`", text):
                if m in homes and name != "py" and name not in homes[m]:
                    stale.append(f"{path.name}:{line} {m}.{name}")
    assert stale == []


def test_no_module_imports_one_below_it_in_the_layout():
    """README's layout table lists every module, and each imports only modules listed above it."""
    order = _layout()
    modules = _modules()
    assert sorted(order) == sorted(set(modules) - {"__init__"})
    upward = []
    for m, tree in modules.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for target in [node.module] if node.module else [a.name for a in node.names]:
                    if order.index(target) >= order.index(m):
                        upward.append(f"{m}.py:{node.lineno} imports {target}")
    assert upward == []


def test_the_benchmark_worker_resolves_every_name_it_reads(monkeypatch):
    """Every ``from pottsloop.X import name`` in ``perfbench/worker.py`` resolves, and the functions its
    ``--trace 1`` wraps are called through their module's globals, so a wrapped name records a span."""
    tree = ast.parse(WORKER.read_text())
    missing = [f"pottsloop.{m}.{name}" for m, name, _ in _package_imports(tree)
               if not hasattr(importlib.import_module(f"pottsloop.{m}"), name)]
    assert missing == []
    wraps = [(ast.unparse(node.args[0]), node.args[1].value) for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "wrap"]
    assert wraps == [("pottsloop.curve", "build_shifted_resolvent"), ("pottsloop.curve", "quintic_residual")]
    calls = []

    def counted(fn, name):
        def call(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return call

    for path, name in wraps:
        module = importlib.import_module(path)
        monkeypatch.setattr(module, name, counted(getattr(module, name), name))
    checks = check_curve(LazyTable(ModelSpec(ng=2), max_len=curve_edge(2, 2)), 2, 2, ("1202",))
    assert [c.passed for c in checks] == [True]
    assert {name for _, name in wraps} <= set(calls)
