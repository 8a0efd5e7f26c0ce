"""The record types: one contract for every input and result class, and an import that stays light."""

import ast
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from pottsloop.curve import MOMENT_LABELS, CurveCheck, MomentSet, RecurrenceReport, ShiftedResolvent
from pottsloop.loopcat import Amp, CheckResult, LoopEquation, Reparameterisation, Term
from pottsloop.oracle import CompareReport
from pottsloop.ring import FrozenRecord, Poly, Record
from pottsloop.solver import ModelSpec, PureGravityResult, ResidualReport

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
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    # -S: no site hook loads anything before the package does
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _IMPORT_SCRIPT], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_leaves_the_oracle_uncompiled():
    """``cli`` imports ``oracle`` inside the two commands that use it, so the others never compile it."""
    src = str(Path(__file__).resolve().parent.parent / "src")
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
    package = Path(__file__).resolve().parent.parent / "src" / "pottsloop"
    sizes = {p.name: sum(1 for _ in ast.walk(ast.parse(p.read_text()))) for p in sorted(package.glob("*.py"))}
    assert {name: n for name, n in sizes.items() if n > _MAX_AST_NODES} == {}
