"""Numeric branch tracking for the quintic curve: a floating-point referee.

The exact checks in ``pottsloop.curve`` verify the quintic residual slot by
slot.  This one evaluates the truncated series for y exactly at rational
points (c0, g0, x), solves the quintic there with ``numpy.roots`` and checks
that the series sits on one of its roots.  It is the only check with a
tolerance, so it lives with the tests and ``numpy`` is a test dependency.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from pottsloop.moments import build_curve, compute_moments
from pottsloop.recursion import SolutionTable
from pottsloop.words import Word


@dataclass
class NumericPoint:
    x: float
    y_series: float
    nearest_root: float
    deviation: float
    tie: bool


@dataclass
class NumericBranchReport:
    c0: Fraction
    g0: Fraction
    points: list
    max_deviation: float
    tail_estimate: float
    ties: int

    def ok(self, tol: float) -> bool:
        return self.ties == 0 and self.max_deviation <= tol


def _row_value(row: tuple, c0: Fraction, g0: Fraction) -> Fraction:
    """A g-row (the Poly coefficients of g^0, g^1, ...) at the numeric couplings (c0, g0), by Horner in g."""
    acc = Fraction(0)
    for v in reversed(row):
        acc = acc * g0 + v.evaluate(c0)
    return acc


def _phi_value(table: SolutionTable, c0: Fraction, g0: Fraction, x0: Fraction, ng: int):
    """Exact truncated phi(x0) at numeric couplings, plus the last term kept."""
    acc = Fraction(0)
    last = Fraction(0)
    kmax = table.S
    for k in range(kmax + 1):
        nmax = min(ng, table.S - k)
        term = Fraction(0)
        gp = Fraction(1)
        for n in range(nmax + 1):
            if (k + n) % 2 == 0:
                term += table.p_coeff(Word([0] * k), n).evaluate(c0) * gp
            gp *= g0
        contrib = term * x0**k
        acc += contrib
        if k == kmax:
            last = contrib
    return acc, last


def numeric_branch_check(
    table: SolutionTable,
    c0,
    g0,
    xs: Sequence,
    *,
    ng: Optional[int] = None,
) -> NumericBranchReport:
    """Solve the quintic numerically on a grid and track the series branch.

    The fourth moment comes from the word 1202.  The truncated series for y
    is evaluated exactly at rational points and floated only at the
    comparison; the nearest quintic root must agree and the deviation must
    shrink as truncation orders grow.  Two roots whose distances to the
    series agree to a relative 1e-9 are reported as an ambiguity.
    """
    import numpy as np

    c0 = Fraction(c0)
    g0 = Fraction(g0)
    if not table.symbolic and Fraction(table.spec.c) != c0:
        raise ValueError("numeric table was solved at a different coupling")
    ng = table.ng if ng is None else ng
    moments = compute_moments(table, ng)
    f0, rest = build_curve(moments)
    fs_eval = []
    for f in (f0("1202"),) + rest:
        fs_eval.append(list(f.items()))

    points = []
    ties = 0
    maxdev = 0.0
    tail = 0.0
    for xq in xs:
        xq = Fraction(xq)
        if xq == 0:
            raise ValueError("grid must stay away from x = 0")
        phi, last = _phi_value(table, c0, g0, xq, ng)
        tail = max(tail, abs(float(last)))
        y_exact = -xq * phi - g0 / xq**2 + Fraction(1) / ((1 - c0) * xq)
        poly = []
        for k in range(5, -1, -1):
            val = Fraction(0)
            for e, row in fs_eval[k]:
                val += _row_value(row, c0, g0) * xq**e
            poly.append(val)
        while poly and poly[0] == 0:
            poly.pop(0)
        if not poly:
            raise ArithmeticError("curve coefficients all vanish at this point")
        roots = np.roots([float(v) for v in poly])
        y_f = float(y_exact)
        dists = sorted(abs(r - y_f) for r in roots)
        dev = float(dists[0])
        tie = len(dists) > 1 and abs(dists[1] - dists[0]) <= 1e-9 * max(1.0, dists[0])
        if tie:
            ties += 1
        best = min(roots, key=lambda r: abs(r - y_f))
        points.append(NumericPoint(float(xq), y_f, float(best.real), dev, tie))
        maxdev = max(maxdev, dev)
    return NumericBranchReport(c0, g0, points, maxdev, tail, ties)
