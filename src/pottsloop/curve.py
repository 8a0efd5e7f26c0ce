"""Moment constants, their recurrences, and the quintic spectral curve.

The shifted resolvent y(x) = -x phi(x) - g/x^2 + 1/((1-c) x) satisfies a
degree-five algebraic equation R = sum_k f_k(x) y^k = 0 whose x-polynomial
coefficients f_0..f_5 are transcribed verbatim below, with four moment
constants (series in g) substituted from the solved table.  Verifying that
every Laurent coefficient of the residual vanishes, at symbolic c, is the
headline check of the package.

Polynomial coefficients.  The shift 1/((1-c) x) is the only rational
function of c in the check, so the residual is computed for the scaled
series ytilde = (1-c) yhat, with yhat = x^2 y as below: the sum
(1-c)^5 R = x^-10 sum_k (1-c)^(5-k) (f_k x^(10-2k)) ytilde^k has
polynomial coefficients throughout (constants at numeric c).  The factor
(1-c)^5 is a nonzero constant in x and g, so it moves no slot and leaves
the truncation argument below untouched, and the polynomials in c have no
zero divisors, so a slot of (1-c)^5 R vanishes exactly when the same slot
of R does.  Only the first nonzero slot a report prints is divided back to
R (``curve_witness``).  That division is exact: each f_k carries a factor
(1-c)^k, so R is itself a polynomial in c.

Truncation note.  y starts at x^-2, and with negative exponents present an
upper x-truncation is not stable under multiplication.  The residual is
therefore computed in the rescaled variable yhat = x^2 y as a plain power
series, R = x^-10 sum_k (f_k x^(10-2k)) yhat^k, and phi enters masked to
the anti-diagonal region |word| + n <= M of the solved table.  Slots of
yhat (and of ytilde) then satisfy (x-degree + g-order) >= 1, every
monomial of f_k x^(10-2k) has combined degree >= 14 - k, and a short
bookkeeping argument gives that all computed residual slots with
x-degree + g-order <= M + 16 are exact.
The checker requires M >= nx + ng - 6 so the full reported rectangle is
covered.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Optional, Sequence

from .freealg import Word
from .ring import GSeries, Poly, XLaurent
from .solver import SolutionTable, TruncationError, _TableBase, unpack_poly

MOMENT_LABELS = ("1", "11", "12", "112", "012", "1122", "1120", "1202", "1212", "0121")


@dataclass(frozen=True)
class MomentSet:
    """The moment constants entering the curve and its recurrences."""

    p1: GSeries
    p11: GSeries
    p12: GSeries
    p112: GSeries
    p012: GSeries
    p1122: GSeries
    p1120: GSeries
    p1202: GSeries
    p1212: GSeries
    p0121: GSeries

    @property
    def ng(self) -> int:
        return self.p1.ng

    def retruncate(self, ng: int) -> "MomentSet":
        return MomentSet(*(getattr(self, "p" + lab).retruncate(ng) for lab in MOMENT_LABELS))


def compute_moments(table: _TableBase, ng: Optional[int] = None) -> MomentSet:
    """Read every moment constant off the solved table.

    Insufficient truncation surfaces as TruncationError from the table,
    carrying the required depth.
    """
    ng = table.ng if ng is None else ng
    return MomentSet(*(table.gseries(Word.from_string(lab), ng) for lab in MOMENT_LABELS))


# ---------------------------------------------------------------------------
# moment recurrences
# ---------------------------------------------------------------------------


@dataclass
class RecurrenceReport:
    name: str
    passed: bool
    first_bad_order: Optional[int] = None

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = "" if self.passed else f"  first failing g-order {self.first_bad_order}"
        return f"[{status}] {self.name}{extra}"


def _gseries_first_nonzero(g: GSeries) -> Optional[int]:
    for n, v in enumerate(g.coeffs):
        if not v.is_zero():
            return n
    return None


def check_recurrences(m: MomentSet) -> list:
    """The three exact series identities tying the moment constants together:

        g (1 + c - 2c^2) p11            = (1 - c) p1
        p12 - g (1 + c - 2c^2) p112     = c p11
        c (p1212 + p0121 - p1122 - p1120) = -(1 + c - 2c^2)(p12 - p1^2)
    """
    ng = m.ng
    D = GSeries.constant(Poly((1, 1, -2)), ng)
    cg = GSeries.constant(Poly((0, 1)), ng)
    one_minus_c = GSeries.constant(Poly((1, -1)), ng)

    r1 = (D * m.p11).shift_g(1) - one_minus_c * m.p1
    r2 = m.p12 - (D * m.p112).shift_g(1) - cg * m.p11
    r3 = cg * (m.p1212 + m.p0121 - m.p1122 - m.p1120) + D * (m.p12 - m.p1 * m.p1)

    out = []
    for name, r in (
        ("g D p11 = (1-c) p1", r1),
        ("p12 - g D p112 = c p11", r2),
        ("c (p1212 + p0121 - p1122 - p1120) = -D (p12 - p1^2)", r3),
    ):
        bad = _gseries_first_nonzero(r)
        out.append(RecurrenceReport(name, bad is None, bad))
    return out


def implied_moment_relations(m: MomentSet) -> list:
    """Closed reductions of p1122 and p1120 to p1, p12, p012, verified exactly.

    Derived by combining the lowest x-slots of the catalog with the letter
    relabelings p110 = p122 = p100-rotated = p112 and p10 = p12 (every word
    with letters {0,1} maps to one with {1,2} under the 0<->2 swap), with
    D = 1 + c - 2c^2:

        D^3 g^3 p1122 = (1 + 2c^2) D g p12 + c D^2 g - c (2 + c)(1 - c) p1
        D^3 g^3 p1120 = (1 + c) D^2 g^2 p012 - 2c D g p12 + 2c^2 (1 - c) p1
    """
    ng = m.ng
    D = GSeries.constant(Poly((1, 1, -2)), ng)
    D2, D3 = D * D, D * D * D

    def const(*coeffs):
        return GSeries.constant(Poly(coeffs), ng)

    # c (2 + c)(1 - c) = 2c - c^2 - c^3
    r1 = (
        (D3 * m.p1122).shift_g(3)
        - (const(1, 0, 2) * D * m.p12).shift_g(1)
        - (const(0, 1) * D2).shift_g(1)
        + const(0, 2, -1, -1) * m.p1
    )
    r2 = (
        (D3 * m.p1120).shift_g(3)
        - (const(1, 1) * D2 * m.p012).shift_g(2)
        + (const(0, 2) * D * m.p12).shift_g(1)
        - const(0, 0, 2, -2) * m.p1  # 2c^2 (1 - c)
    )
    out = []
    for name, r in (
        ("D^3 g^3 p1122 = (1+2c^2) D g p12 + c D^2 g - c(2+c)(1-c) p1", r1),
        ("D^3 g^3 p1120 = (1+c) D^2 g^2 p012 - 2c D g p12 + 2c^2 (1-c) p1", r2),
    ):
        bad = _gseries_first_nonzero(r)
        out.append(RecurrenceReport(name, bad is None, bad))
    return out


# ---------------------------------------------------------------------------
# the quintic curve coefficients
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CurveCoefficients:
    """The six x-polynomials of the quintic, lowest first (f0..f5)."""

    fs: tuple
    ng: int
    variant: str  # which word fills the fourth moment slot: "1202" or "1212"

    def degrees(self) -> list:
        out = []
        for f in self.fs:
            es = [e for e, _ in f.items()]
            out.append((min(es), max(es)) if es else (None, None))
        return out


def build_curve(m: MomentSet, ng: int, variant: str = "1202", c="symbolic") -> CurveCoefficients:
    """Transcription of the six curve coefficients, term by term.

    The coefficients are x-polynomials of degree six, so they are built at
    that fixed truncation.  ``variant`` selects the word supplying the
    fourth moment constant; the source is ambiguous between the cyclically
    distinct words 1202 and 1212, so both are accepted and the residual
    check adjudicates.  Numeric ``c`` evaluates every constant at that
    coupling (to pair with a numerically solved table).
    """
    if variant not in ("1202", "1212"):
        raise ValueError("moment variant must be '1202' or '1212'")
    NX = 6
    m = m.retruncate(ng)
    symbolic = isinstance(c, str) and c == "symbolic"
    c0 = None if symbolic else Fraction(c)

    def cp(*coeffs) -> XLaurent:
        p = Poly(coeffs)
        return XLaurent.constant(p if symbolic else p.evaluate(c0), NX, ng)

    def series(gs: GSeries) -> XLaurent:
        return XLaurent.constant(gs, NX, ng)

    x = XLaurent.x_power(1, NX, ng)
    g = XLaurent.constant(GSeries.g_power(1, ng), NX, ng)
    D = cp(1, 1, -2)  # 1 + c - 2c^2, also equal to -(2c^2 - c - 1)
    cm1 = cp(-1, 1)  # c - 1
    c2p1 = cp(1, 2)  # 2c + 1
    p1 = series(m.p1)
    p12 = series(m.p12)
    p012 = series(m.p012)
    p4th = series(m.p1202 if variant == "1202" else m.p1212)

    f5 = cp(-4) * cm1**8 * g**3 * (cp(0, 2) * x + x) ** 6

    f4 = (
        cp(-1) * cm1**6 * g**2 * (x + cp(0, 2) * x) ** 4
        * (
            cp(4) * D**2 * g**2
            + cp(4) * cm1 * c2p1 * cp(1, 5) * g * x
            - cp(0, 18, 19) * x**2  # c (18 + 19 c)
        )
    )

    f3 = (
        cp(2) * cm1**4 * c2p1**2 * g * x**3
        * (
            cp(2) * D**4 * g**3 * p1 * x**3
            + cp(0, 6) * D**3 * g**3
            + x**3 * (cm1**3 * c2p1**3 * cp(2, 3) * g**2 - cp(0, 0, 13, 31, 12))
            + cm1 * c2p1 * g * x**2 * (cp(0, 9, 48, 51) - cp(2) * D**3 * g**2)
            + cp(0, 3, -9) * D**2 * g**2 * x  # -3c (3c - 1) D^2 g^2 x
        )
    )

    f2 = (
        cp(0, -1) * D**2 * x**2
        * (
            cp(2) * cm1**4 * c2p1**2 * g**3 * x**4
            * (cp(4) * cm1 * c2p1 * g * p12 + cp(13, 12) * p1)
            + cp(2) * x**4 * (cm1**3 * c2p1 * cp(9, 20, 8) * g**2 - cp(0, 0, 6))
            - cm1**2 * g**2 * x**2 * (cp(0, 15, 114, 159) - cp(10) * D**3 * g**2)
            + cp(13) * cm1**4 * cp(0, 1) * c2p1**2 * g**4
            - cp(4) * cm1**3 * cp(0, 1) * c2p1 * cp(7, 8) * g**3 * x
            + cp(2) * cm1 * g * x**3
            * (cp(2) * cp(2, 1) * cm1**3 * (c2p1 * g) ** 2 + cp(0, 13, 52, 43))
        )
    )

    f1 = (
        cp(0, -2) * cm1 * c2p1**2 * x
        * (
            cm1**3 * c2p1 * g**2 * x**5
            * (
                cp(0, 2) * cm1 * g
                * (cp(2) * D * g * p012 - cp(9, 12) * p12)
                + p1 * (cm1**3 * (c2p1 * g) ** 2 - cp(0, 27, 9))
            )
            + cp(3) * cm1**4 * cp(0, 0, 1) * c2p1 * g**4
            - cp(3) * cm1**3 * cp(0, 0, 1) * cp(4, 7) * g**3 * x
            + x**4
            * (
                cp(0, 0, 6) * c2p1 * cm1**3 * g**2
                - cp(0, 0, 6, 6)
                + c2p1**3 * cm1**6 * g**4
            )
            + cp(0, 3) * cm1 * g * x**3 * (c2p1 * cp(3, 5) * cm1**3 * g**2 + cp(0, 5, 13))
            - cp(0, 2) * cm1**2 * g**2 * x**2 * (cp(2) * cm1**3 * (c2p1 * g) ** 2 - cp(0, 3))
            + cm1**2 * g * x**5 * (cp(1, 1) * cm1**3 * (c2p1 * g) ** 2 + cp(0, -13, -18, 7))
        )
    )

    f0 = (
        cp(0, 0, -1)
        * (
            cm1**2 * g * x**6
            * (
                cp(4) * cm1 * c2p1 * g
                * (
                    (D**3 * g**2 + cp(0, 9, 31, 18)) * p12
                    + cm1 * cp(0, 1) * c2p1 * g
                    * (cp(2) * cm1 * c2p1 * g * p4th + cp(5, 8) * p012)
                )
                + cp(3) * D**4 * g**3 * p1 * p1
                + cp(2) * p1 * (cp(2, 3) * D**3 * g**2 + cp(0, 18, 72, 80, -8))
            )
            + c2p1**2
            * (
                cm1**4 * cp(0, 0, 1) * g**4
                - cp(0, 0, 6) * cm1**3 * g**3 * x
                + x**4 * (cp(0, 0, -12) + c2p1**2 * cm1**6 * g**4 - cp(0, 6) * c2p1 * cm1**3 * g**2)
                - cm1**2 * x**6 * (cm1**2 * cp(3, 8, 1) * g**2 + cp(0, 12))
                - cp(2) * cm1**2 * c2p1 * g * x**5 * (c2p1 * cm1**3 * g**2 + cp(0, 2))
                + cp(0, 4) * cm1 * g * x**3 * (cp(2) * c2p1 * cm1**3 * g**2 + cp(0, 1))
                - cp(0, 1) * cm1**2 * g**2 * x**2 * (cp(2) * cm1**3 * c2p1 * g**2 - cp(0, 9))
            )
        )
    )

    return CurveCoefficients((f0, f1, f2, f3, f4, f5), ng, variant)


# ---------------------------------------------------------------------------
# shifted resolvent and the residual
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShiftedResolvent:
    """ytilde = (1-c) yhat = (1-c) x^2 y as a power series; y starts at x^-2.

    The shift is y = -x phi - g/x^2 + 1/((1-c) x).  The g^0 sector of the
    curve pins the additive constant to the x^-1 slot: with it at x^0, no
    root of the quintic restricted to g = 0 can equal the Gaussian
    resolvent (both independent coefficient ratios fail), while at x^-1
    both match identically.

    Scaling by 1 - c clears the one rational function of c, so every
    coefficient of ``ytilde`` is a polynomial in c (a constant at numeric
    c, where 1 - c0 is nonzero because ``ModelSpec`` rejects c = 1).
    """

    ytilde: XLaurent
    mask: int  # phi slots kept: |word| + g-order <= mask
    one_minus_c: Poly  # the scale: 1 - c, or the constant 1 - c0


def build_shifted_resolvent(
    table: _TableBase,
    nx: int,
    ng: int,
    mask: Optional[int] = None,
    *,
    constant_exponent: int = -1,
) -> ShiftedResolvent:
    """ytilde = -(1-c) x^3 phi - (1-c) g + x, phi masked to the solved region.

    ``constant_exponent`` places the 1/(1-c) term in y; 0 reproduces the
    transcribed form of the shift, which demonstrably cannot satisfy the
    curve (kept for the witness tests).
    """
    if mask is None:
        mask = getattr(table, "S", nx + ng)
    NX = nx + 10
    one_minus_c = Poly((1, -1)) if table.symbolic else Poly.constant(1 - table.c0)
    pairs = [(0, -GSeries.g_power(1, ng) * one_minus_c), (constant_exponent + 2, GSeries.one(ng))]
    for k in range(min(NX - 3, mask) + 1):
        nmax = min(ng, mask - k)
        if nmax < 0:
            continue
        coeffs = [table.p_coeff(Word([0] * k), n) if n <= nmax and (k + n) % 2 == 0 else None for n in range(ng + 1)]
        gs = GSeries([v if v is not None else 0 for v in coeffs], ng)
        if not gs.is_zero():
            pairs.append((k + 3, -gs * one_minus_c))
    return ShiftedResolvent(XLaurent.from_coeffs(pairs, NX, ng), mask, one_minus_c)


def quintic_residual(shifted: ShiftedResolvent, coeffs: CurveCoefficients) -> XLaurent:
    """(1-c)^5 R with R = sum_k f_k y^k, as a Laurent series.

    Computed as sum_k (1-c)^(5-k) f_k ytilde^k, with polynomial coefficients
    throughout.  The factor (1-c)^5 is nonzero, so the result vanishes
    exactly where R does and R is identically zero on a solved table;
    :func:`curve_witness` divides a reported slot back to R.

    Exact on the full reported rectangle provided the resolvent mask
    satisfies mask >= nx + ng - 6 (see module docstring).
    """
    ng = coeffs.ng
    nx = shifted.ytilde.nx - 10
    if shifted.mask < nx + ng - 6:
        raise TruncationError(
            f"resolvent mask {shifted.mask} too shallow for an exact residual at "
            f"x-order {nx}, g-order {ng}; need at least {nx + ng - 6}"
        )
    NX = nx + 10
    ytilde = shifted.ytilde
    if ytilde.nx != NX:
        raise ValueError("shifted resolvent truncation does not match the curve's")
    acc = XLaurent.zero(NX, ng)
    ypow = XLaurent.x_power(0, NX, ng)
    for k in range(6):
        fk = XLaurent(coeffs.fs[k].low + 10 - 2 * k, coeffs.fs[k].coeffs, NX, ng)
        acc = acc + fk * shifted.one_minus_c ** (5 - k) * ypow
        if k < 5:
            ypow = ypow * ytilde
    if acc.is_zero():
        return XLaurent.zero(nx, ng)
    return XLaurent(acc.low - 10, acc.coeffs, nx, ng)


def _divide_back(v: Poly, one_minus_c: Poly) -> str:
    """v / (1-c)^5 as a string; at symbolic c by synthetic division."""
    if one_minus_c.degree == 0:
        return str(v.scale(1 / one_minus_c.coefficient(0) ** 5))
    q = list(v.coeffs)
    for _ in range(5):
        # q = (1-c) r  <=>  r_i = q_0 + ... + q_i, exact iff q(1) = 0
        q = list(accumulate(q))
        if q.pop():
            return f"({v})/(1-c)^5"
    return str(Poly(q, v.den))


def curve_witness(scaled: XLaurent, shifted: ShiftedResolvent) -> Optional[tuple]:
    """First nonzero slot of R as (x power, g power, value of R), or None.

    ``scaled`` is the (1-c)^5 R that :func:`quintic_residual` returns for
    ``shifted``; only the reported slot is divided back.
    """
    from .loopcat import first_nonzero

    fz = first_nonzero(scaled)
    if fz is None:
        return None
    e, n, _ = fz
    return e, n, _divide_back(scaled.coefficient(e)[n], shifted.one_minus_c)


@dataclass
class CurveCheck:
    variant: str
    passed: bool
    first_nonzero: Optional[tuple]

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = ""
        if self.first_nonzero is not None:
            e, n, v = self.first_nonzero
            extra = f"  first nonzero at x^{e} g^{n}: {v}"
        return f"[{status}] quintic residual, fourth moment from word {self.variant}{extra}"


def check_curve(
    table: SolutionTable, nx: int, ng: int, variants: Sequence[str] = ("1202", "1212")
) -> list:
    """Quintic residual for each requested moment-variant mapping."""
    moments = compute_moments(table, ng)
    shifted = build_shifted_resolvent(table, nx, ng)
    out = []
    for variant in variants:
        coeffs = build_curve(moments, ng, variant, c=table.spec.c)
        fz = curve_witness(quintic_residual(shifted, coeffs), shifted)
        out.append(CurveCheck(variant, fz is None, fz))
    return out


# ---------------------------------------------------------------------------
# numeric branch check
# ---------------------------------------------------------------------------


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
                v = table.value_packed(0, k, n)
                if table.symbolic:
                    pv = unpack_poly(v).evaluate(c0) if v else Fraction(0)
                else:
                    pv = v
                if pv:
                    term += pv * gp
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
    variant: str = "1202",
    tie_rtol: float = 1e-9,
) -> NumericBranchReport:
    """Solve the quintic numerically on a grid and track the series branch.

    The truncated series for y is evaluated exactly at rational points and
    floated only at the comparison; the nearest quintic root must agree and
    the deviation must shrink as truncation orders grow.  Two roots closer
    together than the tie tolerance are reported as an ambiguity.
    """
    import numpy as np

    c0 = Fraction(c0)
    g0 = Fraction(g0)
    if not table.symbolic and table.c0 != c0:
        raise ValueError("numeric table was solved at a different coupling")
    ng = table.ng if ng is None else ng
    moments = compute_moments(table, ng)
    coeffs = build_curve(moments, ng, variant, c=table.spec.c)
    fs_eval = []
    for f in coeffs.fs:
        fs_eval.append([(e, gs) for e, gs in f.items()])

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
            for e, gs in fs_eval[k]:
                val += gs.evaluate(c0, g0) * xq**e
            poly.append(val)
        while poly and poly[0] == 0:
            poly.pop(0)
        if not poly:
            raise ArithmeticError("curve coefficients all vanish at this point")
        roots = np.roots([float(v) for v in poly])
        y_f = float(y_exact)
        dists = sorted(abs(r - y_f) for r in roots)
        dev = float(dists[0])
        tie = len(dists) > 1 and abs(dists[1] - dists[0]) <= tie_rtol * max(1.0, dists[0])
        if tie:
            ties += 1
        best = min(roots, key=lambda r: abs(r - y_f))
        points.append(NumericPoint(float(xq), y_f, float(best.real), dev, tie))
        maxdev = max(maxdev, dev)
    return NumericBranchReport(c0, g0, points, maxdev, tail, ties)
