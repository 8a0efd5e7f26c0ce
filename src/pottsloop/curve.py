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
the anti-diagonal region |word| + n <= M, with M the table's region edge
S.  Slots of yhat (and of ytilde) then satisfy (x-degree + g-order) >= 1,
every monomial of f_k x^(10-2k) has combined degree >= 14 - k, and a short
bookkeeping argument gives that all computed residual slots with x-degree
+ g-order <= M + 16 are exact.
The checker requires M >= nx + ng - 6 so the full reported rectangle is
covered, and ``curve_edge`` builds a table that deep.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Optional, Sequence

from .freealg import Word
from .ring import P_ZERO, FrozenRecord, Poly, Record, XLaurent
from .solver import ModelSpec, TruncationError, _TableBase


class MomentSet(FrozenRecord):
    """The moment constants entering the curve and its recurrences.

    ``spec`` is the model the moments were read at; every check built from
    them takes its c-constants from it (:meth:`ModelSpec.const`).
    """

    p1: XLaurent
    p11: XLaurent
    p12: XLaurent
    p112: XLaurent
    p012: XLaurent
    p1122: XLaurent
    p1120: XLaurent
    p1202: XLaurent
    p1212: XLaurent
    p0121: XLaurent
    spec: ModelSpec = ModelSpec()

    @property
    def ng(self) -> int:
        return self.p1.ng

    def const(self, *coeffs: int) -> XLaurent:
        """The c-polynomial with these ascending coefficients as a g-series constant."""
        return XLaurent.constant(self.spec.const(Poly(coeffs)), 0, self.ng)


MOMENT_LABELS = tuple(f[1:] for f in MomentSet._fields if f != "spec")  # field p<label>: the word <label>


def moment_edge(ng: int) -> int:
    """The lazy-table edge the moments read to g^ng: the longest of ``MOMENT_LABELS`` plus ng."""
    return ng + 4


def curve_edge(nx: int, ng: int) -> int:
    """The lazy-table edge ``check_curve`` reads to x^nx, g^ng: an exact residual and the moments."""
    return max(nx + ng - 6, moment_edge(ng))


def compute_moments(table: _TableBase, ng: Optional[int] = None) -> MomentSet:
    """Read every moment constant off the solved table.

    Insufficient truncation surfaces as TruncationError from the table,
    carrying the required depth.
    """
    return MomentSet(*(table.gseries(label, ng) for label in MOMENT_LABELS), table.spec)


# ---------------------------------------------------------------------------
# moment recurrences
# ---------------------------------------------------------------------------


class RecurrenceReport(Record):
    name: str
    passed: bool
    first_bad_order: Optional[int] = None
    bad_orders: int = 0  # failing g-orders

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = "" if self.passed else f"  first failing g-order {self.first_bad_order}"
        return f"[{status}] {self.name}{extra}"


def check_recurrences(m: MomentSet) -> list:
    """The three exact series identities tying the moment constants together:

        g (1 + c - 2c^2) p11            = (1 - c) p1
        p12 - g (1 + c - 2c^2) p112     = c p11
        c (p1212 + p0121 - p1122 - p1120) = -(1 + c - 2c^2)(p12 - p1^2)
    """
    D = m.const(1, 1, -2)
    cg = m.const(0, 1)
    one_minus_c = m.const(1, -1)

    r1 = (D * m.p11).shift_g(1) - one_minus_c * m.p1
    r2 = m.p12 - (D * m.p112).shift_g(1) - cg * m.p11
    r3 = cg * (m.p1212 + m.p0121 - m.p1122 - m.p1120) + D * (m.p12 - m.p1 * m.p1)

    out = []
    for name, r in (
        ("g D p11 = (1-c) p1", r1),
        ("p12 - g D p112 = c p11", r2),
        ("c (p1212 + p0121 - p1122 - p1120) = -D (p12 - p1^2)", r3),
    ):
        fz = r.first_nonzero()
        out.append(RecurrenceReport(name, fz is None, None if fz is None else fz[1], _bad_slots(r)))
    return out


def _bad_slots(r: XLaurent) -> int:
    """The nonzero slots of a residual series."""
    return sum(not v.is_zero() for _, row in r.items() for v in row)


# ---------------------------------------------------------------------------
# the quintic curve coefficients
# ---------------------------------------------------------------------------


def build_curve(m: MomentSet) -> tuple:
    """Transcription of the six curve coefficients, term by term: (f0, (f1, ..., f5)).

    The coefficients are x-polynomials of degree six, so they are built at
    that fixed truncation.  A moment variant selects the word supplying the
    fourth moment constant; the source is ambiguous between the cyclically
    distinct words 1202 and 1212, so both are accepted and the residual
    check adjudicates.  Only f0 reads that constant, so it comes as a
    function of the variant, ``f0(variant)``, and f1..f5 serve every
    variant.  Every c-constant is taken at the coupling the moments were
    read at, and the g-order is theirs (``m.ng``).
    """
    NX, ng = 6, m.ng

    cp = m.const
    x = XLaurent.x_power(1, NX, ng)
    g = XLaurent(0, [(0, 1)], 0, ng)
    D = cp(1, 1, -2)  # 1 + c - 2c^2, also equal to -(2c^2 - c - 1)
    cm1 = cp(-1, 1)  # c - 1
    c2p1 = cp(1, 2)  # 2c + 1
    p1, p12, p012 = m.p1, m.p12, m.p012

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

    def f0(variant: str) -> XLaurent:
        if variant not in ("1202", "1212"):
            raise ValueError("moment variant must be '1202' or '1212'")
        p4th = m.p1202 if variant == "1202" else m.p1212
        return (
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

    return f0, (f1, f2, f3, f4, f5)


# ---------------------------------------------------------------------------
# shifted resolvent and the residual
# ---------------------------------------------------------------------------


class ShiftedResolvent(FrozenRecord):
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
    one_minus_c: Poly  # the scale: 1 - c, or the constant 1 - c0


def build_shifted_resolvent(table: _TableBase, nx: int, ng: int) -> ShiftedResolvent:
    """ytilde = -(1-c) x^3 phi - (1-c) g + x, phi masked to the table's region.

    Any table serves, dense or demand-driven: the mask keeps the slots
    |word| + g-order <= S, with S the table's region edge (``table.S``).
    The residual is exact on the full reported rectangle only if
    S >= nx + ng - 6 (see module docstring), so a shallower table raises
    TruncationError.
    """
    mask = table.S
    if mask < nx + ng - 6:
        raise TruncationError(
            f"resolvent mask {mask} too shallow for an exact residual at "
            f"x-order {nx}, g-order {ng}; need at least {nx + ng - 6}"
        )
    NX = nx + 10
    one_minus_c = table.spec.const(Poly((1, -1)))
    rows = [(P_ZERO, -one_minus_c), (1,), ()]
    for k in range(NX - 2):  # phi's x^k lands at x^(k+3)
        phi_k = [table.p_coeff(Word([0] * k), n) if k + n <= mask else P_ZERO for n in range(ng + 1)]
        rows.append([-p * one_minus_c for p in phi_k])
    return ShiftedResolvent(XLaurent(0, rows, NX, ng), one_minus_c)


def quintic_residual(shifted: ShiftedResolvent, coeffs: Sequence[XLaurent]) -> XLaurent:
    """(1-c)^5 R with R = sum_k f_k y^k, as a Laurent series.

    Computed as sum_k (1-c)^(5-k) f_k ytilde^k, with polynomial coefficients
    throughout, over the leading f_k that ``coeffs`` holds; the sum is linear
    in the f_k, so the residuals of a split of f0..f5 add up to theirs.  The
    factor (1-c)^5 is nonzero, so the result vanishes exactly where R does
    and R is identically zero on a solved table; :func:`curve_witness`
    divides a reported slot back to R.  Exact on the full reported
    rectangle, which :func:`build_shifted_resolvent` ensures.
    """
    NX, ng = shifted.ytilde.nx, shifted.ytilde.ng
    # every term is a multiple of x^low, the lowest power of an f_k x^(10-2k), so the sum
    # is x^low times a series truncated at x^top, top = NX - low, which reads ytilde no higher
    low = min((f.low + 10 - 2 * k for k, f in enumerate(coeffs) if f.coeffs), default=0)
    top = NX - low
    ytilde = shifted.ytilde.retruncate(top, ng)
    acc = XLaurent.zero(top, ng)
    ypow = XLaurent.x_power(0, top, ng)
    for k, f in enumerate(coeffs):
        if k:
            ypow = ypow * ytilde
        fk = XLaurent(f.low + 10 - 2 * k - low, f.coeffs, top, ng)
        acc = acc + fk * shifted.one_minus_c ** (5 - k) * ypow
    return XLaurent(acc.low + low - 10, acc.coeffs, NX - 10, ng)


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
    fz = scaled.first_nonzero()
    if fz is None:
        return None
    e, n, _ = fz
    return e, n, _divide_back(scaled.coefficient(e)[n], shifted.one_minus_c)


class CurveCheck(Record):
    variant: str
    passed: bool
    first_nonzero: Optional[tuple]
    bad_slots: int = 0  # nonzero residual slots

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = ""
        if self.first_nonzero is not None:
            e, n, v = self.first_nonzero
            extra = f"  first nonzero at x^{e} g^{n}: {v}"
        return f"[{status}] quintic residual, fourth moment from word {self.variant}{extra}"


def check_curve(
    table: _TableBase, nx: int, ng: int, variants: Sequence[str] = ("1202", "1212")
) -> list:
    """Quintic residual for each requested moment-variant mapping.

    The table may be dense or demand-driven; only phi's words 0^k and the
    moment words are read.  Only f0 reads the fourth moment, so f1..f5, the
    powers of ytilde and the sum over k = 1..5 are computed once; each
    variant adds the residual of its own f0.
    """
    if nx < 0 or ng < 0:
        raise ValueError("truncation orders must be nonnegative")
    moments = compute_moments(table, ng)
    shifted = build_shifted_resolvent(table, nx, ng)
    f0, rest = build_curve(moments)
    shared = quintic_residual(shifted, (XLaurent.zero(0, ng),) + rest)
    out = []
    for variant in variants:
        scaled = shared + quintic_residual(shifted, (f0(variant),))
        fz = curve_witness(scaled, shifted)
        out.append(CurveCheck(variant, fz is None, fz, _bad_slots(scaled)))
    return out
