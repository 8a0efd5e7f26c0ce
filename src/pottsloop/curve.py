"""The quintic spectral curve: its residual on a solved table.

The shifted resolvent y(x) = -x phi(x) - g/x^2 + 1/((1-c) x) satisfies a
degree-five algebraic equation R = sum_k f_k(x) y^k = 0 whose x-polynomial
coefficients f_0..f_5 are transcribed verbatim in ``moments``
(``build_curve``), with four moment constants (series in g) substituted
from the solved table.  Verifying that every Laurent coefficient of the
residual vanishes, at symbolic c, is the headline check of the package.

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

from .model import TruncationError
from .moments import _bad_slots, build_curve, compute_moments, moment_edge
from .moments import check_recurrences  # noqa: F401  (perfbench/worker.py imports it from here)
from .poly import P_ZERO, Poly
from .record import FrozenRecord, Record
from .series import XLaurent
from .tables import _TableBase
from .words import Word


def curve_edge(nx: int, ng: int) -> int:
    """The lazy-table edge ``check_curve`` reads to x^nx, g^ng: an exact residual and the moments."""
    return max(nx + ng - 6, moment_edge(ng))


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
