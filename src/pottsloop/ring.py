"""Packed row series (``PackedRows``): one integer per slot of a series in ``x`` and ``g``.

The rest of the coefficient arithmetic lives below this module:
polynomials in ``c`` in ``poly`` and the one series class, ``XLaurent``,
in ``series``.

Every quantity the package computes is a polynomial in ``c``.  The one
rational function of ``c`` in the equations, the 1/(1-c) shift of the
curve's resolvent, is cleared where it arises (see ``curve``), and the
oracle checks its propagator kernel multiplied through by the kernel's
denominator, so no coefficient ever leaves the polynomial ring.

The catalog residuals of ``loopcat`` run on ``PackedRows`` instead of
series: a slot's c-polynomial evaluated at c = 2^width (Kronecker
substitution), which is how a symbolic table already stores its values, so
a product is one integer product per pair of slots.  That is exact while
every balanced digit stays below 2^(width - 1).  Each row series carries a
bound on its digits (``peak``, from values at c = 1), every product and
sum derives its own, and the width is the least multiple of 64 bits that
holds it.  At a rational c a slot is its scaled value, at width 0.

Everything is immutable after construction; all operations are pure.
"""

from __future__ import annotations

from math import lcm

from .poly import Poly  # noqa: F401  (perfbench/worker.py imports it from here)

# ---------------------------------------------------------------------------
# packed row series: one integer per slot
# ---------------------------------------------------------------------------

_B = 64  # bits per packed c-digit: a table's packing, and the step of a wider one
_SIGN_BITS = 1  # a digit packed in w bits stays below 2^(w - _SIGN_BITS) in magnitude


def balanced_digits(v: int, width: int):
    """Balanced base-2^width digits of v, ascending, each in [-2^(width-1), 2^(width-1)); (v,) at width 0."""
    if not width:
        return (v,)
    digits = []
    while v:
        d = v & ((1 << width) - 1)
        if d >> (width - 1):
            d -= 1 << width  # a negative digit: the next one lends 1
        digits.append(d)
        v = (v - d) >> width
    return digits


def _pack(digits, width: int) -> int:
    """The polynomial with these ascending digits at c = 2^width (one digit at width 0)."""
    return sum(d << (width * i) for i, d in enumerate(digits))


def packed_width(bound: int) -> int:
    """The least multiple of 64 bits whose balanced digits hold every magnitude up to ``bound``."""
    return _B * -(-(bound.bit_length() + _SIGN_BITS) // _B)


class PackedRows:
    """rows[e][n] is den times the (x^e, g^n) slot of a series: its value
    at width 0, or its c-polynomial at c = 2^width.  Every slot's digit
    magnitudes sum to at most ``peak``, which stays below 2^(width - 1) so
    that the slot decodes, and all slots' to at most ``mass``."""

    __slots__ = ("rows", "den", "width", "peak", "mass")

    def __init__(self, rows: list, den: int, width: int, peak: int, mass: int):
        self.rows, self.den, self.width, self.peak, self.mass = rows, den, width, peak, mass

    def at(self, width: int) -> list:
        """The rows at c = 2^width, re-packed from their digits if the width differs."""
        if self.width == width:
            return self.rows
        return [[_pack(balanced_digits(v, self.width), width) for v in row] for row in self.rows]


def packed_mul(a: PackedRows, b: PackedRows, nx: int, ng: int) -> PackedRows:
    """The product to x^nx, g^ng: one integer product per pair of slots.

    A product slot sums products of one slot of each factor, so its digit
    magnitudes sum to at most min(peak_a mass_b, mass_a peak_b).
    """
    peak, mass = min(a.peak * b.mass, a.mass * b.peak), a.mass * b.mass
    width = a.width and packed_width(peak)
    out = [[0] * (ng + 1) for _ in range(nx + 1)]
    rb = b.at(width)
    for i, ai in enumerate(a.at(width)):
        for e, bj in enumerate(rb[: nx + 1 - i], i):
            acc = out[e]
            for m, am in enumerate(ai):
                if am:
                    for n, bv in enumerate(bj[: ng + 1 - m], m):
                        if bv:
                            acc[n] += am * bv
    return PackedRows(out, a.den * b.den, width, peak, mass)


def packed_sum(terms, nx: int, ng: int) -> PackedRows:
    """Sum of (``Poly`` p, g power, x power, series) terms to x^nx, g^ng, over the lcm denominator.

    A term scales its series by p, whose coefficient magnitudes sum to
    |p|(1), and by its share of the lcm; the bounds add.
    """
    den = lcm(*(p.den * s.den for p, _, _, s in terms))
    scaled = [(den // (p.den * s.den), p, gp, xp, s) for p, gp, xp, s in terms]
    peak = sum(k * sum(map(abs, p.coeffs)) * s.peak for k, p, _, _, s in scaled)
    mass = sum(k * sum(map(abs, p.coeffs)) * s.mass for k, p, _, _, s in scaled)
    width = terms[0][3].width and packed_width(peak)
    out = [[0] * (ng + 1) for _ in range(nx + 1)]
    for k, p, gp, xp, s in scaled:
        f = k * _pack(p.coeffs, width)
        for e, row in enumerate(s.at(width)[: nx + 1 - xp], xp):
            acc = out[e]
            for n, v in enumerate(row[: ng + 1 - gp], gp):
                if v:
                    acc[n] += f * v
    return PackedRows(out, den, width, peak, mass)
