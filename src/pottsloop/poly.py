"""Polynomials in ``c`` and the integer kernels of the series products.

``Poly`` is a univariate polynomial in the spin-coupling parameter ``c``
with rational coefficients, stored as integers over one denominator.

Series products run on plain integer coefficient lists over one common
denominator per operand; almost every polynomial has denominator 1, and
those are never gcd-normalised.  A product accumulates all its terms into
integer rows (``_series_addmul``) and builds each output coefficient once,
at the end; ``XLaurent`` products (``series``) and the ``NCSeries``
concatenation product of ``freealg`` share these kernels.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import attrgetter, index
from typing import Iterable, Union

Rat = Union[int, Fraction]


def _trim(coeffs: list) -> list:
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


class Poly:
    """Polynomial in ``c`` over the rationals.

    Coefficients are stored ascending as integers over one shared positive
    denominator, normalised so gcd(content, den) = 1.
    """

    __slots__ = ("coeffs", "den")

    def __init__(self, coeffs: Iterable[int] = (), den: int = 1):
        cs = _trim(list(map(index, coeffs)))  # a Fraction or float coefficient raises TypeError
        if den == 1:
            self.coeffs, self.den = tuple(cs), 1
            return
        den = index(den)  # a fractional denominator raises TypeError too
        if den == 0:
            raise ZeroDivisionError("polynomial denominator is zero")
        if not cs:
            self.coeffs, self.den = (), 1
            return
        if den < 0:
            cs = [-a for a in cs]
            den = -den
        k = gcd(den, *cs)
        if k > 1:
            cs = [a // k for a in cs]
            den //= k
        self.coeffs = tuple(cs)
        self.den = den

    # -- constructors -------------------------------------------------

    @staticmethod
    def constant(v: Rat) -> "Poly":
        v = Fraction(v)
        return Poly((v.numerator,), v.denominator)

    # -- queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return self.coeffs == (1,) and self.den == 1

    @property
    def degree(self) -> int:
        """Degree, with degree(0) = -1."""
        return len(self.coeffs) - 1

    def coefficient(self, e: int) -> Fraction:
        if 0 <= e < len(self.coeffs):
            return Fraction(self.coeffs[e], self.den)
        return Fraction(0)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        da, db = self.den, other.den
        if da != db:
            a = [x * db for x in a]
            b = [x * da for x in b]
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, x in enumerate(b):
            out[i] += x
        return Poly(out, da if da == db else da * db)

    def __neg__(self) -> "Poly":
        p = object.__new__(Poly)
        p.coeffs = tuple(-a for a in self.coeffs)
        p.den = self.den
        return p

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return P_ZERO
        out = []
        _addmul(out, a, b)
        return Poly(out, self.den * other.den)

    def __pow__(self, n: int) -> "Poly":
        return _power(self, n, P_ONE)

    def scale(self, v: Rat) -> "Poly":
        v = Fraction(v)
        return Poly([a * v.numerator for a in self.coeffs], self.den * v.denominator)

    def evaluate(self, c0: Rat) -> Fraction:
        c0 = Fraction(c0)
        acc = Fraction(0)
        for a in reversed(self.coeffs):
            acc = acc * c0 + a
        return acc / self.den

    # -- structure -----------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.coeffs == other.coeffs
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.coeffs, self.den))

    def __repr__(self):
        return f"Poly({self})"

    def __str__(self):
        parts = []
        for e, a in enumerate(self.coeffs):
            if a:
                mag = str(abs(a)) if self.den == 1 else str(Fraction(abs(a), self.den))
                if e:
                    var = "c" if e == 1 else f"c^{e}"
                    mag = var if mag == "1" else f"{mag}*{var}"
                parts.append(("-" if a < 0 else "+" if parts else "") + mag)
        return "".join(parts) or "0"


P_ZERO = Poly()
P_ONE = Poly((1,))
P_C = Poly((0, 1))
_COEFFS = attrgetter("coeffs")


def _power(base, n: int, r):
    """base**n by repeated squaring, from the unit r of base's type; n must be nonnegative."""
    if n < 0:
        raise ValueError(f"negative power {n} of a polynomial or series")
    while n:
        if n & 1:
            r = r * base
        base = base * base
        n >>= 1
    return r


def _as_poly(v) -> Poly:
    if isinstance(v, Poly):
        return v
    if isinstance(v, (int, Fraction)):
        return Poly.constant(v)
    raise TypeError(f"cannot coerce {type(v).__name__} to Poly")


# ---------------------------------------------------------------------------
# integer kernels of the series products
# ---------------------------------------------------------------------------


def _addmul(acc: list, a: tuple, b: tuple) -> None:
    """acc += a * b on ascending integer coefficient lists (acc grows as needed)."""
    lb = len(b)
    need = len(a) + lb - 1
    if len(acc) < need:
        acc.extend([0] * (need - len(acc)))
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b, i):
                acc[j] += ai * bj


def _int_rows(rows) -> tuple:
    """Integer coefficient tuples of g-rows over one common denominator.

    Returns (out, den): out[i][n] is the numerator tuple of rows[i][n] * den,
    or out[i] is None for a zero row.
    """
    den = 1
    for row in rows:
        for p in row:
            if p.den != 1:
                den = den * p.den // gcd(den, p.den)
    out = []
    for row in rows:
        if _is_zero_row(row):
            out.append(None)
        elif den == 1:
            out.append([p.coeffs for p in row])
        else:
            out.append([tuple(a * (den // p.den) for a in p.coeffs) for p in row])
    return out, den


def _series_addmul(out: list, a: list, b: list) -> None:
    """out += a * b for g-series as integer rows, truncated at len(out) orders."""
    size = len(out)
    for m, am in enumerate(a):
        if am:
            for n in range(size - m):
                bn = b[n]
                if bn:
                    _addmul(out[m + n], am, bn)


def _laurent_addmul(out: list, a: list, b: list) -> None:
    """out += a * b for x-series of integer g-rows (None for zero), truncated at len(out) terms."""
    size = len(out)
    for i, ai in enumerate(a):
        if ai is not None:
            for j in range(min(len(b), size - i)):
                if b[j] is not None:
                    _series_addmul(out[i + j], ai, b[j])


def _is_zero_row(row) -> bool:
    return not any(map(_COEFFS, row))


def _row(values, ng: int) -> tuple:
    """A g-row: ng + 1 ``Poly`` from up to ng + 1 coefficients, zero-padded."""
    row = tuple(map(_as_poly, values))[: ng + 1]
    return row + (P_ZERO,) * (ng + 1 - len(row))
