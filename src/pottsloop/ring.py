"""Exact coefficient arithmetic: polynomials in ``c``, and series in ``x`` and ``g``.

  * ``Poly``: univariate polynomials in the spin-coupling parameter ``c``
    with rational coefficients, stored as integers over one denominator,
  * ``XLaurent``: series in the boundary fugacity ``x`` (Laurent, truncated
    above) and the triangle coupling ``g`` (truncated at a fixed order),
    with ``Poly`` coefficients.  A series in ``g`` alone is an ``XLaurent``
    of x-order 0.

Every quantity the package computes is a polynomial in ``c``.  The one
rational function of ``c`` in the equations, the 1/(1-c) shift of the
curve's resolvent, is cleared where it arises (see ``curve``), and the
oracle checks its propagator kernel multiplied through by the kernel's
denominator, so no coefficient ever leaves the polynomial ring.

Series products run on plain integer coefficient lists over one common
denominator per operand; almost every polynomial has denominator 1, and
those are never gcd-normalised.  A product accumulates all its terms into
integer rows (``_series_addmul``) and builds each output coefficient once,
at the end; ``XLaurent`` products, the ``NCSeries`` concatenation product
of ``freealg`` and the catalog residuals of ``loopcat`` share these
kernels.  The series square root refines the root and its reciprocal
together, so it runs no series inverse of its own.

Everything is immutable after construction; all operations are pure.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import attrgetter, index
from typing import Iterable, Optional, Union

Rat = Union[int, Fraction]


def rat_to_str(q: Fraction) -> str:
    """Render a rational as ``p/q`` (or just ``p`` for integers)."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


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
        if n < 0:
            raise ValueError("negative polynomial power")
        r = P_ONE
        base = self
        while n:
            if n & 1:
                r = r * base
            base = base * base
            n >>= 1
        return r

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
        if not self.coeffs:
            return "0"
        parts = []
        for e in range(len(self.coeffs)):
            q = Fraction(self.coeffs[e], self.den)
            if q == 0:
                continue
            mag = rat_to_str(abs(q))
            if e == 0:
                term = mag
            else:
                var = "c" if e == 1 else f"c^{e}"
                term = var if mag == "1" else f"{mag}*{var}"
            if not parts:
                parts.append(term if q > 0 else "-" + term)
            else:
                parts.append(("+" if q > 0 else "-") + term)
        return "".join(parts)


P_ZERO = Poly()
P_ONE = Poly((1,))
P_C = Poly((0, 1))
_COEFFS = attrgetter("coeffs")


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


# Laurent series in x cannot sink below this exponent; y**5 with y starting
# at x**-2 reaches exactly -10.
X_LOW_FLOOR = -10


class XLaurent:
    """Series in ``x`` and ``g``: x-exponents ``low`` to ``nx``, g-orders 0 to ``ng``.

    ``coeffs[i]`` is the g-row of x^(low + i), a tuple of ng + 1 ``Poly``.
    A series in g alone (a moment, an ``NCSeries`` coefficient) is a series
    of x-order nx = 0.  In ``+``, ``-`` and ``*`` a c-constant, or an
    x-order-0 operand next to an x-series, is widened to the other
    operand's x-order; any other mismatch of ``nx`` or ``ng`` raises
    ValueError.
    """

    __slots__ = ("low", "coeffs", "nx", "ng")

    def __init__(self, low: int, coeffs, nx: int, ng: int):
        """``coeffs`` lists the g-rows of x^low, x^(low+1), ...; each row
        holds up to ng + 1 coefficients (``Poly``, int or Fraction)."""
        self._set(low, [_row(r, ng) for r in coeffs], nx, ng)

    def _set(self, low: int, rows, nx: int, ng: int) -> None:
        # keep rows[i:j]: zero rows trimmed from the low end, rows above x^nx
        # dropped, then zero rows trimmed from the top
        i = 0
        while i < len(rows) and _is_zero_row(rows[i]):
            i += 1
        j = min(len(rows), nx - low + 1)
        while j > i and _is_zero_row(rows[j - 1]):
            j -= 1
        low, rows = (low + i, tuple(rows[i:j])) if j > i else (0, ())
        if low < X_LOW_FLOOR:
            raise ValueError(f"Laurent series low exponent {low} below {X_LOW_FLOOR}")
        self.low = low
        self.coeffs = rows
        self.nx = nx
        self.ng = ng

    # -- constructors ----------------------------------------------------

    @staticmethod
    def _of_rows(low: int, rows, nx: int, ng: int) -> "XLaurent":
        """From g-rows that are already tuples of ng + 1 ``Poly``."""
        s = object.__new__(XLaurent)
        s._set(low, rows, nx, ng)
        return s

    @staticmethod
    def _from_ints(low: int, rows: list, den: int, nx: int, ng: int) -> "XLaurent":
        """From integer g-rows of x^low, x^(low+1), ...: rows[i][n] lists the
        ascending c-coefficients of den times the slot (x^(low+i), g^n)."""
        return XLaurent._of_rows(low, [tuple(Poly(r, den) for r in row) for row in rows], nx, ng)

    @staticmethod
    def zero(nx: int, ng: int) -> "XLaurent":
        return XLaurent(0, (), nx, ng)

    @staticmethod
    def x_power(k: int, nx: int, ng: int) -> "XLaurent":
        return XLaurent(k, ((P_ONE,),), nx, ng)

    @staticmethod
    def constant(v, nx: int, ng: int) -> "XLaurent":
        """A c-constant (int, Fraction or ``Poly``) at x^0 g^0."""
        return XLaurent(0, ((v,),), nx, ng)

    # -- queries -----------------------------------------------------------

    def coefficient(self, e: int) -> "XLaurent":
        """The g-series (x-order 0) multiplying x**e."""
        i = e - self.low
        return XLaurent._of_rows(0, self.coeffs[i : i + 1] if i >= 0 else (), 0, self.ng)

    def __getitem__(self, n: int) -> Poly:
        """The coefficient of x^0 g^n; for a g-series, its g^n coefficient."""
        i = -self.low
        return self.coeffs[i][n] if 0 <= i < len(self.coeffs) else P_ZERO

    def is_zero(self) -> bool:
        return not self.coeffs

    def items(self):
        """(x exponent, g-row) for every nonzero row."""
        for i, row in enumerate(self.coeffs):
            if not _is_zero_row(row):
                yield self.low + i, row

    def first_nonzero(self) -> Optional[tuple]:
        """First nonzero slot as (x power, g power, value string), or None."""
        for e, row in self.items():
            for n, v in enumerate(row):
                if not v.is_zero():
                    return (e, n, str(v))
        return None

    # -- arithmetic ----------------------------------------------------------

    def _widen(self, other):
        """``self`` and ``other`` at one truncation (see the class docstring),
        or None when ``other`` is not a coefficient or a series."""
        if isinstance(other, (int, Fraction, Poly)):
            return self, XLaurent.constant(other, self.nx, self.ng)
        if not isinstance(other, XLaurent):
            return None
        if self.ng != other.ng:
            raise ValueError(f"mismatched g truncation orders {self.ng} != {other.ng}")
        if self.nx == other.nx:
            return self, other
        if other.nx == 0:
            return self, XLaurent._of_rows(other.low, other.coeffs, self.nx, self.ng)
        if self.nx == 0:
            return XLaurent._of_rows(self.low, self.coeffs, other.nx, self.ng), other
        raise ValueError(f"mismatched x truncation orders {self.nx} != {other.nx}")

    def __add__(self, other):
        pair = self._widen(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        if a.is_zero():
            return b
        if b.is_zero():
            return a
        low = min(a.low, b.low)
        out = [(P_ZERO,) * (a.ng + 1)] * (max(a.low + len(a.coeffs), b.low + len(b.coeffs)) - low)
        ia = a.low - low
        out[ia : ia + len(a.coeffs)] = a.coeffs
        for i, rb in enumerate(b.coeffs, b.low - low):
            out[i] = tuple(map(Poly.__add__, out[i], rb)) if ia <= i < ia + len(a.coeffs) else rb
        return XLaurent._of_rows(low, out, a.nx, a.ng)

    __radd__ = __add__

    def __neg__(self):
        return XLaurent._of_rows(self.low, [tuple(-p for p in row) for row in self.coeffs], self.nx, self.ng)

    def __sub__(self, other):
        if not isinstance(other, (int, Fraction, Poly, XLaurent)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Poly)):  # a widened c-constant scales each coefficient
            v = _as_poly(other)
            return XLaurent._of_rows(self.low, [tuple(p * v for p in row) for row in self.coeffs], self.nx, self.ng)
        pair = self._widen(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        nx, ng = a.nx, a.ng
        if a.is_zero() or b.is_zero():
            return XLaurent.zero(nx, ng)
        low = a.low + b.low
        size = min(nx - low, len(a.coeffs) + len(b.coeffs) - 2) + 1
        if size <= 0:
            return XLaurent.zero(nx, ng)
        ra, da = _int_rows(a.coeffs)
        rb, db = _int_rows(b.coeffs)
        out = [[[] for _ in range(ng + 1)] for _ in range(size)]
        _laurent_addmul(out, ra, rb)
        return XLaurent._from_ints(low, out, da * db, nx, ng)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        r = XLaurent.x_power(0, self.nx, self.ng)
        base = self
        while n:
            if n & 1:
                r = r * base
            base = base * base
            n >>= 1
        return r

    def shift_g(self, k: int) -> "XLaurent":
        """Multiply by g**k, truncating."""
        pad = (P_ZERO,) * k
        return XLaurent._of_rows(self.low, [(pad + row)[: self.ng + 1] for row in self.coeffs], self.nx, self.ng)

    def retruncate(self, nx: int, ng: int) -> "XLaurent":
        if nx > self.nx or ng > self.ng:
            raise ValueError("cannot extend a truncated series")
        return XLaurent._of_rows(self.low, [row[: ng + 1] for row in self.coeffs], nx, ng)

    # -- structure -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, XLaurent)
            and self.nx == other.nx
            and self.ng == other.ng
            and self.low == other.low
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.low, self.coeffs, self.nx, self.ng))

    def __repr__(self):
        return f"XLaurent({self})"

    def __str__(self):
        parts = []
        for e, row in self.items():
            gs = " + ".join(_monomial(str(v), "g", n) for n, v in enumerate(row) if not v.is_zero())
            parts.append(_monomial(gs, "x", e))
        return " + ".join(parts) if parts else "0"


def _monomial(vs: str, var: str, e: int) -> str:
    """The coefficient string ``vs`` times var**e, parenthesised when compound."""
    if e == 0:
        return vs
    power = var if e == 1 else f"{var}^{e}"
    if vs == "1":
        return power
    if "+" in vs[1:] or "-" in vs[1:]:
        vs = f"({vs})"
    return f"{vs}*{power}"


def xlaurent_grade_mask(a: XLaurent, cap: int) -> XLaurent:
    """Zero every slot with x-degree + g-degree above ``cap``.

    Truncated Laurent arithmetic is exact on such a sloped region whenever
    every negative x power carries at least as many powers of g: slot
    grades are then nonnegative and add under multiplication, so
    contributions from beyond the cap can never land inside it.
    """
    out = []
    for e, row in enumerate(a.coeffs, a.low):
        keep = min(max(cap - e + 1, 0), a.ng + 1)
        out.append(row[:keep] + (P_ZERO,) * (a.ng + 1 - keep))
    return XLaurent._of_rows(a.low, out, a.nx, a.ng)


def xlaurent_sqrt(a: XLaurent, *, grade_cap: int | None = None) -> XLaurent:
    """Square root of a Laurent series whose (x^0, g^0) part is 1.

    Coupled Newton iteration (Karp & Markstein, ACM TOMS 1997): the root b
    and its reciprocal z are refined together,

        b <- b + (a - b^2) z / 2,    z <- z + z (1 - b z),

    starting from b = z = 1.  If b errs at order p and z at order q in the
    nilpotent part of ``a``, the next b errs at order min(2p, p + q) and the
    next z at min(2q, that), so both orders double each step: at most four
    products a step and no nested inverse.
    With ``grade_cap`` every step is masked to the sloped region of
    :func:`xlaurent_grade_mask`, where it is exact; the loop stops once
    ``a - b^2`` vanishes there.
    """
    u = a[0]
    if not u.is_one():
        raise ValueError("series square root needs constant term 1")

    def cap(v):
        return xlaurent_grade_mask(v, grade_cap) if grade_cap is not None else v

    a = cap(a)
    half = Fraction(1, 2)
    one = XLaurent.x_power(0, a.nx, a.ng)
    b = z = one
    err = cap(a - one)
    for _ in range(64):
        b = cap(b + cap(err * z) * half)
        err = cap(a - b * b)
        if err.is_zero():
            return b
        z = cap(z + z * cap(one - b * z))
    raise ArithmeticError("series square root did not converge")
