"""Exact coefficient arithmetic.

Three nested coefficient rings, all exact:

  * ``Poly``: univariate polynomials in the spin-coupling parameter ``c``
    with rational coefficients, stored as integers over one denominator,
  * ``GSeries``: power series in the triangle coupling ``g``, truncated at a
    fixed order, with ``Poly`` coefficients,
  * ``XLaurent``: Laurent series in the boundary fugacity ``x``, truncated
    above, with ``GSeries`` coefficients.

Every quantity the package computes is a polynomial in ``c``.  The one
rational function of ``c`` in the equations, the 1/(1-c) shift of the
curve's resolvent, is cleared where it arises (see ``curve``), and the
oracle checks its propagator kernel multiplied through by the kernel's
denominator, so no coefficient ever leaves the polynomial ring.

Series products run on plain integer coefficient lists over one common
denominator per operand; almost every polynomial has denominator 1, and
those are never gcd-normalised.

Everything is immutable after construction; all operations are pure.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Union

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


def _content(coeffs: Iterable[int]) -> int:
    g = 0
    for a in coeffs:
        g = gcd(g, a)
        if g == 1:
            return 1
    return g


class Poly:
    """Polynomial in ``c`` over the rationals.

    Coefficients are stored ascending as integers over one shared positive
    denominator, normalised so gcd(content, den) = 1.
    """

    __slots__ = ("coeffs", "den")

    def __init__(self, coeffs: Iterable[int] = (), den: int = 1):
        cs = _trim(list(map(int, coeffs)))
        if den == 1:
            self.coeffs, self.den = tuple(cs), 1
            return
        den = int(den)
        if den == 0:
            raise ZeroDivisionError("polynomial denominator is zero")
        if not cs:
            self.coeffs, self.den = (), 1
            return
        if den < 0:
            cs = [-a for a in cs]
            den = -den
        k = gcd(_content(cs), den)
        if k > 1:
            cs = [a // k for a in cs]
            den //= k
        self.coeffs = tuple(cs)
        self.den = den

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_fractions(fracs: Iterable[Rat]) -> "Poly":
        fracs = [Fraction(f) for f in fracs]
        den = 1
        for f in fracs:
            den = den * f.denominator // gcd(den, f.denominator)
        return Poly([f.numerator * (den // f.denominator) for f in fracs], den)

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


def _int_rows(series) -> tuple:
    """Integer coefficient tuples of g-series over one common denominator.

    Returns (rows, den): rows[i][n] is the numerator tuple of
    series[i][n] * den, or None for a zero series.
    """
    den = 1
    for gs in series:
        for p in gs.coeffs:
            if p.den != 1:
                den = den * p.den // gcd(den, p.den)
    rows = []
    for gs in series:
        if gs.is_zero():
            rows.append(None)
        elif den == 1:
            rows.append([p.coeffs for p in gs.coeffs])
        else:
            rows.append([tuple(a * (den // p.den) for a in p.coeffs) for p in gs.coeffs])
    return rows, den


def _series_addmul(out: list, a: list, b: list) -> None:
    """out += a * b for g-series as integer rows, truncated at len(out) orders."""
    size = len(out)
    for m, am in enumerate(a):
        if am:
            for n in range(size - m):
                bn = b[n]
                if bn:
                    _addmul(out[m + n], am, bn)


class GSeries:
    """Power series in ``g`` truncated at order ``ng`` (inclusive)."""

    __slots__ = ("coeffs", "ng")

    def __init__(self, coeffs, ng: int):
        coeffs = tuple(_as_poly(v) for v in coeffs)
        if len(coeffs) < ng + 1:
            coeffs = coeffs + (P_ZERO,) * (ng + 1 - len(coeffs))
        elif len(coeffs) > ng + 1:
            coeffs = coeffs[: ng + 1]
        self.coeffs = coeffs
        self.ng = ng

    @staticmethod
    def _from_ints(rows: list, den: int, ng: int) -> "GSeries":
        """From ng + 1 integer coefficient lists over the denominator ``den``."""
        s = object.__new__(GSeries)
        s.coeffs = tuple(Poly(r, den) for r in rows)
        s.ng = ng
        return s

    @staticmethod
    def zero(ng: int) -> "GSeries":
        return GSeries((), ng)

    @staticmethod
    def one(ng: int) -> "GSeries":
        return GSeries((P_ONE,), ng)

    @staticmethod
    def g_power(k: int, ng: int) -> "GSeries":
        if k > ng:
            return GSeries.zero(ng)
        return GSeries((P_ZERO,) * k + (P_ONE,), ng)

    @staticmethod
    def constant(v, ng: int) -> "GSeries":
        return GSeries((_as_poly(v),), ng)

    def _check(self, other: "GSeries"):
        if self.ng != other.ng:
            raise ValueError(f"mismatched g truncation orders {self.ng} != {other.ng}")

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.coeffs)

    def __getitem__(self, n: int) -> Poly:
        return self.coeffs[n]

    def __add__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            other = GSeries.constant(other, self.ng)
        if not isinstance(other, GSeries):
            return NotImplemented
        self._check(other)
        return GSeries(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)), self.ng)

    __radd__ = __add__

    def __neg__(self):
        return GSeries(tuple(-a for a in self.coeffs), self.ng)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            other = GSeries.constant(other, self.ng)
        if not isinstance(other, GSeries):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            v = _as_poly(other)
            return GSeries(tuple(a * v for a in self.coeffs), self.ng)
        if not isinstance(other, GSeries):
            return NotImplemented
        self._check(other)
        (a,), da = _int_rows((self,))
        (b,), db = _int_rows((other,))
        if a is None or b is None:
            return GSeries.zero(self.ng)
        out = [[] for _ in range(self.ng + 1)]
        _series_addmul(out, a, b)
        return GSeries._from_ints(out, da * db, self.ng)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        r = GSeries.one(self.ng)
        base = self
        while n:
            if n & 1:
                r = r * base
            base = base * base
            n >>= 1
        return r

    def shift_g(self, k: int) -> "GSeries":
        """Multiply by g**k, truncating."""
        return GSeries((P_ZERO,) * k + self.coeffs, self.ng)

    def retruncate(self, ng: int) -> "GSeries":
        if ng > self.ng:
            raise ValueError("cannot extend a truncated series")
        return GSeries(self.coeffs[: ng + 1], ng)

    def evaluate(self, c0: Rat, g0: Rat) -> Fraction:
        g0 = Fraction(g0)
        acc = Fraction(0)
        for v in reversed(self.coeffs):
            acc = acc * g0 + v.evaluate(c0)
        return acc

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GSeries)
            and self.ng == other.ng
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.coeffs, self.ng))

    def __repr__(self):
        return f"GSeries({self})"

    def __str__(self):
        parts = []
        for n, v in enumerate(self.coeffs):
            if v.is_zero():
                continue
            vs = str(v)
            if n == 0:
                parts.append(vs)
                continue
            gp = "g" if n == 1 else f"g^{n}"
            if vs == "1":
                parts.append(gp)
            else:
                if "+" in vs[1:] or "-" in vs[1:]:
                    vs = f"({vs})"
                parts.append(f"{vs}*{gp}")
        return " + ".join(parts) if parts else "0"

    def to_json(self) -> dict:
        return {str(n): str(v) for n, v in enumerate(self.coeffs) if not v.is_zero()}


# Laurent series in x cannot sink below this exponent; y**5 with y starting
# at x**-2 reaches exactly -10.
X_LOW_FLOOR = -10


class XLaurent:
    """Laurent series in ``x``: exponents from ``low`` to ``nx`` inclusive."""

    __slots__ = ("low", "coeffs", "nx", "ng")

    def __init__(self, low: int, coeffs, nx: int, ng: int):
        coeffs = list(coeffs)
        # trim zero coefficients from the low end, then clamp above
        while coeffs and coeffs[0].is_zero():
            coeffs.pop(0)
            low += 1
        if len(coeffs) > nx - low + 1:
            coeffs = coeffs[: nx - low + 1]
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        if not coeffs:
            low = 0
        if low < X_LOW_FLOOR:
            raise ValueError(f"Laurent series low exponent {low} below {X_LOW_FLOOR}")
        self.low = low
        self.coeffs = tuple(coeffs)
        self.nx = nx
        self.ng = ng

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(nx: int, ng: int) -> "XLaurent":
        return XLaurent(0, (), nx, ng)

    @staticmethod
    def x_power(k: int, nx: int, ng: int) -> "XLaurent":
        return XLaurent(k, (GSeries.one(ng),), nx, ng)

    @staticmethod
    def constant(v, nx: int, ng: int) -> "XLaurent":
        if isinstance(v, GSeries):
            return XLaurent(0, (v,), nx, ng)
        return XLaurent(0, (GSeries.constant(v, ng),), nx, ng)

    @staticmethod
    def from_coeffs(pairs, nx: int, ng: int) -> "XLaurent":
        """Build from (exponent, GSeries) pairs."""
        pairs = sorted(pairs)
        if not pairs:
            return XLaurent.zero(nx, ng)
        low = pairs[0][0]
        coeffs = [GSeries.zero(ng)] * (pairs[-1][0] - low + 1)
        for e, v in pairs:
            coeffs[e - low] = coeffs[e - low] + v
        return XLaurent(low, coeffs, nx, ng)

    # -- queries -----------------------------------------------------------

    def coefficient(self, e: int) -> GSeries:
        if self.low <= e < self.low + len(self.coeffs):
            return self.coeffs[e - self.low]
        return GSeries.zero(self.ng)

    def is_zero(self) -> bool:
        return not self.coeffs

    def items(self):
        for i, v in enumerate(self.coeffs):
            if not v.is_zero():
                yield self.low + i, v

    def _check(self, other: "XLaurent"):
        if self.nx != other.nx or self.ng != other.ng:
            raise ValueError("mismatched Laurent truncations")

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, (int, Fraction, Poly, GSeries)):
            return XLaurent.constant(other, self.nx, self.ng)
        return other

    def __add__(self, other):
        other = self._coerce(other)
        if not isinstance(other, XLaurent):
            return NotImplemented
        self._check(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        low = min(self.low, other.low)
        hi = max(self.low + len(self.coeffs), other.low + len(other.coeffs))
        out = []
        for e in range(low, hi):
            out.append(self.coefficient(e) + other.coefficient(e))
        return XLaurent(low, out, self.nx, self.ng)

    __radd__ = __add__

    def __neg__(self):
        return XLaurent(self.low, tuple(-v for v in self.coeffs), self.nx, self.ng)

    def __sub__(self, other):
        other = self._coerce(other)
        if not isinstance(other, XLaurent):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Poly, GSeries)):
            v = other if isinstance(other, GSeries) else GSeries.constant(other, self.ng)
            return XLaurent(
                self.low, tuple(a * v for a in self.coeffs), self.nx, self.ng
            )
        if not isinstance(other, XLaurent):
            return NotImplemented
        self._check(other)
        if self.is_zero() or other.is_zero():
            return XLaurent.zero(self.nx, self.ng)
        low = self.low + other.low
        size = min(self.nx - low, len(self.coeffs) + len(other.coeffs) - 2) + 1
        if size <= 0:
            return XLaurent.zero(self.nx, self.ng)
        a, da = _int_rows(self.coeffs)
        b, db = _int_rows(other.coeffs)
        out = [[[] for _ in range(self.ng + 1)] for _ in range(size)]
        for i, ai in enumerate(a):
            if ai is not None:
                for j in range(min(len(b), size - i)):
                    if b[j] is not None:
                        _series_addmul(out[i + j], ai, b[j])
        den = da * db
        return XLaurent(low, [GSeries._from_ints(r, den, self.ng) for r in out], self.nx, self.ng)

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

    def shift_x(self, k: int) -> "XLaurent":
        """Multiply by x**k."""
        return XLaurent(self.low + k, self.coeffs, self.nx, self.ng)

    def retruncate(self, nx: int, ng: int) -> "XLaurent":
        if nx > self.nx or ng > self.ng:
            raise ValueError("cannot extend a truncated series")
        return XLaurent(self.low, [g.retruncate(ng) for g in self.coeffs], nx, ng)

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
        for e, v in self.items():
            vs = str(v)
            if " + " in vs or "+" in vs[1:] or "-" in vs[1:]:
                vs = f"({vs})"
            if e == 0:
                parts.append(vs)
            else:
                xp = "x" if e == 1 else f"x^{e}"
                parts.append(xp if vs == "1" else f"{vs}*{xp}")
        return " + ".join(parts) if parts else "0"


def xlaurent_grade_mask(a: XLaurent, cap: int, gweight: int = 1) -> XLaurent:
    """Zero every slot with x-degree + gweight * g-degree above ``cap``.

    Truncated Laurent arithmetic is exact on such a sloped region whenever
    every negative x power carries at least 1/gweight as many powers of g:
    slot grades are then nonnegative and add under multiplication, so
    contributions from beyond the cap can never land inside it.
    """
    out = []
    for e, gs in zip(range(a.low, a.low + len(a.coeffs)), a.coeffs):
        nmax = (cap - e) // gweight if e <= cap else -1
        if nmax >= a.ng:
            out.append(gs)
        elif nmax < 0:
            out.append(GSeries.zero(a.ng))
        else:
            out.append(GSeries(gs.coeffs[: nmax + 1], a.ng))
    return XLaurent(a.low, out, a.nx, a.ng)


def xlaurent_inverse(a: XLaurent, *, grade_cap: int | None = None, gweight: int = 1) -> XLaurent:
    """Series inverse of a Laurent series whose (x^0, g^0) part is a unit.

    The units of the coefficient ring are the nonzero constants.  Requires
    the rest of ``a`` to be topologically nilpotent within the truncation,
    which holds whenever every other monomial carries a positive power of g
    or of x.  With ``grade_cap`` the computation is restricted to the sloped
    region described in :func:`xlaurent_grade_mask`, where it is exact;
    slots beyond the cap come out zero.
    """
    u = a.coefficient(0)[0]
    if u.degree != 0:
        raise ValueError("series inverse needs a unit constant term")

    def cap(v):
        return xlaurent_grade_mask(v, grade_cap, gweight) if grade_cap is not None else v

    a = cap(a)
    one = XLaurent.x_power(0, a.nx, a.ng)
    b = XLaurent.constant(1 / u.coefficient(0), a.nx, a.ng)
    # Newton doubling: b <- b*(2 - a*b)
    for _ in range(64):
        err = cap(one - a * b)
        if err.is_zero():
            return b
        b = cap(b + b * err)
    raise ArithmeticError("series inverse did not converge; input not invertible")


def xlaurent_sqrt(a: XLaurent, *, grade_cap: int | None = None, gweight: int = 1) -> XLaurent:
    """Square root of a Laurent series whose (x^0, g^0) part is 1."""
    u = a.coefficient(0)[0]
    if not u.is_one():
        raise ValueError("series square root needs constant term 1")

    def cap(v):
        return xlaurent_grade_mask(v, grade_cap, gweight) if grade_cap is not None else v

    a = cap(a)
    half = Fraction(1, 2)
    b = XLaurent.x_power(0, a.nx, a.ng)
    for _ in range(64):
        err = cap(a - b * b)
        if err.is_zero():
            return b
        binv = xlaurent_inverse(b, grade_cap=grade_cap, gweight=gweight)
        b = cap(b + (err * binv) * half)
    raise ArithmeticError("series square root did not converge")
