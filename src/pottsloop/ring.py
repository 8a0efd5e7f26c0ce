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
at the end; ``XLaurent`` products and the ``NCSeries`` concatenation
product of ``freealg`` share these kernels.  A product by a single slot
v x^e g^j only shifts and scales, and the series square root is one pass
of a slot recurrence, so neither runs a product of whole series.

The catalog residuals of ``loopcat`` run on ``PackedRows`` instead: a
slot's c-polynomial evaluated at c = 2^width (Kronecker substitution),
which is how a symbolic table already stores its values, so a product is
one integer product per pair of slots.  That is exact while every
balanced digit stays below 2^(width - 1).  Each row series carries a
bound on its digits (``peak``, from values at c = 1), every product and
sum derives its own, and the width is the least multiple of 64 bits that
holds it.  At a rational c a slot is its scaled value, at width 0.

Everything is immutable after construction; all operations are pure.
``Record``, the base of the package's input and result types, lives here
too, below every module that defines one.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter, index
from typing import Iterable, Optional, Union

Rat = Union[int, Fraction]


def rat_to_str(q: Fraction) -> str:
    """Render a rational as ``p/q`` (or just ``p`` for integers)."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


_MISSING = object()


class _RecordType(type):
    """A record class's annotated names become its ``__slots__`` and fields, their class values its defaults."""

    def __new__(mcs, name, bases, ns):
        fields = tuple(ns.get("__annotations__", ()))
        defaults = [ns.pop(f, _MISSING) for f in fields]
        ns.update(__slots__=fields, _fields=fields, _values=attrgetter(*fields) if fields else None)
        cls = super().__new__(mcs, name, bases, ns)
        # (slot setter, name, default) per field; a setter writes past a frozen record's __setattr__
        cls._init = tuple(zip([vars(cls)[f].__set__ for f in fields], fields, defaults))
        return cls


class Record(metaclass=_RecordType):
    """Fields by position or keyword, trailing ones defaulted; ``==``, repr and ``replace`` by value."""

    def __init__(self, *args, **kw):
        init = self._init
        for (setter, _, _), value in zip(init, args):
            setter(self, value)
        for setter, name, default in init[len(args) :]:
            value = kw.pop(name, default)
            if value is _MISSING:
                raise TypeError(f"{type(self).__name__} is missing field {name!r}")
            setter(self, value)
        if kw or len(args) > len(init):
            extra = list(args[len(init) :]) + sorted(kw)
            raise TypeError(f"{type(self).__name__} takes the fields {self._fields}; extra or repeated: {extra}")

    def __eq__(self, other):
        return self._values(self) == other._values(other) if type(other) is type(self) else NotImplemented

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self._fields)})"

    def replace(self, **changes):
        """A new record with ``changes`` applied, built (and so validated) by ``__init__``."""
        return type(self)(**{**{n: getattr(self, n) for n in self._fields}, **changes})


class FrozenRecord(Record):
    """A record hashed by value that refuses assignment."""

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")

    __delattr__ = __setattr__


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
                mag = str(abs(a)) if self.den == 1 else rat_to_str(Fraction(abs(a), self.den))
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

    def _single_slot(self) -> Optional[tuple]:
        """(x exponent, g-order, ``Poly``) of a series with one nonzero slot, else None."""
        if len(self.coeffs) != 1:
            return None
        slots = [(n, p) for n, p in enumerate(self.coeffs[0]) if p.coeffs]
        return (self.low, *slots[0]) if len(slots) == 1 else None

    def _shift_scale(self, e: int, j: int, v: Poly) -> "XLaurent":
        """``self`` times v x^e g^j: rows shifted by e, g-rows by j (cut at ng), each coefficient scaled by v."""
        keep = max(self.ng + 1 - j, 0)
        pad = (P_ZERO,) * (self.ng + 1 - keep)
        rows = [pad + (row[:keep] if v.is_one() else tuple(p * v for p in row[:keep])) for row in self.coeffs]
        return XLaurent._of_rows(self.low + e, rows, self.nx, self.ng)

    def __mul__(self, other):
        """Truncated product.  A c-constant, or a factor with a single nonzero
        slot v x^e g^j (x, g, their powers, a widened constant), shifts and
        scales the other factor's rows; any other pair runs the integer
        kernel (``_laurent_addmul``).  Both give the same series."""
        if isinstance(other, (int, Fraction, Poly)):
            return self._shift_scale(0, 0, _as_poly(other))
        pair = self._widen(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        nx, ng = a.nx, a.ng
        if a.is_zero() or b.is_zero():
            return XLaurent.zero(nx, ng)
        for s, t in ((a, b), (b, a)):
            mono = t._single_slot()
            if mono:
                return s._shift_scale(*mono)
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
        return _power(self, n, XLaurent.x_power(0, self.nx, self.ng))

    def shift_g(self, k: int) -> "XLaurent":
        """Multiply by g**k, truncating."""
        return self._shift_scale(0, k, P_ONE)

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


def xlaurent_sqrt(a: XLaurent, *, grade_cap: int) -> XLaurent:
    """Square root of a Laurent series whose (x^0, g^0) part is 1.

    Every slot of ``a`` must have grade x-degree + g-order >= 0, so its g^0
    row starts at x^0; anything else raises ValueError naming the first
    offending slot by g-order, then x-degree.  Grades then add under
    multiplication and never fall below 0, so truncated arithmetic is exact
    on the sloped region of grades up to ``grade_cap``, and the root is
    computed there in one pass.  With a = 1 + alpha and b = 1 + beta, b^2 = a
    reads

        beta_s = (alpha_s - sum beta_s1 beta_s2) / 2

    at each slot s, the sum running over the splits s = s1 + s2 into two
    non-constant slots.  Slots are visited by g-order, then by x-degree: a
    split either lowers both g-orders or pairs a g^0 slot of positive
    x-degree with a lower x-degree at the same order, so the sum reads only
    slots already computed.

    The pass runs on integers.  With alpha = A / d over one denominator and
    h = x-degree + 2 g-order (at least 1 off the constant slot, and additive
    over a split), m_s = (4d)^(h-1) A_s - sum m_s1 m_s2 is an integer
    polynomial and beta_s = m_s / (2 d (4d)^(h-1)).
    """
    if not a[0].is_one():
        raise ValueError("series square root needs constant term 1")
    nx, ng = a.nx, a.ng
    rows, d = _int_rows(a.coeffs)
    m = [{} for _ in range(ng + 1)]  # m[n][e] = -m_s at the slot (x^e, g^n), if nonzero
    for n in range(ng + 1):
        for e in range(min(a.low, -n), min(nx, grade_cap - n) + 1):
            i = e - a.low
            alpha = rows[i][n] if 0 <= i < len(rows) and rows[i] and (e or n) else ()
            if alpha and e + n < 0:
                raise ValueError(f"series square root needs x-degree + g-order >= 0; slot x^{e} g^{n} has {e + n}")
            acc = [-(4 * d) ** (e + 2 * n - 1) * v for v in alpha]
            for n1 in range(n + 1):
                m2 = m[n - n1]
                for e1, v1 in m[n1].items():
                    v2 = m2.get(e - e1)
                    if v2:
                        _addmul(acc, v1, v2)
            if any(acc):
                m[n][e] = _trim(acc)
    rows = [
        tuple(Poly(m[n].get(e, ()), -2 * d * (4 * d) ** max(e + 2 * n - 1, 0)) for n in range(ng + 1))
        for e in range(-ng, nx + 1)
    ]
    return XLaurent._of_rows(-ng, rows, nx, ng) + 1


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
