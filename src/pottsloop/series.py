"""Series in the boundary fugacity ``x`` and the triangle coupling ``g``.

``XLaurent`` is truncated Laurent in ``x`` and a power series in ``g``, with
``Poly`` coefficients; a series in ``g`` alone is an ``XLaurent`` of x-order
0.  Its products run the integer kernels of ``poly``.  A product by a
single slot v x^e g^j only shifts and scales, and the series square root is
one pass of a slot recurrence, so neither runs a product of whole series.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .poly import P_ONE, P_ZERO, Poly, _addmul, _as_poly, _int_rows, _is_zero_row, _laurent_addmul, _power, _row, _trim

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
