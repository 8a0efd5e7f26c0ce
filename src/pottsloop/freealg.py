"""Truncated non-commutative series over words in the three boundary letters.

``NCSeries`` maps words to g-series coefficients (``XLaurent`` of x-order
0) and carries the boundary derivative operators that add or strip letters
on either side.  The words themselves (``Word``, ``packed_words`` and the
refusals of a word or order outside the model) live in ``words``, and
their rotation/reversal/relabelling orbits (``orbit_rep``, ``word_orbits``,
``symmetry_breaks``) in ``orbits``.
"""

from __future__ import annotations

from .poly import _int_rows, _series_addmul
from .series import XLaurent
from .words import EMPTY_WORD, Word
from .words import all_words  # noqa: F401  (perfbench/worker.py imports it from here)


class NCSeries:
    """Truncated non-commutative power series: word -> g-series coefficient.

    Words longer than ``lmax`` are dropped; absent words mean zero.
    """

    __slots__ = ("terms", "lmax", "ng")

    def __init__(self, terms: dict, lmax: int, ng: int):
        self.terms = {
            w: v
            for w, v in terms.items()
            if len(w) <= lmax and not v.is_zero()
        }
        self.lmax = lmax
        self.ng = ng

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def unit(lmax: int, ng: int) -> "NCSeries":
        return NCSeries({EMPTY_WORD: XLaurent.constant(1, 0, ng)}, lmax, ng)

    # -- queries ------------------------------------------------------------

    def coefficient(self, word: Word) -> XLaurent:
        return self.terms.get(word, XLaurent.zero(0, self.ng))

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other: "NCSeries"):
        if self.lmax != other.lmax or self.ng != other.ng:
            raise ValueError("mismatched series truncations")

    # -- linear structure ------------------------------------------------------

    def __add__(self, other: "NCSeries") -> "NCSeries":
        self._check(other)
        out = dict(self.terms)
        for w, v in other.terms.items():
            cur = out.get(w)
            out[w] = v if cur is None else cur + v
        return NCSeries(out, self.lmax, self.ng)

    def scale(self, v) -> "NCSeries":
        return NCSeries({w: g * v for w, g in self.terms.items()}, self.lmax, self.ng)

    def shift_g(self, k: int) -> "NCSeries":
        """Multiply every coefficient by g**k, truncating."""
        return NCSeries({w: g.shift_g(k) for w, g in self.terms.items()}, self.lmax, self.ng)

    # -- products and operators -------------------------------------------------

    def __mul__(self, other: "NCSeries") -> "NCSeries":
        """Concatenation (Cauchy) product; words beyond lmax dropped.

        Each operand's coefficients become integer rows over one common
        denominator, each output word accumulates its products in one row
        set, and every output coefficient is built once at the end.
        """
        self._check(other)
        ng = self.ng
        a, da = _int_rows([v.coeffs[0] for v in self.terms.values()])
        b, db = _int_rows([v.coeffs[0] for v in other.terms.values()])
        by_len: dict = {}
        for v, bv in zip(other.terms, b):
            by_len.setdefault(v.n, []).append((v, bv))
        out: dict = {}
        for u, au in zip(self.terms, a):
            for vlen in range(self.lmax - u.n + 1):
                for v, bv in by_len.get(vlen, ()):
                    w = u + v
                    rows = out.get(w)
                    if rows is None:
                        rows = out[w] = [[] for _ in range(ng + 1)]
                    _series_addmul(rows, au, bv)
        den = da * db
        return NCSeries({w: XLaurent._from_ints(0, [rows], den, 0, ng) for w, rows in out.items()}, self.lmax, ng)

    def mul_letter_left(self, a: int) -> "NCSeries":
        """Multiply by the letter ``a`` on the left."""
        out = {}
        for w, v in self.terms.items():
            if len(w) + 1 <= self.lmax:
                out[w.prepend(a)] = v
        return NCSeries(out, self.lmax, self.ng)

    def left_delta(self, a: int) -> "NCSeries":
        """Strip a leading ``a``; words starting otherwise are annihilated."""
        out = {}
        for w, v in self.terms.items():
            if len(w) and w[0] == a:
                out[w.drop_first()] = v
        return NCSeries(out, self.lmax, self.ng)

    # -- structure -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, NCSeries)
            and self.lmax == other.lmax
            and self.ng == other.ng
            and self.terms == other.terms
        )

    def __repr__(self):
        n = len(self.terms)
        return f"NCSeries({n} words, lmax={self.lmax}, ng={self.ng})"
