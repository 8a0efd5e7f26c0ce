"""How a solved table is read: one contract for the dense and the demand-driven table.

In symbolic mode a table stores each coefficient packed into one big
integer, base 2**64 per c-power (``model``).  Every digit of a count is at
most its value at c = 1, and a symbolic truncation whose bound reaches the
2**62 digit guard is refused before any solve (``recursion.check_headroom``),
so packed addition and multiplication never carry between digits and
decoding is exact.  One table method (``_TableBase._digits``) decodes the
raw encoding of either domain; every value that leaves the table as a Poly
(a constant at numeric c) or a series is read through it.  The catalog
reads the raw integers themselves, rescaled to one power of b and packed
with a bound on their digits (``_TableBase._rows``).

Both tables keep one contract (``_TableBase``): one region, |w| + n <= S
and n <= ng (an edge removal never raises |w| + n), one grid of readers
built with the table, and the parity and region guards in
``_TableBase._reader``.  One stream of each word's nonzero slots, read
through the readers (``_TableBase._word_slots``), serves ``to_ncseries``,
the oracle compare and the CLI ``solve`` writer, which writes each word as
it reads it.  So a command that reads few words (the export, the oracle
compare, the curve, the moment recurrences) takes either table.
"""

from __future__ import annotations

from itertools import chain
from typing import Optional

from .freealg import NCSeries
from .model import ModelSpec, TruncationError, _weights
from .poly import P_ZERO, Poly
from .ring import _B, PackedRows, balanced_digits
from .series import XLaurent
from .words import Word, check_letters, check_listing, check_order

_GUARD = 1 << 62

_zero = {}.get  # reads None: the reader of a slot that vanishes by parity


class _TableBase:
    """Coefficient accessors over one reader per held (length, order), ``_reader``.

    Every table holds the region |w| + n <= S, n <= ng (``_holds``), and
    its readers form one grid, ``_slots[k][n]``, built with the table: each
    held slot of even parity gets ``_slot(k, n)``, every other entry is
    None.  A table says only how to read a held slot (``_slot``); the
    guards live in ``_reader`` alone.  ``_digits`` is the one decoder of
    the raw encoding; every value that leaves a table as a Poly
    (``p_coeff`` and the series of ``gseries``, the export stream
    ``_word_slots`` and residual failures) is read through it.
    """

    def __init__(self, spec: ModelSpec, S: int):
        self.spec = spec
        self.S = S
        self.ng = spec.ng
        self.symbolic = spec.symbolic
        self._b, self._a = _weights(spec)
        self._slots = [
            [self._slot(k, n) if not (k + n) & 1 and self._holds(k, n) else None for n in range(spec.ng + 1)]
            for k in range(S + 1)
        ]

    def _holds(self, k: int, n: int) -> bool:
        return n <= self.ng and k + n <= self.S

    def _reader(self, k: int, n: int):
        """The reader of the words of length k at g^n: packed bits -> raw value.

        Fetched once per (length, order) and called once per word; a zero
        slot may read None.  A slot that vanishes by parity reads zero and
        one outside the region is refused, whatever the table.  A negative
        order reads zero too, since the recast form reads (k + 2, n - 1) at
        n = 0; the public readers refuse one first (``check_order``).
        """
        if (k + n) & 1 or n < 0:
            return _zero
        if not self._holds(k, n):

            def refuse(bits):
                raise TruncationError(
                    f"coefficient (|w|={k}, n={n}) outside solved region |w|+n <= {self.S}, n <= {self.ng}"
                )

            return refuse
        return self._slots[k][n]

    def _raw(self, bits: int, k: int, n: int) -> int:
        return self._reader(k, n)(bits) or 0

    def _readers(self, kmax: int, nmax: int) -> list:
        """``_reader(k, n)`` for every k <= kmax and n <= nmax, indexed [k][n]."""
        return [[self._reader(k, n) for n in range(nmax + 1)] for k in range(kmax + 1)]

    def _digits(self, v: int):
        """Integer c-digits, ascending, of a raw value v or a combination of raw values.

        At symbolic c (b = 1) these are the packed base-2**64 digits; a
        signed combination (a residual) borrows from the next digit, and a
        digit of magnitude 2**62 or more means the headroom was violated.
        At c = a/b the one digit is v itself.
        """
        if not self.symbolic:
            return (v,)
        digits = balanced_digits(v, _B)
        if any(abs(d) >= _GUARD for d in digits):
            raise ArithmeticError("packed digit exceeds guard; headroom violated")
        return digits

    def _poly(self, v: int, e: int) -> Poly:
        """The raw value v at scale b**e as a polynomial in c."""
        return Poly(self._digits(v), self._b**e)

    def _rows(self, slots, ng: int) -> PackedRows:
        """Row series of table values as ``ring.PackedRows``; ``slots[e]`` lists the words summed at x^e.

        rows[e][n] is den times the sum at g^n, over den = b**M with M the
        largest scale (|w| + 3n)/2 read: at c = a/b each raw b**E p is
        rescaled to b**M p, at symbolic c (b = 1) the raw values are summed
        as packed.  There each is below 2^60 at c = 1 (``check_headroom``),
        so a sum of fewer than 16 is, mod 2^64 - 1, its value at c = 1, which
        bounds its digits; a slot that reaches the 2^62 digit guard there is
        refused.
        """
        check_letters((w for ws in slots for w in ws), self.spec.nletters)
        b = self._b
        top = (max((w.n for ws in slots for w in ws), default=0) + 3 * ng) // 2
        rows = []
        for ws in slots:
            k = ws[0].n if ws else 0  # the words of one slot share their length
            row = [0] * (ng + 1)
            for n in range(k & 1, ng + 1, 2):  # an odd |w| + n vanishes by parity
                read = self._reader(k, n)
                v = 0
                for w in ws:
                    v += read(w.bits) or 0
                if v:
                    row[n] = v * b ** (top - (k + 3 * n) // 2)
            rows.append(row)
        if not self.symbolic:
            return PackedRows(rows, b**top, 0, 0, 0)
        ones = [v % ((1 << _B) - 1) for row in rows for v in row]
        if max(ones) >= _GUARD:
            raise ArithmeticError(f"slot value {max(ones)} at c = 1 reaches the 2^62 digit guard; headroom violated")
        return PackedRows(rows, 1, _B, max(ones), sum(ones))

    def value_word(self, word: Word, n: int):
        """Coefficient in the raw domain: the packed polynomial (symbolic c) or a Fraction."""
        check_order(n)
        check_letters((word,), self.spec.nletters)
        v = self._raw(word.bits, word.n, n)
        return v if self.symbolic else self._poly(v, (word.n + 3 * n) // 2).coefficient(0)

    def p_coeff(self, word, n: int) -> Poly:
        """Coefficient of g**n for the word, a polynomial in c (a constant at numeric c)."""
        word = _as_word(word)
        check_order(n)
        check_letters((word,), self.spec.nletters)
        return self._poly(self._raw(word.bits, word.n, n), (word.n + 3 * n) // 2)

    def gseries(self, word, ng: Optional[int] = None) -> XLaurent:
        """The full g-series of a word's coefficient (an x-order-0 series): the g-row of ``p_coeff``."""
        ng = self.ng if ng is None else ng
        check_order(ng)
        return XLaurent(0, [[self.p_coeff(word, n) for n in range(ng + 1)]], 0, ng)

    def _word_slots(self, lmax: int, ng: int, sort_keys: bool = False):
        """(length, bits, [(n, Poly), ...]) per word, its nonzero slots to g^ng: the one export stream.

        Every word of up to ``lmax`` letters, in the order of its string
        (``_string_order``), is read through ``_reader``, a lazy slot's
        ``once`` storing no alias key; a word with no nonzero slot comes
        with an empty list.  A listing past 2^20 slots (``check_listing``)
        is refused when the stream is made, before any read, and a slot the
        table does not hold when it is read.
        """
        check_listing(self.spec.nletters, lmax, ng)
        reads = [[getattr(getattr(r, "__self__", None), "once", r) for r in row] for row in self._readers(lmax, ng)]
        poly = self._poly
        return (
            (k, bits, [(n, poly(v, (k + 3 * n) // 2)) for n, v in enumerate([read(bits) for read in reads[k]]) if v])
            for k, bits in _string_order(self.spec.nletters, lmax, sort_keys)
        )

    def to_ncseries(self, lmax: int, ng: int) -> NCSeries:
        """The series of every word of up to ``lmax`` letters to g^ng, read from ``_word_slots``."""
        terms = {}
        for k, bits, slots in self._word_slots(lmax, ng):
            row = [P_ZERO] * (ng + 1)
            for n, p in slots:
                row[n] = p
            terms[Word._raw(k, bits)] = XLaurent(0, [row], 0, ng)
        return NCSeries(terms, lmax, ng)

    def listing(self, lmax: int, ng: int, sort_keys: bool = False):
        """``_word_slots`` as (word, {g-power: coefficient}) strings, made lazily: ``solve`` writes each as read.

        A word with no nonzero slot is left out.
        """
        return (
            (str(Word._raw(k, bits)), {str(n): str(p) for n, p in slots})
            for k, bits, slots in self._word_slots(lmax, ng, sort_keys)
            if slots
        )


def _lex(nlet: int, lo: int, hi: int, k: int = 0, bits: int = 0):
    """(length, packed word) of each word of lo to hi letters that extends the k-letter ``bits``, a prefix first."""
    if k < hi:
        for a in range(nlet):
            w = bits | a << 2 * k
            if k >= lo - 1:
                yield k + 1, w
            yield from _lex(nlet, lo, hi, k + 1, w)


def _string_order(nlet: int, lmax: int, sort_keys: bool):
    """(length, packed word) of every word of up to lmax letters, in the order of its string.

    With ``sort_keys``, the order ``json.dumps(sort_keys=True)`` gives the
    keys: lexicographic, a prefix first, and "ε" last.  Otherwise that of
    (len(str), str): by length and then lexicographic, with "ε", one
    character long, after the one-letter words.
    """
    if sort_keys:
        return chain(_lex(nlet, 1, lmax), [(0, 0)])
    lengths = sorted(range(lmax + 1), key=lambda k: k or 1.5)
    return chain.from_iterable(_lex(nlet, k, k) if k else [(0, 0)] for k in lengths)


def _as_word(w) -> Word:
    if isinstance(w, Word):
        return w
    if isinstance(w, str):
        return Word.from_string(w)
    return Word(w)
