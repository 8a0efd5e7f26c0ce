"""Graded fixed-point solver for the edge-removal generating equation.

The generating function Phi assigns to every boundary word w and triangle
order n an exact coefficient p_w^(n).  Removing the marked boundary edge
either deletes a triangle (word one letter longer, one g lower) or splits
the disk in two (contiguous subwords), so the coefficient at combined grade
|w| + 2n only consults strictly lower grades and the whole table is solved
by induction.  A coefficient is zero unless |w| + n is even (every triangle
contributes three edge ends).

Solved coefficients are polynomials in c with nonnegative integer
coefficients: each one counts spin-decorated triangulations where every
unequal-spin adjacency carries one factor of c.  In symbolic mode they are
stored packed into single big integers, base 2**64 per c-power.  Every
digit of a count is at most its value at c = 1, 3**n times the one-matrix
count of the slot, and a symbolic truncation whose bound (with the margin
the signed recast residual needs) reaches the 2**62 digit guard is refused
before any solve (``check_headroom``).  Within the accepted truncations
packed addition and multiplication never carry between digits and decoding
is exact.

Both coefficient domains store one integer per slot and run one integer
recursion.  The slot (w, n) spends E = (|w| + 3n)/2 propagators, and a split
or a triangle removal uses up exactly one of them, weighted b between equal
letters and a between unequal ones.  At symbolic c, (b, a) = (1, 2**64): the
integer is the packed polynomial.  At a rational c0 = a/b in lowest terms
(b > 0) the integer is b**E * p_w^(n), so the recursion never divides and
pays no gcd.  One table method (``_TableBase._digits``) decodes the raw
encoding; every value that leaves the table as a Poly (a constant at
numeric c) or a series is read through it.  The catalog reads the raw
integers themselves, rescaled to one power of b and packed with a bound on
their digits (``_TableBase._rows``).

A coefficient p_w^(n) = <tr X_w> at g^n is invariant under cyclic rotation
of w (trace), reversal (transposition) and S3 relabelling of the spins, so
both solvers run the recursion once per orbit and g-order.  This is exact
in both domains: a numeric-c raw value b**E * p depends on (w, n) only
through p and E = (|w| + 3n)/2, and both are orbit invariants.
``LazyTable`` keeps one memo dict per slot, whose lookup is its reader: a
miss maps the word to its orbit representative (``freealg.orbit_rep``,
once per miss) and reads that in the same dict; only representatives run
``_rhs``, on the split plan (``_splits``) the slot built at its first
solve, and every other word copies its representative's value.  The
dense solve takes the orbit partition of each word length
(``freealg.word_orbits``), runs on the representatives and stores each
value under every word of the orbit, so its layers are the same plain
dicts as a word-by-word solve.

Both tables keep one contract (``_TableBase``): one region, |w| + n <= S
and n <= ng (an edge removal never raises |w| + n), one grid of readers
built with the table, and the parity and region guards in
``_TableBase._reader``.  One stream of each word's nonzero slots, read
through the readers (``_TableBase._word_slots``), serves ``to_ncseries``,
``to_json`` and the CLI ``solve`` writer, which writes each word as it
reads it.  So a command that reads few words (the export, the oracle
compare, the curve, the moment recurrences) takes either table.

``generating_residual`` checks the symmetry instead of assuming it: every
stored slot must equal its images under three generators of the group (one
rotation, the reversal fused with (12), and (01)), and the fixed point is
then checked once per orbit.  Both residual forms read the table through
one reader per (length, order) (``_TableBase._reader``), fetched once per
layer rather than once per read, and the lazy recursion reads through the
same readers.  The fixed point runs ``_rhs`` on one split plan
(``_splits``) per (length, order), as the lazy solve does; the dense solve
keeps its own split code, so the residual checks it with independent code.
The recast form reads words one letter longer than its slot, so it runs
only below the region's edge |w| + n = S.
The singleton partition (``_singletons``) turns the same solve loop and
the same residual into the unreduced referee, which runs the recursion and
the fixed point on every word.  The tests keep that referee at the benchmark
region (|w| + n <= 10, n <= 6): it must match the orbit solve slot for
slot, and criterion 8, ``test_cyclic_symmetry`` and
``test_lazy_matches_dense`` read tables solved word by word.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from typing import Optional, Union

from .freealg import (
    LETTERS,
    NCSeries,
    Word,
    check_letters,
    check_listing,
    check_order,
    orbit_rep,
    packed_words,
    reflection_least,
    symmetry_breaks,
    word_orbits,
)
from .ring import _B, P_C, P_ZERO, FrozenRecord, PackedRows, Poly, Record, XLaurent, balanced_digits, xlaurent_sqrt

_GUARD = 1 << 62
_RECAST_MARGIN = 4  # the signed recast residual stays within 4x a slot's c = 1 value
_DENSE_SLOTS = 1 << 24  # slots (words times orders) a dense solve may hold: S 14, ng 7 has 8.07M, S 16, ng 8 72.6M


class TruncationError(Exception):
    """A coefficient outside the solved region was requested."""


class ModelSpec(FrozenRecord):
    """What to solve: model kind, coupling ("symbolic", or a rational parsed once into a Fraction) and truncations."""

    kind: str = "potts3"  # "potts3" | "pure-gravity"
    c: Union[str, Fraction, int] = "symbolic"
    ng: int = 4
    ltarget: int = 4

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        if self.kind not in ("potts3", "pure-gravity"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.ng < 0 or self.ltarget < 0:
            raise ValueError("truncation orders must be nonnegative")
        if self.c != "symbolic":
            try:
                c0 = Fraction(self.c)
            except (TypeError, ValueError, ZeroDivisionError):
                raise ValueError(f"coupling {self.c!r} is neither 'symbolic' nor a rational") from None
            # propagator normalisation 1 + c - 2c^2 = (1-c)(1+2c) must not vanish
            if self.kind == "potts3" and 1 + c0 - 2 * c0 * c0 == 0:
                raise ValueError(f"coupling c = {c0} is a pole of the propagator (c in {{1, -1/2}})")
            object.__setattr__(self, "c", c0)

    @property
    def symbolic(self) -> bool:
        return self.c == "symbolic"

    @property
    def nletters(self) -> int:
        return 3 if self.kind == "potts3" else 1

    def const(self, p: Poly) -> Poly:
        """A c-polynomial constant of an exact check, at this coupling.

        ``p`` itself at symbolic c, the constant p(c0) at a rational c0.
        Every check takes its constants here, so they always match the
        coupling its table was solved at.
        """
        return p if self.symbolic else Poly.constant(p.evaluate(self.c))


def _weights(spec: ModelSpec) -> tuple:
    """(b, a): integer weights of an equal- and an unequal-letter propagator.

    A rational c0 = a/b in lowest terms gives (b, a); symbolic c gives
    (1, 2**_B), a shift by one packed c-power digit.
    """
    return (1, 1 << _B) if spec.symbolic else (spec.c.denominator, spec.c.numerator)


def _orbit_partition(nlet: int, S: int) -> list:
    """The canonical orbits of the words of each length up to S.

    Three letters: one entry per rotation/reversal/relabelling orbit
    (``freealg.word_orbits``).  One letter: each word is its own orbit.
    """
    if nlet == 3:
        return [word_orbits(k) for k in range(S + 1)]
    return _singletons(nlet, S)


def _singletons(nlet: int, S: int) -> list:
    """The partition of the words of each length up to S into one-word orbits."""
    return [[(w, (w,)) for w in words] for words in packed_words(nlet, S)]


def _solve_dense(nlet: int, S: int, ng: int, b: int, a: int, orbits: list):
    """Solve every coefficient with |w| + n <= S, n <= ng, |w| + n even.

    ``orbits[k]`` partitions the words of length k into (representative,
    images) pairs.  The recursion runs on representatives only, and a
    nonzero value is stored under every image.  The canonical partition
    (:func:`_orbit_partition`) solves once per orbit; the singleton
    partition (:func:`_singletons`) solves every word and so assumes no
    symmetry.

    Returns layers[(n, k)] = dict(packed word -> raw integer value).
    """
    layers = {}

    for n in range(ng + 1):
        for k in range(S - n + 1):
            if (k + n) & 1:
                continue
            d = {}
            layers[(n, k)] = d
            if k == 0:
                if n == 0:
                    d[0] = 1
                continue
            # split data: position t strips letter j = w[t]; u = w[1:t], v = w[t+1:]
            splits = []
            for t in range(1, k):
                ulen, vlen = t - 1, k - 1 - t
                pairs = []
                for m in range(n + 1):
                    if (ulen + m) & 1:
                        continue
                    du = layers.get((m, ulen))
                    dv = layers.get((n - m, vlen))
                    if du and dv:
                        pairs.append((du.get, dv.get))
                if pairs:
                    splits.append((2 * t, (1 << (2 * (t - 1))) - 1, 2 * (t + 1), pairs))
            dprev = layers.get((n - 1, k + 1)) if n else None
            dprev_get = dprev.get if dprev else None

            for w, images in orbits[k]:
                i0 = w & 3
                eq = ne = 0
                for shift_j, mask_u, shift_v, pairs in splits:
                    u = (w >> 2) & mask_u
                    v = w >> shift_v
                    conv = 0
                    for uget, vget in pairs:
                        pu = uget(u)
                        if pu is not None:
                            pv = vget(v)
                            if pv is not None:
                                conv += pu * pv
                    if conv:
                        if ((w >> shift_j) & 3) == i0:
                            eq += conv
                        else:
                            ne += conv
                if dprev_get is not None:
                    u4 = (w >> 2) << 4
                    for i in range(nlet):
                        val = dprev_get(u4 | i | (i << 2))
                        if val is not None:
                            if i == i0:
                                eq += val
                            else:
                                ne += val
                acc = eq * b + ne * a
                if acc:
                    for x in images:
                        d[x] = acc
    return layers


def _splits(slots: list, k: int, n: int) -> tuple:
    """The split plan of slot (k, n): (u mask, v shift, reader pairs) per split position with a pair.

    Position t strips letter w[t] and splits the rest into u = w[1:t] and
    v = w[t+1:], read at the orders (m, n - m) with |u| + m even, ascending
    in m, so the plan makes the reads of a scan of every position and
    order, in the same order.  ``slots[k][n]`` is the reader
    (``_TableBase._reader``) of the words of length k at g^n.  A plan lives
    as long as its slot, so it is kept in tuples, which hold no spare room.
    """
    plan = []
    for t in range(1, k):
        pairs = tuple((slots[t - 1][m], slots[k - 1 - t][n - m]) for m in range((t - 1) & 1, n + 1, 2))
        if pairs:
            plan.append(((1 << (2 * (t - 1))) - 1, 2 * (t + 1), pairs))
    return tuple(plan)


def _rhs(plan: tuple, tri, nlet: int, b: int, a: int, w: int) -> int:
    """Right-hand side of the edge-removal recursion at a nonempty word, as a raw integer.

    ``plan`` is the slot's split plan (:func:`_splits`) and ``tri`` the
    reader of the triangle removal, ``slots[k + 1][n - 1]`` (None at
    n = 0); both read strictly lower grades.  The empty word has no edge
    to remove: its callers give it the unit, 1 at g^0 and 0 above.
    """
    i0 = w & 3
    w2, w4 = w >> 2, w << 2  # letter t of w is the low letter of w4 >> (v shift)
    eq = ne = 0
    for mask_u, shift_v, pairs in plan:
        u, v = w2 & mask_u, w >> shift_v
        conv = 0
        for read_u, read_v in pairs:
            pu = read_u(u)
            if pu:
                pv = read_v(v)
                if pv:
                    conv += pu * pv
        if conv:
            if (w4 >> shift_v) & 3 == i0:
                eq += conv
            else:
                ne += conv
    if tri is not None:
        u4 = w2 << 4
        for i in range(nlet):
            val = tri(u4 | i | (i << 2))
            if val:
                if i == i0:
                    eq += val
                else:
                    ne += val
    return eq * b + ne * a


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
        """(length, bits, [(n, Poly), ...]) per word with a nonzero slot to g^ng: the one export stream.

        Every word of up to ``lmax`` letters, in the order of its string
        (``_string_order``), is read through ``_reader``, a lazy slot's
        ``once`` storing no alias key.  A listing past 2^20 slots
        (``check_listing``) is refused when the stream is made, before any
        read, and a slot the table does not hold when it is read.
        """
        check_listing(self.spec.nletters, lmax, ng)
        reads = [[getattr(getattr(r, "__self__", None), "once", r) for r in row] for row in self._readers(lmax, ng)]
        poly = self._poly
        slots = (
            (k, bits, [(n, poly(v, (k + 3 * n) // 2)) for n, v in enumerate([read(bits) for read in reads[k]]) if v])
            for k, bits in _string_order(self.spec.nletters, lmax, sort_keys)
        )
        return (s for s in slots if s[2])

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
        """``_word_slots`` as (word, {g-power: coefficient}) strings, made lazily: ``solve`` writes each as read."""
        return (
            (str(Word._raw(k, bits)), {str(n): str(p) for n, p in slots})
            for k, bits, slots in self._word_slots(lmax, ng, sort_keys)
        )

    def to_json(self) -> dict:
        """{word: {g-power: coefficient string}}: the ``listing`` to ``spec.ltarget`` letters, by (len, str)."""
        return dict(self.listing(self.spec.ltarget, self.ng))


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


class SolutionTable(_TableBase):
    """Dense solved table, complete on {|w| + n <= S, n <= ng}."""

    def __init__(self, spec: ModelSpec, S: int, layers: dict):
        self.layers = layers
        super().__init__(spec, S)

    def _slot(self, k: int, n: int):
        return self.layers.get((n, k), {}).get


def check_headroom(spec: ModelSpec, S: int) -> Optional[int]:
    """Bound the packed digits of a symbolic region; refuse it if the bound reaches the guard.

    The region is |w| + n <= S, n <= ng.  Every digit of p_w^(n) is at most
    its value at c = 1, which is nletters**n * pg(|w|, n) with pg the
    one-matrix count (the same recursion on one letter).  The signed recast
    combination stays within _RECAST_MARGIN times that, so a bound below the
    guard makes every packed operation carry-free.  Returns that bound, or
    None at numeric c, whose raw values are plain integers.
    """
    if not spec.symbolic:
        return None
    pg = _solve_dense(1, S, spec.ng, 1, 1, _singletons(1, S))
    bound = _RECAST_MARGIN * max(spec.nletters**n * d.get(0, 0) for (n, _), d in pg.items())
    if bound >= _GUARD:
        raise ValueError(
            f"truncation |w| + n <= {S}, n <= {spec.ng} refused: at symbolic c "
            f"packed digits may reach {bound} (a {bound.bit_length()}-bit bound), "
            f"beyond the 2^62 digit guard"
        )
    return bound


def solve_series(spec: ModelSpec) -> SolutionTable:
    """Solve the generating equation to the spec's truncations.

    Internally solves the region |w| + n <= ltarget + ng, which is exactly
    what the grade induction consumes: each triangle removal trades one
    g-order for one extra letter, so reported words of length ltarget at
    order ng pull on words up to ltarget + ng at order zero and never
    longer.  The recursion runs once per orbit (:func:`_orbit_partition`).
    A symbolic region beyond the packed headroom (:func:`check_headroom`)
    and a region of more than 2^24 slots (words, not orbits) are refused
    before the solve.
    """
    S = spec.ltarget + spec.ng
    check_headroom(spec, S)
    nlet = spec.nletters
    slots = sum(nlet**k for n in range(spec.ng + 1) for k in range(n & 1, S - n + 1, 2))
    if slots > _DENSE_SLOTS:
        raise ValueError(
            f"dense region |w| + n <= {S}, n <= {spec.ng} refused: {slots} slots, beyond the 2^24 slot bound"
        )
    layers = _solve_dense(nlet, S, spec.ng, *_weights(spec), _orbit_partition(nlet, S))
    return SolutionTable(spec, S, layers)


class _Slot(dict):
    """A ``LazyTable``'s memo of one held slot (k, n): packed word -> raw value.

    A miss canonicalises the word once and reads the representative, runs
    ``_rhs`` on it only if that is missing too and stores the value under
    both.  The slot's first solve builds its split plan (``_splits``) and
    fetches its triangle reader, and every later solve reuses both.
    """

    __slots__ = ("table", "k", "n", "plan", "tri")

    def __init__(self, table, k: int, n: int):
        self.table, self.k, self.n, self.plan = table, k, n, None

    def __missing__(self, bits):
        rep = orbit_rep(bits, self.k)
        v = self.get(rep)
        if v is None:
            t = self.table
            if not self.k:  # the empty word: 1 at g^0, 0 above
                v = self[rep] = int(not self.n)
            else:
                if self.plan is None:  # the slot's first solve
                    self.plan = _splits(t._slots, self.k, self.n)
                    self.tri = t._slots[self.k + 1][self.n - 1] if self.n else None
                v = self[rep] = _rhs(self.plan, self.tri, t.nlet, t._b, t._a, rep)
            t.rhs_evaluations += 1
        self[bits] = v
        return v

    def once(self, bits):  # the export stream's read, which stores no alias key
        v = self.get(bits)
        return self[orbit_rep(bits, self.k)] if v is None else v


class _MemoView:
    """A ``LazyTable``'s slot dicts as one memo: ``len`` sums them, ``values`` chains them."""

    def __init__(self, slots: list):
        self._dicts = [read.__self__ for row in slots for read in row if read]

    def __len__(self) -> int:
        return sum(map(len, self._dicts))

    def values(self):
        return chain.from_iterable(d.values() for d in self._dicts)


class LazyTable(_TableBase):
    """Demand-driven solved table: the recursion memoised, run once per orbit (see the module docstring).

    The memo is one ``_Slot`` dict per held slot, whose ``__getitem__`` is
    that slot's reader in the grid ``_slots``, built once with the table;
    ``_memo`` views the dicts as one.  The table holds the one region
    |w| + n <= S, n <= ng, with S its ``max_len``.  The recursion reads the
    grid unguarded and never leaves the region: a held slot's splits and
    its triangle removal read only held slots of even parity.  Values agree
    with the unreduced dense solver wherever both are defined (tested on
    every slot of a dense table).
    """

    def __init__(self, spec: ModelSpec, max_len: int):
        check_headroom(spec, max_len)
        self.nlet = spec.nletters
        self.rhs_evaluations = 0  # slots the recursion solved: one per orbit and g-order read
        super().__init__(spec, max_len)

    @property
    def _memo(self) -> _MemoView:
        return _MemoView(self._slots)

    def _slot(self, k: int, n: int):
        return _Slot(self, k, n).__getitem__


# ---------------------------------------------------------------------------
# generating equation as an operator on NCSeries (reference-scale path)
# ---------------------------------------------------------------------------


def build_rhs_potts(phi: NCSeries) -> NCSeries:
    """One application of the generating-equation right-hand side.

    rhs = 1 + sum_i x_i Phi (sum_j G_ij x_j) Phi
            + g sum_i (sum_j G_ij x_j) Delta_i^2 Phi
    with G_ii = 1 and G_ij = c for unequal spins, transcribed term by term,
    at symbolic c.  Returned to its exact truncation, phi.lmax - 1: at a
    longer word the triangle term would need Phi one letter past phi.lmax.
    Only that term reads Phi's words of phi.lmax letters; the quadratic
    term, the product (x_i Phi)(sum_j G_ij x_j Phi), runs on Phi cut to
    phi.lmax - 1.
    """
    ng, lmax = phi.ng, phi.lmax - 1
    cut = NCSeries(phi.terms, lmax, ng)

    def spread(s: NCSeries, i: int) -> NCSeries:
        # sum_j G_ij x_j s
        out = NCSeries({}, lmax, ng)
        for j in LETTERS:
            piece = s.mul_letter_left(j)
            out = out + (piece if i == j else piece.scale(P_C))
        return out

    rhs = NCSeries.unit(lmax, ng)
    for i in LETTERS:
        dd = phi.left_delta(i).left_delta(i)
        rhs = rhs + cut.mul_letter_left(i) * spread(cut, i) + spread(NCSeries(dd.terms, lmax, ng).shift_g(1), i)
    return rhs


# ---------------------------------------------------------------------------
# residuals of the solved table
# ---------------------------------------------------------------------------


class ResidualReport(Record):
    """Nonzero residual slots of the two generating-equation forms, and symmetry breaks.

    ``fixed_point`` and ``recast`` hold (word, n, value); ``symmetry`` holds
    (word, n, image) for stored slots whose image under a generator of the
    orbit group carries another value.
    """

    fixed_point: list
    recast: list
    symmetry: list
    grade: int

    @property
    def ok(self) -> bool:
        return not self.fixed_point and not self.recast and not self.symmetry


def _failure(table: _TableBase, k: int, w: int, n: int, v: int, e: int) -> tuple:
    """A nonzero raw residual at scale b**e as (word, n, Poly)."""
    return Word._raw(k, w), n, table._poly(v, e)


def _recast_failures(table: _TableBase, slots: list, words, k: int, n: int) -> list:
    """Nonzero slots of the derivative (recast) form over words of length k at g^n.

    The form (1+c) D0 Phi - (1+c-2c^2)(Phi x0 Phi + g D0^2 Phi) - c (D1 Phi + D2 Phi)
    is evaluated with c = a/b and scaled by b**(E+1), E the propagator count of
    D0 Phi: (b+a) d0 - (b^2+ab-2a^2)(quad+dd0) - a (d1+d2) on raw integers.
    The scale is nonzero, so the form vanishes iff its raw value does.
    ``slots`` holds the table's readers (``_TableBase._readers``) of the words
    shorter than k.  The quadratic term visits only the word's letters 0 at
    a position with reader pairs (every position but the odd ones at g^0),
    lowest first, so it reads what a scan of every position reads, in the
    same order.
    """
    b, a = table._b, table._a
    read1, read2 = table._reader(k + 1, n), table._reader(k + 2, n - 1)
    # Phi x0 Phi splits w = u 0 v at each letter t that is 0, u = w[:t] and v = w[t+1:]; the
    # splits with reader pairs of u and v (at the orders m with t + m even) are keyed by the
    # low bit of letter t, and ``zeros`` holds that bit wherever such a letter t is 0
    splits = {}
    for t in range(k):
        pairs = [(slots[t][m], slots[k - 1 - t][n - m]) for m in range(t & 1, n + 1, 2)]
        if pairs:
            splits[1 << (2 * t)] = pairs
    low = sum(splits)
    bad = []
    for w in words:
        # prepending letter j to packed w is j | (w << 2)
        w2 = w << 2
        d0 = read1(w2) or 0
        d12 = (read1(1 | w2) or 0) + (read1(2 | w2) or 0)
        qg = 0
        zeros = low & ~(w | w >> 1)
        while zeros:
            bit = zeros & -zeros  # the lowest zero letter first
            zeros ^= bit
            u, v = w & (bit - 1), w >> (bit.bit_length() + 1)
            for read_u, read_v in splits[bit]:
                pu = read_u(u)
                if pu:
                    pv = read_v(v)
                    if pv:
                        qg += pu * pv
        qg += read2(w2 << 2) or 0
        resid = (b + a) * d0 - (b * b + a * b - 2 * a * a) * qg - a * d12
        if resid:
            bad.append(_failure(table, k, w, n, resid, (k + 3 * n + 3) // 2))
    return bad


def _symmetry_failures(table: SolutionTable, grade: int) -> list:
    """Stored slots of grade <= ``grade`` that differ from an image under a generator.

    The generators are one rotation, the reversal fused with (12), and (01)
    (``freealg.symmetry_breaks``).  Reading stored slots suffices: if an
    orbit mixes stored and missing words, some stored word has a missing
    image under a generator.  Entries are (word, n, image).
    """
    bad = []
    for (n, k), d in table.layers.items():
        if k and k + 2 * n <= grade:
            bad += [(Word._raw(k, w), n, Word._raw(k, x)) for w, x in symmetry_breaks(d, k).items()]
    return bad


def _recast_words(orbits_k, k: int) -> list:
    """The least word of each <reversal, (12)> class inside each orbit of length k.

    Both maps fix the letter 0 that the recast form prepends, and on an
    orbit-symmetric table the form takes one value on each class.  The
    filter is per word, so one ``reflection_least`` pass over the images of
    every orbit in turn keeps them in partition order, reading them in
    slices rather than a flattened copy of the layer.  When every orbit is
    one word (the singleton partition), each is its own class and every
    word is kept.
    """
    if all(len(images) == 1 for _, images in orbits_k):
        return [w for w, _ in orbits_k]
    return reflection_least(chain.from_iterable(images for _, images in orbits_k), k)


def _residual(table: SolutionTable, grade: int, orbits: list) -> ResidualReport:
    """Both generating-equation forms over an orbit partition of the words.

    The fixed point runs at each representative of ``orbits``, zero or not,
    through one split plan (``_splits``) and triangle reader per (k, n).
    The recast form runs at the words of :func:`_recast_words`, or at every
    word once the symmetry check has failed, and only at slots with
    |w| + n < S: it reads words one letter longer.  With the singleton
    partition (:func:`_singletons`) both run slot by slot.
    """
    nlet, b, a, S = table.spec.nletters, table._b, table._a, table.S
    slots = table._readers(min(grade, S) + 1, table.ng)
    symmetry = _symmetry_failures(table, grade) if nlet == 3 else []
    bad_fp = []
    bad_rc = []
    for k in range(min(grade, S) + 1):
        recast_words = None
        for n in range(min((grade - k) // 2, table.ng) + 1):
            if (k + n) & 1 == 0:
                read = slots[k][n]
                plan, tri = _splits(slots, k, n), slots[k + 1][n - 1] if n else None
                for w, _ in orbits[k]:
                    diff = (read(w) or 0) - (_rhs(plan, tri, nlet, b, a, w) if k else int(not n))
                    if diff:
                        bad_fp.append(_failure(table, k, w, n, diff, (k + 3 * n) // 2))
            elif nlet == 3 and k + n < S:
                if recast_words is None:
                    if symmetry:
                        recast_words = [x for _, images in orbits[k] for x in images]
                    else:
                        recast_words = _recast_words(orbits[k], k)
                bad_rc += _recast_failures(table, slots, recast_words, k, n)
    return ResidualReport(bad_fp, bad_rc, symmetry, grade)


def generating_residual(table: SolutionTable, grade: Optional[int] = None) -> ResidualReport:
    """Residuals of the solved table, checked once per orbit.

    Two forms are evaluated: the fixed-point form Phi - rhs(Phi), over slots
    of even |w| + n, and the derivative (recast) form
    (1+c) D0 Phi + (2c^2 - c - 1)(Phi x0 Phi + g D0^2 Phi) - c (D1 Phi + D2 Phi),
    whose content lives at odd |w| + n.  Both must vanish identically, and
    the table must be invariant under rotation, reversal and relabelling.

    The symmetry is checked first: every stored slot must equal its images
    under three generators of the orbit group (``symmetry``).  The
    fixed point is then checked at one representative per orbit, whether
    its value is zero or not.  That suffices: by induction on the grade, a
    symmetric table that satisfies the recursion at its representatives
    equals the solution everywhere.  The recast form, once the symmetry
    holds, is evaluated at one word per class of <reversal, (12)>, at the
    slots with |w| + n < S.  Each form re-reads the finished table instead
    of replaying the dense solve.  The default grade, min(S, 2 ng), is the
    highest at which the table holds every slot of |w| + 2n <= grade.
    """
    if grade is None:
        grade = min(table.S, 2 * table.ng)
    return _residual(table, grade, _orbit_partition(table.spec.nletters, min(grade, table.S)))


def recast_residual_rect(table: _TableBase, kmax: int, ng: int) -> list:
    """Derivative-form residual over all words up to kmax, orders up to ng.

    Works through the generic coefficient interface, so a demand-driven
    table serves it without a dense solve.  Returns the nonzero slots.  The
    form is an identity of the three-letter model only, so a one-letter
    table is refused.
    """
    if table.spec.nletters != 3:
        raise ValueError("the recast form is an identity of the 3-letter model; this table has 1 letter")
    bad = []
    words = packed_words(3, kmax)
    slots = table._readers(kmax, ng)
    for k in range(kmax + 1):
        for n in range(ng + 1):
            if (k + n) & 1:
                bad += _recast_failures(table, slots, words[k], k, n)
    return bad


# ---------------------------------------------------------------------------
# pure gravity: series solve plus closed-form branch comparison
# ---------------------------------------------------------------------------


class PureGravityResult(Record):
    table: SolutionTable
    phi: XLaurent  # series solution as power series in x
    branch: XLaurent  # quadratic branch of the validated equation form
    branch_other: XLaurent  # the rejected branch (singular as x -> 0)
    variant_first_mismatch: Optional[tuple]


def _pure_gravity_branches(g_p1: XLaurent, nx: int, ng: int):
    """Both roots of the quadratic generating equation for the one-matrix model.

    The quadratic is x^2 Phi^2 - (1 - g/x) Phi + (1 - g/x - g p1) = 0; the
    root regular at x = 0 is the disk generating function.  ``g_p1`` is the
    g-series g p1, the only form in which p1 enters.  Internal truncation is
    widened so that every kept slot is exact despite the negative x powers
    (each carries at least one g).
    """
    NX = nx + ng + 2
    one = XLaurent.x_power(0, NX, ng)
    g = XLaurent(0, [(0, 1)], 0, ng)
    x = XLaurent.x_power(1, NX, ng)
    g_over = g * XLaurent.x_power(-1, NX, ng)
    b = one - g_over
    const = one - g_over - g_p1
    disc = b * b - 4 * (x * x) * const
    s = xlaurent_sqrt(disc, grade_cap=NX)

    def _div(num):
        shifted = XLaurent(num.low - 2, num.coeffs, NX - 2, ng)
        return (shifted * Fraction(1, 2)).retruncate(nx, ng)

    return _div(b - s), _div(b + s)


def solve_pure_gravity_variant(ng: int, lx: int) -> dict:
    """Fixed point of the variant equation whose triangle term is
    g (Phi - 1 - p1 x) / x^2 instead of g (Phi - 1 - p1 x) / x.

    Returns {(k, n): Fraction}.  The variant couples (k, n) to (k + 2, n - 1),
    so it is solved by induction on n.  Its low moments disagree with the
    Wick oracle, which is what rules this reading out.
    """
    kmax = lx + 2 * ng
    p: dict = {}
    for n in range(ng + 1):
        for k in range(kmax - 2 * n + 1):
            acc = Fraction(1) if (k == 0 and n == 0) else Fraction(0)
            if n:
                acc += p.get((k + 2, n - 1), Fraction(0))
            for a in range(k - 1):
                for m in range(n + 1):
                    pa = p.get((a, m))
                    if pa:
                        pb = p.get((k - 2 - a, n - m))
                        if pb:
                            acc += pa * pb
            if acc:
                p[(k, n)] = acc
    return p


def solve_pure_gravity(ng: int, lx: int, *, check_variant: bool = True) -> PureGravityResult:
    """Series solution of the one-matrix generating equation plus branch data."""
    spec = ModelSpec(kind="pure-gravity", c="symbolic", ng=ng, ltarget=lx)
    table = solve_series(spec)
    phi = XLaurent(0, [[table.p_coeff(Word([0] * k), n) for n in range(ng + 1)] for k in range(lx + 1)], lx, ng)
    # g p1 reads p1 only to g^(ng - 1), which the table holds at every lx: (|w| = 1, n = ng) lies outside it at lx = 0
    g_p1 = XLaurent(0, [[0] + [table.p_coeff([0], n) for n in range(ng)]], 0, ng)
    lo, hi = _pure_gravity_branches(g_p1, lx, ng)
    first_mismatch = None
    if check_variant:
        variant = solve_pure_gravity_variant(min(ng, 4), min(lx, 6))
        for (k, n) in sorted(variant.keys() | {(1, 1), (2, 2)}, key=lambda t: (t[0] + 2 * t[1], t)):
            if n <= min(ng, 4) and k <= min(lx, 6):
                want, mine = variant.get((k, n), Fraction(0)), phi.coefficient(k)[n].coefficient(0)
                if want != mine:
                    first_mismatch = (k, n, want, mine)
                    break
    return PureGravityResult(table, phi, lo, hi, first_mismatch)
