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
encoding; every value that leaves the table is read through it, as a Poly
(a constant at numeric c) or as the catalog's integer rows.

A coefficient p_w^(n) = <tr X_w> at g^n is invariant under cyclic rotation
of w (trace), reversal (transposition) and S3 relabelling of the spins, so
both solvers run the recursion once per orbit and g-order.  This is exact
in both domains: a numeric-c raw value b**E * p depends on (w, n) only
through p and E = (|w| + 3n)/2, and both are orbit invariants.
``LazyTable`` maps a memo miss to its orbit representative
(``freealg.orbit_rep``, once per miss) and reads the representative's slot
directly from the memo; only representatives run ``_rhs`` and every other
word copies its representative's value.  The dense solve takes the orbit
partition of each word length (``freealg.word_orbits``), runs on the
representatives and stores each value under every word of the orbit, so
its layers are the same plain dicts as a word-by-word solve.

``generating_residual`` therefore checks the symmetry instead of assuming
it: every stored slot must equal its images under three generators of the
group (one rotation, the reversal fused with (12), and (01)), and the
fixed point is then checked once per orbit.  Both residual forms read the
table through one reader per (length, order) (``_TableBase._reader``),
fetched once per layer rather than once per read, and the lazy recursion
reads through the same readers.  The recast form reads words one letter
longer than its slot, so it runs only below the region's edge |w| + n = S.
The singleton partition (``_singletons``) turns the same solve loop and
the same residual into the unreduced referee, which runs the recursion and
the fixed point on every word.  The tests keep that referee at the benchmark
region (|w| + n <= 10, n <= 6): it must match the orbit solve slot for
slot, and criterion 8, ``test_cyclic_symmetry`` and
``test_lazy_matches_dense`` read tables solved word by word.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .freealg import (
    LETTERS,
    NCSeries,
    Word,
    orbit_rep,
    packed_words,
    reflection_least,
    symmetry_breaks,
    word_orbits,
)
from .ring import P_C, P_ZERO, Poly, XLaurent, xlaurent_sqrt

_B = 64
_DIGIT = (1 << _B) - 1
_GUARD = 1 << 62
_RECAST_MARGIN = 4  # the signed recast residual stays within 4x a slot's c = 1 value


class TruncationError(Exception):
    """A coefficient outside the solved region was requested."""


@dataclass(frozen=True)
class ModelSpec:
    """What to solve: model kind, coupling mode and truncations."""

    kind: str = "potts3"  # "potts3" | "pure-gravity"
    c: Union[str, Fraction, int] = "symbolic"
    ng: int = 4
    ltarget: int = 4

    def __post_init__(self):
        if self.kind not in ("potts3", "pure-gravity"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.ng < 0 or self.ltarget < 0:
            raise ValueError("truncation orders must be nonnegative")
        if self.kind == "potts3" and not self.symbolic:
            c0 = Fraction(self.c)
            # propagator normalisation 1 + c - 2c^2 = (1-c)(1+2c) must not vanish
            if (1 + c0 - 2 * c0 * c0) == 0:
                raise ValueError(f"coupling c = {c0} is a pole of the propagator")

    @property
    def symbolic(self) -> bool:
        return isinstance(self.c, str) and self.c == "symbolic"

    @property
    def nletters(self) -> int:
        return 3 if self.kind == "potts3" else 1

    def const(self, p: Poly) -> Poly:
        """A c-polynomial constant of an exact check, at this coupling.

        ``p`` itself at symbolic c, the constant p(c0) at a rational c0.
        Every check takes its constants here, so they always match the
        coupling its table was solved at.
        """
        return p if self.symbolic else Poly.constant(p.evaluate(Fraction(self.c)))


def _weights(spec: ModelSpec) -> tuple:
    """(b, a): integer weights of an equal- and an unequal-letter propagator.

    A rational c0 = a/b in lowest terms gives (b, a); symbolic c gives
    (1, 2**_B), a shift by one packed c-power digit.
    """
    if spec.symbolic:
        return 1, 1 << _B
    c0 = Fraction(spec.c)
    return c0.denominator, c0.numerator


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


def _rhs(slots: list, nlet: int, b: int, a: int, w: int, k: int, n: int) -> int:
    """Right-hand side of the edge-removal recursion at one slot, as a raw integer.

    ``slots[k][n]`` is the reader (``_TableBase._reader``) of the words of
    length k at g^n; the recursion reads strictly lower grades.
    """
    if k == 0:
        return 1 if n == 0 else 0
    i0 = w & 3
    eq = ne = 0
    for t in range(1, k):
        ulen = t - 1
        u = (w >> 2) & ((1 << (2 * ulen)) - 1)
        v = w >> (2 * (t + 1))
        u_slots, v_slots = slots[ulen], slots[k - 1 - t]
        conv = 0
        for m in range(ulen & 1, n + 1, 2):  # the orders m with ulen + m even
            pu = u_slots[m](u)
            if pu:
                pv = v_slots[n - m](v)
                if pv:
                    conv += pu * pv
        if conv:
            if ((w >> (2 * t)) & 3) == i0:
                eq += conv
            else:
                ne += conv
    if n:
        read = slots[k + 1][n - 1]
        u4 = (w >> 2) << 4
        for i in range(nlet):
            val = read(u4 | i | (i << 2))
            if val:
                if i == i0:
                    eq += val
                else:
                    ne += val
    return eq * b + ne * a


_zero = {}.get  # reads None: the reader of a slot that vanishes by parity


class _TableBase:
    """Coefficient accessors over the raw integer values ``_raw``.

    ``_digits`` is the one decoder of the raw encoding; every value that
    leaves a table (``p_coeff``, ``to_json``, ``to_ncseries``, residual
    failures and the catalog's rows) is read through it.
    """

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        self.ng = spec.ng
        self.symbolic = spec.symbolic
        self._b, self._a = _weights(spec)

    def _raw(self, bits: int, k: int, n: int) -> int:
        raise NotImplementedError

    def _reader(self, k: int, n: int):
        """The reader of the words of length k at g^n: packed bits -> raw value.

        Fetched once per (length, order) and called once per word; a zero
        slot may read None.  This one calls ``_raw``; a table overrides it
        with a cheaper read inside its region and leaves the zeros and the
        refusals outside the region to ``_raw``.
        """
        return lambda bits: self._raw(bits, k, n)

    def _readers(self, kmax: int, nmax: int) -> list:
        """``_reader(k, n)`` for every k <= kmax and n <= nmax, indexed [k][n]."""
        return [[self._reader(k, n) for n in range(nmax + 1)] for k in range(kmax + 1)]

    def _digits(self, v: int, e: int, top: int):
        """Integer c-digits, ascending, of b**top times the raw value v at scale b**e.

        At symbolic c (b = 1) these are the packed base-2**64 digits; a
        signed combination (a residual) borrows from the next digit, and a
        digit of magnitude 2**62 or more means the headroom was violated.
        At c = a/b the one digit is v * b**(top - e).
        """
        if not self.symbolic:
            return (v * self._b ** (top - e),)
        digits = []
        while v:
            d = v & _DIGIT
            if d >= _GUARD:
                d -= 1 << _B  # a negative digit: the next one lends 1
                if d <= -_GUARD:
                    raise ArithmeticError("packed digit exceeds guard; headroom violated")
                v += 1 << _B
            digits.append(d)
            v >>= _B
        return digits

    def _poly(self, v: int, e: int) -> Poly:
        """The raw value v at scale b**e as a polynomial in c."""
        return Poly(self._digits(v, e, e), self._b**e)

    def _rows(self, slots, ng: int) -> tuple:
        """Row series of table values; ``slots[e]`` lists the words summed at x^e.

        Returns (rows, den): rows[e][n] holds the digits of den times the sum
        at g^n, over den = b**M with M the largest scale (|w| + 3n)/2 read.
        """
        digits = self._digits
        top = (max((w.n for ws in slots for w in ws), default=0) + 3 * ng) // 2
        rows = []
        for ws in slots:
            k = ws[0].n if ws else 0  # the words of one slot share their length
            row = []
            for n in range(ng + 1):
                read = self._reader(k, n)
                v = 0
                for w in ws:
                    v += read(w.bits) or 0
                row.append(digits(v, (k + 3 * n) // 2, top) if v else ())
            rows.append(row)
        return rows, self._b**top

    def value_word(self, word: Word, n: int):
        """Coefficient in the raw domain: the packed polynomial (symbolic c) or a Fraction."""
        v = self._raw(word.bits, word.n, n)
        return v if self.symbolic else self._poly(v, (word.n + 3 * n) // 2).coefficient(0)

    def p_coeff(self, word, n: int) -> Poly:
        """Coefficient of g**n for the word, a polynomial in c (a constant at numeric c)."""
        word = _as_word(word)
        return self._poly(self._raw(word.bits, word.n, n), (word.n + 3 * n) // 2)

    def gseries(self, word, ng: Optional[int] = None) -> XLaurent:
        """The full g-series of a word's coefficient (an x-order-0 series)."""
        word = _as_word(word)
        ng = self.ng if ng is None else ng
        return XLaurent(0, [[self.p_coeff(word, n) for n in range(ng + 1)]], 0, ng)


def _as_word(w) -> Word:
    if isinstance(w, Word):
        return w
    if isinstance(w, str):
        return Word.from_string(w)
    return Word(w)


class SolutionTable(_TableBase):
    """Dense solved table, complete on {|w| + n <= S, n <= ng}."""

    def __init__(self, spec: ModelSpec, S: int, layers: dict):
        super().__init__(spec)
        self.S = S
        self.layers = layers

    @property
    def grade_reached(self) -> int:
        return min(self.S, 2 * self.ng)

    def _raw(self, bits: int, k: int, n: int) -> int:
        if (k + n) & 1 or n < 0:
            return 0
        if n > self.ng or k + n > self.S:
            raise TruncationError(
                f"coefficient (|w|={k}, n={n}) outside solved region "
                f"|w|+n <= {self.S}, n <= {self.ng}"
            )
        d = self.layers.get((n, k))
        if not d:
            return 0
        return d.get(bits, 0)

    def _reader(self, k: int, n: int):
        d = self.layers.get((n, k))
        if d is None or n > self.ng or k + n > self.S:
            return super()._reader(k, n)
        return d.get

    def to_ncseries(self, lmax: int, ng: int) -> NCSeries:
        terms = {}
        for (n, k), d in self.layers.items():
            if k > lmax or n > ng:
                continue
            e = (k + 3 * n) // 2
            for bits, v in d.items():
                w = Word._raw(k, bits)
                g = terms.get(w)
                if g is None:
                    g = [P_ZERO] * (ng + 1)
                    terms[w] = g
                g[n] = self._poly(v, e)
        return NCSeries({w: XLaurent(0, [g], 0, ng) for w, g in terms.items()}, lmax, ng)

    def to_json(self) -> dict:
        """{word: {g-power: coefficient string}} for reported words."""
        out = {}
        for (n, k), d in sorted(self.layers.items()):
            if k > self.spec.ltarget:
                continue
            for bits, v in d.items():
                out.setdefault(str(Word._raw(k, bits)), {})[str(n)] = str(self._poly(v, (k + 3 * n) // 2))
        return {w: dict(sorted(g.items(), key=lambda kv: int(kv[0]))) for w, g in sorted(out.items(), key=lambda kv: (len(kv[0]), kv[0]))}


def check_headroom(spec: ModelSpec, kmax: int, S: int) -> Optional[int]:
    """Bound the packed digits of a symbolic region; refuse it if the bound reaches the guard.

    The region is |w| <= kmax, |w| + n <= S, n <= ng.  Every digit of
    p_w^(n) is at most its value at c = 1, which is nletters**n * pg(|w|, n)
    with pg the one-matrix count (the same recursion on one letter).  The
    signed recast combination stays within _RECAST_MARGIN times that, so a
    bound below the guard makes every packed operation carry-free.  Returns
    that bound, or None at numeric c, whose raw values are plain integers.
    """
    if not spec.symbolic:
        return None
    pg = _solve_dense(1, S, spec.ng, 1, 1, _singletons(1, S))
    bound = _RECAST_MARGIN * max(spec.nletters**n * d.get(0, 0) for (n, k), d in pg.items() if k <= kmax)
    if bound >= _GUARD:
        raise ValueError(
            f"truncation |w| <= {kmax}, |w| + n <= {S}, n <= {spec.ng} refused at symbolic c: "
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
    A symbolic region beyond the packed headroom is refused
    (:func:`check_headroom`).
    """
    S = spec.ltarget + spec.ng
    check_headroom(spec, S, S)
    nlet = spec.nletters
    layers = _solve_dense(nlet, S, spec.ng, *_weights(spec), _orbit_partition(nlet, S))
    return SolutionTable(spec, S, layers)


class LazyTable(_TableBase):
    """Demand-driven solved table (memoised recursion on the same grading).

    Used for deep amplitude extraction where dense enumeration of all words
    would be prohibitive.  The recursion runs once per rotation, reversal
    and relabelling orbit (see the module docstring); ``_memo`` holds every
    slot read, representative or not, under its own packed key, and
    ``rhs_evaluations`` counts the slots the recursion solved.  A miss
    canonicalises its word once and reads the representative's key; only if
    that slot is missing too does ``_rhs`` run on the representative, whose
    value is stored under both keys.  One reader per (length, order) holds
    that probe and miss path (``_memo_readers``), and the recursion reads
    through them.  Values agree
    with the unreduced dense solver wherever both are defined (tested on
    every slot of a dense table).
    """

    def __init__(self, spec: ModelSpec, max_len: int):
        # a slot (k, n) reads k + 1 letters at n - 1, down to k + n letters at
        # n = 0, and _raw refuses k > max_len, so every nonzero value the table
        # holds has |w| + n <= max_len
        check_headroom(spec, max_len, max_len)
        super().__init__(spec)
        self.max_len = max_len
        self.nlet = spec.nletters
        # memo key (bits, k, n) packed into one int; the k and n fields hold
        # every k <= max_len and n <= ng, so distinct slots never share a key
        self._kbits = max_len.bit_length()
        self._nbits = spec.ng.bit_length()
        self._memo = {}
        self._rhs_evaluations = 0
        self._slots = self._memo_readers()

    @property
    def rhs_evaluations(self) -> int:
        """Slots solved by running the recursion: one per orbit and g-order read."""
        return self._rhs_evaluations

    def _raw(self, bits: int, k: int, n: int) -> int:
        if (k + n) & 1 or n < 0:
            return 0
        if n > self.ng or k > self.max_len:
            raise TruncationError(
                f"coefficient (|w|={k}, n={n}) beyond lazy-table guards "
                f"(max_len={self.max_len}, ng={self.ng})"
            )
        return self._slots[k][n](bits)

    def _reader(self, k: int, n: int):
        if (k + n) & 1 or n < 0 or n > self.ng or k > self.max_len:
            return super()._reader(k, n)
        return self._slots[k][n]

    def _memo_readers(self) -> list:
        """The readers of the recursion, indexed [k][n] for k <= max_len + 1 and n <= ng.

        Up to max_len each holds the memo probe of its slot and the miss
        path; one letter further, where a triangle removal at max_len reads,
        every read is refused.
        """
        memo, shift, nbits = self._memo, self._kbits + self._nbits, self._nbits
        probe = memo.get

        def reader(k, n):
            if (k + n) & 1:
                return _zero
            if k > self.max_len:
                return self._reader(k, n)
            tag = (k << nbits) | n  # the memo key of (bits, k, n) is (bits << shift) | tag

            def read(bits):
                key = (bits << shift) | tag
                v = probe(key)
                if v is None:
                    rep = orbit_rep(bits, k)
                    rkey = (rep << shift) | tag
                    v = probe(rkey)
                    if v is None:
                        v = memo[rkey] = _rhs(self._slots, self.nlet, self._b, self._a, rep, k, n)
                        self._rhs_evaluations += 1
                    memo[key] = v
                return v

            return read

        return [[reader(k, n) for n in range(self.ng + 1)] for k in range(self.max_len + 2)]


# ---------------------------------------------------------------------------
# generating equation as an operator on NCSeries (reference-scale path)
# ---------------------------------------------------------------------------


def build_rhs_potts(phi: NCSeries) -> NCSeries:
    """One application of the generating-equation right-hand side.

    rhs = 1 + sum_i x_i Phi (sum_j G_ij x_j) Phi
            + g sum_i (sum_j G_ij x_j) Delta_i^2 Phi
    with G_ii = 1 and G_ij = c for unequal spins, transcribed term by term,
    at symbolic c.
    """
    ng, lmax = phi.ng, phi.lmax
    rhs = NCSeries.unit(lmax, ng)
    for i in LETTERS:
        right = NCSeries.zero(lmax, ng)
        for j in LETTERS:
            piece = phi.mul_letter_left(j)
            if i != j:
                piece = piece.scale(P_C)
            right = right + piece
        rhs = rhs + (phi * right).mul_letter_left(i)
        gdd = phi.left_delta(i).left_delta(i).shift_g(1)
        for j in LETTERS:
            piece = gdd.mul_letter_left(j)
            if i != j:
                piece = piece.scale(P_C)
            rhs = rhs + piece
    return rhs


# ---------------------------------------------------------------------------
# residuals of the solved table
# ---------------------------------------------------------------------------


@dataclass
class ResidualReport:
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
    shorter than k.
    """
    b, a = table._b, table._a
    read1, read2 = table._reader(k + 1, n), table._reader(k + 2, n - 1)
    # Phi x0 Phi splits w = u 0 v at each letter t that is 0: (2t, mask of u, shift of v,
    # the reader pairs of u and v at the orders m with t + m even)
    splits = [
        (2 * t, (1 << (2 * t)) - 1, 2 * t + 2, [(slots[t][m], slots[k - 1 - t][n - m]) for m in range(t & 1, n + 1, 2)])
        for t in range(k)
    ]
    bad = []
    for w in words:
        # prepending letter j to packed w is j | (w << 2)
        w2 = w << 2
        d0 = read1(w2) or 0
        d12 = (read1(1 | w2) or 0) + (read1(2 | w2) or 0)
        qg = 0
        for shift, mask, vshift, pairs in splits:
            if not (w >> shift) & 3:
                u, v = w & mask, w >> vshift
                for read_u, read_v in pairs:
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
    the whole layer keeps them in partition order.  When every orbit is one
    word (the singleton partition), each is its own class and every word is
    kept.
    """
    words = [x for _, images in orbits_k for x in images]
    return words if len(words) == len(orbits_k) else reflection_least(words, k)


def _residual(table: SolutionTable, grade: int, orbits: list) -> ResidualReport:
    """Both generating-equation forms over an orbit partition of the words.

    The fixed point runs at each representative of ``orbits``, zero or not.
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
                for w, _ in orbits[k]:
                    diff = (read(w) or 0) - _rhs(slots, nlet, b, a, w, k, n)
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
    of replaying the dense solve.
    """
    if grade is None:
        grade = table.grade_reached
    return _residual(table, grade, _orbit_partition(table.spec.nletters, min(grade, table.S)))


def recast_residual_rect(table: _TableBase, kmax: int, ng: int) -> list:
    """Derivative-form residual over all words up to kmax, orders up to ng.

    Works through the generic coefficient interface, so a demand-driven
    table serves it without a dense solve.  Returns the nonzero slots.
    """
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


@dataclass
class PureGravityResult:
    table: SolutionTable
    phi: XLaurent  # series solution as power series in x
    branch: XLaurent  # quadratic branch of the validated equation form
    branch_other: XLaurent  # the rejected branch (singular as x -> 0)
    variant_coeffs: dict  # fixed point of the extra-1/x variant of the triangle term
    variant_first_mismatch: Optional[tuple]


def pure_gravity_phi(table: SolutionTable, nx: int, ng: int) -> XLaurent:
    rows = [[table.p_coeff(Word([0] * k), n) for n in range(ng + 1)] for k in range(nx + 1)]
    return XLaurent(0, rows, nx, ng)


def _pure_gravity_branches(p1: XLaurent, nx: int, ng: int):
    """Both roots of the quadratic generating equation for the one-matrix model.

    The quadratic is x^2 Phi^2 - (1 - g/x) Phi + (1 - g/x - g p1) = 0; the
    root regular at x = 0 is the disk generating function.  Internal
    truncation is widened so that every kept slot is exact despite the
    negative x powers (each carries at least one g).
    """
    NX = nx + ng + 2
    one = XLaurent.x_power(0, NX, ng)
    g = XLaurent(0, [(0, 1)], 0, ng)
    x = XLaurent.x_power(1, NX, ng)
    g_over = g * XLaurent.x_power(-1, NX, ng)
    b = one - g_over
    const = one - g_over - p1 * g
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
    phi = pure_gravity_phi(table, lx, ng)
    p1 = table.gseries(Word([0]), ng)
    lo, hi = _pure_gravity_branches(p1, lx, ng)
    variant = {}
    first_mismatch = None
    if check_variant:
        variant = solve_pure_gravity_variant(min(ng, 4), min(lx, 6))
        for (k, n) in sorted(variant.keys() | {(1, 1), (2, 2)}, key=lambda t: (t[0] + 2 * t[1], t)):
            if n > min(ng, 4) or k > min(lx, 6):
                continue
            mine_v = table.p_coeff(Word([0] * k), n).coefficient(0)
            if variant.get((k, n), Fraction(0)) != mine_v:
                first_mismatch = (k, n, variant.get((k, n), Fraction(0)), mine_v)
                break
    return PureGravityResult(table, phi, lo, hi, variant, first_mismatch)
