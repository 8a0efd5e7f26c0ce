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
pays no gcd.  Such a raw value turns into a Fraction only where it leaves
the table: ``value_packed``, ``to_json``, ``to_ncseries`` and the failure
values of residual reports.

A coefficient p_w^(n) = <tr X_w> at g^n is invariant under cyclic rotation
of w (trace), reversal (transposition) and S3 relabelling of the spins, so
both solvers run the recursion once per orbit and g-order.  This is exact
in both domains: a numeric-c raw value b**E * p depends on (w, n) only
through p and E = (|w| + 3n)/2, and both are orbit invariants.
``LazyTable`` maps a memo miss to its orbit representative
(``freealg.orbit_rep``); only representatives run ``_rhs`` and every other
word copies its representative's value.  The dense solve takes the orbit
partition of each word length (``freealg.word_orbits``), runs on the
representatives and stores each value under every word of the orbit, so
its layers are the same plain dicts as a word-by-word solve.

``generating_residual`` therefore checks the symmetry instead of assuming
it: every stored slot must equal its images under the four generators of
the group, and the fixed point is then checked once per orbit.  The
singleton partition (``_singletons``) turns the same solve loop and the
same residual into the unreduced referee, which runs the recursion and the
fixed point on every word.  The tests keep that referee at the benchmark
region (|w| + n <= 10, n <= 6): it must match the orbit solve slot for
slot, and criterion 8, ``test_cyclic_symmetry`` and
``test_lazy_matches_dense`` read tables solved word by word.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import Optional, Union

from .freealg import (
    LETTERS,
    NCSeries,
    GENERATORS,
    Word,
    orbit_rep,
    packed_words,
    reflection_least,
    word_orbits,
)
from .ring import P_C, P_ZERO, GSeries, Poly, XLaurent, xlaurent_sqrt

_B = 64
_DIGIT = (1 << _B) - 1
_GUARD = 1 << 62
_RECAST_MARGIN = 4  # the signed recast residual stays within 4x a slot's c = 1 value


class TruncationError(Exception):
    """A coefficient outside the solved region was requested."""


def pack_poly(p: Poly) -> int:
    if p.den != 1:
        raise ValueError("only integer polynomials pack")
    v = 0
    for e, a in enumerate(p.coeffs):
        if a < 0 or a >= _GUARD:
            raise ValueError("coefficient outside packable range")
        v |= a << (_B * e)
    return v


def unpack_poly(v: int) -> Poly:
    digits = []
    while v:
        d = v & _DIGIT
        if d >= _GUARD:
            raise ArithmeticError("packed digit exceeds guard; headroom violated")
        digits.append(d)
        v >>= _B
    return Poly(digits)


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


def _rhs(raw, nlet: int, b: int, a: int, w: int, k: int, n: int) -> int:
    """Right-hand side of the edge-removal recursion at one slot, as a raw integer.

    ``raw(bits, k, n)`` reads the raw values of strictly lower grades.
    """
    if k == 0:
        return 1 if n == 0 else 0
    i0 = w & 3
    eq = ne = 0
    for t in range(1, k):
        ulen = t - 1
        vlen = k - 1 - t
        u = (w >> 2) & ((1 << (2 * ulen)) - 1)
        v = w >> (2 * (t + 1))
        conv = 0
        for m in range(n + 1):
            if (ulen + m) & 1:
                continue
            pu = raw(u, ulen, m)
            if pu:
                pv = raw(v, vlen, n - m)
                if pv:
                    conv += pu * pv
        if conv:
            if ((w >> (2 * t)) & 3) == i0:
                eq += conv
            else:
                ne += conv
    if n:
        u4 = (w >> 2) << 4
        for i in range(nlet):
            val = raw(u4 | i | (i << 2), k + 1, n - 1)
            if val:
                if i == i0:
                    eq += val
                else:
                    ne += val
    return eq * b + ne * a


class _TableBase:
    """Shared coefficient accessors over the raw integer values ``_raw``."""

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        self.ng = spec.ng
        self.symbolic = spec.symbolic
        self.c0 = None if spec.symbolic else Fraction(spec.c)
        self._b, self._a = _weights(spec)

    def _raw(self, bits: int, k: int, n: int) -> int:
        raise NotImplementedError

    def _fraction(self, v: int, e: int) -> Fraction:
        """The exact value of a numeric-c raw integer at scale b**e."""
        return Fraction(v, self._b**e)

    def value_packed(self, bits: int, k: int, n: int):
        """Coefficient at one slot: packed polynomial (symbolic c) or Fraction."""
        v = self._raw(bits, k, n)
        if self.symbolic:
            return v
        return self._fraction(v, (k + 3 * n) // 2) if v else Fraction(0)

    def value_word(self, word: Word, n: int):
        return self.value_packed(word.bits, word.n, n)

    def p_poly(self, word, n: int):
        """Coefficient of g**n for the word, as Poly (symbolic) or Fraction."""
        word = _as_word(word)
        v = self.value_packed(word.bits, word.n, n)
        return unpack_poly(v) if self.symbolic else v

    def p_coeff(self, word, n: int) -> Poly:
        """Coefficient of g**n for the word as a ring element (a constant at numeric c)."""
        word = _as_word(word)
        return self.p_coeff_packed(word.bits, word.n, n)

    def p_coeff_packed(self, bits: int, k: int, n: int) -> Poly:
        v = self._raw(bits, k, n)
        if self.symbolic:
            return unpack_poly(v)
        # b**e * p over b**e: the Poly constructor reduces it once
        return Poly((v,), self._b ** ((k + 3 * n) // 2))

    def gseries(self, word, ng: Optional[int] = None) -> GSeries:
        """The full g-series of a word's coefficient."""
        word = _as_word(word)
        ng = self.ng if ng is None else ng
        return GSeries([self.p_coeff(word, n) for n in range(ng + 1)], ng)


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
        self._phi = None

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

    def slots(self):
        """All (n, k) layers with their word dicts of raw values."""
        return self.layers.items()

    def _public(self, v: int, k: int, n: int):
        """A stored raw value as Poly (symbolic c) or Fraction."""
        return unpack_poly(v) if self.symbolic else self._fraction(v, (k + 3 * n) // 2)

    @property
    def phi(self) -> NCSeries:
        """NCSeries view up to the reported word length."""
        if self._phi is None:
            self._phi = self.to_ncseries(self.spec.ltarget, self.ng)
        return self._phi

    def to_ncseries(self, lmax: int, ng: int) -> NCSeries:
        terms = {}
        for (n, k), d in self.layers.items():
            if k > lmax or n > ng:
                continue
            for bits, v in d.items():
                w = Word._raw(k, bits)
                g = terms.get(w)
                if g is None:
                    g = [P_ZERO] * (ng + 1)
                    terms[w] = g
                g[n] = self._public(v, k, n)
        return NCSeries(
            {w: GSeries(tuple(g), ng) for w, g in terms.items()}, lmax, ng
        )

    def to_json(self) -> dict:
        """{word: {g-power: coefficient string}} for reported words."""
        out = {}
        for (n, k), d in sorted(self.layers.items()):
            if k > self.spec.ltarget:
                continue
            for bits, v in d.items():
                out.setdefault(str(Word._raw(k, bits)), {})[str(n)] = str(self._public(v, k, n))
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
    ``rhs_evaluations`` counts the slots the recursion solved.  Values agree
    with the unreduced dense solver wherever both are defined (tested on
    every slot of a dense table).
    """

    def __init__(self, spec: ModelSpec, max_len: int):
        # a slot (k, n) reads k + 1 letters at n - 1, down to max_len + ng at n = 0
        check_headroom(spec, max_len, max_len + spec.ng)
        super().__init__(spec)
        self.max_len = max_len
        self.nlet = spec.nletters
        # memo key (bits, k, n) packed into one int; the k and n fields hold
        # every k <= max_len and n <= ng, so distinct slots never share a key
        self._kbits = max_len.bit_length()
        self._nbits = spec.ng.bit_length()
        self._memo = {}
        self._rhs_evaluations = 0

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
        key = ((bits << self._kbits) | k) << self._nbits | n
        memo = self._memo
        v = memo.get(key)
        if v is None:
            rep = orbit_rep(bits, k)
            if rep != bits:
                v = self._raw(rep, k, n)
            else:
                v = _rhs(self._raw, self.nlet, self._b, self._a, bits, k, n)
                self._rhs_evaluations += 1
            memo[key] = v
        return v


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
    cg = GSeries.constant(P_C, ng)
    gmono = GSeries.g_power(1, ng)
    rhs = NCSeries.unit(lmax, ng)
    for i in LETTERS:
        right = NCSeries.zero(lmax, ng)
        for j in LETTERS:
            piece = phi.mul_letter_left(j)
            if i != j:
                piece = piece.scale(cg)
            right = right + piece
        rhs = rhs + (phi * right).mul_letter_left(i)
        dd = phi.left_delta(i).left_delta(i)
        for j in LETTERS:
            piece = dd.mul_letter_left(j).scale(gmono)
            if i != j:
                piece = piece.scale(cg)
            rhs = rhs + piece
    return rhs


# ---------------------------------------------------------------------------
# residuals of the solved table
# ---------------------------------------------------------------------------


def _prefix_split_sum(raw, w: int, k: int, n: int, letter: int) -> int:
    """Raw coefficient of w in Phi x_letter Phi (splits at every matching letter)."""
    acc = 0
    for t in range(k):
        if ((w >> (2 * t)) & 3) != letter:
            continue
        ulen, vlen = t, k - 1 - t
        u = w & ((1 << (2 * t)) - 1)
        v = w >> (2 * (t + 1))
        for m in range(n + 1):
            if (ulen + m) & 1:
                continue
            pu = raw(u, ulen, m)
            if pu:
                pv = raw(v, vlen, n - m)
                if pv:
                    acc += pu * pv
    return acc


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

    def as_ncseries(self, table, which: str = "fixed_point") -> NCSeries:
        """Sparse NCSeries of the nonzero residual coefficients (empty = 0)."""
        entries = self.fixed_point if which == "fixed_point" else self.recast
        ng = table.ng
        terms = {}
        for word, n, value in entries:
            g = terms.setdefault(word, [P_ZERO] * (ng + 1))
            g[n] = value
        return NCSeries({w: GSeries(tuple(g), ng) for w, g in terms.items()}, self.grade, ng)


def _signed_unpack(v: int) -> Poly:
    """Decode a signed packed combination (digits may borrow; resolve them)."""
    digits = []
    while v:
        d = v & _DIGIT
        if d >= (1 << (_B - 1)):
            d -= 1 << _B
        digits.append(d)
        v = (v - d) >> _B
    return Poly(digits)


def _failure(table: _TableBase, k: int, w: int, n: int, v: int, e: int) -> tuple:
    """A nonzero raw residual at scale b**e as (word, n, signed Poly or Fraction)."""
    value = _signed_unpack(v) if table.symbolic else table._fraction(v, e)
    return Word._raw(k, w), n, value


def _recast_failures(table: _TableBase, words, k: int, n: int) -> list:
    """Nonzero slots of the derivative (recast) form over words of length k at g^n.

    The form (1+c) D0 Phi - (1+c-2c^2)(Phi x0 Phi + g D0^2 Phi) - c (D1 Phi + D2 Phi)
    is evaluated with c = a/b and scaled by b**(E+1), E the propagator count of
    D0 Phi: (b+a) d0 - (b^2+ab-2a^2)(quad+dd0) - a (d1+d2) on raw integers.
    The scale is nonzero, so the form vanishes iff its raw value does.
    """
    raw = table._raw
    b, a = table._b, table._a
    bad = []
    for w in words:
        # prepending letter j to packed w is j | (w << 2)
        d0 = raw(w << 2, k + 1, n)
        d12 = raw(1 | (w << 2), k + 1, n) + raw(2 | (w << 2), k + 1, n)
        qg = _prefix_split_sum(raw, w, k, n, 0) + raw(w << 4, k + 2, n - 1)
        resid = (b + a) * d0 - (b * b + a * b - 2 * a * a) * qg - a * d12
        if resid:
            bad.append(_failure(table, k, w, n, resid, (k + 3 * n + 3) // 2))
    return bad


def _symmetry_failures(table: SolutionTable, grade: int) -> list:
    """Stored slots of grade <= ``grade`` that differ from an image under a generator.

    The generators are one rotation, the reversal, (01) and (12)
    (``freealg.GENERATORS``).  Reading stored slots suffices: if an
    orbit mixes stored and missing words, some stored word has a missing
    image under a generator.  Entries are (word, n, image).
    """
    bad = []
    for (n, k), d in table.slots():
        if k == 0 or k + 2 * n > grade:
            continue
        words, values = list(d), list(d.values())
        broken = {}
        for image_of in GENERATORS:
            images = image_of(words, k)
            if list(map(d.get, images, repeat(0))) != values:
                for w, x, v in zip(words, images, values):
                    if d.get(x, 0) != v:
                        broken.setdefault(w, x)
        bad += [(Word._raw(k, w), n, Word._raw(k, x)) for w, x in broken.items()]
    return bad


def _recast_words(orbits_k, k: int) -> list:
    """The least word of each <reversal, (12)> class inside each orbit of length k.

    Both maps fix the letter 0 that the recast form prepends, and on an
    orbit-symmetric table the form takes one value on each class.  A
    one-word orbit is its own class, so the singleton partition keeps
    every word.
    """
    out = []
    for _, images in orbits_k:
        if len(images) == 1:
            out.append(images[0])
        else:
            out += reflection_least(images, k)
    return out


def _residual(table: SolutionTable, grade: int, orbits: list) -> ResidualReport:
    """Both generating-equation forms over an orbit partition of the words.

    The fixed point runs at each representative of ``orbits``, zero or not.
    The recast form runs at the words of :func:`_recast_words`, or at every
    word once the symmetry check has failed.  With the singleton partition
    (:func:`_singletons`) both run slot by slot.
    """
    raw = table._raw
    nlet, b, a = table.spec.nletters, table._b, table._a
    symmetry = _symmetry_failures(table, grade) if nlet == 3 else []
    bad_fp = []
    bad_rc = []
    for k in range(min(grade, table.S) + 1):
        recast_words = None
        for n in range(min((grade - k) // 2, table.ng) + 1):
            if (k + n) & 1 == 0:
                for w, _ in orbits[k]:
                    diff = raw(w, k, n) - _rhs(raw, nlet, b, a, w, k, n)
                    if diff:
                        bad_fp.append(_failure(table, k, w, n, diff, (k + 3 * n) // 2))
            elif nlet == 3:
                if recast_words is None:
                    if symmetry:
                        recast_words = [x for _, images in orbits[k] for x in images]
                    else:
                        recast_words = _recast_words(orbits[k], k)
                bad_rc += _recast_failures(table, recast_words, k, n)
    return ResidualReport(bad_fp, bad_rc, symmetry, grade)


def generating_residual(table: SolutionTable, grade: Optional[int] = None) -> ResidualReport:
    """Residuals of the solved table, checked once per orbit.

    Two forms are evaluated: the fixed-point form Phi - rhs(Phi), over slots
    of even |w| + n, and the derivative (recast) form
    (1+c) D0 Phi + (2c^2 - c - 1)(Phi x0 Phi + g D0^2 Phi) - c (D1 Phi + D2 Phi),
    whose content lives at odd |w| + n.  Both must vanish identically, and
    the table must be invariant under rotation, reversal and relabelling.

    The symmetry is checked first: every stored slot must equal its images
    under the four generators of the orbit group (``symmetry``).  The
    fixed point is then checked at one representative per orbit, whether
    its value is zero or not.  That suffices: by induction on the grade, a
    symmetric table that satisfies the recursion at its representatives
    equals the solution everywhere.  The recast form, once the symmetry
    holds, is evaluated at one word per class of <reversal, (12)>.  Each
    form re-reads the finished table instead of replaying the dense solve.
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
    for k in range(kmax + 1):
        for n in range(ng + 1):
            if (k + n) & 1:
                bad += _recast_failures(table, words[k], k, n)
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
    coeffs = []
    for k in range(nx + 1):
        coeffs.append(table.gseries(Word([0] * k), ng))
    return XLaurent(0, coeffs, nx, ng)


def _pure_gravity_branches(p1: GSeries, nx: int, ng: int):
    """Both roots of the quadratic generating equation for the one-matrix model.

    The quadratic is x^2 Phi^2 - (1 - g/x) Phi + (1 - g/x - g p1) = 0; the
    root regular at x = 0 is the disk generating function.  Internal
    truncation is widened so that every kept slot is exact despite the
    negative x powers (each carries at least one g).
    """
    NX = nx + ng + 2
    one = XLaurent.x_power(0, NX, ng)
    g = XLaurent.constant(GSeries.g_power(1, ng), NX, ng)
    x = XLaurent.x_power(1, NX, ng)
    g_over = g * XLaurent.x_power(-1, NX, ng)
    p1g = XLaurent.constant(p1, NX, ng) * g
    b = one - g_over
    const = one - g_over - p1g
    disc = b * b - 4 * (x * x) * const
    s = xlaurent_sqrt(disc, grade_cap=NX)

    def _div(num):
        shifted = XLaurent(num.low - 2, num.coeffs, NX - 2, ng)
        half = shifted * XLaurent.constant(Fraction(1, 2), NX - 2, ng)
        return half.retruncate(nx, ng)

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
            mine_v = table.p_poly(Word([0] * k), n).coefficient(0)
            if variant.get((k, n), Fraction(0)) != mine_v:
                first_mismatch = (k, n, variant.get((k, n), Fraction(0)), mine_v)
                break
    return PureGravityResult(table, phi, lo, hi, variant, first_mismatch)
