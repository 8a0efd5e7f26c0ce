"""The edge-removal recursion, and the dense and demand-driven tables it fills.

The generating function Phi assigns to every boundary word w and triangle
order n an exact coefficient p_w^(n).  Removing the marked boundary edge
either deletes a triangle (word one letter longer, one g lower) or splits
the disk in two (contiguous subwords), so the coefficient at combined grade
|w| + 2n only consults strictly lower grades and the whole table is solved
by induction.  A coefficient is zero unless |w| + n is even (every triangle
contributes three edge ends).  The recursion runs on one integer per slot
in either coefficient domain (``model``).  Every digit of a symbolic count
is at most its value at c = 1, 3**n times the one-matrix count of the
slot, and a symbolic truncation whose bound (with the margin the signed
recast residual needs) reaches the 2**62 digit guard is refused before
any solve (``check_headroom``).

A coefficient p_w^(n) = <tr X_w> at g^n is invariant under cyclic rotation
of w (trace), reversal (transposition) and S3 relabelling of the spins, so
both solvers run the recursion once per orbit and g-order.  This is exact
in both domains: a numeric-c raw value b**E * p depends on (w, n) only
through p and E = (|w| + 3n)/2, and both are orbit invariants.  The dense
solve (``_solve_dense``, filling a ``SolutionTable``) takes the orbit
partition of each word length (``orbits.word_orbits``), runs on the
representatives and stores each value under every word of the orbit, so
its layers are the same plain dicts as a word-by-word solve; the singleton
partition (``_singletons``) makes it the unreduced referee, which solves
every word.  ``LazyTable`` keeps one memo dict per slot, whose lookup is
its reader: a miss maps the word to its orbit representative
(``orbits.orbit_rep``, once per miss) and reads that in the same dict;
only representatives run ``_rhs``, on the split plan (``_splits``) the
slot built at its first solve, and every other word copies its
representative's value.  The fixed-point residual (``solver``) runs
``_rhs`` on the same plans, and the dense solve keeps its own split code,
so the residual checks it with independent code.
"""

from __future__ import annotations

from itertools import chain
from typing import Optional

from .model import ModelSpec, _weights
from .orbits import orbit_rep, word_orbits
from .tables import _GUARD, _TableBase
from .words import packed_words

_RECAST_MARGIN = 4  # the signed recast residual stays within 4x a slot's c = 1 value
_DENSE_SLOTS = 1 << 24  # slots (words times orders) a dense solve may hold: S 14, ng 7 has 8.07M, S 16, ng 8 72.6M


def _orbit_partition(nlet: int, S: int) -> list:
    """The canonical orbits of the words of each length up to S.

    Three letters: one entry per rotation/reversal/relabelling orbit
    (``orbits.word_orbits``).  One letter: each word is its own orbit.
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
