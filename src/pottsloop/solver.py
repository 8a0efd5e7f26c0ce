"""Graded fixed-point solver for the edge-removal generating equation, and its referees.

The solve lives in three modules: ``model`` says what to solve
(``ModelSpec``), ``tables`` how a solved table is read (``_TableBase``)
and ``recursion`` runs the edge-removal recursion into a dense table
(``solve_series``) or a demand-driven one (``LazyTable``).  This module
holds the checks of a solved table: the generating equation as an
operator on ``NCSeries``, the two residual forms and the pure-gravity
closed form.

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
from typing import Optional

from .freealg import NCSeries
from .model import ModelSpec
from .orbits import reflection_least, symmetry_breaks
from .poly import P_C
from .record import Record
from .recursion import LazyTable  # noqa: F401  (perfbench/worker.py imports it from here)
from .recursion import SolutionTable, _orbit_partition, _rhs, _splits, solve_series
from .series import XLaurent, xlaurent_sqrt
from .tables import _TableBase
from .words import LETTERS, Word, packed_words

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
    (``orbits.symmetry_breaks``).  Reading stored slots suffices: if an
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
