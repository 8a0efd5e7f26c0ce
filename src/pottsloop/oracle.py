"""Independent brute-force referee: planar Wick contractions, each diagram once.

Moments of the three-matrix integral are computed directly from their
Feynman expansion, with no use of any loop equation: expand the cubic
vertex to the requested order, pair up all half edges, keep the pairings
whose ribbon graph is planar and has every component attached to the
boundary, and weight each propagator between unequal spins by c.

The half-edge structure is the usual rotation system: the boundary trace
is one vertex of valence |w| (half-edges 0..|w|-1 in cyclic order),
triangle v a trivalent vertex (|w| + 3v, +1, +2), and the faces are the
cycles of (rotation o matching).  The enumerator grows one matching: the
lowest unmatched half-edge of the boundary component tries every
admissible partner, under two rules.

- Face rule.  A chord inside the boundary component joins two corners of
  the same face; a chord between two faces would raise the genus, which no
  later chord lowers (Euler characteristic).  The faces of the partial map
  are a successor/predecessor cycle over its unmatched half-edges, updated
  and undone in O(1) per chord.  A chord into an untouched triangle merges
  the triangle's face into the face it leaves from.
- Canonical rule (orderly generation).  An untouched triangle is entered
  only under the lowest untouched label, and only through its first
  half-edge.  The search thus labels the triangles in the order it reaches
  them, each rotated to be entered first.  Boundary-rooted diagrams have no
  automorphisms, so this picks one of the n! 3^n labellings of each
  diagram: every diagram is yielded once, and the vertex normalisation
  (g/3)^n / n! is already divided out.

The search never removes the root edge, which is the solver's own
recursion, so the oracle stays independent of it.

The diagrams depend only on (|w|, n), not on the letters.  They are
enumerated once per (|w|, n) and collapsed into weight classes: a diagram
weighs a spin assignment only through its chord endpoints (a boundary
position or a triangle), so a class is the multiset of endpoint pairs and
its value is the number of diagrams in it.  A word's moment sums the 3^n
triangle spin assignments once per class, times the multiplicity.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from itertools import product

from .poly import P_ZERO, Poly
from .record import Record
from .tables import _TableBase
from .words import Word, check_letters, check_order

# desk-scale guard: diagrams are enumerated explicitly, and a moment sums
# 3^n spin assignments over the weight classes
_MAX_POINTS = 18


def _rotation(k: int, n: int) -> list:
    """Successor map of the rotation system: boundary cycle then triangles."""
    sigma = list(range(k + 3 * n))
    for i in range(k):
        sigma[i] = (i + 1) % k
    for v in range(n):
        base = k + 3 * v
        sigma[base] = base + 1
        sigma[base + 1] = base + 2
        sigma[base + 2] = base
    return sigma


def _planar_diagrams(k: int, n: int):
    """Yield every boundary-rooted planar diagram of (k, n) once, as chord pairs (a, b), a < b.

    An odd half-edge total has no matching and returns at once.
    """
    total = k + 3 * n
    if total % 2:
        return
    # With no chord drawn each half-edge is alone on its vertex's corners,
    # so the face cycles are the rotation itself.
    succ = _rotation(k, n)
    pred = [0] * total
    for h, s in enumerate(succ):
        pred[s] = h
    matched = [False] * total
    pairs = []

    def rec(a: int, touched: int):
        # half-edges below a are matched; those of untouched triangles start at end
        end = k + 3 * touched
        while a < end and matched[a]:
            a += 1
        if a == end:  # the boundary component is closed
            if touched == n:  # ... and holds every triangle
                yield tuple(pairs)
            return
        matched[a] = True
        p, s = pred[a], succ[a]
        # face rule: pair a with each later unmatched corner of its face; the
        # face splits into (s .. pb) and (sb .. p)
        b = s
        while b != a:
            pb, sb = pred[b], succ[b]
            matched[b] = True
            succ[pb], pred[s] = s, pb
            succ[p], pred[sb] = sb, p
            pairs.append((a, b))
            yield from rec(a + 1, touched)
            pairs.pop()
            succ[p], pred[sb] = a, b
            succ[pb], pred[s] = b, a
            matched[b] = False
            b = sb
        # canonical rule: enter the lowest untouched triangle through its first
        # half-edge t1; the face runs p -> t2 -> t3 -> s.  If a is alone on its
        # face, the new face is (t2 t3) alone.
        if touched < n:
            t1, t2, t3 = end, end + 1, end + 2
            fp, fs = (t3, t2) if s == a else (p, s)
            succ[fp], pred[t2] = t2, fp
            succ[t3], pred[fs] = fs, t3
            matched[t1] = True
            pairs.append((a, t1))
            yield from rec(a + 1, touched + 1)
            pairs.pop()
            matched[t1] = False
            if s != a:
                succ[p], pred[s] = a, a
            succ[t3], pred[t2] = t1, t1
        matched[a] = False

    yield from rec(0, 0)


@cache
def _weight_classes(k: int, n: int) -> tuple:
    """The planar diagrams of (k, n) collapsed into weight classes.

    A diagram weighs a spin assignment through its chord endpoints only, so
    diagrams with the same multiset of endpoint pairs weigh alike.  Returns
    ``(chords, multiplicity)`` pairs; ``chords`` is the sorted tuple of
    endpoint pairs, an endpoint being a boundary position or k + triangle.
    Cached, so the diagrams of (k, n) are enumerated once per process; the
    desk-scale guard keeps the cache to sizes with k + 3n <= 18.
    """
    end = [h if h < k else k + (h - k) // 3 for h in range(k + 3 * n)]
    classes = Counter(
        tuple(sorted((end[a], end[b]) for a, b in chords)) for chords in _planar_diagrams(k, n)
    )
    return tuple(classes.items())


def _check_desk_scale(points: int) -> None:
    """Refuse an input of more half-edges than the oracle handles, with its size."""
    if points > _MAX_POINTS:
        est = 1
        for m in range(points - 1, 0, -2):
            est *= m
        raise ValueError(
            f"oracle input {points} half-edges exceeds desk scale "
            f"({est} perfect matchings of its half-edges; the limit is {_MAX_POINTS})"
        )


def planar_moment(word, n: int, *, nletters: int = 3) -> Poly:
    """Coefficient of g^n in the normalised planar moment of the word.

    Returns a Poly in c; ``ModelSpec.const`` evaluates it at a numeric c.
    Each weight class of (|w|, n) is summed over the triangle spins once and
    counted with its multiplicity.  Parity violations return the exact zero;
    inputs beyond desk scale are rejected with their size, and inputs
    outside the model (a letter >= nletters, a negative order) with
    ValueError.
    """
    word = word if isinstance(word, Word) else Word.from_string(str(word))
    check_order(n)
    check_letters((word,), nletters)
    points = len(word) + 3 * n
    if points % 2:
        return Poly()
    _check_desk_scale(points)
    if not word.n:
        # normalised expectation of the identity; vacuum parts cancel
        return Poly((1,)) if n == 0 else Poly()
    classes = _weight_classes(len(word), n)
    letters = word.letters()
    counts = [0] * (points // 2 + 1)  # by power of c: chords between unequal spins
    for spins in product(range(nletters), repeat=n):
        spin = letters + spins
        for chords, mult in classes:
            counts[sum(spin[a] != spin[b] for a, b in chords)] += mult
    return Poly(counts)


class CompareReport(Record):
    checked: int
    mismatches: list

    @property
    def ok(self) -> bool:
        return not self.mismatches


def compare_with_solver(table: _TableBase, max_n: int, max_len: int) -> CompareReport:
    """Every table coefficient up to the bounds must equal the oracle's.

    The table is any solved table, dense or demand-driven, and must hold
    every slot in range: one it does not hold raises ``TruncationError``.
    Oracle values are computed once per cyclic class, as polynomials in c,
    and compared at the table's coupling.  The table is read through the
    export stream ``solve`` writes from (``_TableBase._word_slots``), once
    per word, so cyclic symmetry of the table is exercised as well; every
    parity-allowed slot of a listed word is checked, and one the stream
    does not return reads zero.  The planar diagrams of each (|w|, n) are
    enumerated once and collapsed into weight classes, which every cyclic
    class of that length and order reuses.  A range that reaches beyond
    desk scale, or past the listing bound of ``words.check_listing``, is
    refused before any enumeration.
    """
    _check_desk_scale(
        max((k + 3 * n for k in range(max_len + 1) for n in range(max_n + 1) if (k + n) % 2 == 0), default=0)
    )
    nlet = table.spec.nletters
    cache: dict = {}
    checked = 0
    mismatches = []
    for k, bits, slots in table._word_slots(max_len, max_n):
        w, values = Word._raw(k, bits), dict(slots)
        for n in range(k & 1, max_n + 1, 2):
            key = (min(r.bits for r in w.rotations()), k, n)
            if key not in cache:
                cache[key] = table.spec.const(planar_moment(w, n, nletters=nlet))
            got = values.get(n, P_ZERO)
            checked += 1
            if got != cache[key]:
                mismatches.append((w, n, got, cache[key]))
    return CompareReport(checked, mismatches)
