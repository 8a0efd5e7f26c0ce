"""Independent brute-force referee: planar Wick-contraction enumeration.

Moments of the three-matrix integral are computed directly from their
Feynman expansion, with no use of any loop equation: expand the cubic
vertex to the requested order, enumerate perfect matchings of all half
edges, keep only matchings whose ribbon graph is planar and has every
component attached to the boundary, and weight each propagator between
unequal spins by c.

The half-edge structure is the usual rotation system: the boundary trace
is one vertex of valence |w|, each triangle a trivalent vertex, faces are
the cycles of (rotation o matching), and the Euler characteristic
V - E + F selects the genus.  The vertex normalisation (g/3)^n / n! is
divided out at the end; boundary-rooted diagrams have no automorphisms, so
the division is exact over the integers (asserted).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .freealg import Word
from .ring import P_C, P_ONE, P_ZERO, Poly
from .solver import ModelSpec, SolutionTable, TruncationError

# desk-scale guard: matchings are enumerated explicitly
_MAX_POINTS = 16


@dataclass(frozen=True)
class PropagatorMatrix:
    """The 3x3 spin propagator: 1 on the diagonal, c off it."""

    entries: tuple

    @staticmethod
    def symbolic() -> "PropagatorMatrix":
        rows = tuple(
            tuple(P_ONE if i == j else P_C for j in range(3)) for i in range(3)
        )
        return PropagatorMatrix(rows)

    def kernel(self) -> tuple:
        """The quadratic kernel [(1+2c) I - c J] / D as (numerators, D).

        D = 1 + c - 2c^2; the numerator matrix is (1+c) on the diagonal and
        -c off it.
        """
        d = Poly((1, 1, -2))
        one_2c = Poly((1, 2))
        rows = tuple(
            tuple(one_2c - P_C if i == j else -P_C for j in range(3)) for i in range(3)
        )
        return rows, d


def verify_propagator(c="symbolic") -> bool:
    """Check K * G = I for the kernel K and propagator G, exactly.

    The check is K_num * G = D * I with K = K_num / D, so it never divides.
    The entries take the coupling through ``ModelSpec.const``, so numeric c
    on a kernel pole (c in {1, -1/2}) raises ValueError there, as it does
    for every other check.
    """
    spec = ModelSpec(c=c)
    G = PropagatorMatrix.symbolic()
    K, D = G.kernel()
    D = spec.const(D)
    K = tuple(tuple(spec.const(v) for v in row) for row in K)
    ge = tuple(tuple(spec.const(v) for v in row) for row in G.entries)
    for i in range(3):
        for j in range(3):
            acc = P_ZERO
            for l in range(3):
                acc = acc + K[i][l] * ge[l][j]
            if acc != (D if i == j else P_ZERO):
                return False
    return True


@dataclass(frozen=True)
class DiagramInstance:
    """One contraction: spins per vertex, the matching, and its genus."""

    word: Word
    nvertices: int
    spins: tuple
    matching: tuple  # pairs of half-edge ids
    genus: int


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


def _site(h: int, k: int) -> int:
    """Connectivity site of a half-edge: 0 = boundary, v+1 = triangle v."""
    return 0 if h < k else 1 + (h - k) // 3


def _count_faces(sigma: list, alpha: dict) -> int:
    seen = set()
    faces = 0
    for h in range(len(sigma)):
        if h in seen:
            continue
        faces += 1
        cur = h
        while cur not in seen:
            seen.add(cur)
            cur = sigma[alpha[cur]]
    return faces


def _enumerate_matchings(k: int, n: int, *, planar_only: bool, prune: bool = True):
    """Yield (matching pairs, genus); every component must touch the boundary.

    With planar_only, branches whose partial face count already forces genus
    above zero are abandoned early; each closed face is detected the moment
    its last chord is drawn.
    """
    total = k + 3 * n
    sigma = _rotation(k, n)
    V = (1 if k else 0) + n
    E = total // 2
    alpha: dict = {}
    pairs: list = []

    # union-find over sites with per-component open half-edge counts
    parent = list(range(n + 1))
    open_count = [k] + [3] * n
    has_boundary = [True] + [False] * n
    if k == 0:
        has_boundary[0] = True  # degenerate: nothing to attach

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    faces_done = 0

    def closed_faces_through(h):
        """Face cycle through h if fully matched, else None."""
        cyc = [h]
        cur = h
        while True:
            nxt = alpha.get(cur)
            if nxt is None:
                return None
            cur = sigma[nxt]
            if cur == h:
                return cyc
            cyc.append(cur)

    def rec(unmatched: list):
        nonlocal faces_done
        if not unmatched:
            faces = _count_faces(sigma, alpha)
            genus = (2 - (V - E + faces)) // 2
            if not planar_only or genus == 0:
                yield tuple(pairs), genus
            return
        a = unmatched[0]
        rest = unmatched[1:]
        for idx in range(len(rest)):
            b = rest[idx]
            # pair (a, b)
            alpha[a] = b
            alpha[b] = a
            pairs.append((a, b))
            sa, sb = find(_site(a, k)), find(_site(b, k))
            saved = (parent[:], open_count[sa], open_count[sb], has_boundary[sa], has_boundary[sb], faces_done)
            ok = True
            if sa == sb:
                open_count[sa] -= 2
            else:
                parent[sb] = sa
                open_count[sa] += open_count[sb] - 2
                has_boundary[sa] = has_boundary[sa] or has_boundary[sb]
            if open_count[sa] == 0 and not has_boundary[sa]:
                ok = False  # closed a vacuum component
            if ok and planar_only and prune:
                ca = closed_faces_through(a)
                if ca is not None:
                    faces_done += 1
                cb = closed_faces_through(b)
                if cb is not None and (ca is None or b not in ca):
                    faces_done += 1
                # every still-open face consumes at least one open half-edge
                bound = faces_done + (len(rest) - 1)
                if V - E + bound < 2:
                    ok = False
            if ok:
                yield from rec(rest[:idx] + rest[idx + 1 :])
            # undo
            parent[:] = saved[0]
            open_count[sa] = saved[1]
            open_count[sb] = saved[2]
            has_boundary[sa] = saved[3]
            has_boundary[sb] = saved[4]
            faces_done = saved[5]
            del alpha[a], alpha[b]
            pairs.pop()

    yield from rec(list(range(total)))


def _matching_weight_poly(word: Word, n: int, matching, nletters: int) -> Poly:
    """Sum over vertex spin assignments of c^(number of unequal-spin pairs)."""
    k = len(word)
    bspins = word.letters()
    counts = [0] * ((k + 3 * n) // 2 + 1)
    import itertools

    for spins in itertools.product(range(nletters), repeat=n):
        ne = 0
        for a, b in matching:
            sa = bspins[a] if a < k else spins[(a - k) // 3]
            sb = bspins[b] if b < k else spins[(b - k) // 3]
            if sa != sb:
                ne += 1
        counts[ne] += 1
    return Poly(counts)


def enumerate_diagrams(word: Word, n: int, nletters: int = 3):
    """All planar boundary-attached diagrams, spin assignments expanded."""
    import itertools

    k = len(word)
    for matching, genus in _enumerate_matchings(k, n, planar_only=True):
        for spins in itertools.product(range(nletters), repeat=n):
            yield DiagramInstance(word, n, spins, matching, genus)


def planar_moment(word, n: int, *, nletters: int = 3) -> Poly:
    """Coefficient of g^n in the normalised planar moment of the word.

    Returns a Poly in c; ``ModelSpec.const`` evaluates it at a numeric c.
    Parity violations return the exact zero; inputs beyond desk scale are
    rejected with a cost estimate.
    """
    word = word if isinstance(word, Word) else Word.from_string(str(word))
    k = len(word)
    if (k + 3 * n) % 2:
        return Poly()
    points = k + 3 * n
    if points > _MAX_POINTS:
        est = 1
        for m in range(points - 1, 0, -2):
            est *= m
        raise ValueError(
            f"oracle input {points} half-edges exceeds desk scale "
            f"({est} matchings to enumerate)"
        )
    if k == 0:
        # normalised expectation of the identity; vacuum parts cancel
        return Poly((1,)) if n == 0 else Poly()
    acc = Poly()
    for matching, _genus in _enumerate_matchings(k, n, planar_only=True):
        acc = acc + _matching_weight_poly(word, n, matching, nletters)
    norm = factorial(n) * 3**n
    out = acc.scale(Fraction(1, norm))
    assert out.den == 1, "vertex normalisation must divide the labelled count"
    return out


def all_genus_moments(word, n: int = 0) -> dict:
    """Gaussian moments split by genus (single matrix), for normalisation checks."""
    word = word if isinstance(word, Word) else Word.from_string(str(word))
    if n != 0:
        raise ValueError("all-genus splitting is validated for Gaussian moments only")
    out: dict = {}
    for _matching, genus in _enumerate_matchings(len(word), 0, planar_only=False):
        out[genus] = out.get(genus, 0) + 1
    return out


@dataclass
class CompareReport:
    checked: int
    mismatches: list

    @property
    def ok(self) -> bool:
        return not self.mismatches


def compare_with_solver(table: SolutionTable, max_n: int, max_len: int) -> CompareReport:
    """Every table coefficient up to the bounds must equal the oracle's.

    Oracle values are computed once per cyclic class, as polynomials in c,
    and compared at the table's coupling; the table is read per word, so
    cyclic symmetry of the table is exercised as well.
    """
    from .freealg import all_words

    nlet = table.spec.nletters
    cache: dict = {}
    checked = 0
    mismatches = []
    words = [w for k in range(max_len + 1) for w in all_words(k) if max(w.letters(), default=0) < nlet]
    for w in words:
        for n in range(max_n + 1):
            if (len(w) + n) % 2:
                continue
            key = (min(r.bits for r in w.rotations()), len(w), n)
            if key not in cache:
                cache[key] = table.spec.const(planar_moment(w, n, nletters=nlet))
            expect = cache[key]
            try:
                got = table.p_coeff(w, n)
            except TruncationError:
                continue
            checked += 1
            if got != expect:
                mismatches.append((w, n, got, expect))
    return CompareReport(checked, mismatches)

