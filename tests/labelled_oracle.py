"""Labelled referee for the contraction oracle, and the spin propagator.

``_enumerate_matchings`` enumerates every labelled matching of the boundary
and triangle half-edges, n! 3^n copies of each diagram, and takes the genus
from the Euler characteristic V - E + F of the finished matching.  It uses
neither rule of ``oracle._planar_diagrams`` (faces are counted, not
tracked), so the canonical count times n! 3^n must equal its planar count,
and per-diagram sums over it referee ``planar_moment``.  The propagator
check confirms that the kernel the oracle's weights invert is the Potts
quadratic form.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from pottsloop import oracle
from pottsloop.model import ModelSpec
from pottsloop.poly import P_C, P_ONE, P_ZERO, Poly
from pottsloop.words import Word


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

    An odd half-edge total has no matching and returns at once.  With
    planar_only, branches whose partial face count already forces genus
    above zero are abandoned early; each closed face is detected the moment
    its last chord is drawn.
    """
    total = k + 3 * n
    if total % 2:
        return
    if k == 0:
        # The empty boundary is still a vertex: alone it is a sphere with one
        # face (genus 0), and triangles could only form vacuum components.
        if n == 0:
            yield (), 0
        return
    sigma = oracle._rotation(k, n)
    V = 1 + n
    E = total // 2
    alpha: dict = {}
    pairs: list = []

    # union-find over sites with per-component open half-edge counts
    parent = list(range(n + 1))
    open_count = [k] + [3] * n
    has_boundary = [True] + [False] * n

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


def enumerate_diagrams(word: Word, n: int, nletters: int = 3):
    """All planar boundary-attached labelled diagrams, spin assignments expanded."""
    k = len(word)
    for matching, genus in _enumerate_matchings(k, n, planar_only=True):
        for spins in product(range(nletters), repeat=n):
            yield DiagramInstance(word, n, spins, matching, genus)


def all_genus_moments(word, n: int = 0) -> dict:
    """Gaussian moments split by genus (single matrix), for normalisation checks."""
    word = word if isinstance(word, Word) else Word.from_string(str(word))
    if n != 0:
        raise ValueError("all-genus splitting is validated for Gaussian moments only")
    out: dict = {}
    for _matching, genus in _enumerate_matchings(len(word), 0, planar_only=False):
        out[genus] = out.get(genus, 0) + 1
    return out
