from fractions import Fraction
from itertools import permutations
from math import gcd, lcm, prod

import pytest

from pottsloop.freealg import NCSeries, Word
from pottsloop.ring import P_ZERO, Poly, XLaurent, balanced_digits
from pottsloop.solver import (
    LazyTable,
    ModelSpec,
    SolutionTable,
    TruncationError,
    _singletons,
    _solve_dense,
    _weights,
    solve_series,
)


def solve_unreduced(spec: ModelSpec) -> SolutionTable:
    """``solve_series`` on the singleton partition: the recursion runs on every
    word and assumes no rotation, reversal or relabelling symmetry, so tables
    solved this way referee the orbit-reduced solve and the orbit memo."""
    S = spec.ltarget + spec.ng
    layers = _solve_dense(spec.nletters, S, spec.ng, *_weights(spec), _singletons(spec.nletters, S))
    return SolutionTable(spec, S, layers)


def memo_slots(lazy: LazyTable) -> dict:
    """{(k, n): the memo dict of that held slot, packed word -> raw value} of a lazy table."""
    return {(k, n): read.__self__ for k, row in enumerate(lazy._slots) for n, read in enumerate(row) if read}


def from_fractions(fracs) -> Poly:
    """The polynomial in c with these ascending rational coefficients."""
    fracs = [Fraction(f) for f in fracs]
    den = lcm(*(f.denominator for f in fracs))
    return Poly([f.numerator * (den // f.denominator) for f in fracs], den)


def gseries(coeffs, ng: int) -> XLaurent:
    """The g-series (an x-order-0 ``XLaurent``) with these coefficients of g^0, g^1, ..."""
    return XLaurent(0, [coeffs], 0, ng)


def grade_mask(a: XLaurent, cap: int) -> XLaurent:
    """Zero every slot with x-degree + g-degree above ``cap``.

    Truncated Laurent arithmetic is exact on such a sloped region whenever
    every negative x power carries at least as many powers of g: slot
    grades are then nonnegative and add under multiplication, so
    contributions from beyond the cap can never land inside it.
    """
    out = []
    for e, row in enumerate(a.coeffs, a.low):
        keep = min(max(cap - e + 1, 0), a.ng + 1)
        out.append(row[:keep] + (P_ZERO,) * (a.ng + 1 - keep))
    return XLaurent._of_rows(a.low, out, a.nx, a.ng)


def shift_x(s: XLaurent, k: int) -> XLaurent:
    """The series times x**k, truncated at its own x-order."""
    return XLaurent._of_rows(s.low + k, s.coeffs, s.nx, s.ng)


def monomial(word: Word, lmax: int, ng: int) -> NCSeries:
    """The series holding the one word with coefficient 1."""
    return NCSeries({word: gseries([1], ng)}, lmax, ng)


def laurent(s, nx: int, ng: int) -> XLaurent:
    """An XLaurent from x^0 out of the integer rows a ``loopcat`` row function returns."""
    return XLaurent._from_ints(0, [[balanced_digits(v, s.width) for v in row] for row in s.rows], s.den, nx, ng)


def drop_last(w: Word) -> Word:
    """The word without its last letter."""
    return Word._raw(w.n - 1, w.bits & ((1 << (2 * (w.n - 1))) - 1))


def right_delta(s: NCSeries, a: int) -> NCSeries:
    """Strip a trailing ``a``; words ending otherwise are annihilated (the mirror of ``left_delta``)."""
    return NCSeries({drop_last(w): v for w, v in s.terms.items() if len(w) and w[-1] == a}, s.lmax, s.ng)


def assert_tight_edge(ng: int, edge: int, *checks) -> None:
    """Each check on a c = 1/3 ``LazyTable`` to g^ng reads exactly to ``edge``.

    Its results at the edge equal those two letters deeper, and two letters
    short the table refuses a read.  So does one letter short at an even
    edge; at an odd one the top layer it drops is all zero by parity.  The
    checks share the table at each edge.
    """

    def table(S):
        return LazyTable(ModelSpec(c=Fraction(1, 3), ng=ng), max_len=S)

    at, deeper = table(edge), table(edge + 2)
    for check in checks:
        assert check(at) == check(deeper)
    for S in (edge - 2, edge - 1) if edge % 2 == 0 else (edge - 2,):
        short = table(S)
        for check in checks:
            with pytest.raises(TruncationError):
                check(short)


@pytest.fixture(scope="session")
def small_table():
    """Symbolic Potts table, region |w| + n <= 7."""
    return solve_series(ModelSpec(kind="potts3", c="symbolic", ng=3, ltarget=4))


@pytest.fixture(scope="session")
def master_table():
    """Symbolic Potts table, region |w| + n <= 12 (acceptance scale)."""
    return solve_series(ModelSpec(kind="potts3", c="symbolic", ng=8, ltarget=4))


@pytest.fixture(scope="session")
def referee_table():
    """Unreduced symbolic Potts table, region |w| + n <= 10, n <= 6: the
    benchmark's dense region, solved word by word (:func:`solve_unreduced`)."""
    return solve_unreduced(ModelSpec(kind="potts3", c="symbolic", ng=6, ltarget=4))


@pytest.fixture(scope="session")
def lazy_table():
    """Demand-driven symbolic table for deep amplitude extraction."""
    return LazyTable(ModelSpec(kind="potts3", c="symbolic", ng=6, ltarget=11), max_len=24)


@pytest.fixture(scope="session")
def medium_table():
    """Symbolic Potts table, region |w| + n <= 11 (deep enough for shallow catalog runs)."""
    return solve_series(ModelSpec(kind="potts3", c="symbolic", ng=3, ltarget=8))


def burnside_orbits(k: int) -> int:
    """Orbits of D_k x S3 on the three-letter words of length k, by Burnside's lemma.

    Each pair (g, sigma) fixes prod over the cycles of g of #fix(sigma^L),
    L the cycle's length; the orbit count is the mean over the 12k pairs.
    """
    if k == 0:
        return 1
    cycles = [[k // gcd(k, r)] * gcd(k, r) for r in range(k)]  # the rotations
    if k % 2:
        cycles += [[1] + [2] * (k // 2)] * k
    else:
        cycles += [[1, 1] + [2] * (k // 2 - 1)] * (k // 2) + [[2] * (k // 2)] * (k // 2)

    def fix(sigma, L):  # the letters a with sigma^L(a) = a
        power = list(range(3))
        for _ in range(L):
            power = [sigma[a] for a in power]
        return sum(power[a] == a for a in range(3))

    perms = list(permutations(range(3)))
    total = sum(prod(fix(sigma, L) for L in cyc) for cyc in cycles for sigma in perms)
    assert total % (12 * k) == 0
    return total // (12 * k)
