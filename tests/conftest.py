from fractions import Fraction
from math import lcm

import pytest

from pottsloop.freealg import NCSeries, Word
from pottsloop.ring import Poly, XLaurent
from pottsloop.solver import LazyTable, ModelSpec, SolutionTable, _singletons, _solve_dense, _weights, solve_series


def solve_unreduced(spec: ModelSpec) -> SolutionTable:
    """``solve_series`` on the singleton partition: the recursion runs on every
    word and assumes no rotation, reversal or relabelling symmetry, so tables
    solved this way referee the orbit-reduced solve and the orbit memo."""
    S = spec.ltarget + spec.ng
    layers = _solve_dense(spec.nletters, S, spec.ng, *_weights(spec), _singletons(spec.nletters, S))
    return SolutionTable(spec, S, layers)


def from_fractions(fracs) -> Poly:
    """The polynomial in c with these ascending rational coefficients."""
    fracs = [Fraction(f) for f in fracs]
    den = lcm(*(f.denominator for f in fracs))
    return Poly([f.numerator * (den // f.denominator) for f in fracs], den)


def gseries(coeffs, ng: int) -> XLaurent:
    """The g-series (an x-order-0 ``XLaurent``) with these coefficients of g^0, g^1, ..."""
    return XLaurent(0, [coeffs], 0, ng)


def shift_x(s: XLaurent, k: int) -> XLaurent:
    """The series times x**k, truncated at its own x-order."""
    return XLaurent._of_rows(s.low + k, s.coeffs, s.nx, s.ng)


def monomial(word: Word, lmax: int, ng: int) -> NCSeries:
    """The series holding the one word with coefficient 1."""
    return NCSeries({word: gseries([1], ng)}, lmax, ng)


def laurent(rows, nx: int, ng: int) -> XLaurent:
    """An XLaurent from x^0 out of the (rows, den) pair a ``loopcat`` row function returns."""
    return XLaurent._from_ints(0, *rows, nx, ng)


def drop_last(w: Word) -> Word:
    """The word without its last letter."""
    return Word._raw(w.n - 1, w.bits & ((1 << (2 * (w.n - 1))) - 1))


def right_delta(s: NCSeries, a: int) -> NCSeries:
    """Strip a trailing ``a``; words ending otherwise are annihilated (the mirror of ``left_delta``)."""
    return NCSeries({drop_last(w): v for w, v in s.terms.items() if len(w) and w[-1] == a}, s.lmax, s.ng)


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
