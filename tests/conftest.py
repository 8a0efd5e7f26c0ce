import pytest

from pottsloop.solver import LazyTable, ModelSpec, SolutionTable, _singletons, _solve_dense, _weights, solve_series


def solve_unreduced(spec: ModelSpec) -> SolutionTable:
    """``solve_series`` on the singleton partition: the recursion runs on every
    word and assumes no rotation, reversal or relabelling symmetry, so tables
    solved this way referee the orbit-reduced solve and the orbit memo."""
    S = spec.ltarget + spec.ng
    layers = _solve_dense(spec.nletters, S, spec.ng, *_weights(spec), _singletons(spec.nletters, S))
    return SolutionTable(spec, S, layers)


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
