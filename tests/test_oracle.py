"""The contraction oracle: normalisation, genus filter, solver agreement."""

from fractions import Fraction

import pytest

from pottsloop.freealg import Word
from pottsloop.oracle import (
    PropagatorMatrix,
    _enumerate_matchings,
    all_genus_moments,
    compare_with_solver,
    planar_moment,
    verify_propagator,
)
from pottsloop.ring import Poly
from pottsloop.solver import ModelSpec, SolutionTable, solve_series


def test_gaussian_genus_split_classical():
    # <tr X^4> = 2 + N^-2, <tr X^6> = 5 + 10 N^-2, <tr X^8> = 14 + 70 N^-2 + 21 N^-4
    assert all_genus_moments("0000") == {0: 2, 1: 1}
    assert all_genus_moments("000000") == {0: 5, 1: 10}
    assert all_genus_moments("00000000") == {0: 14, 1: 70, 2: 21}


def test_planar_moment_examples():
    assert planar_moment("00", 0) == Poly((1,))
    assert str(planar_moment("0011", 0)) == "1+c^2"
    assert planar_moment("0000", 0) == Poly((2,))
    assert str(planar_moment("01", 0)) == "c"
    assert str(planar_moment("0", 1)) == "1+2*c"


def test_parity_violation_returns_zero():
    assert planar_moment("0", 0).is_zero()
    assert planar_moment("00", 1).is_zero()


def test_oversize_rejected_with_estimate():
    with pytest.raises(ValueError, match="matchings"):
        planar_moment("0" * 6, 4)


def test_empty_word():
    assert planar_moment("", 0) == Poly((1,))
    assert planar_moment("", 2).is_zero()


def test_propagator_identity():
    assert verify_propagator()
    assert verify_propagator(0)
    assert verify_propagator(Fraction(1, 4))
    assert verify_propagator(2)
    # a kernel pole is refused by ModelSpec, as in every other check
    with pytest.raises(ValueError, match="pole"):
        verify_propagator(1)
    with pytest.raises(ValueError, match="pole"):
        verify_propagator(Fraction(-1, 2))


def test_kernel_entries():
    K, D = PropagatorMatrix.symbolic().kernel()
    # diagonal (1+c)/D, off-diagonal -c/D with D = 1 + c - 2c^2
    assert D == Poly((1, 1, -2))
    assert K[0][0] == Poly((1, 1))
    assert K[0][1] == Poly((0, -1))
    assert K[0][1] == K[1][2]
    assert K[0][0] == K[2][2]


@pytest.mark.parametrize("c", ["symbolic", Fraction(1, 4), 2])
def test_propagator_check_rejects_a_perturbed_kernel(monkeypatch, c):
    kernel = PropagatorMatrix.kernel

    def perturbed(self):
        K, D = kernel(self)
        rows = [list(row) for row in K]
        rows[1][2] = rows[1][2] + Poly((0, 0, 1))
        return tuple(tuple(row) for row in rows), D

    assert verify_propagator(c)
    monkeypatch.setattr(PropagatorMatrix, "kernel", perturbed)
    assert not verify_propagator(c)


def test_pruning_independence():
    for k, n in [(4, 2), (2, 2), (6, 0), (3, 3)]:
        pruned = sorted(m for m, _ in _enumerate_matchings(k, n, planar_only=True, prune=True))
        plain = sorted(m for m, _ in _enumerate_matchings(k, n, planar_only=True, prune=False))
        assert pruned == plain


def test_oracle_cyclic_and_relabel_invariance():
    base = Word.from_string("0112")
    ref = planar_moment(base, 2)
    for rot in base.rotations():
        assert planar_moment(rot, 2) == ref
    for perm in [(1, 0, 2), (2, 1, 0), (1, 2, 0)]:
        assert planar_moment(base.relabel(perm), 2) == ref


def test_compare_with_solver_small(small_table):
    rep = compare_with_solver(small_table, 2, 3)
    assert rep.ok
    assert rep.checked > 20


def test_compare_reports_corruption():
    spec = ModelSpec(kind="potts3", c="symbolic", ng=1, ltarget=3)
    table = solve_series(spec)
    broken = SolutionTable(spec, table.S, {k: dict(v) for k, v in table.layers.items()})
    layer = broken.layers[(0, 2)]
    key = next(iter(sorted(layer)))
    layer[key] += 1
    rep = compare_with_solver(broken, 0, 2)
    assert len(rep.mismatches) == 1


def test_numeric_c_agreement():
    tab = solve_series(ModelSpec(kind="potts3", c="1/4", ng=2, ltarget=3))
    rep = compare_with_solver(tab, 2, 3)
    assert rep.ok


def test_enumerate_diagrams_structure():
    from pottsloop.oracle import enumerate_diagrams

    diagrams = list(enumerate_diagrams(Word.from_string("0"), 1))
    # three planar matchings, each with three possible vertex spins
    assert len(diagrams) == 9
    assert all(d.genus == 0 for d in diagrams)
    assert all(len(d.matching) == 2 for d in diagrams)
