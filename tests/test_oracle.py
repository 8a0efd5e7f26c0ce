"""The contraction oracle: normalisation, genus filter, solver agreement."""

from collections import Counter
from fractions import Fraction
from itertools import product
from math import factorial

import pytest

from conftest import memo_slots
from labelled_oracle import (
    PropagatorMatrix,
    _count_faces,
    _enumerate_matchings,
    _site,
    all_genus_moments,
    enumerate_diagrams,
    verify_propagator,
)
from pottsloop import oracle, tables
from pottsloop.cli import main
from pottsloop.model import ModelSpec, TruncationError
from pottsloop.oracle import _planar_diagrams, _weight_classes, compare_with_solver, planar_moment
from pottsloop.orbits import word_orbits
from pottsloop.poly import Poly
from pottsloop.recursion import LazyTable, SolutionTable, solve_series
from pottsloop.words import Word


def test_gaussian_genus_split_classical():
    # <tr X^4> = 2 + N^-2, <tr X^6> = 5 + 10 N^-2, <tr X^8> = 14 + 70 N^-2 + 21 N^-4
    assert all_genus_moments("0000") == {0: 2, 1: 1}
    assert all_genus_moments("000000") == {0: 5, 1: 10}
    assert all_genus_moments("00000000") == {0: 14, 1: 70, 2: 21}


def test_empty_word_is_one_planar_vertex():
    # <tr 1> is a sphere with one vertex and one face; triangles alone form vacuum parts
    assert all_genus_moments("") == {0: 1}
    assert [d.genus for d in enumerate_diagrams(Word(), 0)] == [0]
    assert list(enumerate_diagrams(Word(), 2)) == []
    assert planar_moment("", 0) == Poly((1,))
    assert planar_moment("", 2).is_zero()


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
    planar_moment("0" * 6, 4)  # 18 half-edges, the largest input the oracle takes
    with pytest.raises(ValueError, match="20 half-edges exceeds desk scale .*matchings"):
        planar_moment("0" * 8, 4)


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
    diagrams = list(enumerate_diagrams(Word.from_string("0"), 1))
    # three planar matchings, each with three possible vertex spins
    assert len(diagrams) == 9
    assert all(d.genus == 0 for d in diagrams)
    assert all(len(d.matching) == 2 for d in diagrams)


@pytest.fixture
def fresh_classes():
    """An empty weight-class cache, so the test sees every enumeration."""
    _weight_classes.cache_clear()
    yield
    _weight_classes.cache_clear()


def _sizes(points):
    """Every parity-allowed (|w|, n) with |w| >= 1 and |w| + 3n <= points."""
    return [(k, n) for k in range(1, points + 1) for n in range((points - k) // 3 + 1) if (k + n) % 2 == 0]


def _spin_tally(k, n, matchings):
    """Diagrams with every spin assignment, tallied by sorted chord ends.

    A diagram weighs c^(chords between unequal spins), and its weight reads
    only the letter at each chord end, a boundary position 0..k-1 of the
    word or a triangle spin, written k + spin; diagrams with the same sorted
    chord ends (each chord sorted too) are tallied together, which leaves
    every word's sum exact.
    """
    tally = Counter()
    for matching in matchings:
        for spins in product(range(3), repeat=n):
            end = tuple(range(k)) + tuple(k + s for s in spins for _ in range(3))
            tally[tuple(sorted(tuple(sorted((end[a], end[b]))) for a, b in matching))] += 1
    return tally


@pytest.mark.parametrize("k, n", _sizes(12))
def test_weight_classes_equal_the_per_diagram_sum(k, n):
    # Referees built from the expanded diagrams, with no weight classes: the
    # labelled matchings tally n! 3^n times what the canonical diagrams do,
    # and the canonical tally summed at every word is planar_moment.
    canonical = _spin_tally(k, n, _planar_diagrams(k, n))
    labelled = _spin_tally(k, n, (m for m, _genus in _enumerate_matchings(k, n, planar_only=True)))
    norm = factorial(n) * 3**n
    assert labelled == Counter({key: norm * mult for key, mult in canonical.items()})
    for rep, _images in word_orbits(k):
        word = Word._raw(k, rep)
        letter = word.letters() + (0, 1, 2)
        counts = [0] * ((k + 3 * n) // 2 + 1)
        for chords, mult in canonical.items():
            counts[sum(letter[x] != letter[y] for x, y in chords)] += mult
        assert planar_moment(word, n) == Poly(counts), str(word)


@pytest.mark.parametrize("k, n", _sizes(14))
def test_canonical_diagrams_are_the_labelled_ones_up_to_relabelling(k, n):
    # every canonical diagram is a distinct perfect matching whose map is
    # connected and planar; there are n! 3^n labelled copies of each
    diagrams = list(_planar_diagrams(k, n))
    assert len(set(diagrams)) == len(diagrams)
    sigma = oracle._rotation(k, n)
    for chords in diagrams:
        alpha = {a: b for a, b in chords} | {b: a for a, b in chords}
        assert sorted(alpha) == list(range(k + 3 * n))
        sites = [(_site(a, k), _site(b, k)) for a, b in chords]
        reached, grew = {0}, True  # the boundary vertex is site 0
        while grew:
            grew = False
            for u, v in sites:
                if (u in reached) != (v in reached):
                    reached |= {u, v}
                    grew = True
        assert len(reached) == n + 1
        # connected, so genus 0 is V - E + F = 2
        assert (1 + n) - len(chords) + _count_faces(sigma, alpha) == 2
    labelled = sum(1 for _ in _enumerate_matchings(k, n, planar_only=True))
    assert len(diagrams) * factorial(n) * 3**n == labelled


def test_odd_half_edge_totals_return_at_once(monkeypatch):
    # both enumerators build the rotation system once per search; an odd total
    # has no matching and must return before building it
    built = []
    rotation = oracle._rotation

    def counted(k, n):
        built.append((k, n))
        return rotation(k, n)

    monkeypatch.setattr(oracle, "_rotation", counted)
    for k, n in [(9, 2), (6, 3), (1, 0), (0, 1)]:
        assert list(_planar_diagrams(k, n)) == []
        assert list(_enumerate_matchings(k, n, planar_only=True)) == []
    assert built == []
    assert len(list(_planar_diagrams(6, 2))) == 120
    assert built == [(6, 2)]


def test_compare_enumerates_each_size_once(monkeypatch, fresh_classes, small_table):
    calls = Counter()
    planar_diagrams = oracle._planar_diagrams

    def counted(k, n):
        calls[k, n] += 1
        return planar_diagrams(k, n)

    monkeypatch.setattr(oracle, "_planar_diagrams", counted)
    assert compare_with_solver(small_table, 2, 3).ok
    # |w| = 0 needs no diagrams; each other parity-allowed size is enumerated once
    assert calls == Counter({(1, 1): 1, (2, 0): 1, (2, 2): 1, (3, 1): 1})


def test_oversize_compare_refused_before_any_enumeration(monkeypatch, fresh_classes, small_table, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("diagrams or words enumerated before the size checks")

    monkeypatch.setattr(oracle, "_planar_diagrams", refuse)
    monkeypatch.setattr(tables, "_lex", refuse)
    for max_n, max_len, error in (
        # |w| = 2 at g^6 has 20 half-edges, beyond the 18 the oracle accepts
        (6, 2, "oracle input 20 half-edges exceeds desk scale"),
        # every word of up to 16 letters, at one order: 64,570,081 slots
        (0, 16, "listing of every word of up to 16 letters to g^0 refused: 64570081 slots, beyond the 2^20 slot bound"),
    ):
        with pytest.raises(ValueError) as exc:
            compare_with_solver(small_table, max_n, max_len)
        assert error in str(exc.value)
        assert main(["compare", "--max-n", str(max_n), "--max-len", str(max_len)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"error: {error}" in err


def test_compare_referees_a_lazy_table():
    lazy = LazyTable(ModelSpec(kind="potts3", c="symbolic", ng=3, ltarget=6), max_len=9)
    rep = compare_with_solver(lazy, 3, 6)
    assert rep.ok, rep.mismatches[:3]
    assert rep.checked == 2186  # every word of up to six letters, two parity-allowed orders each


def test_compare_reads_the_table_through_the_export_stream():
    # compare reads each listed word once, as solve does: it leaves what listing(8, 0) leaves
    # (test_the_export_stream_stores_no_alias_key), where a per-slot read kept 7,381 entries
    lazy = LazyTable(ModelSpec(ng=0, ltarget=8), max_len=8)
    assert compare_with_solver(lazy, 0, 8).checked == 7381  # every word of even length, at g^0
    assert (lazy.rhs_evaluations, len(lazy._memo)) == (131, 287)


def test_compare_reports_a_corrupted_lazy_memo_entry():
    lazy = LazyTable(ModelSpec(kind="potts3", c="symbolic", ng=2, ltarget=4), max_len=6)
    assert compare_with_solver(lazy, 2, 4).ok
    word, n = Word.from_string("0121"), 2
    memo_slots(lazy)[word.n, n][word.bits] += 1
    rep = compare_with_solver(lazy, 2, 4)
    assert [(w, m) for w, m, _got, _expect in rep.mismatches] == [(word, n)]


def test_compare_refuses_a_table_that_lacks_a_slot():
    # neither table holds (three letters, g^1): the lazy one refuses the four-letter
    # words that slot reads at g^0, the dense one solved |w| + n <= 3
    for table in (LazyTable(ModelSpec(ng=2), max_len=3), solve_series(ModelSpec(ng=2, ltarget=1))):
        with pytest.raises(TruncationError):
            compare_with_solver(table, 2, 3)


@pytest.mark.parametrize("c", ["symbolic", Fraction(-2, 3)])
def test_p_coeff_is_the_oracle_value_or_a_refusal(c):
    """Every (word, n) up to two letters and one order past the region: each
    table either returns the oracle's value or raises, never a silent 0."""
    spec = ModelSpec(c=c, ng=2, ltarget=3)
    tables = (solve_series(spec), LazyTable(spec, max_len=5))  # both hold |w| + n <= 5, n <= 2
    words = [Word(w) for k in range(8) for w in product(range(3), repeat=k)]
    oracle_values = {}
    for table in tables:
        refused = 0
        for w in words:
            for n in range(4):
                try:
                    got = table.p_coeff(w, n)
                except TruncationError:
                    assert (len(w) + n) % 2 == 0 and (len(w) + n > 5 or n > 2), (w, n)
                    refused += 1
                    continue
                if (w, n) not in oracle_values:
                    oracle_values[w, n] = spec.const(planar_moment(w, n))
                assert got == oracle_values[w, n], (w, n)
        assert refused == sum(1 for w in words for n in range(4) if (len(w) + n) % 2 == 0 and (len(w) + n > 5 or n > 2))
