"""Acceptance suite: every criterion at its stated truncation, exact arithmetic.

All residual checks are zero-tolerance (exact rationals).  The numeric
branch check is the only floating-point consumer and has its stated bound;
it is test code (``tests/numeric_branch.py``, with ``numpy`` a test
dependency), not part of the package.  Each test prints one PASS line on
success; failures carry the first offending coefficient.
"""

from fractions import Fraction

import pytest

from conftest import monomial, right_delta
from numeric_branch import numeric_branch_check
from pottsloop.curve import check_curve
from pottsloop.loopcat import check_loops, check_sd
from pottsloop.model import ModelSpec
from pottsloop.moments import check_recurrences, compute_moments
from pottsloop.oracle import compare_with_solver, planar_moment
from pottsloop.poly import Poly
from pottsloop.recursion import LazyTable, solve_series
from pottsloop.solver import generating_residual, recast_residual_rect, solve_pure_gravity
from pottsloop.words import Word, all_words

NUMERIC_SPOTS = (Fraction(1, 5), Fraction(1, 4), Fraction(1, 3))


@pytest.fixture
def master(master_table):
    return master_table


@pytest.fixture
def lazy_symbolic(lazy_table):
    return lazy_table


def test_criterion_1_generating_equation_residuals(master):
    """Fixed-point and derivative forms vanish for every word to grade 12."""
    report = generating_residual(master, grade=12)
    assert report.ok, (report.fixed_point[:3], report.recast[:3])
    print("\n[PASS] criterion 1: generating-equation residuals zero to grade 12, symbolic c")


def test_criterion_2_loop_catalog(lazy_symbolic):
    """All 24 cataloged residuals vanish to x-order 6, g-order 6, at symbolic
    c and three rational spot values.  Entries 20 and 21 use the emended
    transcription; the verbatim one is demonstrably inconsistent (see
    test_loopcat for the pinned witness and the ledger for the analysis)."""
    tables = [lazy_symbolic] + [
        LazyTable(ModelSpec(kind="potts3", c=c0, ng=6, ltarget=11), max_len=24)
        for c0 in NUMERIC_SPOTS
    ]
    for table in tables:
        results = check_loops(table, nx=6, ng=6)
        failures = [r.line() for r in results if not r.passed]
        assert not failures, failures
        # the 24th catalog entry: the derivative form of the generating equation
        bad = recast_residual_rect(table, kmax=6, ng=6)
        assert not bad, bad[:3]
    print("\n[PASS] criterion 2: 24 loop-equation residuals zero at x^6 g^6, symbolic and c in {1/5, 1/4, 1/3}")


def test_criterion_3_moment_recurrences(master):
    reports = check_recurrences(compute_moments(master, 8))
    assert all(r.passed for r in reports), [r.line() for r in reports]
    print("\n[PASS] criterion 3: moment recurrences exact to g-order 8")


def test_criterion_4_spectral_curve(master):
    """Headline: the quintic residual vanishes exactly at symbolic c to
    x-order 8 and g-order 8 for the 1202 moment mapping."""
    checks = {c.variant: c for c in check_curve(master, nx=8, ng=8)}
    assert checks["1202"].passed, checks["1202"].line()
    passing = [v for v, c in checks.items() if c.passed]
    assert passing == ["1202"], f"passing variants: {passing}"
    print("\n[PASS] criterion 4: quintic spectral-curve residual zero at x^8 g^8, symbolic c; variant 1202")


def test_criterion_5_oracle_equivalence(master):
    rep = compare_with_solver(master, 3, 6)
    assert rep.ok, rep.mismatches[:3]
    assert rep.checked == 2186  # every word of up to six letters, two parity-allowed orders each
    # four triangles (81 spin assignments) on words of up to four letters, 16 half-edges
    rep4 = compare_with_solver(master, 4, 4)
    assert rep4.ok, rep4.mismatches[:3]
    assert rep4.checked == 333
    # one letter reaches the oracle's 18 half-edges at |w| = 6, g^4
    pure = solve_series(ModelSpec(kind="pure-gravity", ng=4, ltarget=6))
    rep_pure = compare_with_solver(pure, 4, 6)
    assert rep_pure.ok, rep_pure.mismatches[:3]
    assert rep_pure.checked == 18
    # forced spot values
    assert master.p_coeff("00", 0) == Poly((1,))
    assert str(master.p_coeff("01", 0)) == "c"
    assert str(master.p_coeff("0011", 0)) == "1+c^2"
    assert master.p_coeff("0000", 0) == Poly((2,))
    print(
        f"\n[PASS] criterion 5: solver equals contraction oracle on {rep.checked} + {rep4.checked} Potts and "
        f"{rep_pure.checked} pure-gravity coefficients"
    )


def test_criterion_6_pure_gravity_closed_form():
    pg = solve_pure_gravity(10, 10, check_variant=True)
    assert (pg.branch - pg.phi).is_zero()
    assert pg.variant_first_mismatch is not None  # the rejected reading, pinned
    print("\n[PASS] criterion 6: pure-gravity series equals the closed-form branch to x^10 g^10")


def test_criterion_7_reparameterisation_identities(lazy_symbolic):
    results = check_sd(lazy_symbolic, nx=6, ng=6)
    failures = [r.line() for r in results if not r.passed]
    assert not failures, failures
    print("\n[PASS] criterion 7: 23 reparameterisation residuals zero at x^6 g^6 and match their catalog pairings")


def test_criterion_8_symmetry_suite(referee_table):
    """Read on the table solved word by word (region |w| + n <= 10, n <= 6),
    so the symmetry is a property of the solution, not of the orbit solve."""
    import random

    rng = random.Random(8)
    # cyclic-class equality and S3 invariance
    perms = [(1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1)]
    for _ in range(300):
        k = rng.randrange(1, 7)
        n = rng.choice([m for m in range(referee_table.ng + 1) if (k + m) % 2 == 0 and k + m <= referee_table.S])
        word = Word([rng.randrange(3) for _ in range(k)])
        ref = referee_table.p_coeff(word, n)
        for rot in word.rotations():
            assert referee_table.p_coeff(rot, n) == ref
        for perm in perms:
            assert referee_table.p_coeff(word.relabel(perm), n) == ref
    # parity vanishing
    for _ in range(200):
        k = rng.randrange(0, 7)
        word = Word([rng.randrange(3) for _ in range(k)])
        for n in range(referee_table.ng + 1):
            if (k + n) % 2 and k + n <= referee_table.S:
                assert referee_table.p_coeff(word, n).is_zero()
    # cyclic concatenation rule on the solved series, failure on a witness
    phi = referee_table.to_ncseries(6, 3)
    for _ in range(40):
        p = [rng.randrange(3) for _ in range(rng.randrange(3))]
        q = [rng.randrange(3) for _ in range(rng.randrange(1, 3))]
        if len(p) + len(q) > 4:
            continue
        lhs = rhs = phi
        for a in p:
            lhs = lhs.left_delta(a)
        for b in reversed(q):
            lhs = right_delta(lhs, b)
        for a in q + p:
            rhs = rhs.left_delta(a)
        for u in all_words(2):
            assert lhs.coefficient(u) == rhs.coefficient(u)
    witness = monomial(Word.from_string("01"), 6, 3)
    assert right_delta(witness, 1) != witness.left_delta(1)
    print("\n[PASS] criterion 8: cyclic, S3, parity and concatenation-rule properties hold")


def test_numeric_branch_check_support(master):
    """Auxiliary to criterion 4: the numeric layer tracks the series branch."""
    xs = [Fraction(k, 64) for k in (1, 2, 3, -1, -2)]
    rep = numeric_branch_check(master, Fraction(1, 5), 0, xs, ng=8)
    assert rep.ties == 0 and rep.max_deviation <= 1e-10
    dev4 = numeric_branch_check(master, Fraction(1, 5), Fraction(1, 64), xs, ng=4).max_deviation
    dev8 = numeric_branch_check(master, Fraction(1, 5), Fraction(1, 64), xs, ng=8).max_deviation
    assert dev8 <= dev4
    print("\n[PASS] numeric branch check: series root tracked, deviation shrinks with order")
