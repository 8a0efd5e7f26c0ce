"""Moment constants, recurrences, the quintic curve, numeric branch check."""

from fractions import Fraction

import pytest

from pottsloop.curve import (
    MomentSet,
    build_curve,
    build_shifted_resolvent,
    check_curve,
    check_recurrences,
    compute_moments,
    curve_witness,
    implied_moment_relations,
    numeric_branch_check,
    quintic_residual,
)
from pottsloop.loopcat import first_nonzero
from pottsloop.ring import GSeries, Poly
from pottsloop.solver import ModelSpec, solve_series


def test_moment_examples(small_table):
    m = compute_moments(small_table)
    assert str(m.p11[0]) == "1"
    assert str(m.p12[0]) == "c"
    assert m.p1[0].is_zero()  # odd length word: no Gaussian part


def test_recurrences_hold(small_table):
    for rep in check_recurrences(compute_moments(small_table)):
        assert rep.passed, rep.line()


def test_recurrence_low_order_values(small_table):
    m = compute_moments(small_table)
    # p12|0 = c and p11|0 = 1 realise the first-order slot of the second identity
    assert str(m.p12[0]) == "c"
    assert str(m.p11[0]) == "1"


def test_implied_moment_reductions(master_table):
    for rep in implied_moment_relations(compute_moments(master_table)):
        assert rep.passed, rep.line()


def test_curve_coefficient_degrees(master_table):
    cc = build_curve(compute_moments(master_table), 4)
    degs = cc.degrees()
    assert [d[1] for d in degs] == [6] * 6  # every coefficient has x-degree 6
    assert [d[0] for d in degs] == [0, 1, 2, 3, 4, 6]
    # the top coefficient is the single monomial -4 (c-1)^8 (2c+1)^6 g^3 x^6
    f5 = cc.fs[5]
    assert [e for e, _ in f5.items()] == [6]
    g_orders = [n for n, v in enumerate(f5.coefficient(6).coeffs) if not v.is_zero()]
    assert g_orders == [3]
    top = f5.coefficient(6)[3]
    assert top.degree == 14
    assert top.coefficient(0) == -4
    assert top.evaluate(1) == 0  # the (c-1)^8 factor


def test_quintic_residual_vanishes_variant_1202(medium_table):
    checks = check_curve(medium_table, nx=3, ng=3, variants=("1202",))
    assert checks[0].passed


def test_reduction_chain_equations_hold(medium_table):
    """The eight catalog entries that express phi1, phi11, phi12, sym phi112,
    phi121, phi111, phi1122 and sym phi1121 in terms of the resolvent, the
    inputs the curve elimination consumes."""
    from pottsloop.loopcat import CATALOG, loop_residual

    for index in (1, 10, 2, 12, 4, 13, 14, 17):
        res = loop_residual(CATALOG[index - 1], medium_table, 2, 3)
        assert res.is_zero(), f"entry {index}"


# The residual R of the quintic at its first nonzero slot, pinned exactly.
W1212_X6G6 = (
    "8*c^3+48*c^4-8*c^5-448*c^6-56*c^7+1968*c^8-648*c^9-4224*c^10"
    "+4080*c^11+2176*c^12-5616*c^13+3680*c^14-1088*c^15+128*c^16"
)
W_LITERAL_SHIFT_X1G3 = "26*c^2+118*c^3+42*c^4-406*c^5-284*c^6+552*c^7+272*c^8-320*c^9"


def test_variant_discrimination_at_depth(master_table):
    checks = {c.variant: c for c in check_curve(master_table, nx=6, ng=6)}
    assert checks["1202"].passed
    assert not checks["1212"].passed
    assert checks["1212"].first_nonzero == (6, 6, W1212_X6G6)


def test_literal_shift_constant_fails(medium_table):
    """With the 1/(1-c) term at x^0 instead of x^-1 the curve cannot hold;
    the witness pins the adjudication of the shift convention."""
    moments = compute_moments(medium_table, 3)
    shifted = build_shifted_resolvent(medium_table, 3, 3, constant_exponent=0)
    coeffs = build_curve(moments, 3, "1202")
    res = quintic_residual(shifted, coeffs)
    assert curve_witness(res, shifted) == (1, 3, W_LITERAL_SHIFT_X1G3)


def test_witness_divides_the_scale_back_exactly():
    from pottsloop.curve import _divide_back

    r = Poly((1, 2))
    one_minus_c = Poly((1, -1))
    assert _divide_back(r * one_minus_c**5, one_minus_c) == "1+2*c"
    v = r * one_minus_c**4  # (1-c)^5 does not divide it
    assert _divide_back(v, one_minus_c) == f"({v})/(1-c)^5"
    # at numeric c the scale is the nonzero constant 1 - c0
    q = Poly.constant(Fraction(3, 4))
    assert _divide_back(Poly.constant(-7) * q**5, q) == "-7"


def test_quintic_sensitive_to_moment_perturbation(master_table):
    # a +g bump of p1 first reaches retained residual slots around x^4 g^2,
    # so the window must be wide enough to see it
    m = compute_moments(master_table, 6)
    bumped = MomentSet(
        m.p1 + GSeries.g_power(1, m.ng),
        *(getattr(m, "p" + lab) for lab in ("11", "12", "112", "012", "1122", "1120", "1202", "1212", "0121")),
    )
    shifted = build_shifted_resolvent(master_table, 6, 6)
    res = quintic_residual(shifted, build_curve(bumped, 6, "1202"))
    assert first_nonzero(res) is not None


def test_quintic_c_zero_decoupling():
    tab = solve_series(ModelSpec(kind="potts3", c=0, ng=4, ltarget=4))
    checks = check_curve(tab, nx=3, ng=3, variants=("1202",))
    assert checks[0].passed


def test_numeric_branch_degenerate_g(master_table):
    xs = [Fraction(k, 64) for k in (1, 2, 3, -1, -2)]
    rep = numeric_branch_check(master_table, Fraction(1, 5), 0, xs, ng=8)
    assert rep.ties == 0
    assert rep.max_deviation <= 1e-10


def test_numeric_branch_deviation_shrinks(master_table):
    xs = [Fraction(k, 64) for k in (1, 2, -1)]
    dev4 = numeric_branch_check(master_table, Fraction(1, 5), Fraction(1, 64), xs, ng=4).max_deviation
    dev8 = numeric_branch_check(master_table, Fraction(1, 5), Fraction(1, 64), xs, ng=8).max_deviation
    assert dev8 <= dev4
    assert dev8 < 1e-4


def test_numeric_branch_detects_perturbation(master_table):
    xs = [Fraction(1, 16), Fraction(1, 8)]
    good = numeric_branch_check(master_table, Fraction(1, 5), Fraction(1, 64), xs, ng=8)
    bad = numeric_branch_check(master_table, Fraction(1, 5), Fraction(1, 32), xs, ng=2)
    assert good.max_deviation < bad.max_deviation
