"""Moment constants, recurrences, the quintic curve, numeric branch check."""

from fractions import Fraction

import pytest

from conftest import assert_tight_edge, grade_mask, laurent
from numeric_branch import numeric_branch_check
from pottsloop.curve import (
    ShiftedResolvent,
    build_shifted_resolvent,
    check_curve,
    curve_edge,
    curve_witness,
    quintic_residual,
)
from pottsloop.model import ModelSpec, TruncationError
from pottsloop.moments import (
    MOMENT_LABELS,
    MomentSet,
    RecurrenceReport,
    build_curve,
    check_recurrences,
    compute_moments,
    moment_edge,
)
from pottsloop.poly import Poly
from pottsloop.recursion import LazyTable, check_headroom, solve_series
from pottsloop.series import XLaurent


def six_coefficients(m: MomentSet, variant: str = "1202") -> tuple:
    """f0..f5 of the curve, with the fourth moment constant read from word ``variant``."""
    f0, rest = build_curve(m)
    return (f0(variant),) + rest


def implied_moment_relations(m: MomentSet) -> list:
    """Closed reductions of p1122 and p1120 to p1, p12, p012, verified exactly.

    Derived by combining the lowest x-slots of the catalog with the letter
    relabelings p110 = p122 = p100-rotated = p112 and p10 = p12 (every word
    with letters {0,1} maps to one with {1,2} under the 0<->2 swap), with
    D = 1 + c - 2c^2:

        D^3 g^3 p1122 = (1 + 2c^2) D g p12 + c D^2 g - c (2 + c)(1 - c) p1
        D^3 g^3 p1120 = (1 + c) D^2 g^2 p012 - 2c D g p12 + 2c^2 (1 - c) p1
    """
    D = m.const(1, 1, -2)
    D2, D3 = D * D, D * D * D

    # c (2 + c)(1 - c) = 2c - c^2 - c^3
    r1 = (
        (D3 * m.p1122).shift_g(3)
        - (m.const(1, 0, 2) * D * m.p12).shift_g(1)
        - (m.const(0, 1) * D2).shift_g(1)
        + m.const(0, 2, -1, -1) * m.p1
    )
    r2 = (
        (D3 * m.p1120).shift_g(3)
        - (m.const(1, 1) * D2 * m.p012).shift_g(2)
        + (m.const(0, 2) * D * m.p12).shift_g(1)
        - m.const(0, 0, 2, -2) * m.p1  # 2c^2 (1 - c)
    )
    out = []
    for name, r in (
        ("D^3 g^3 p1122 = (1+2c^2) D g p12 + c D^2 g - c(2+c)(1-c) p1", r1),
        ("D^3 g^3 p1120 = (1+c) D^2 g^2 p012 - 2c D g p12 + 2c^2 (1-c) p1", r2),
    ):
        fz = r.first_nonzero()
        out.append(RecurrenceReport(name, fz is None, None if fz is None else fz[1]))
    return out


def test_moment_examples(small_table):
    m = compute_moments(small_table)
    assert str(m.p11[0]) == "1"
    assert str(m.p12[0]) == "c"
    assert m.p1[0].is_zero()  # odd length word: no Gaussian part


def test_recurrences_hold(small_table):
    for rep in check_recurrences(compute_moments(small_table)):
        assert rep.passed, rep.line()


@pytest.mark.parametrize("c", [0, Fraction(1, 4), Fraction(-2, 3), 2])
def test_recurrences_hold_at_numeric_c(c):
    """The constants of every identity are taken at the coupling the moments were read at."""
    spec = ModelSpec(kind="potts3", c=c, ng=4, ltarget=4)
    m = compute_moments(solve_series(spec))
    for rep in check_recurrences(m) + implied_moment_relations(m):
        assert rep.passed, rep.line()
    assert m.spec == spec


def test_recurrence_low_order_values(small_table):
    m = compute_moments(small_table)
    # p12|0 = c and p11|0 = 1 realise the first-order slot of the second identity
    assert str(m.p12[0]) == "c"
    assert str(m.p11[0]) == "1"


def test_implied_moment_reductions(master_table):
    for rep in implied_moment_relations(compute_moments(master_table)):
        assert rep.passed, rep.line()


def test_curve_coefficient_degrees(master_table):
    cc = six_coefficients(compute_moments(master_table, 4))
    degs = []
    for f in cc:
        es = [e for e, _ in f.items()]
        degs.append((min(es), max(es)) if es else (None, None))
    assert [d[1] for d in degs] == [6] * 6  # every coefficient has x-degree 6
    assert [d[0] for d in degs] == [0, 1, 2, 3, 4, 6]
    # the top coefficient is the single monomial -4 (c-1)^8 (2c+1)^6 g^3 x^6
    f5 = cc[5]
    assert [e for e, _ in f5.items()] == [6]
    g_orders = [n for n, v in enumerate(f5.coefficient(6).coeffs[0]) if not v.is_zero()]
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
    from pottsloop.catalog import CATALOG
    from pottsloop.loopcat import _loop_rows

    for index in (1, 10, 2, 12, 4, 13, 14, 17):
        res = laurent(_loop_rows(CATALOG[index - 1].effective_terms(), medium_table, 2, 3), 2, 3)
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


@pytest.mark.parametrize("route", ["dense", "lazy", "lazy-c-2_3"])
def test_shared_sum_matches_each_variant_alone(master_table, route):
    # check_curve sums the terms of f1..f5 once and adds each variant's f0 term: the same
    # witnesses as the full residual of each variant built on its own
    table = {
        "dense": master_table,
        "lazy": LazyTable(ModelSpec(ng=6), max_len=10),
        "lazy-c-2_3": LazyTable(ModelSpec(c=Fraction(-2, 3), ng=6), max_len=10),
    }[route]
    moments, shifted = compute_moments(table, 6), build_shifted_resolvent(table, 6, 6)
    alone = [
        curve_witness(quintic_residual(shifted, six_coefficients(moments, v)), shifted) for v in ("1202", "1212")
    ]
    assert [ch.first_nonzero for ch in check_curve(table, 6, 6)] == alone
    assert [ch.first_nonzero for ch in check_curve(table, 6, 6, ("1212",))] == alone[1:]
    assert alone[0] is None and alone[1][:2] == (6, 6)
    if route != "lazy-c-2_3":
        assert alone[1] == (6, 6, W1212_X6G6)


def test_literal_shift_constant_fails(medium_table):
    """With the 1/(1-c) term at x^0 instead of x^-1 the curve cannot hold;
    the witness pins the adjudication of the shift convention."""
    moments = compute_moments(medium_table, 3)
    default = build_shifted_resolvent(medium_table, 3, 3)
    x = XLaurent.x_power(1, default.ytilde.nx, 3)
    shifted = default.replace(ytilde=default.ytilde - x + x**2)
    coeffs = six_coefficients(moments)
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
        m.p1 + XLaurent(0, [(0, 1)], 0, m.ng),
        *(getattr(m, "p" + lab) for lab in ("11", "12", "112", "012", "1122", "1120", "1202", "1212", "0121")),
    )
    shifted = build_shifted_resolvent(master_table, 6, 6)
    res = quintic_residual(shifted, six_coefficients(bumped))
    assert res.first_nonzero() is not None


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


@pytest.mark.parametrize(
    "nx, ng, c",
    [
        (4, 4, "symbolic"),
        (4, 4, Fraction(1, 4)),
        (6, 6, "symbolic"),
        (6, 6, Fraction(-2, 3)),
        (3, 3, "symbolic"),
        (2, 2, "symbolic"),
        (10, 6, Fraction(1, 5)),
    ],
    ids=str,
)
def test_lazy_route_matches_the_dense_route(nx, ng, c):
    # the CLI reads the curve and the moments off a LazyTable with the dense table's edge
    dense = solve_series(ModelSpec(kind="potts3", c=c, ng=ng, ltarget=max(nx - 6, 4)))
    lazy = LazyTable(dense.spec, max_len=curve_edge(nx, ng))
    assert lazy.S == dense.S
    checks = check_curve(lazy, nx, ng)
    assert checks == check_curve(dense, nx, ng)
    assert [ch.variant for ch in checks] == ["1202", "1212"] and checks[0].passed
    assert check_recurrences(compute_moments(lazy)) == check_recurrences(compute_moments(dense))


@pytest.mark.parametrize("nx, ng", [(0, 0), (3, 3), (4, 5), (6, 6), (10, 6), (12, 3), (2, 7)], ids=str)
def test_curve_reads_to_its_edge(nx, ng):
    assert_tight_edge(ng, curve_edge(nx, ng), lambda table: check_curve(table, nx, ng))


@pytest.mark.parametrize("ng", range(8))
def test_moments_read_to_their_edge(ng):
    assert moment_edge(0) == max(map(len, MOMENT_LABELS))
    assert_tight_edge(ng, moment_edge(ng), lambda table: check_recurrences(compute_moments(table)))


def test_masked_phi_leaves_the_residual_exact_to_mask_plus_six():
    # phi masked to |w| + n <= M, as a table of edge M masks it: ytilde's x^(k+3) carries phi_k,
    # so the mask is the sloped one at M + 3.  The residual agrees with an exact one at every
    # slot with e + n <= M + 6, the module docstring's bound, and first differs at M + 7 or M + 8.
    nx = ng = 8
    edge = curve_edge(nx, ng)
    spec = ModelSpec(c=Fraction(1, 3), ng=ng)
    deep = build_shifted_resolvent(LazyTable(spec, max_len=edge + 2), nx, ng)
    shallow = build_shifted_resolvent(LazyTable(spec, max_len=edge), nx, ng)
    assert shallow.ytilde == grade_mask(deep.ytilde, edge + 3)
    coeffs = six_coefficients(compute_moments(LazyTable(spec, max_len=moment_edge(ng))))
    exact = quintic_residual(deep, coeffs)
    assert exact.is_zero()
    first = {}
    for M in (0, 1, 4, 7):
        masked = ShiftedResolvent(grade_mask(deep.ytilde, M + 3), deep.one_minus_c)
        diff = quintic_residual(masked, coeffs) - exact
        first[M] = min(e + n for e, row in diff.items() for n, v in enumerate(row) if not v.is_zero())
    assert first == {0: 8, 1: 8, 4: 12, 7: 14}  # M + 7 or M + 8, by parity


def _shallow_residual():
    table = solve_series(ModelSpec(kind="potts3", c="symbolic", ng=2, ltarget=4))  # S = 6
    quintic_residual(build_shifted_resolvent(table, 12, 2), six_coefficients(compute_moments(table, 2)))


def _foreign_coupling():
    table = solve_series(ModelSpec(kind="potts3", c=Fraction(1, 4), ng=2, ltarget=4))
    numeric_branch_check(table, Fraction(1, 5), 0, [Fraction(1, 16)])


@pytest.mark.parametrize(
    "call, error, match",
    [
        (_shallow_residual, TruncationError, "need at least 8"),
        (lambda: build_curve(compute_moments(solve_series(ModelSpec(ng=2))))[0]("1221"), ValueError, "1202"),
        (_foreign_coupling, ValueError, "different coupling"),
        (lambda: check_curve(solve_series(ModelSpec(ng=2)), -1, 2), ValueError, "nonnegative"),
    ],
    ids=["shallow-mask", "unknown-variant", "foreign-coupling", "negative-nx"],
)
def test_curve_refuses_inputs_it_cannot_check(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_failure_counts_sit_next_to_the_first_bad_slot(master_table):
    # 1212 fails at one slot of the (6, 6) window and at two of the (8, 8) one
    for n, bad in ((6, 1), (8, 2)):
        checks = check_curve(master_table, n, n)
        assert [(ch.passed, ch.bad_slots) for ch in checks] == [(True, 0), (False, bad)]
        assert checks[1].first_nonzero[:2] == (6, 6)
    # p11 bumped at g^2 and g^4: the first recurrence fails at g^3 and g^5, the second at g^2 and g^4
    m = compute_moments(master_table, 6)
    bumped = m.replace(p11=m.p11 + XLaurent(0, [(0, 0, 1, 0, 1)], 0, m.ng))
    reports = check_recurrences(bumped)
    assert [(r.first_bad_order, r.bad_orders) for r in reports] == [(3, 2), (2, 2), (None, 0)]
    assert [r.line() for r in reports] == [r.replace(bad_orders=0).line() for r in reports]


def test_moment_order_bound_is_the_symbolic_headroom():
    # the moment commands, at any c, read to g^17 and refuse g^18: a 61- and a 66-bit bound
    assert check_headroom(ModelSpec(ng=17), moment_edge(17)).bit_length() == 61
    with pytest.raises(ValueError, match="\\(a 66-bit bound\\), beyond the 2\\^62 digit guard"):
        check_headroom(ModelSpec(ng=18), moment_edge(18))
