"""Coefficient ring arithmetic: polynomials in c, series in x and g."""

import random
from fractions import Fraction

import pytest

from conftest import from_fractions, grade_mask, gseries, shift_x
from pottsloop import ring
from pottsloop.ring import (
    P_C,
    P_ONE,
    Poly,
    XLaurent,
    _int_rows,
    _laurent_addmul,
    rat_to_str,
    xlaurent_sqrt,
)


def poly(*coeffs):
    return from_fractions(coeffs)


def test_division_cancels_common_factor():
    # the shared denominator is reduced against the content and kept positive
    assert Poly((2, 4), 4) == poly(Fraction(1, 2), 1)
    assert Poly((3, 6), 3) == poly(1, 2)
    assert Poly((3, 6), 3).den == 1
    assert Poly((1,), -2) == Poly.constant(Fraction(-1, 2))
    assert poly(1, -1) * poly(1, 2) == poly(1, 1, -2)
    assert poly(Fraction(1, 2), Fraction(3, 2)).scale(2) == poly(1, 3)


def test_fractional_coefficients_are_refused():
    # int() would truncate them to zero; rationals go through the denominator
    for coeffs in ([Fraction(1, 2)], [0.5, 1.7]):
        with pytest.raises(TypeError):
            Poly(coeffs)
    # so would int() on a fractional denominator: Poly([1], 2.5) read as 1/2
    for coeffs, den in (([1], 2.5), ([3], Fraction(7, 2))):
        with pytest.raises(TypeError):
            Poly(coeffs, den)
    assert Poly([1], 2) == Poly.constant(Fraction(1, 2))


def test_additive_identity():
    assert P_C + poly(0) == P_C


def test_division_by_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        Poly((1,), 0)


def test_evaluate_at_c():
    assert poly(1, -1).evaluate(Fraction(1, 2)) == Fraction(1, 2)
    assert poly(1, 1, -2).evaluate(1) == 0
    assert (P_C * P_C).evaluate(Fraction(1, 3)) == Fraction(1, 9)
    assert poly(Fraction(1, 2), 0, 3).evaluate(2) == Fraction(25, 2)


def _random_poly(rng):
    return from_fractions(
        [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rng.randint(1, 4))]
    )


def test_ring_axioms_random_polys():
    rng = random.Random(7)
    for _ in range(40):
        a, b, c = (_random_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a - a == poly(0)


def test_evaluate_is_ring_homomorphism():
    rng = random.Random(13)
    pts = [Fraction(1, 5), Fraction(2, 7), Fraction(-3, 4)]
    for _ in range(25):
        a, b = _random_poly(rng), _random_poly(rng)
        for c0 in pts:
            va, vb = a.evaluate(c0), b.evaluate(c0)
            assert (a * b).evaluate(c0) == va * vb
            assert (a + b).evaluate(c0) == va + vb


# -- g-series (x-order 0) -----------------------------------------------------------------


def test_gseries_product_truncates():
    one_plus_g = gseries([1, 1], 2)
    one_minus_g = gseries([1, -1], 2)
    assert one_plus_g * one_minus_g == gseries([1, 0, -1], 2)

    g1 = gseries([0, 1], 1)
    assert (g1 * g1).is_zero()

    one_plus_cg = gseries([P_ONE, P_C], 2)
    sq = one_plus_cg * one_plus_cg
    assert sq[0] == P_ONE
    assert sq[1] == poly(0, 2)
    assert sq[2] == P_C * P_C

    half_c = gseries([Fraction(1, 2), poly(0, Fraction(1, 3))], 2)
    assert (half_c * half_c)[1] == poly(0, Fraction(1, 3))


def test_gseries_mismatched_truncation_rejected():
    with pytest.raises(ValueError):
        gseries([1], 2) * gseries([1], 3)


def test_gseries_axioms_random():
    rng = random.Random(5)

    def rnd():
        return gseries([poly(*(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(3))) for _ in range(4)], 3)

    for _ in range(30):
        a, b, c = rnd(), rnd(), rnd()
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


# -- XLaurent ----------------------------------------------------------------


def test_xlaurent_monomial_products():
    nx, ng = 5, 2
    xm2 = XLaurent.x_power(-2, nx, ng)
    x3 = XLaurent.x_power(3, nx, ng)
    assert xm2 * x3 == XLaurent.x_power(1, nx, ng)

    one_plus_x = XLaurent.x_power(0, nx, ng) + XLaurent.x_power(1, nx, ng)
    one_minus_x = XLaurent.x_power(0, nx, ng) - XLaurent.x_power(1, nx, ng)
    prod = one_plus_x * one_minus_x
    assert prod.coefficient(0) == gseries([1], ng)
    assert prod.coefficient(1).is_zero()
    assert prod.coefficient(2) == -gseries([1], ng)

    g_over_x3 = XLaurent(-3, [(0, 1)], nx, ng)
    assert (g_over_x3 * XLaurent.x_power(2, nx, ng)).coefficient(-1) == gseries([0, 1], ng)


def test_xlaurent_truncates_above():
    nx, ng = 3, 1
    x2 = XLaurent.x_power(2, nx, ng)
    assert (x2 * x2).is_zero()


def test_xlaurent_low_floor_enforced():
    with pytest.raises(ValueError):
        XLaurent.x_power(-11, 3, 1)


def test_xlaurent_drops_rows_beyond_its_truncation():
    # rows starting above nx are all dropped, not kept by a negative slice bound
    assert XLaurent(5, [(0, 1)] * 3, 3, 1).is_zero()
    one_x_x2 = XLaurent(0, [(1,), (1,), (1,)], 3, 1)
    assert str(one_x_x2) == "1 + x + x^2"
    assert str(shift_x(one_x_x2, 6)) == "0"


def test_x_order_zero_operand_is_widened():
    nx, ng = 4, 2
    gs = gseries([1, P_C, Fraction(1, 2)], ng)
    wide = XLaurent(0, [[1, P_C, Fraction(1, 2)]], nx, ng)
    xs = XLaurent(-1, [(0, 1), (2,), (P_C, 1)], nx, ng)
    assert gs * xs == wide * xs
    assert xs * gs == xs * wide
    assert gs + xs == xs + gs == wide + xs
    assert (gs * xs).nx == nx
    with pytest.raises(ValueError):
        gseries([1], ng + 1) * xs
    with pytest.raises(ValueError):
        xs + gseries([1], ng + 1)
    with pytest.raises(ValueError):
        xs * XLaurent.x_power(1, nx + 1, ng)  # two x-series are never widened


def test_first_nonzero_skips_an_interior_zero_row():
    s = XLaurent(0, [(0, 0, P_C), (), (1, 2)], 3, 2)
    assert [e for e, _ in s.items()] == [0, 2]
    assert s.first_nonzero() == (0, 2, "c")
    assert (s - XLaurent(0, [(0, 0, P_C)], 3, 2)).first_nonzero() == (2, 0, "1")
    assert gseries([0, 0, 5], 2).first_nonzero() == (0, 2, "5")
    assert XLaurent.zero(3, 2).first_nonzero() is None


def test_xlaurent_axioms_random():
    rng = random.Random(3)
    nx, ng = 4, 2

    def rnd():
        coeffs = []
        for _ in range(-2, 3):
            coeffs.append([poly(rng.randint(-2, 2), Fraction(rng.randint(-2, 2), 2)) for _ in range(3)])
        return XLaurent(-2, coeffs, nx, ng)

    for _ in range(20):
        a, b, c = rnd(), rnd(), rnd()
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)


def test_powers_by_squaring_and_negative_powers_refused():
    nx, ng = 4, 2
    s = XLaurent(0, [(1, P_C), (0, 2)], nx, ng)
    p = poly(1, Fraction(1, 2), 3)
    for base, one in ((s, XLaurent.x_power(0, nx, ng)), (p, P_ONE)):
        acc = one
        for n in range(7):
            assert base**n == acc
            acc = acc * base
        # -1 >> 1 is -1, so an unguarded loop on a negative exponent never ends
        for n in (-1, -2):
            with pytest.raises(ValueError, match="negative power"):
                base**n


def test_xlaurent_inverse_and_sqrt():
    nx, ng = 6, 4
    one = XLaurent.x_power(0, nx, ng)
    x = XLaurent.x_power(1, nx, ng)
    g = XLaurent(0, [(0, 1)], nx, ng)
    c = XLaurent.constant(P_C, nx, ng)
    a = one - 4 * x * x + g * x + c * g * g * x
    s = xlaurent_sqrt(a, grade_cap=a.nx + a.ng)
    assert s * s == a
    # the square root carries the den != 1 coefficients of (1 + u)^(1/2)
    assert s.coefficient(1)[1] == Poly.constant(Fraction(1, 2))


def test_sqrt_of_the_pure_gravity_discriminant_within_the_grade_cap():
    # (1 - g/x)^2 - 4 x^2 (1 - g/x - g p1): negative x powers carry as many g powers
    nx, ng = 8, 8
    cap = nx + ng + 2
    one = XLaurent.x_power(0, cap, ng)
    x = XLaurent.x_power(1, cap, ng)
    g = XLaurent(0, [(0, 1)], cap, ng)
    p1 = gseries([0, 2, 0, Fraction(-1, 3), P_C], ng)
    b = one - g * XLaurent.x_power(-1, cap, ng)
    disc = b * b - 4 * (x * x) * (b - g * p1)
    s = xlaurent_sqrt(disc, grade_cap=cap)
    assert grade_mask(s * s - disc, cap).is_zero()
    assert s.coefficient(0)[0] == P_ONE
    assert s == grade_mask(s, cap)


def test_sqrt_with_denominators():
    nx, ng = 5, 3
    one = XLaurent.x_power(0, nx, ng)
    x = XLaurent.x_power(1, nx, ng)
    g = XLaurent(0, [(0, 1)], nx, ng)
    a = one + x * Fraction(2, 3) - g * x * poly(Fraction(1, 5), 1) + g * g * Fraction(7, 2)
    s = xlaurent_sqrt(a, grade_cap=a.nx + a.ng)
    assert s * s == a
    assert s.coefficient(0)[0] == P_ONE
    assert s.coefficient(1)[0] == Poly.constant(Fraction(1, 3))


def test_sqrt_refuses_a_constant_term_other_than_one():
    nx, ng = 3, 2
    x = XLaurent.x_power(1, nx, ng)
    for const in (4, Fraction(1, 4), P_C, poly(1, 1)):
        with pytest.raises(ValueError):
            xlaurent_sqrt(XLaurent.constant(const, nx, ng) + x, grade_cap=nx + ng)


def test_sqrt_refuses_a_slot_of_negative_grade():
    # the root is exact on the sloped region only if no slot has x-degree + g-order < 0
    nx, ng = 4, 2
    one = XLaurent.x_power(0, nx, ng)
    g = XLaurent(0, [(0, 1)], nx, ng)
    with pytest.raises(ValueError, match=r"slot x\^-2 g\^1 has -1"):
        xlaurent_sqrt(one + g * XLaurent.x_power(-2, nx, ng), grade_cap=6)
    # the g^0 row starts at x^0; the first offending slot by g-order, then x-degree, is named
    with pytest.raises(ValueError, match=r"slot x\^-1 g\^0 has -1"):
        xlaurent_sqrt(one + XLaurent.x_power(-1, nx, ng) + g * g * XLaurent.x_power(-3, nx, ng), grade_cap=6)
    # grade 0 below x^0 is allowed: the root of (1 - g/x)^2 is 1 - g/x
    b = one - g * XLaurent.x_power(-1, nx, ng)
    assert xlaurent_sqrt(b * b, grade_cap=6) == b


def _kernel_product(a, b):
    """a * b through the general integer kernel, for operands at one truncation."""
    nx, ng = a.nx, a.ng
    low = a.low + b.low
    if a.is_zero() or b.is_zero() or low > nx:
        return XLaurent.zero(nx, ng)
    ra, da = _int_rows(a.coeffs)
    rb, db = _int_rows(b.coeffs)
    out = [[[] for _ in range(ng + 1)] for _ in range(nx - low + 1)]
    _laurent_addmul(out, ra, rb)
    return XLaurent._from_ints(low, out, da * db, nx, ng)


def test_monomial_products_match_the_general_kernel(monkeypatch):
    nx, ng = 4, 3

    def mono(e, j, v=1):
        return XLaurent(e, [[0] * j + [v]], nx, ng)

    s = XLaurent(
        -2,
        [
            [0, 0, poly(Fraction(1, 2), 3)],
            [0, Fraction(-2, 3), 0, poly(0, 1, Fraction(5, 4))],
            [1, 2],
            [],
            [poly(Fraction(1, 6), -1), 0, 7],
            [0, 3, 0, Fraction(1, 9)],
            [2],
        ],
        nx,
        ng,
    )
    x, g = mono(1, 0), mono(0, 1)
    zero = XLaurent.zero(nx, ng)
    pairs = [
        (s, mono(-1, 0)),  # a negative x-shift
        (s, mono(-1, 2, poly(3, -2))),
        (s, mono(0, ng)),  # g-rows cut at ng
        (s.shift_g(1), mono(0, ng)),  # every g-order past ng
        (s, mono(nx, 0)),  # rows past nx dropped
        (shift_x(s, 3), mono(nx, 1)),  # every row past nx
        (s, mono(2, 1, poly(Fraction(1, 3), Fraction(-2, 5)))),  # a c-polynomial with a denominator
        (s, mono(0, 0, Fraction(-3, 4))),
        (s, mono(0, 0, 1)),
        (zero, mono(1, 1)),
        (s, zero),
        (mono(0, 1, P_C), mono(-1, 2, Fraction(1, 2))),  # two monomials
    ]
    pairs += [(s, x**k) for k in range(nx + 2)] + [(s, g**k) for k in range(ng + 2)]
    expected = [_kernel_product(a, b) for a, b in pairs]
    assert [i for i, want in enumerate(expected[:12]) if want.is_zero()] == [3, 5, 9, 10]
    powers = [_kernel_product(x ** (k - 1), x) if k else mono(0, 0) for k in range(nx + 2)]
    powers += [_kernel_product(g ** (k - 1), g) if k else mono(0, 0) for k in range(ng + 2)]

    def no_kernel(*args):
        raise AssertionError("a product by a monomial ran the general kernel")

    monkeypatch.setattr(ring, "_laurent_addmul", no_kernel)
    for (a, b), want in zip(pairs, expected):
        assert a * b == want and b * a == want
    assert [x**k for k in range(nx + 2)] + [g**k for k in range(ng + 2)] == powers
    # numeric constants scale every coefficient, and a g-series monomial widens to the x-order
    for v in (5, Fraction(-3, 4), poly(Fraction(2, 7), 1), 0):
        assert s * v == v * s == expected[pairs.index((s, mono(0, 0, 1)))] * v
        assert s * v == _kernel_product(s, XLaurent.constant(v, nx, ng))
    assert s * gseries([0, 0, Fraction(1, 2)], ng) == _kernel_product(s, mono(0, 2, Fraction(1, 2)))
    # a g-shift beyond ng leaves nothing
    assert s._shift_scale(1, ng + 1, P_ONE) == zero


def test_rational_string_forms():
    assert rat_to_str(Fraction(3, 2)) == "3/2"
    assert rat_to_str(Fraction(-4)) == "-4"
    assert str(poly(0, 1)) == "c"
    assert str(poly(1)) == "1"
    assert str(poly(1, 0, 2)) == "1+2*c^2"
    assert str(poly(Fraction(-1, 2), 0, 3)) == "-1/2+3*c^2"
    assert str(poly(1, 0, Fraction(-3, 2))) == "1-3/2*c^2"
