"""Coefficient ring arithmetic: polynomials in c, g-series, x-Laurent."""

import random
from fractions import Fraction

import pytest

from pottsloop.ring import (
    P_C,
    P_ONE,
    GSeries,
    Poly,
    XLaurent,
    rat_to_str,
    xlaurent_inverse,
    xlaurent_sqrt,
)


def poly(*coeffs):
    return Poly.from_fractions(coeffs)


def test_inverse_pair_multiplies_to_one():
    # 1/(1 - c g) is a g-series with polynomial coefficients c^n
    nx, ng = 2, 4
    one = XLaurent.x_power(0, nx, ng)
    a = one - XLaurent.constant(GSeries([0, P_C], ng), nx, ng)
    inv = xlaurent_inverse(a)
    assert inv * a == one
    assert inv.coefficient(0)[3] == P_C**3
    # 1 - c is not a unit of the polynomial ring
    with pytest.raises(ValueError):
        xlaurent_inverse(XLaurent.constant(poly(1, -1), nx, ng))


def test_division_cancels_common_factor():
    # the shared denominator is reduced against the content and kept positive
    assert Poly((2, 4), 4) == poly(Fraction(1, 2), 1)
    assert Poly((3, 6), 3) == poly(1, 2)
    assert Poly((3, 6), 3).den == 1
    assert Poly((1,), -2) == Poly.constant(Fraction(-1, 2))
    assert poly(1, -1) * poly(1, 2) == poly(1, 1, -2)
    assert poly(Fraction(1, 2), Fraction(3, 2)).scale(2) == poly(1, 3)


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
    return Poly.from_fractions(
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


# -- GSeries -----------------------------------------------------------------


def test_gseries_product_truncates():
    one_plus_g = GSeries([1, 1], 2)
    one_minus_g = GSeries([1, -1], 2)
    assert one_plus_g * one_minus_g == GSeries([1, 0, -1], 2)

    g1 = GSeries.g_power(1, 1)
    assert (g1 * g1).is_zero()

    one_plus_cg = GSeries([P_ONE, P_C], 2)
    sq = one_plus_cg * one_plus_cg
    assert sq[0] == P_ONE
    assert sq[1] == poly(0, 2)
    assert sq[2] == P_C * P_C

    half_c = GSeries([Fraction(1, 2), poly(0, Fraction(1, 3))], 2)
    assert (half_c * half_c)[1] == poly(0, Fraction(1, 3))


def test_gseries_mismatched_truncation_rejected():
    with pytest.raises(ValueError):
        GSeries.one(2) * GSeries.one(3)


def test_gseries_axioms_random():
    rng = random.Random(5)

    def rnd():
        return GSeries([poly(*(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(3))) for _ in range(4)], 3)

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
    assert prod.coefficient(0) == GSeries.one(ng)
    assert prod.coefficient(1).is_zero()
    assert prod.coefficient(2) == -GSeries.one(ng)

    g_over_x3 = XLaurent(-3, (GSeries.g_power(1, ng),), nx, ng)
    assert (g_over_x3 * XLaurent.x_power(2, nx, ng)).coefficient(-1) == GSeries.g_power(1, ng)


def test_xlaurent_truncates_above():
    nx, ng = 3, 1
    x2 = XLaurent.x_power(2, nx, ng)
    assert (x2 * x2).is_zero()


def test_xlaurent_low_floor_enforced():
    with pytest.raises(ValueError):
        XLaurent.x_power(-11, 3, 1)


def test_xlaurent_axioms_random():
    rng = random.Random(3)
    nx, ng = 4, 2

    def rnd():
        pairs = []
        for e in range(-2, 3):
            pairs.append((e, GSeries([poly(rng.randint(-2, 2), Fraction(rng.randint(-2, 2), 2)) for _ in range(3)], ng)))
        return XLaurent.from_coeffs(pairs, nx, ng)

    for _ in range(20):
        a, b, c = rnd(), rnd(), rnd()
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)


def test_xlaurent_inverse_and_sqrt():
    nx, ng = 6, 4
    one = XLaurent.x_power(0, nx, ng)
    x = XLaurent.x_power(1, nx, ng)
    g = XLaurent.constant(GSeries.g_power(1, ng), nx, ng)
    c = XLaurent.constant(P_C, nx, ng)
    a = one - 4 * x * x + g * x + c * g * g * x
    inv = xlaurent_inverse(a)
    assert a * inv == one
    s = xlaurent_sqrt(a)
    assert s * s == a
    # the square root carries the den != 1 coefficients of (1 + u)^(1/2)
    assert s.coefficient(1)[1] == Poly.constant(Fraction(1, 2))


def test_rational_string_forms():
    assert rat_to_str(Fraction(3, 2)) == "3/2"
    assert rat_to_str(Fraction(-4)) == "-4"
    assert str(poly(0, 1)) == "c"
    assert str(poly(1)) == "1"
    assert str(poly(1, 0, 2)) == "1+2*c^2"
    assert str(poly(Fraction(-1, 2), 0, 3)) == "-1/2+3*c^2"


def test_json_forms():
    p = Poly.from_fractions([1, 0, Fraction(-3, 2)])
    assert GSeries([p, 0, P_C], 2).to_json() == {"0": "1-3/2*c^2", "2": "c"}
