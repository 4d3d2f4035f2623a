import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from superchord.scalars import (AlphaScalar, HSeries, Poly, QALPHA, QQ,
                                RingMismatchError, ScalarError, SeriesRing,
                                alpha, series_exp, series_inverse)


def rand_poly(rng, deg):
    return Poly([Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                 for _ in range(deg + 1)])


def test_poly_basic():
    p = Poly([1, 2, 3])
    q = Poly([0, 1])
    assert p.degree() == 2
    assert (p * q).c == (0, 1, 2, 3)
    assert (p + (-p)).is_zero()
    assert p.eval(2) == 1 + 4 + 12


def test_poly_divmod_roundtrip():
    rng = random.Random(11)
    for _ in range(60):
        a = rand_poly(rng, rng.randint(0, 5))
        b = rand_poly(rng, rng.randint(0, 3))
        if b.is_zero():
            continue
        q, r = a.divmod(b)
        assert q * b + r == a
        assert r.degree() < b.degree() or r.is_zero()


def test_poly_gcd_divides_both():
    rng = random.Random(5)
    for _ in range(40):
        g = rand_poly(rng, rng.randint(0, 2))
        a = g * rand_poly(rng, rng.randint(0, 2))
        b = g * rand_poly(rng, rng.randint(0, 2))
        d = a.gcd(b)
        if a.is_zero() and b.is_zero():
            assert d.is_zero()
            continue
        assert a.divmod(d)[1].is_zero()
        assert b.divmod(d)[1].is_zero()


def test_alpha_scalar_reduction():
    a = alpha()
    # (a^2 - 1)/(a - 1) reduces to a + 1
    v = AlphaScalar(Poly([-1, 0, 1]), Poly([-1, 1]))
    assert v == a + 1
    assert v.is_polynomial()
    assert v.as_poly() == Poly([1, 1])


def test_alpha_scalar_denominator_monic():
    v = AlphaScalar(Poly([1]), Poly([0, 2]))
    assert v.den == Poly([0, 1])
    assert v.num == Poly([Fraction(1, 2)])
    assert not v.is_polynomial()


def test_alpha_scalar_field_axioms():
    rng = random.Random(23)
    vals = [AlphaScalar(rand_poly(rng, 2), rand_poly(rng, 1) + Poly([1]))
            for _ in range(8)]
    for x in vals:
        for y in vals:
            for z in vals:
                assert (x + y) * z == x * z + y * z
                assert x * y == y * x
                assert (x + y) + z == x + (y + z)
        if not x.is_zero():
            assert x / x == AlphaScalar(1)


def test_alpha_substitute_commutes_with_arithmetic():
    rng = random.Random(7)
    pt = Fraction(3, 2)
    for _ in range(30):
        x = AlphaScalar(rand_poly(rng, 2), Poly([1, 1]))
        y = AlphaScalar(rand_poly(rng, 2), Poly([2, 0, 1]))
        assert (x * y).substitute(pt) == x.substitute(pt) * y.substitute(pt)
        assert (x + y).substitute(pt) == x.substitute(pt) + y.substitute(pt)


def test_ring_coercion():
    assert QQ.coerce(3) == Fraction(3)
    assert QALPHA.coerce(Fraction(1, 2)) == AlphaScalar(Fraction(1, 2))
    with pytest.raises(RingMismatchError):
        QQ.coerce(alpha())
    # a constant AlphaScalar may drop down to Q
    assert QQ.coerce(AlphaScalar(5)) == Fraction(5)
    with pytest.raises(ScalarError):
        QQ.coerce(0.5)


def test_series_mul_truncates():
    R = SeriesRing(QQ, 3)
    h = R.monomial(1)
    s = R.one + h
    cube = s * s * s
    assert cube.c == (Fraction(1), Fraction(3), Fraction(3), Fraction(1))
    assert (h * h * h * h).is_zero()


def test_series_exp_values():
    R = SeriesRing(QQ, 4)
    e = series_exp(R.monomial(1))
    assert e.c == (Fraction(1), Fraction(1), Fraction(1, 2),
                   Fraction(1, 6), Fraction(1, 24))
    # exp(h) * exp(-h) = 1
    em = series_exp(R.monomial(1, -1))
    assert e * em == R.one


def test_series_exp_additivity():
    R = SeriesRing(QQ, 5)
    a = R.monomial(1, Fraction(2, 3)) + R.monomial(2, Fraction(-1, 2))
    b = R.monomial(1, Fraction(1, 5)) + R.monomial(3, 4)
    assert series_exp(a) * series_exp(b) == series_exp(a + b)


def test_series_exp_needs_zero_constant():
    R = SeriesRing(QQ, 2)
    with pytest.raises(ScalarError):
        series_exp(R.one)


def test_series_inverse():
    rng = random.Random(41)
    R = SeriesRing(QQ, 4)
    for _ in range(20):
        c = [Fraction(rng.randint(-5, 5)) for _ in range(5)]
        c[0] = Fraction(rng.choice([1, -1, 2, 3]), rng.randint(1, 3))
        s = HSeries(R, c)
        assert s * series_inverse(s) == R.one


def test_series_over_alpha():
    R = SeriesRing(QALPHA, 2)
    a = alpha()
    s = R.one + R.monomial(1, a)
    t = s * s
    assert t.coeff(0) == AlphaScalar(1)
    assert t.coeff(1) == 2 * a
    assert t.coeff(2) == a * a


def test_series_ring_mismatch():
    R2 = SeriesRing(QQ, 2)
    R3 = SeriesRing(QQ, 3)
    with pytest.raises(RingMismatchError):
        R2.coerce(R3.one)


def test_series_shift():
    R = SeriesRing(QQ, 3)
    s = R.one + R.monomial(1, 5)
    t = s.shift(2)
    assert t.c == (Fraction(0), Fraction(0), Fraction(1), Fraction(5))


# Fast paths: denominators c*alpha^k reduce without Euclid; sums over a
# shared denominator and products of polynomials skip cross products.
# Each result must equal the value reduced here through Poly.gcd/divmod.

def reduce_by_euclid(num, den):
    """(num, den) reduced with a monic denominator, the slow way."""
    if num.is_zero():
        return Poly(), Poly([1])
    g = num.gcd(den)
    num, den = num.divmod(g)[0], den.divmod(g)[0]
    inv = Poly.const(1 / den.c[-1])
    return num * inv, den * inv


rationals = st.fractions(min_value=-6, max_value=6, max_denominator=5)
# alpha^j * p, so that numerators often share powers of alpha with den
polys = st.builds(lambda j, cs: Poly([0] * j + cs),
                  st.integers(0, 4), st.lists(rationals, max_size=5))
nonzero = st.fractions(min_value=-6, max_value=6,
                       max_denominator=5).filter(bool)


@st.composite
def monomials(draw):
    """c * alpha^k with c != 0 and k <= 4."""
    return Poly([0] * draw(st.integers(0, 4)) + [draw(nonzero)])


def assert_reduced(v, num, den):
    assert (v.num, v.den) == reduce_by_euclid(num, den)
    assert v.den.c[-1] == 1
    assert v.num.gcd(v.den) == Poly([1])


fast = settings(derandomize=True, max_examples=100, deadline=None)


@fast
@given(polys, monomials())
def test_monomial_denominator_reduces_like_euclid(num, den):
    assert_reduced(AlphaScalar(num, den), num, den)


@fast
@given(polys, monomials(), polys, monomials())
def test_sum_and_product_reduce_like_euclid(n1, d1, n2, d2):
    x, y = AlphaScalar(n1, d1), AlphaScalar(n2, d2)
    assert_reduced(x + y, n1 * d2 + n2 * d1, d1 * d2)
    assert_reduced(x * y, n1 * n2, d1 * d2)


@fast
@given(polys, polys, monomials())
def test_shared_denominator_sum_reduces_like_euclid(n1, n2, den):
    x, y = AlphaScalar(n1 * den), AlphaScalar(n2 * den)
    # both are polynomials, so they share the denominator 1
    assert_reduced(x + y, (n1 + n2) * den, Poly([1]))
    assert_reduced(x * y, n1 * n2 * den * den, Poly([1]))
    x, y = AlphaScalar(n1, den), AlphaScalar(n2, den)
    assert_reduced(x + y, n1 + n2, den)


def test_general_denominator_still_reduces():
    # (alpha^2 + 3 alpha + 2) / (2 alpha + 2) = (alpha + 2) / 2
    v = AlphaScalar(Poly([2, 3, 1]), Poly([2, 2]))
    assert v.is_polynomial()
    assert v.num == Poly([1, Fraction(1, 2)])
    # alpha^2 / (alpha^2 + alpha) = alpha / (alpha + 1): no monomial shift
    w = AlphaScalar(Poly([0, 0, 1]), Poly([0, 1, 1]))
    assert (w.num, w.den) == (Poly([0, 1]), Poly([1, 1]))
    assert w + w == AlphaScalar(Poly([0, 2]), Poly([1, 1]))
