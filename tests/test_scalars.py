import operator
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from superchord.scalars import (AlphaScalar, HSeries, Poly, QALPHA, QQ,
                                RingMismatchError, ScalarError, SeriesRing,
                                _ratio, alpha, graded_base, kronecker_bits,
                                kronecker_decode, series_exp, series_inverse)


# Oracles: a polynomial's value and a Q(alpha) scalar's value at a
# rational point, over the int-pair kernel.

def poly_eval(p, v):
    a, q = _ratio(v)
    acc, qk = 0, 1
    for x in reversed(p.n):
        acc = acc * a + x * qk
        qk *= q
    # acc = sum n_i a^i q^(deg - i), and qk = q^(deg + 1)
    return Fraction(acc * q, qk * p.d)


def substitute(x, v):
    d = poly_eval(x.den, v)
    if d == 0:
        raise ZeroDivisionError("denominator vanishes at alpha=%s" % v)
    return poly_eval(x.num, v) / d


def rand_poly(rng, deg):
    return Poly([Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                 for _ in range(deg + 1)])


def test_poly_basic():
    p = Poly([1, 2, 3])
    q = Poly([0, 1])
    assert p.degree() == 2
    assert (p * q).c == (0, 1, 2, 3)
    assert (p + (-p)).is_zero()
    assert poly_eval(p, 2) == 1 + 4 + 12


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
        assert substitute(x * y, pt) == substitute(x, pt) * substitute(y, pt)
        assert substitute(x + y, pt) == substitute(x, pt) + substitute(y, pt)


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


def test_series_inverse_at_every_step_count():
    # ceil(log2(order + 1)) Newton steps: orders 0-8 cover 0 to 4 steps,
    # each at the order where one more coefficient needs one more step
    rng = random.Random(43)
    a = alpha()
    for order in range(9):
        for base, c0 in ((QQ, Fraction(-2, 3)), (QALPHA, a + 1)):
            R = SeriesRing(base, order)
            c = [c0] + [base.coerce(rng.randint(-5, 5)) for _ in range(order)]
            s = HSeries(R, c)
            assert s * series_inverse(s) == R.one, (order, base)


# Equal values hash alike, across the three levels.

def test_equal_constants_hash_alike():
    R, RA = SeriesRing(QQ, 2), SeriesRing(QALPHA, 2)
    for c in (0, 3, Fraction(-5, 2)):
        values = (c, Fraction(c), AlphaScalar(c), R.coerce(c), RA.coerce(c))
        assert all(v == c for v in values)
        assert len({hash(v) for v in values}) == 1
        assert len(set(values)) == 1
    s, t = HSeries(R, [1, 2, 0]), HSeries(RA, [1, 2, 0])
    assert s == t and hash(s) == hash(t) and len({s, t}) == 1
    a = alpha()
    assert RA.coerce(a) == a and hash(RA.coerce(a)) == hash(a)
    assert AlphaScalar(3) != alpha() and AlphaScalar(3) != 4


def test_bools_are_not_scalars():
    for make in (QQ.coerce, QALPHA.coerce, AlphaScalar.coerce, AlphaScalar,
                 Poly.const, SeriesRing(QQ, 1).coerce,
                 lambda v: Poly([1, v]), lambda v: poly_eval(Poly([v]), 2),
                 lambda v: poly_eval(Poly([1, 1]), v), lambda v: alpha() + v,
                 lambda v: alpha() * v):
        for v in (True, False):
            with pytest.raises(ScalarError):
                make(v)


# Oracle: the Fraction-tuple Poly and AlphaScalar that the int-pair
# kernel replaced, copied verbatim but for the names.

def _as_fraction_ref(v):
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise ScalarError("expected an exact rational, got %r" % (v,))


def _poly_ref(cs):
    """Poly from coefficients already known to be Fractions.

    Internal arithmetic only; the public constructor checks every entry.
    """
    n = len(cs)
    while n and not cs[n - 1]:
        n -= 1
    p = PolyRef.__new__(PolyRef)
    p.c = tuple(cs[:n])
    return p


class PolyRef:
    """Dense univariate polynomial over Q, coefficients in ascending degree."""

    __slots__ = ("c",)

    def __init__(self, coeffs=()):
        cs = [_as_fraction_ref(v) for v in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.c = tuple(cs)

    @staticmethod
    def const(v):
        return PolyRef([_as_fraction_ref(v)])

    @staticmethod
    def x():
        return PolyRef([0, 1])

    def degree(self):
        # degree of the zero polynomial is -1 by convention
        return len(self.c) - 1

    def is_zero(self):
        return not self.c

    def __eq__(self, other):
        return isinstance(other, PolyRef) and self.c == other.c

    def __hash__(self):
        return hash(self.c)

    def __add__(self, other):
        a, b = self.c, other.c
        if len(a) < len(b):
            a, b = b, a
        return _poly_ref([x + y for x, y in zip(a, b)] + list(a[len(b):]))

    def __neg__(self):
        return _poly_ref([-v for v in self.c])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = PolyRef.const(other)
        a, b = self.c, other.c
        if not a or not b:
            return PolyRef()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, av in enumerate(a):
            if av:
                for j, bv in enumerate(b):
                    if bv:
                        out[i + j] += av * bv
        return _poly_ref(out)

    __rmul__ = __mul__

    def divmod(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.c)
        div = other.c
        dd = len(div) - 1
        lead = div[-1]
        q = [Fraction(0)] * max(0, len(rem) - dd)
        while len(rem) - 1 >= dd and any(rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < dd:
                break
            k = len(rem) - 1 - dd
            f = rem[-1] / lead
            q[k] = f
            for i in range(len(div)):
                rem[k + i] -= f * div[i]
            rem.pop()
        return _poly_ref(q), _poly_ref(rem)

    def gcd(self, other):
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        if a.is_zero():
            return a
        return a * PolyRef.const(1 / a.c[-1])

    def eval(self, v):
        v = _as_fraction_ref(v)
        acc = Fraction(0)
        for coef in reversed(self.c):
            acc = acc * v + coef
        return acc

    def __repr__(self):
        if not self.c:
            return "Poly(0)"
        parts = []
        for i, v in enumerate(self.c):
            if v:
                parts.append("%s*a^%d" % (v, i))
        return "Poly(%s)" % " + ".join(parts)


_PZERO_REF = PolyRef()
_PONE_REF = PolyRef.const(1)


class AlphaScalarRef:
    """Reduced fraction of two polynomials in alpha; denominator is monic."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, (int, Fraction)):
            num = PolyRef.const(num)
        if den is None:
            den = _PONE_REF
        elif isinstance(den, (int, Fraction)):
            den = PolyRef.const(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator in AlphaScalar")
        if num.is_zero():
            self.num, self.den = _PZERO_REF, _PONE_REF
            return
        dc = den.c
        k = len(dc) - 1
        if not any(dc[:k]):
            # den = c alpha^k: the gcd is alpha^min(k, v), v the lowest
            # degree present in num
            nc = num.c
            s = 0
            while s < k and not nc[s]:
                s += 1
            if s:
                num, den = _poly_ref(nc[s:]), _poly_ref(dc[s:])
        else:
            g = num.gcd(den)
            if g.degree() > 0:
                num = num.divmod(g)[0]
                den = den.divmod(g)[0]
        lead = den.c[-1]
        if lead != 1:
            inv = 1 / lead
            num = _poly_ref([v * inv for v in num.c])
            den = _poly_ref([v * inv for v in den.c])
        # reduced polynomials share _PONE, so products can test identity
        self.num, self.den = num, _PONE_REF if len(den.c) == 1 else den

    @staticmethod
    def coerce(v):
        if isinstance(v, AlphaScalarRef):
            return v
        if isinstance(v, (int, Fraction)):
            return AlphaScalarRef(v)
        raise ScalarError("cannot coerce %r into Q(alpha)" % (v,))

    def is_zero(self):
        return self.num.is_zero()

    def is_polynomial(self):
        """True when the reduced denominator is the constant 1."""
        return self.den == _PONE_REF

    def as_poly(self):
        if not self.is_polynomial():
            raise ScalarError("not a polynomial: %r" % (self,))
        return self.num

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = AlphaScalarRef(other)
        if not isinstance(other, AlphaScalarRef):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        other = AlphaScalarRef.coerce(other)
        if self.den == other.den:
            return AlphaScalarRef(self.num + other.num, self.den)
        return AlphaScalarRef(self.num * other.den + other.num * self.den,
                           self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return AlphaScalarRef(-self.num, self.den)

    def __sub__(self, other):
        return self + (-AlphaScalarRef.coerce(other))

    def __rsub__(self, other):
        return AlphaScalarRef.coerce(other) + (-self)

    def __mul__(self, other):
        other = AlphaScalarRef.coerce(other)
        if self.den is _PONE_REF and other.den is _PONE_REF:
            return AlphaScalarRef(self.num * other.num)
        return AlphaScalarRef(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = AlphaScalarRef.coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero in Q(alpha)")
        return AlphaScalarRef(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return AlphaScalarRef.coerce(other) / self

    def substitute(self, v):
        v = _as_fraction_ref(v)
        d = self.den.eval(v)
        if d == 0:
            raise ZeroDivisionError("denominator vanishes at alpha=%s" % v)
        return self.num.eval(v) / d

    def __repr__(self):
        if self.den == _PONE_REF:
            return "AlphaScalar(%r)" % (self.num,)
        return "AlphaScalar(%r / %r)" % (self.num, self.den)


small = st.fractions(min_value=-5, max_value=5, max_denominator=6)
coeff_lists = st.lists(small, max_size=4)
points = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def laurent_pairs(draw):
    """(num, c alpha^k): the denominators reduced without Euclid."""
    num = [0] * draw(st.integers(0, 3)) + draw(coeff_lists)
    return num, [0] * draw(st.integers(0, 3)) + [draw(nonzero)]


general_pairs = st.tuples(coeff_lists, coeff_lists.filter(any))
pairs = st.one_of(laurent_pairs(), general_pairs)


def both(pair):
    num, den = pair
    return (AlphaScalar(Poly(num), Poly(den)),
            AlphaScalarRef(PolyRef(num), PolyRef(den)))


def assert_like_reference(v, ref):
    for p, q in ((v.num, ref.num), (v.den, ref.den)):
        assert p.d > 0 and gcd(p.d, *p.n) == 1
        assert not p.n or p.n[-1]
        assert p.c == q.c
        assert p.degree() == q.degree()
    assert v.den.n[-1] == v.den.d
    assert v.is_polynomial() == ref.is_polynomial()


def same_or_both_raise(f, g):
    try:
        expected = g()
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            f()
        return
    assert f() == expected


oracle = settings(derandomize=True, max_examples=200, deadline=None)


@oracle
@given(pairs, pairs, points)
def test_int_kernel_matches_fraction_reference(p1, p2, pt):
    (x, xr), (y, yr) = both(p1), both(p2)
    assert_like_reference(x, xr)
    for op in (operator.add, operator.sub, operator.mul):
        assert_like_reference(op(x, y), op(xr, yr))
        assert_like_reference(op(x, pt), op(xr, pt))
        assert_like_reference(op(pt, x), op(pt, xr))
    if y:
        assert_like_reference(x / y, xr / yr)
    if pt:
        assert_like_reference(x / pt, xr / pt)
    if x:
        assert_like_reference(pt / x, pt / xr)
    assert (x == y) == (xr == yr)
    assert (x == pt) == (xr == pt)
    assert x - y + y == x and hash(x - y + y) == hash(x)
    assert poly_eval(x.num, pt) == xr.num.eval(pt)
    same_or_both_raise(lambda: substitute(x, pt), lambda: xr.substitute(pt))


def test_kronecker_decode_round_trips_int_polynomials():
    # P(2^k) back to P / den for int coefficients |c| < 2^(k - 1), the
    # extremes and negative leading coefficients included
    rng = random.Random(0)
    for k in (32, 64, 96):
        top = (1 << k - 1) - 1
        cases = [[], [0], [0, 0, 5], [top], [-top], [1, -top],
                 [-top, top, -1], [3, 0, 0], [-1, 0, top, -top]]
        cases += [[rng.randint(-top, top) for _ in range(rng.randint(1, 8))]
                  for _ in range(40)]
        for coeffs in cases:
            n = sum(c << k * i for i, c in enumerate(coeffs))
            for den in (1, 2, 6):
                want = AlphaScalar(Poly(coeffs)) / den
                assert kronecker_decode(n, k, den) == want, (k, coeffs)
    # one more bit of magnitude is not decoded
    assert kronecker_decode(1 << 31, 32, 1) != AlphaScalar(1 << 31)


def test_kronecker_bits_is_the_least_multiple_of_32_above_the_bound():
    for bound in (0, 1, 2, 3, (1 << 31) - 1, 1 << 31, (1 << 63) - 1,
                  1 << 63, 10 ** 30):
        k = kronecker_bits(bound)
        assert k % 32 == 0 and 1 << k - 1 > bound
        assert k == 32 or 1 << k - 33 <= bound, bound


@pytest.mark.parametrize("terms, base", [
    ([], 1),
    ([(0, 5), (2, Fraction(3))], 1),
    ([(3, Fraction(1, 16))], 4),
    ([(1, Fraction(-7, 6)), (2, Fraction(1, 8))], 12),
    ([(4, Fraction(1, 5760)), (6, Fraction(1, 725760))], 60 * 7),
])
def test_graded_base_is_the_least_int_base(terms, base):
    assert graded_base(terms) == base
    for b in range(1, base + 1):
        fits = all(b ** k % Fraction(c).denominator == 0 for k, c in terms)
        assert fits == (b == base), b


def test_graded_base_refuses_a_fraction_in_degree_0():
    with pytest.raises(ScalarError, match="degree 0"):
        graded_base([(1, Fraction(1, 2)), (0, Fraction(1, 3))])
