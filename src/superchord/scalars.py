"""Exact coefficient arithmetic.

Three levels are used throughout the package:

* plain rationals (``fractions.Fraction``) at every interface,
* rational functions in one variable ``alpha`` with rational coefficients
  (:class:`AlphaScalar`), kept reduced with a monic denominator,
* truncated power series in a formal variable ``h`` over either of the
  above (:class:`HSeries`), with hard degree cutoff.

A graded series with rational coefficients is walked as ints: its
degree-d part is held over B^d, B = :func:`graded_base` of its terms, so
a product of parts of degrees a and b is over B^(a + b) and nothing is
divided.  The associator check and both chord engines use this, over
Q(alpha) too: there the values are polynomials with int coefficients at
alpha = 2^K, K above a proven coefficient bound, and
:func:`kronecker_decode` reads an output back from its base-2^K digits.

A polynomial in alpha (:class:`Poly`) is a tuple of Python ints over one
positive int denominator, in lowest terms, so a sum over a shared
denominator adds ints, a product is an int convolution with one gcd, and
no ``Fraction`` is built.  ``Poly.c`` is a read-only ``Fraction`` view
for printing, JSON and the general Euclidean ``divmod``/``gcd``.

A denominator of the form c*alpha^k (k = 0 included), the kind that
Links-Gould and V_alpha evaluations produce, reduces without Euclid: its
gcd with the numerator is alpha^min(k, v), v the numerator's lowest
degree, so both sides are shifted down instead of divided.  Sums over a
shared denominator and products of polynomials skip the cross products.
Any other denominator is reduced through ``Poly.gcd`` and ``Poly.divmod``.

A constant of any of the three levels is equal to, and hashes as, the
``Fraction`` of the same value.

Sparse linear combinations (dicts from keys to coefficients) never store
a zero: :func:`add_term` is the one way to add a term into one.

Everything is exact; floats and bools are rejected on input.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


class ScalarError(ValueError):
    pass


class RingMismatchError(ScalarError):
    pass


def _ratio(v):
    """(numerator, denominator) of an exact rational, without a Fraction."""
    t = type(v)
    if t is int:
        return v, 1
    if t is Fraction or (isinstance(v, (int, Fraction))
                         and not isinstance(v, bool)):
        return v.numerator, v.denominator
    raise ScalarError("expected an exact rational, got %r" % (v,))


def _as_fraction(v):
    if type(v) is Fraction:
        return v
    return Fraction(*_ratio(v))


def add_term(out, key, v):
    """out[key] += v in a sparse combination that keeps no zero.

    A missing key takes v itself, and a sum that cancels removes the key.
    Truthiness is the zero test: Fraction, AlphaScalar and HSeries all
    define it.
    """
    s = out.get(key)
    if s is not None:
        v = s + v
    if v:
        out[key] = v
    elif s is not None:
        del out[key]


def _raw(n, d):
    """Poly from a tuple n already in lowest terms over d."""
    p = object.__new__(Poly)
    p.n = n
    p.d = d
    return p


def _poly(n, d):
    """Poly from ints n over d > 0: trailing zeros dropped, gcd divided out."""
    k = len(n)
    while k and not n[k - 1]:
        k -= 1
    if k < len(n):
        n = n[:k]
    if d != 1:
        g = gcd(d, *n)
        if g != 1:
            return _raw(tuple(x // g for x in n), d // g)
    return _raw(tuple(n), d)


def _from_fractions(cs):
    d = lcm(*(v.denominator for v in cs))
    return _poly([v.numerator * (d // v.denominator) for v in cs], d)


class Poly:
    """Dense univariate polynomial over Q: int numerators ``n`` in ascending
    degree, no trailing zero, over one int denominator ``d`` > 0 with
    gcd(d, *n) == 1.  Zero is ((), 1); equal polynomials have equal pairs."""

    __slots__ = ("n", "d")

    def __init__(self, coeffs=()):
        p = _from_fractions([_as_fraction(v) for v in coeffs])
        self.n, self.d = p.n, p.d

    @property
    def c(self):
        """The coefficients as Fractions, ascending degree."""
        d = self.d
        return tuple(Fraction(x, d) for x in self.n)

    @staticmethod
    def const(v):
        a, b = _ratio(v)
        return _raw((a,), b) if a else _PZERO

    @staticmethod
    def x():
        return _raw((0, 1), 1)

    def degree(self):
        # degree of the zero polynomial is -1 by convention
        return len(self.n) - 1

    def is_zero(self):
        return not self.n

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.n == other.n
                and self.d == other.d)

    def __hash__(self):
        return hash((self.n, self.d))

    def __add__(self, other):
        a, ad, b, bd = self.n, self.d, other.n, other.d
        if ad != bd:
            g = gcd(ad, bd)
            sa, sb = bd // g, ad // g
            a = [x * sa for x in a]
            b = [x * sb for x in b]
            ad *= sa
        if len(a) < len(b):
            a, b = b, a
        out = [x + y for x, y in zip(a, b)]
        out += a[len(b):]
        return _poly(out, ad)

    def __neg__(self):
        return _raw(tuple([-x for x in self.n]), self.d)

    def __mul__(self, other):
        a, b = self.n, other.n
        if not a or not b:
            return _PZERO
        if len(a) < len(b):
            a, b = b, a
        if len(b) == 1:
            y = b[0]
            out = [x * y for x in a]
        else:
            out = [0] * (len(a) + len(b) - 1)
            for j, y in enumerate(b):
                if y:
                    for i, x in enumerate(a, j):
                        out[i] += x * y
        return _poly(out, self.d * other.d)

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
        return _from_fractions(q), _from_fractions(rem)

    def gcd(self, other):
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        return _monic(a)[0]

    def __repr__(self):
        if not self.n:
            return "Poly(0)"
        parts = []
        for i, v in enumerate(self.c):
            if v:
                parts.append("%s*a^%d" % (v, i))
        return "Poly(%s)" % " + ".join(parts)


def _monic(p):
    """(monic, mul, div) with div > 0, such that a quotient num / p is
    (num * mul / div) / monic; the zero p is its own monic."""
    n, d = p.n, p.d
    if not n:
        return p, 1, 1
    lead = n[-1]
    if lead == d:
        return p, 1, 1
    if lead < 0:
        n, lead, d = tuple(-x for x in n), -lead, -d
    return _poly(n, lead), d, lead


_PZERO = _raw((), 1)
_PONE = _raw((1,), 1)


class AlphaScalar:
    """Reduced fraction of two polynomials in alpha; denominator is monic."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if type(num) is not Poly:
            num = Poly.const(num)
        if den is None or den is _PONE:
            self.num, self.den = num, _PONE
            return
        dn = den.n
        if not dn:
            raise ZeroDivisionError("zero denominator in AlphaScalar")
        nn = num.n
        if not nn:
            self.num, self.den = _PZERO, _PONE
            return
        k = len(dn) - 1
        if not any(dn[:k]):
            # den = c alpha^k: the gcd is alpha^min(k, v), v the lowest
            # degree present in num; dropping zeros keeps both in lowest
            # terms
            s = 0
            while s < k and not nn[s]:
                s += 1
            if s:
                num, den = _raw(nn[s:], num.d), _raw(dn[s:], den.d)
        else:
            g = num.gcd(den)
            if g.degree() > 0:
                num = num.divmod(g)[0]
                den = den.divmod(g)[0]
        den, mul, div = _monic(den)
        if mul != 1 or div != 1:
            num = _poly([x * mul for x in num.n], num.d * div)
        # reduced polynomials share _PONE, so products can test identity
        self.num, self.den = num, _PONE if len(den.n) == 1 else den

    @staticmethod
    def coerce(v):
        if type(v) is AlphaScalar:
            return v
        if isinstance(v, (int, Fraction)):
            return AlphaScalar(v)
        raise ScalarError("cannot coerce %r into Q(alpha)" % (v,))

    def is_zero(self):
        return not self.num.n

    def is_polynomial(self):
        """True when the reduced denominator is the constant 1."""
        return self.den is _PONE

    def as_poly(self):
        if not self.is_polynomial():
            raise ScalarError("not a polynomial: %r" % (self,))
        return self.num

    def __bool__(self):
        return bool(self.num.n)

    def _constant(self):
        """(numerator, denominator) of a constant, else None."""
        n = self.num.n
        if self.den is _PONE and len(n) <= 1:
            return (n[0] if n else 0), self.num.d
        return None

    def __eq__(self, other):
        if type(other) is AlphaScalar:
            return self.num == other.num and self.den == other.den
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        c = self._constant()
        return c is not None and (c[0] * other.denominator
                                  == other.numerator * c[1])

    def __hash__(self):
        # a constant equals, so hashes as, the Fraction of its value
        c = self._constant()
        if c is not None:
            return hash(Fraction(*c))
        return hash((self.num, self.den))

    def __add__(self, other):
        if type(other) is not AlphaScalar:
            other = AlphaScalar.coerce(other)
        sd, od = self.den, other.den
        if sd is od or sd == od:
            return AlphaScalar(self.num + other.num, sd)
        return AlphaScalar(self.num * od + other.num * sd, sd * od)

    __radd__ = __add__

    def __neg__(self):
        return AlphaScalar(-self.num, self.den)

    def __sub__(self, other):
        return self + (-AlphaScalar.coerce(other))

    def __rsub__(self, other):
        return AlphaScalar.coerce(other) + (-self)

    def __mul__(self, other):
        if type(other) is not AlphaScalar:
            other = AlphaScalar.coerce(other)
        if self.den is _PONE and other.den is _PONE:
            return AlphaScalar(self.num * other.num)
        return AlphaScalar(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = AlphaScalar.coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero in Q(alpha)")
        return AlphaScalar(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return AlphaScalar.coerce(other) / self

    def __repr__(self):
        if self.den is _PONE:
            return "AlphaScalar(%r)" % (self.num,)
        return "AlphaScalar(%r / %r)" % (self.num, self.den)


def alpha():
    return AlphaScalar(Poly.x())


def graded_base(terms):
    """The least int B >= 1 such that q divides B^k for every term (k,
    p/q) of a graded series, so that p B^k / q is an int: B^k is the
    common denominator of degree k.  The lcm of the q is such a B, so the
    search ends."""
    need = {(k, _ratio(c)[1]) for k, c in terms}
    if any(q > 1 for k, q in need if k < 1):
        raise ScalarError("a term of degree 0 has a denominator")
    b = 1
    while any(b ** k % q for k, q in need):
        b += 1
    return b


def kronecker_bits(bound):
    """The least multiple K of 32 with 2^(K - 1) > bound."""
    return (bound.bit_length() + 32) // 32 * 32


def kronecker_decode(n, k, den):
    """The AlphaScalar P(alpha) / den of the int n = P(2^k), P a polynomial
    with int coefficients |c| < 2^(k - 1): the balanced base-2^k digits
    of n, lowest first."""
    digits = []
    half, mask = 1 << k - 1, (1 << k) - 1
    while n:
        c = n & mask
        if c >= half:
            c -= mask + 1
        digits.append(c)
        n = (n - c) >> k
    return AlphaScalar(_poly(digits, den))


class Ring:
    """Tag object for a coefficient ring, with coercion from raw values."""

    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return "Ring(%s)" % self.name


class _RationalRing(Ring):
    def __init__(self):
        Ring.__init__(self, "Q")
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def coerce(self, v):
        if type(v) is AlphaScalar:
            c = v._constant()
            if c is None:
                raise RingMismatchError(
                    "alpha-dependent value in Q: %r" % (v,))
            return Fraction(*c)
        return _as_fraction(v)


class _AlphaRing(Ring):
    def __init__(self):
        Ring.__init__(self, "Q(alpha)")
        self.zero = AlphaScalar(0)
        self.one = AlphaScalar(1)

    def coerce(self, v):
        return AlphaScalar.coerce(v)


QQ = _RationalRing()
QALPHA = _AlphaRing()


class SeriesRing(Ring):
    """Truncated series in h over a base ring, orders 0..order inclusive."""

    def __init__(self, base, order):
        if order < 0:
            raise ScalarError("series order must be >= 0")
        Ring.__init__(self, "%s[[h]]/h^%d" % (base.name, order + 1))
        self.base = base
        self.order = order
        self.zero = HSeries(self, [base.zero] * (order + 1))
        self.one = HSeries(self, [base.one] + [base.zero] * order)

    def coerce(self, v):
        if isinstance(v, HSeries):
            if v.ring.order != self.order or v.ring.base is not self.base:
                raise RingMismatchError(
                    "series from %s used in %s" % (v.ring.name, self.name))
            return v
        c = self.base.coerce(v)
        return HSeries(self, [c] + [self.base.zero] * self.order)

    def monomial(self, degree, coeff=1):
        if degree > self.order:
            return self.zero
        cs = [self.base.zero] * (self.order + 1)
        cs[degree] = self.base.coerce(coeff)
        return HSeries(self, cs)


class HSeries:
    """Element of a SeriesRing; immutable list of base coefficients."""

    __slots__ = ("ring", "c")

    def __init__(self, ring, coeffs):
        if len(coeffs) != ring.order + 1:
            raise ScalarError("series needs exactly %d coefficients"
                              % (ring.order + 1))
        self.ring = ring
        self.c = tuple(coeffs)

    def coeff(self, k):
        return self.c[k]

    def is_zero(self):
        return all(not v for v in self.c)

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if not isinstance(other, HSeries):
            try:
                other = self.ring.coerce(other)
            except ScalarError:
                return NotImplemented
        return self.ring.order == other.ring.order and self.c == other.c

    def __hash__(self):
        # a constant series equals, so hashes as, its constant term
        if not any(self.c[1:]):
            return hash(self.c[0])
        return hash((self.ring.order, self.c))

    def _pair(self, other):
        return self.ring.coerce(other)

    def __add__(self, other):
        o = self._pair(other)
        return HSeries(self.ring, [a + b for a, b in zip(self.c, o.c)])

    __radd__ = __add__

    def __neg__(self):
        return HSeries(self.ring, [-a for a in self.c])

    def __sub__(self, other):
        return self + (-self._pair(other))

    def __mul__(self, other):
        if isinstance(other, HSeries) or not isinstance(other, (int, Fraction,
                                                                AlphaScalar)):
            o = self._pair(other)
            n = self.ring.order
            zero = self.ring.base.zero
            out = [zero] * (n + 1)
            for i, a in enumerate(self.c):
                if not a:
                    continue
                for j in range(n + 1 - i):
                    b = o.c[j]
                    if b:
                        out[i + j] = out[i + j] + a * b
            return HSeries(self.ring, out)
        s = self.ring.base.coerce(other)
        return HSeries(self.ring, [a * s for a in self.c])

    __rmul__ = __mul__

    def __repr__(self):
        return "HSeries(%s)" % (list(self.c),)


def series_exp(s):
    """exp of a series with zero constant term."""
    if s.c[0]:
        raise ScalarError("series_exp needs zero constant term")
    ring = s.ring
    acc = ring.one
    term = ring.one
    for k in range(1, ring.order + 1):
        term = term * s * Fraction(1, k)
        acc = acc + term
    return acc


def series_inverse(s):
    """Multiplicative inverse of a series with invertible constant term."""
    ring = s.ring
    c0 = s.c[0]
    if not c0:
        raise ScalarError("series has no inverse: zero constant term")
    out = ring.coerce(ring.base.one / c0)
    # Newton's iteration out_{k+1} = out_k * (2 - s * out_k) doubles the
    # number of correct coefficients, so ceil(log2(order + 1)) steps do
    for _ in range(ring.order.bit_length()):
        out = out * (ring.coerce(2) - s * out)
    return out
