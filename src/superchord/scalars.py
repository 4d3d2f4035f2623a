"""Exact coefficient arithmetic.

Three levels are used throughout the package:

* plain rationals (``fractions.Fraction``),
* rational functions in one variable ``alpha`` with rational coefficients
  (:class:`AlphaScalar`), kept reduced with a monic denominator,
* truncated power series in a formal variable ``h`` over either of the
  above (:class:`HSeries`), with hard degree cutoff.

A denominator of the form c*alpha^k (k = 0 included), the kind that
Links-Gould and V_alpha evaluations produce, reduces without Euclid: its
gcd with the numerator is alpha^min(k, v), v the numerator's lowest
degree, so both sides are shifted down instead of divided.  Sums over a
shared denominator and products of polynomials skip the cross products.
Any other denominator is reduced through ``Poly.gcd`` and ``Poly.divmod``.

Sparse linear combinations (dicts from keys to coefficients) never store
a zero: :func:`add_term` is the one way to add a term into one.

Everything is exact; floats are rejected on input.
"""

from __future__ import annotations

from fractions import Fraction


class ScalarError(ValueError):
    pass


class RingMismatchError(ScalarError):
    pass


def _as_fraction(v):
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise ScalarError("expected an exact rational, got %r" % (v,))


def _poly(cs):
    """Poly from coefficients already known to be Fractions.

    Internal arithmetic only; the public constructor checks every entry.
    """
    n = len(cs)
    while n and not cs[n - 1]:
        n -= 1
    p = Poly.__new__(Poly)
    p.c = tuple(cs[:n])
    return p


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


class Poly:
    """Dense univariate polynomial over Q, coefficients in ascending degree."""

    __slots__ = ("c",)

    def __init__(self, coeffs=()):
        cs = [_as_fraction(v) for v in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.c = tuple(cs)

    @staticmethod
    def const(v):
        return Poly([_as_fraction(v)])

    @staticmethod
    def x():
        return Poly([0, 1])

    def degree(self):
        # degree of the zero polynomial is -1 by convention
        return len(self.c) - 1

    def is_zero(self):
        return not self.c

    def __eq__(self, other):
        return isinstance(other, Poly) and self.c == other.c

    def __hash__(self):
        return hash(self.c)

    def __add__(self, other):
        a, b = self.c, other.c
        if len(a) < len(b):
            a, b = b, a
        return _poly([x + y for x, y in zip(a, b)] + list(a[len(b):]))

    def __neg__(self):
        return _poly([-v for v in self.c])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        a, b = self.c, other.c
        if not a or not b:
            return Poly()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, av in enumerate(a):
            if av:
                for j, bv in enumerate(b):
                    if bv:
                        out[i + j] += av * bv
        return _poly(out)

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
        return _poly(q), _poly(rem)

    def gcd(self, other):
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        if a.is_zero():
            return a
        return a * Poly.const(1 / a.c[-1])

    def eval(self, v):
        v = _as_fraction(v)
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


_PZERO = Poly()
_PONE = Poly.const(1)


class AlphaScalar:
    """Reduced fraction of two polynomials in alpha; denominator is monic."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, (int, Fraction)):
            num = Poly.const(num)
        if den is None:
            den = _PONE
        elif isinstance(den, (int, Fraction)):
            den = Poly.const(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator in AlphaScalar")
        if num.is_zero():
            self.num, self.den = _PZERO, _PONE
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
                num, den = _poly(nc[s:]), _poly(dc[s:])
        else:
            g = num.gcd(den)
            if g.degree() > 0:
                num = num.divmod(g)[0]
                den = den.divmod(g)[0]
        lead = den.c[-1]
        if lead != 1:
            inv = 1 / lead
            num = _poly([v * inv for v in num.c])
            den = _poly([v * inv for v in den.c])
        # reduced polynomials share _PONE, so products can test identity
        self.num, self.den = num, _PONE if len(den.c) == 1 else den

    @staticmethod
    def coerce(v):
        if isinstance(v, AlphaScalar):
            return v
        if isinstance(v, (int, Fraction)):
            return AlphaScalar(v)
        raise ScalarError("cannot coerce %r into Q(alpha)" % (v,))

    def is_zero(self):
        return self.num.is_zero()

    def is_polynomial(self):
        """True when the reduced denominator is the constant 1."""
        return self.den == _PONE

    def as_poly(self):
        if not self.is_polynomial():
            raise ScalarError("not a polynomial: %r" % (self,))
        return self.num

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = AlphaScalar(other)
        if not isinstance(other, AlphaScalar):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        other = AlphaScalar.coerce(other)
        if self.den == other.den:
            return AlphaScalar(self.num + other.num, self.den)
        return AlphaScalar(self.num * other.den + other.num * self.den,
                           self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return AlphaScalar(-self.num, self.den)

    def __sub__(self, other):
        return self + (-AlphaScalar.coerce(other))

    def __rsub__(self, other):
        return AlphaScalar.coerce(other) + (-self)

    def __mul__(self, other):
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

    def substitute(self, v):
        v = _as_fraction(v)
        d = self.den.eval(v)
        if d == 0:
            raise ZeroDivisionError("denominator vanishes at alpha=%s" % v)
        return self.num.eval(v) / d

    def __repr__(self):
        if self.den == _PONE:
            return "AlphaScalar(%r)" % (self.num,)
        return "AlphaScalar(%r / %r)" % (self.num, self.den)


def alpha():
    return AlphaScalar(Poly.x())


class Ring:
    """Tag object for a coefficient ring, with coercion from raw values."""

    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return "Ring(%s)" % self.name

    def coerce(self, v):
        raise NotImplementedError


class _RationalRing(Ring):
    def __init__(self):
        Ring.__init__(self, "Q")
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def coerce(self, v):
        if isinstance(v, AlphaScalar):
            if v.is_polynomial() and v.num.degree() <= 0:
                return v.num.eval(0)
            raise RingMismatchError("alpha-dependent value in Q: %r" % (v,))
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

    def __rsub__(self, other):
        return self._pair(other) + (-self)

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

    def shift(self, k):
        """Multiply by h^k, truncating at the ring order."""
        zero = self.ring.base.zero
        n = self.ring.order
        out = [zero] * (n + 1)
        for i, a in enumerate(self.c):
            if i + k <= n and a:
                out[i + k] = a
        return HSeries(self.ring, out)

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
    if isinstance(c0, Fraction):
        inv0 = 1 / c0
    elif isinstance(c0, AlphaScalar):
        inv0 = AlphaScalar(1) / c0
    else:
        raise ScalarError("cannot invert constant term %r" % (c0,))
    out = ring.coerce(inv0)
    # Newton's iteration out_{k+1} = out_k * (2 - s * out_k) doubles the
    # number of correct coefficients, so ceil(log2(order + 1)) steps do
    for _ in range(ring.order.bit_length()):
        out = out * (ring.coerce(2) - s * out)
    return out
