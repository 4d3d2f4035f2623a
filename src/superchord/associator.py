"""A rational even Drinfeld associator, stored and checked on load.

The associator is a series Phi = 1 + sum_m Phi_m in two noncommuting
letters A, B with rational coefficients.  It must satisfy both hexagon
equations in the infinitesimal braid algebra on three strands (with the
braiding exp(t/2) convention) and the pentagon equation on four strands:

    Phi(B,C) e^{(A+C)/2} Phi(A,B) = e^{C/2} Phi(A,C) e^{A/2}
    Phi^{-1}(C,A) e^{(C+B)/2} Phi^{-1}(A,B) = e^{C/2} Phi^{-1}(C,B) e^{B/2}
    Phi(t12, t23 + t24) Phi(t13 + t23, t34)
        = Phi(t23, t34) Phi(t12 + t13, t24 + t34) Phi(t12, t23)

with A = t12, B = t23, C = t13 on three strands, products written in
operator order (the rightmost factor acts first).  All identities hold
in U(t_n), the quotient of the free algebra on the t_ij by the
infinitesimal braid relations ([t_ij, t_kl] = 0 for disjoint pairs,
[t_ij, t_ik + t_jk] = 0).  The t_kn (k < n) generate an ideal of t_n,
free on them, with quotient t_{n-1}; so t_n is a semidirect product and
U(t_n) = T(t_1n, ..., t_{n-1,n}) (x) U(t_{n-1}) as graded spaces
(Drinfeld 1991).  A residual is therefore reduced to a normal form, the
t_kn letters first and the rest in normal form on n - 1 strands, and it
vanishes in U(t_n) exactly when its normal form is zero.

The series through degree 6 is stored in `_STORED` as exact rationals:
2 + 14 + 60 nonzero words, with degree-2 part [A, B]/24.  It was solved
degree by degree; the equations are affine in the unknown top-degree
part, odd degrees are zero (the even gauge), and free coefficients are
fixed to zero.  `build_associator` solves nothing: it truncates the
table and raises ValueError unless both hexagon residuals and the
pentagon residual vanish in every degree it serves.  The solve itself
is kept in the tests as the oracle the table must equal.
"""

from fractions import Fraction
from functools import lru_cache
from math import lcm

from .scalars import ScalarError, add_term

_ZERO = Fraction(0)
_ONE = Fraction(1)

# The largest truncation order that z_eval, wz_eval, paired_invariant,
# the verify suites and the command line serve.  Order 6 waits on a
# degree-6 interval four-term reduction that does not take minutes.
MAX_ORDER = 5


# Phi_2 + Phi_4 + Phi_6 in the gauge of the degree-by-degree solve: a
# word over the letters A = 0, B = 1, and its coefficient p/q.
_STORED = {
    "01": (1, 24),
    "10": (-1, 24),
    "0001": (-1, 1440),
    "0010": (1, 480),
    "0011": (1, 5760),
    "0100": (-1, 480),
    "0101": (1, 1920),
    "0110": (-1, 1152),
    "0111": (-1, 1440),
    "1000": (1, 1440),
    "1001": (-1, 1152),
    "1010": (7, 5760),
    "1011": (1, 480),
    "1100": (-1, 5760),
    "1101": (-1, 480),
    "1110": (1, 1440),
    "000001": (1, 60480),
    "000010": (-1, 12096),
    "000011": (-1, 80640),
    "000100": (1, 6048),
    "000101": (1, 45360),
    "000110": (1, 36288),
    "000111": (23, 967680),
    "001000": (-1, 6048),
    "001001": (1, 120960),
    "001010": (-1, 12096),
    "001011": (-29, 414720),
    "001101": (53, 1451520),
    "001110": (-11, 290304),
    "001111": (-1, 80640),
    "010000": (1, 12096),
    "010001": (-5, 145152),
    "010010": (1, 11520),
    "010011": (53, 1451520),
    "010100": (-1, 241920),
    "010101": (1, 322560),
    "010110": (37, 580608),
    "010111": (1, 45360),
    "011000": (1, 725760),
    "011001": (-13, 967680),
    "011010": (-143, 2903040),
    "011011": (1, 120960),
    "011100": (89, 2903040),
    "011101": (-5, 145152),
    "011110": (1, 34560),
    "011111": (1, 60480),
    "100000": (-1, 60480),
    "100001": (1, 34560),
    "100010": (-59, 725760),
    "100011": (-11, 290304),
    "100100": (19, 241920),
    "100101": (37, 580608),
    "100110": (13, 967680),
    "100111": (1, 36288),
    "101000": (-37, 725760),
    "101001": (-143, 2903040),
    "101010": (-31, 967680),
    "101011": (-1, 12096),
    "101100": (-17, 580608),
    "101101": (1, 11520),
    "101110": (-59, 725760),
    "101111": (-1, 12096),
    "110000": (1, 80640),
    "110001": (89, 2903040),
    "110010": (-17, 580608),
    "110100": (29, 414720),
    "110101": (-1, 241920),
    "110110": (19, 241920),
    "110111": (1, 6048),
    "111000": (-23, 967680),
    "111001": (1, 725760),
    "111010": (-37, 725760),
    "111011": (-1, 6048),
    "111100": (1, 80640),
    "111101": (1, 12096),
    "111110": (-1, 60480),
}


def check_order(order, least=0, most=MAX_ORDER):
    """Refuse a truncation order outside least..most before any work."""
    if type(order) is not int or not least <= order <= most:
        raise ScalarError("order must be an int from %d to %d, got %r"
                          % (least, most, order))


def _wadd(x, y):
    out = dict(x)
    for w, c in y.items():
        add_term(out, w, c)
    return out


def _wscale(x, c):
    c = Fraction(c)
    if not c:
        return {}
    return {w: v * c for w, v in x.items()}


def _wmul(x, y, order):
    out = {}
    for wx, cx in x.items():
        for wy, cy in y.items():
            if len(wx) + len(wy) <= order:
                add_term(out, wx + wy, cx * cy)
    return out


def _wexp(x, order):
    """exp of an element with no constant term, truncated."""
    out = {(): _ONE}
    power = {(): _ONE}
    fact = 1
    for k in range(1, order + 1):
        power = _wmul(power, x, order)
        if not power:
            break
        fact *= k
        out = _wadd(out, _wscale(power, Fraction(1, fact)))
    return out


def _winv(x, order):
    """Inverse of 1 + (positive part), truncated geometric series."""
    pos = {w: c for w, c in x.items() if w}
    assert x.get((), _ZERO) == _ONE
    out = {(): _ONE}
    power = {(): _ONE}
    for _ in range(order):
        power = _wmul(power, _wscale(pos, -1), order)
        if not power:
            break
        out = _wadd(out, power)
    return out


@lru_cache(maxsize=None)
def _normal_form(word):
    """Normal form of a word of U(t_n) as an {word: int} combination.

    Letters are pairs (i, j), i < j, and n is the largest strand in the
    word.  The t_kn letters come first and the rest is in normal form on
    n - 1 strands.  Moving t_ij (j < n) right past t_kn commutes, except
    that [t_ij, t_kn] = [t_kn, t_ln] for {k, l} = {i, j}.  The cached
    dict is shared, so callers must not mutate it.
    """
    if not word:
        return {(): 1}
    n = max(j for _i, j in word)
    for p in range(len(word) - 1):
        (i, j), (k, l) = word[p], word[p + 1]
        if j < n and l == n:
            head, tail = word[:p], word[p + 2:]
            out = dict(_normal_form(head + ((k, n), (i, j)) + tail))
            if k in (i, j):
                a, b = (k, n), (i + j - k, n)
                for sign, mid in ((1, (a, b)), (-1, (b, a))):
                    for w, c in _normal_form(head + mid + tail).items():
                        add_term(out, w, sign * c)
            return out
    s = sum(1 for _i, j in word if j == n)
    return {word[:s] + w: c for w, c in _normal_form(word[s:]).items()}


def _reduce(x, degree):
    """Degree-d component of x in normal form: 0 iff it is in the ideal.

    The sums run over ints, on the common denominator of the component.
    """
    top = {w: c for w, c in x.items() if len(w) == degree}
    den = lcm(*(c.denominator for c in top.values()))
    out = {}
    for w, c in top.items():
        n = c.numerator * (den // c.denominator)
        for v, k in _normal_form(w).items():
            add_term(out, v, n * k)
    return {v: Fraction(n, den) for v, n in out.items()}


def _t(i, j):
    return {((i, j),): _ONE}


def _phi_element(terms, arg0, arg1, order, invert=False):
    """Substitute two degree-1 elements into the associator series."""
    out = {(): _ONE}
    for m, words in terms.items():
        for w, c in words.items():
            prod = {(): c}
            for letter in w:
                prod = _wmul(prod, arg0 if letter == 0 else arg1, order)
            out = _wadd(out, prod)
    if invert:
        out = _winv(out, order)
    return out


@lru_cache(maxsize=None)
def _hexagon_exponentials(order):
    """e^{A/2}, e^{B/2}, e^{C/2}, e^{(A+C)/2}, e^{(C+B)/2}, truncated."""
    A, B, C = _t(1, 2), _t(2, 3), _t(1, 3)
    half = Fraction(1, 2)
    return tuple(_wexp(_wscale(x, half), order)
                 for x in (A, B, C, _wadd(A, C), _wadd(C, B)))


def _hexagon_residuals(terms, degree):
    # Strand labels stay fixed under braiding, products are in operator
    # order (rightmost factor acts first), A = t12, B = t23, C = t13.
    A, B, C = _t(1, 2), _t(2, 3), _t(1, 3)
    order = degree
    eA, eB, eC, eAC, eCB = _hexagon_exponentials(order)

    pAB = _phi_element(terms, A, B, order)
    pBC = _phi_element(terms, B, C, order)
    pAC = _phi_element(terms, A, C, order)
    left1 = _wmul(_wmul(pBC, eAC, order), pAB, order)
    right1 = _wmul(_wmul(eC, pAC, order), eA, order)

    iCA = _phi_element(terms, C, A, order, invert=True)
    iAB = _phi_element(terms, A, B, order, invert=True)
    iCB = _phi_element(terms, C, B, order, invert=True)
    left2 = _wmul(_wmul(iCA, eCB, order), iAB, order)
    right2 = _wmul(_wmul(eC, iCB, order), eB, order)

    return [
        _reduce(_wadd(left1, _wscale(right1, -1)), degree),
        _reduce(_wadd(left2, _wscale(right2, -1)), degree),
    ]


def _pentagon_residual(terms, degree):
    order = degree
    t12, t13, t14 = _t(1, 2), _t(1, 3), _t(1, 4)
    t23, t24, t34 = _t(2, 3), _t(2, 4), _t(3, 4)
    left = _wmul(
        _phi_element(terms, t12, _wadd(t23, t24), order),
        _phi_element(terms, _wadd(t13, t23), t34, order), order)
    right = _wmul(_wmul(
        _phi_element(terms, t23, t34, order),
        _phi_element(terms, _wadd(t12, t13), _wadd(t24, t34), order),
        order),
        _phi_element(terms, t12, t23, order), order)
    return _reduce(_wadd(left, _wscale(right, -1)), degree)


def _all_residuals(terms, degree):
    return _hexagon_residuals(terms, degree) + [
        _pentagon_residual(terms, degree)]


class Associator:
    """Associator: terms[m][word] with words over letters 0, 1."""

    def __init__(self, order, terms):
        self.order = order
        self.terms = terms
        self.inverse = self._free_inverse()

    def _free_inverse(self):
        series = {(): _ONE}
        for words in self.terms.values():
            series.update(words)
        out = {}
        for w, c in _winv(series, self.order).items():
            if w:
                out.setdefault(len(w), {})[w] = c
        return out

    def words(self, sign):
        """(degree, word, coefficient) triples, unit omitted."""
        table = self.terms if sign > 0 else self.inverse
        for m in sorted(table):
            for w, c in sorted(table[m].items()):
                yield m, w, c


@lru_cache(maxsize=None)
def build_associator(order=3):
    """The stored associator through the given total degree, checked.

    The associator starts in degree 2, and is served one degree past
    MAX_ORDER: its degree-6 terms are the first thing order 6 needs.
    Raises ValueError unless both hexagons and the pentagon hold in
    every degree 1..order.
    """
    check_order(order, 2, MAX_ORDER + 1)
    terms = {}
    for word, (p, q) in _STORED.items():
        if len(word) <= order:
            terms.setdefault(len(word), {})[tuple(map(int, word))] = (
                Fraction(p, q))
    for m in range(1, order + 1):
        if any(_all_residuals(terms, m)):
            raise ValueError(
                "stored associator fails a hexagon or the pentagon in "
                "degree %d" % m)
    # the series is memoised itself; the normal forms of its residual
    # words are not needed again
    _normal_form.cache_clear()
    return Associator(order, terms)


def associator_checks(assoc):
    """Named exact checks of the associator, for reporting."""
    hex1_ok = hex2_ok = pent_ok = True
    for m in range(1, assoc.order + 1):
        h1, h2, p = _all_residuals(assoc.terms, m)
        hex1_ok = hex1_ok and not h1
        hex2_ok = hex2_ok and not h2
        pent_ok = pent_ok and not p
    deg1_zero = not assoc.terms.get(1)
    deg2 = assoc.terms.get(2, {})
    c = deg2.get((0, 1), _ZERO)
    deg2_ok = (c != 0 and deg2 == {(0, 1): c, (1, 0): -c}
               and abs(c) == Fraction(1, 24))
    return {
        "hexagon1": hex1_ok,
        "hexagon2": hex2_ok,
        "pentagon": pent_ok,
        "degree1_zero": deg1_zero,
        "degree2_commutator_1_24": deg2_ok,
    }
