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
pentagon residual vanish in every degree it serves.  That check runs
once per associator (`Associator.holds`), in one pass over ints
(`_check`), and reads the one int series table (`int_series`) whose
terms both chord engines apply, so the check verifies the very ints
the walks use.  The degree-d part of an element is held over B^d, B
the least int with B^k a multiple of the denominator of every degree-k
coefficient of Phi^+-1 and exp(+-x/2) (`scalars.graded_base`; 60 at
orders 4 and 5), so products need no division.  Phi(X, Y) is
substituted by Horner over its word trie, Phi^-1 from
`Associator.inverse` (substitution is an algebra map), and each
identity's product is formed once, at the served order; then each
degree's part is reduced to normal form.  `associator_checks`
reports the result.  The solve itself, and the residuals over Fraction
one degree at a time on which it is built, are kept in the tests as the
oracles that the table and the check must equal.
"""

from fractions import Fraction
from functools import cached_property, lru_cache, partial, reduce
from math import factorial

from .scalars import ScalarError, add_term, graded_base

_ZERO = Fraction(0)
_ONE = Fraction(1)

# The largest truncation order that z_eval, wz_eval, paired_invariant,
# the verify suites and the command line serve.  Order 6 runs through the
# circle reduction; it waits on the checks ROADMAP.md lists for it.
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


def _vanishes(part):
    """Whether a homogeneous {word: int} combination is zero in U(t_n):
    whether its normal form is."""
    out = {}
    for w, c in part.items():
        for v, k in _normal_form(w).items():
            out[v] = out.get(v, 0) + c * k
    return not any(out.values())


def _substitute(series, x, y, order):
    """sum_w n_w w(x, y), graded by length, for an int series {word over
    0, 1: n_w} and x, y sums of generators, given as tuples of letters.

    Horner over the word trie, longest prefixes first: G(q) = n_q +
    x G(q 0) + y G(q 1), and the result is G(()).
    """
    done = {}
    for q in sorted({w[:l] for w in series for l in range(len(w) + 1)},
                    key=len, reverse=True):
        g = {(): series[q]} if q in series else {}
        for arg, child in ((x, done.get(q + (0,), {})),
                           (y, done.get(q + (1,), {}))):
            for v, c in child.items():
                for t in arg:
                    add_term(g, (t,) + v, c)
        done[q] = g
    out = [{} for _ in range(order + 1)]
    for w, c in done[()].items():
        out[len(w)][w] = c
    return out


def _mul(x, y, order):
    """Product of graded elements, truncated past order."""
    out = [{} for _ in range(order + 1)]
    for a, xa in enumerate(x):
        for b, yb in enumerate(y[:order - a + 1]):
            part = out[a + b]
            for wx, cx in xa.items():
                for wy, cy in yb.items():
                    add_term(part, wx + wy, cx * cy)
    return out


def _residual(left, right, order):
    """The product of the left factors minus that of the right, graded."""
    out, minus = (reduce(lambda x, y: _mul(x, y, order), factors)
                  for factors in (left, right))
    for part, sub in zip(out, minus):
        for w, c in sub.items():
            add_term(part, w, -c)
    return out


def int_series(assoc, order):
    """(B, series): the braiding and the associator through degree order
    as int terms, the one table that the load check and both chord
    engines read.

    series[crossing, sign] lists (k, word, p B^k / q) for each non-unit
    term p/q of degree k: exp(sign x / 2) for crossing True, with the
    words (1,) * k, k ascending, and Phi^sign for crossing False, in the
    order Associator.words gives.  B is the graded_base of all four
    series (60 at orders 4 and 5), so a term is one int, which takes a
    part over B^n to one over B^(n + k).
    """
    series = {}
    for sign in (1, -1):
        series[True, sign] = [
            (k, (1,) * k, Fraction(sign ** k, 2 ** k * factorial(k)))
            for k in range(1, order + 1)]
        series[False, sign] = [t for t in assoc.words(sign) if t[0] <= order]
    base = graded_base((k, c) for terms in series.values()
                       for k, _, c in terms)
    return base, {key: tuple((k, w, c.numerator * base ** k // c.denominator)
                             for k, w, c in terms)
                  for key, terms in series.items()}


def _check(assoc):
    """Whether the (hexagon1, hexagon2, pentagon) residuals vanish, one
    triple per degree 1..order, in one pass over ints.

    An element is a list by degree of {word: int}, its degree-d part
    standing for itself over B^d (int_series); products keep this, so
    nothing is divided.  Each identity's product is formed once, and
    each degree's part of its residual is reduced to normal form.
    """
    order = assoc.order
    _, series = int_series(assoc, order)
    # Phi, Phi^-1 and exp(x / 2), each with its unit
    phi, inv, half = ({(): 1, **{w: m for _k, w, m in series[key]}}
                      for key in ((False, 1), (False, -1), (True, 1)))
    sub = partial(_substitute, order=order)

    def exp_half(x):
        return sub(half, x, x)

    # strand labels stay fixed under braiding, products are in operator
    # order (rightmost factor acts first), A = t12, B = t23, C = t13
    t12, t13, t23, t24, t34 = (((i, j),) for i, j in (
        (1, 2), (1, 3), (2, 3), (2, 4), (3, 4)))
    A, B, C = t12, t23, t13
    eA, eB, eC = exp_half(A), exp_half(B), exp_half(C)
    residuals = [
        _residual([sub(phi, B, C), exp_half(A + C), sub(phi, A, B)],
                  [eC, sub(phi, A, C), eA], order),
        _residual([sub(inv, C, A), exp_half(C + B), sub(inv, A, B)],
                  [eC, sub(inv, C, B), eB], order),
        _residual([sub(phi, t12, t23 + t24), sub(phi, t13 + t23, t34)],
                  [sub(phi, t23, t34), sub(phi, t12 + t13, t24 + t34),
                   sub(phi, t12, t23)], order),
    ]
    return [tuple(_vanishes(r[m]) for r in residuals)
            for m in range(1, order + 1)]


class Associator:
    """Associator: terms[m][word] with words over letters 0, 1."""

    def __init__(self, order, terms):
        self.order = order
        self.terms = terms
        self.inverse = self._free_inverse()

    @cached_property
    def holds(self):
        """Whether the (hexagon1, hexagon2, pentagon) residuals vanish,
        one triple per degree 1..order; computed once, on first use."""
        return _check(self)

    def _free_inverse(self):
        """Phi^-1 by degree: its degree-d part is minus the sum over k of
        Phi_k times its degree d - k part."""
        out = {0: {(): _ONE}}
        for d in range(1, self.order + 1):
            part = {}
            for k, words in self.terms.items():
                for w, c in words.items():
                    for v, e in out.get(d - k, {}).items():
                        add_term(part, w + v, -c * e)
            if part:
                out[d] = part
        return {d: part for d, part in out.items() if d}

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
    assoc = Associator(order, terms)
    for m, holds in enumerate(assoc.holds, 1):
        if not all(holds):
            raise ValueError(
                "stored associator fails a hexagon or the pentagon in "
                "degree %d" % m)
    # the series is memoised itself; the normal forms of its residual
    # words are not needed again
    _normal_form.cache_clear()
    return assoc


def associator_checks(assoc):
    """Named exact checks of the associator, for reporting."""
    hex1_ok, hex2_ok, pent_ok = (all(col) for col in zip(*assoc.holds))
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
