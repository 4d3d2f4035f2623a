"""A rational even Drinfeld associator, solved degree by degree.

The associator is a series Phi = 1 + sum_m Phi_m in two noncommuting
letters A, B with rational coefficients.  It must satisfy both hexagon
equations in the infinitesimal braid algebra on three strands (with the
braiding exp(t/2) convention) and the pentagon equation on four strands:

    Phi(B,C) e^{(A+C)/2} Phi(A,B) = e^{C/2} Phi(A,C) e^{A/2}
    Phi^{-1}(C,A) e^{(C+B)/2} Phi^{-1}(A,B) = e^{C/2} Phi^{-1}(C,B) e^{B/2}
    Phi(t12, t23 + t24) Phi(t13 + t23, t34)
        = Phi(t23, t34) Phi(t12 + t13, t24 + t34) Phi(t12, t23)

with A = t12, B = t23, C = t13 on three strands, products written in
operator order (the rightmost factor acts first).  All identities are
checked in the quotient by the two-sided ideal of infinitesimal braid
relations ([t_ij, t_kl] = 0 for disjoint pairs, [t_ij, t_ik + t_jk] = 0),
reduced per degree by exact row elimination in a `LinearSpan`.

Degrees are solved one at a time; the equations are affine in the unknown
top-degree part, odd degrees are consistently set to zero (the even
gauge), and leftover free coefficients are fixed to zero.  The resulting
degree-2 part is [A, B]/24.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import product

from .diagrams import LinearSpan

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _wadd(x, y):
    out = dict(x)
    for w, c in y.items():
        v = out.get(w, _ZERO) + c
        if v:
            out[w] = v
        elif w in out:
            del out[w]
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
            if len(wx) + len(wy) > order:
                continue
            w = wx + wy
            v = out.get(w, _ZERO) + cx * cy
            if v:
                out[w] = v
            elif w in out:
                del out[w]
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


def _component(x, degree):
    return {w: c for w, c in x.items() if len(w) == degree}


class _BraidIdeal:
    """Degree-graded infinitesimal braid ideal on n strands."""

    def __init__(self, n, order):
        self.n = n
        self.order = order
        self.gens = [(i, j) for i in range(1, n + 1)
                     for j in range(i + 1, n + 1)]
        self.gi = {g: k for k, g in enumerate(self.gens)}
        self._spans = {}

    def generator(self, i, j):
        return {(self.gi[(i, j)],): _ONE}

    def _relators(self):
        rels = []
        for a in range(len(self.gens)):
            for b in range(a + 1, len(self.gens)):
                (i, j), (k, l) = self.gens[a], self.gens[b]
                if len({i, j, k, l}) == 4:
                    rels.append({(a, b): _ONE, (b, a): -_ONE})
        for trip in product(range(1, self.n + 1), repeat=3):
            i, j, k = trip
            if len({i, j, k}) != 3 or not i < j:
                continue
            ij = self.gi[tuple(sorted((i, j)))]
            ik = self.gi[tuple(sorted((i, k)))]
            jk = self.gi[tuple(sorted((j, k)))]
            rels.append({(ij, ik): _ONE, (ik, ij): -_ONE,
                         (ij, jk): _ONE, (jk, ij): -_ONE})
        return rels

    def _span(self, degree):
        if degree in self._spans:
            return self._spans[degree]
        span = LinearSpan()
        ng = len(self.gens)
        for rel in self._relators():
            for lu in range(degree - 2 + 1):
                lv = degree - 2 - lu
                for u in product(range(ng), repeat=lu):
                    for v in product(range(ng), repeat=lv):
                        vec = {u + w + v: c for w, c in rel.items()}
                        span.add(vec)
        self._spans[degree] = span
        return span

    def reduce_degree(self, x, degree):
        """Residual of the degree-d component modulo the ideal."""
        comp = _component(x, degree)
        if degree < 2 or not comp:
            return comp
        return self._span(degree).residual(comp)


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


def _hexagon_residuals(terms, degree, ideal):
    # Strand labels stay fixed under braiding, products are in operator
    # order (rightmost factor acts first), A = t12, B = t23, C = t13.
    A = ideal.generator(1, 2)
    B = ideal.generator(2, 3)
    C = ideal.generator(1, 3)
    order = degree
    half = Fraction(1, 2)
    eA = _wexp(_wscale(A, half), order)
    eB = _wexp(_wscale(B, half), order)
    eC = _wexp(_wscale(C, half), order)
    eAC = _wexp(_wscale(_wadd(A, C), half), order)
    eCB = _wexp(_wscale(_wadd(C, B), half), order)

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
        ideal.reduce_degree(_wadd(left1, _wscale(right1, -1)), degree),
        ideal.reduce_degree(_wadd(left2, _wscale(right2, -1)), degree),
    ]


def _pentagon_residual(terms, degree, ideal):
    order = degree
    g = ideal.generator
    t12, t13, t14 = g(1, 2), g(1, 3), g(1, 4)
    t23, t24, t34 = g(2, 3), g(2, 4), g(3, 4)
    left = _wmul(
        _phi_element(terms, t12, _wadd(t23, t24), order),
        _phi_element(terms, _wadd(t13, t23), t34, order), order)
    right = _wmul(_wmul(
        _phi_element(terms, t23, t34, order),
        _phi_element(terms, _wadd(t12, t13), _wadd(t24, t34), order),
        order),
        _phi_element(terms, t12, t23, order), order)
    return ideal.reduce_degree(_wadd(left, _wscale(right, -1)), degree)


def _all_residuals(terms, degree, ideal3, ideal4):
    out = _hexagon_residuals(terms, degree, ideal3)
    out.append(_pentagon_residual(terms, degree, ideal4))
    return out


def _solve_affine(base, cols, nunknowns):
    """Solve sum_w c_w col_w = -base exactly; free unknowns become zero.

    Each equation is a LinearSpan row keyed nunknowns - idx for unknown
    idx, so lower indices pivot first, and 0 for the constant.  It is
    inconsistent iff the span holds {0: 1}; else unknown idx is the
    constant left in the residual of its key.
    """
    span = LinearSpan()
    for e, b in enumerate(base):
        rows = {k: {0: c} for k, c in b.items()}
        for idx, col in enumerate(cols):
            for k, c in col[e].items():
                rows.setdefault(k, {})[nunknowns - idx] = c
        for row in rows.values():
            span.add(row)
    if span.contains({0: _ONE}):
        raise ValueError("inconsistent associator equations")
    return [span.residual({nunknowns - idx: _ONE}).get(0, _ZERO)
            for idx in range(nunknowns)]


class Associator:
    """Solved associator: terms[m][word] with words over letters 0, 1."""

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
    """Solve the hexagons and pentagon through the given total degree."""
    if order < 2:
        raise ValueError("the associator starts in degree 2")
    ideal3 = _BraidIdeal(3, order)
    ideal4 = _BraidIdeal(4, order)
    terms = {}
    for m in range(1, order + 1):
        base = _all_residuals(terms, m, ideal3, ideal4)
        if m % 2 == 1:
            if any(base):
                raise ValueError(
                    "odd degree %d is inconsistent with the even gauge" % m)
            continue
        words_m = list(product((0, 1), repeat=m))
        cols = []
        for w in words_m:
            trial = dict(terms)
            trial[m] = {w: _ONE}
            res = _all_residuals(trial, m, ideal3, ideal4)
            cols.append([_wadd(r, _wscale(b, -1)) for r, b in zip(res, base)])
        sol = _solve_affine(base, cols, len(words_m))
        part = {w: c for w, c in zip(words_m, sol) if c}
        terms[m] = part
        final = dict(terms)
        check = _all_residuals(final, m, ideal3, ideal4)
        if any(check):
            raise ValueError("degree %d resubstitution failed" % m)
    return Associator(order, {m: ws for m, ws in terms.items() if ws})


def associator_checks(assoc):
    """Named exact checks of the solved associator, for reporting."""
    ideal3 = _BraidIdeal(3, assoc.order)
    ideal4 = _BraidIdeal(4, assoc.order)
    hex1_ok = hex2_ok = pent_ok = True
    for m in range(1, assoc.order + 1):
        h1, h2 = _hexagon_residuals(assoc.terms, m, ideal3)
        p = _pentagon_residual(assoc.terms, m, ideal4)
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
