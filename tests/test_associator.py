"""Tests for the degree-by-degree associator solver."""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product

import pytest

from superchord.associator import (Associator, build_associator,
                                   associator_checks, _normal_form, _reduce,
                                   _wexp, _wmul, _winv)
from superchord.diagrams import LinearSpan


# Oracle: the infinitesimal braid ideal as a span of placed relators, the
# reduction the solver used before the normal form of U(t_n).

def _gens(n):
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def _relators(n):
    """[t_ij, t_kl] for disjoint pairs and [t_ij, t_ik + t_jk]."""
    rels = [{(a, b): 1, (b, a): -1}
            for a, b in combinations(_gens(n), 2) if len(set(a + b)) == 4]
    for i, j, k in permutations(range(1, n + 1), 3):
        if i < j:
            ij, ik, jk = (i, j), tuple(sorted((i, k))), tuple(sorted((j, k)))
            rels.append({(ij, ik): 1, (ik, ij): -1,
                         (ij, jk): 1, (jk, ij): -1})
    return rels


def _placed_relators(n, degree):
    """u r v for every relator r and words u, v of total length d - 2."""
    gens = _gens(n)
    out = []
    for rel in _relators(n):
        for lu in range(degree - 1):
            for u in product(gens, repeat=lu):
                for v in product(gens, repeat=degree - 2 - lu):
                    out.append({u + w + v: c for w, c in rel.items()})
    return out


@lru_cache(maxsize=None)
def _ideal_span(n, degree):
    span = LinearSpan()
    for vec in _placed_relators(n, degree):
        span.add(vec)
    return span


def _enveloping_dimension(n, degree):
    """dim U(t_n) in degree d: the t^d coefficient of prod_{k<n} 1/(1-kt),
    i.e. sum over a + b + ... = d of (n-1)^a (n-2)^b ..."""
    dims = [1] + [0] * degree
    for k in range(1, n):
        for d in range(1, degree + 1):
            dims[d] += k * dims[d - 1]
    return dims[degree]


# strands and top degree of the normal form checks
NORMAL_FORM_CASES = ((3, 5), (4, 4))


def test_order_too_small_rejected():
    with pytest.raises(ValueError):
        build_associator(1)


def test_word_exp_inverse_round_trip():
    x = {(0,): Fraction(1, 2), (1,): Fraction(-1, 3)}
    e = _wexp(x, 5)
    assert e[()] == 1
    assert e[(0,)] == Fraction(1, 2)
    assert e[(0, 0)] == Fraction(1, 8)
    prod = _wmul(e, _winv(e, 5), 5)
    assert prod == {(): Fraction(1)}


def test_ideal_ranks_match_enveloping_dimensions():
    # dim U(t_n) in degree d is the coefficient of t^d in
    # prod_{k<n} 1/(1 - k t); the ideal rank is the complement.
    for n, deg, expected in ((3, 2, 2), (3, 3, 12), (3, 4, 50), (4, 4, 995)):
        ngen = len(_gens(n))
        assert _ideal_span(n, deg).rank == expected
        assert ngen ** deg - expected > 0
        assert ngen ** deg - expected == _enveloping_dimension(n, deg)


def test_normal_form_kills_every_placed_relator():
    for n, top in NORMAL_FORM_CASES:
        for deg in range(2, top + 1):
            for vec in _placed_relators(n, deg):
                assert _reduce(vec, deg) == {}, vec


def test_normal_words_count_the_enveloping_dimension():
    # 31 = 3^4 - 50 and 301 = 6^4 - 995, from the frozen ranks above
    assert _enveloping_dimension(3, 4) == 31
    assert _enveloping_dimension(4, 4) == 301
    assert _enveloping_dimension(4, 3) == sum(
        3 ** a * 2 ** b for a in range(4) for b in range(4 - a))
    for n, top in NORMAL_FORM_CASES:
        gens = _gens(n)
        for deg in range(top + 1):
            normal = [w for w in product(gens, repeat=deg)
                      if _normal_form(w) == {w: 1}]
            assert len(normal) == _enveloping_dimension(n, deg)
            rank = _ideal_span(n, deg).rank
            assert len(normal) == len(gens) ** deg - rank
            # the normal form of any word is a combination of normal words
            for w in product(gens, repeat=deg):
                assert all(_normal_form(v) == {v: 1} for v in _normal_form(w))


def test_normal_form_is_zero_exactly_on_the_relator_span():
    rng = random.Random(20261018)
    for n, top in NORMAL_FORM_CASES:
        gens = _gens(n)
        for deg in range(2, top + 1):
            placed = _placed_relators(n, deg)
            span = _ideal_span(n, deg)
            outcomes = set()
            for trial in range(30):
                x = {}
                for vec in rng.sample(placed, 3):
                    c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                    for w, v in vec.items():
                        x[w] = x.get(w, 0) + c * v
                if trial % 2:
                    w = tuple(rng.choice(gens) for _ in range(deg))
                    x[w] = x.get(w, 0) + rng.randint(1, 3)
                x = {w: c for w, c in x.items() if c}
                nf = _reduce(x, deg)
                assert (nf == {}) == span.contains(x)
                # x and its normal form agree modulo the span
                diff = dict(x)
                for w, c in nf.items():
                    diff[w] = diff.get(w, 0) - c
                assert span.contains(diff)
                outcomes.add(nf == {})
            assert outcomes == {True, False}


def test_order3_terms_frozen():
    a = build_associator(3)
    assert a.terms == {2: {(0, 1): Fraction(1, 24), (1, 0): Fraction(-1, 24)}}
    assert a.inverse[2] == {(0, 1): Fraction(-1, 24), (1, 0): Fraction(1, 24)}
    assert 1 not in a.terms and 3 not in a.terms


def test_order3_checks_all_pass():
    assert all(associator_checks(build_associator(3)).values())


def test_order4_solves_and_checks_pass():
    a = build_associator(4)
    assert all(associator_checks(a).values())
    d4 = a.terms[4]
    assert d4[(0, 0, 0, 1)] == Fraction(-1, 1440)
    assert d4[(0, 1, 1, 0)] == Fraction(-1, 1152)
    assert len(d4) == 14
    assert 1 not in a.terms and 3 not in a.terms


def test_order4_dualities():
    # Swapping the letters inverts the associator, and so does reversing
    # every word; together they fix the series.
    a = build_associator(4)
    swap = {m: {tuple(1 - l for l in w): c for w, c in ws.items()}
            for m, ws in a.terms.items()}
    rev = {m: {w[::-1]: c for w, c in ws.items()}
           for m, ws in a.terms.items()}
    assert swap == a.inverse
    assert rev == a.inverse


def test_words_iteration_matches_terms():
    a = build_associator(3)
    seen = {(m, w): c for m, w, c in a.words(+1)}
    assert seen == {(2, (0, 1)): Fraction(1, 24),
                    (2, (1, 0)): Fraction(-1, 24)}
    inv = {(m, w): c for m, w, c in a.words(-1)}
    assert inv == {(2, (0, 1)): Fraction(-1, 24),
                   (2, (1, 0)): Fraction(1, 24)}


def test_inverse_is_two_sided():
    a = build_associator(4)
    phi = {(): Fraction(1)}
    for m, w, c in a.words(+1):
        phi[w] = c
    inv = {(): Fraction(1)}
    for m, w, c in a.words(-1):
        inv[w] = c
    assert _wmul(phi, inv, 4) == {(): Fraction(1)}
    assert _wmul(inv, phi, 4) == {(): Fraction(1)}


def test_order4_degree4_terms_frozen():
    assert build_associator(4).terms[4] == {
        (0, 0, 0, 1): Fraction(-1, 1440),
        (0, 0, 1, 0): Fraction(1, 480),
        (0, 0, 1, 1): Fraction(1, 5760),
        (0, 1, 0, 0): Fraction(-1, 480),
        (0, 1, 0, 1): Fraction(1, 1920),
        (0, 1, 1, 0): Fraction(-1, 1152),
        (0, 1, 1, 1): Fraction(-1, 1440),
        (1, 0, 0, 0): Fraction(1, 1440),
        (1, 0, 0, 1): Fraction(-1, 1152),
        (1, 0, 1, 0): Fraction(7, 5760),
        (1, 0, 1, 1): Fraction(1, 480),
        (1, 1, 0, 0): Fraction(-1, 5760),
        (1, 1, 0, 1): Fraction(-1, 480),
        (1, 1, 1, 0): Fraction(1, 1440),
    }


def test_order6_degree6_terms_frozen_and_checks_pass():
    a = build_associator(6)
    assert a.terms[4] == build_associator(4).terms[4]
    assert 1 not in a.terms and 3 not in a.terms and 5 not in a.terms
    assert a.terms[6] == {
        (0, 0, 0, 0, 0, 1): Fraction(1, 60480),
        (0, 0, 0, 0, 1, 0): Fraction(-1, 12096),
        (0, 0, 0, 0, 1, 1): Fraction(-1, 80640),
        (0, 0, 0, 1, 0, 0): Fraction(1, 6048),
        (0, 0, 0, 1, 0, 1): Fraction(1, 45360),
        (0, 0, 0, 1, 1, 0): Fraction(1, 36288),
        (0, 0, 0, 1, 1, 1): Fraction(23, 967680),
        (0, 0, 1, 0, 0, 0): Fraction(-1, 6048),
        (0, 0, 1, 0, 0, 1): Fraction(1, 120960),
        (0, 0, 1, 0, 1, 0): Fraction(-1, 12096),
        (0, 0, 1, 0, 1, 1): Fraction(-29, 414720),
        (0, 0, 1, 1, 0, 1): Fraction(53, 1451520),
        (0, 0, 1, 1, 1, 0): Fraction(-11, 290304),
        (0, 0, 1, 1, 1, 1): Fraction(-1, 80640),
        (0, 1, 0, 0, 0, 0): Fraction(1, 12096),
        (0, 1, 0, 0, 0, 1): Fraction(-5, 145152),
        (0, 1, 0, 0, 1, 0): Fraction(1, 11520),
        (0, 1, 0, 0, 1, 1): Fraction(53, 1451520),
        (0, 1, 0, 1, 0, 0): Fraction(-1, 241920),
        (0, 1, 0, 1, 0, 1): Fraction(1, 322560),
        (0, 1, 0, 1, 1, 0): Fraction(37, 580608),
        (0, 1, 0, 1, 1, 1): Fraction(1, 45360),
        (0, 1, 1, 0, 0, 0): Fraction(1, 725760),
        (0, 1, 1, 0, 0, 1): Fraction(-13, 967680),
        (0, 1, 1, 0, 1, 0): Fraction(-143, 2903040),
        (0, 1, 1, 0, 1, 1): Fraction(1, 120960),
        (0, 1, 1, 1, 0, 0): Fraction(89, 2903040),
        (0, 1, 1, 1, 0, 1): Fraction(-5, 145152),
        (0, 1, 1, 1, 1, 0): Fraction(1, 34560),
        (0, 1, 1, 1, 1, 1): Fraction(1, 60480),
        (1, 0, 0, 0, 0, 0): Fraction(-1, 60480),
        (1, 0, 0, 0, 0, 1): Fraction(1, 34560),
        (1, 0, 0, 0, 1, 0): Fraction(-59, 725760),
        (1, 0, 0, 0, 1, 1): Fraction(-11, 290304),
        (1, 0, 0, 1, 0, 0): Fraction(19, 241920),
        (1, 0, 0, 1, 0, 1): Fraction(37, 580608),
        (1, 0, 0, 1, 1, 0): Fraction(13, 967680),
        (1, 0, 0, 1, 1, 1): Fraction(1, 36288),
        (1, 0, 1, 0, 0, 0): Fraction(-37, 725760),
        (1, 0, 1, 0, 0, 1): Fraction(-143, 2903040),
        (1, 0, 1, 0, 1, 0): Fraction(-31, 967680),
        (1, 0, 1, 0, 1, 1): Fraction(-1, 12096),
        (1, 0, 1, 1, 0, 0): Fraction(-17, 580608),
        (1, 0, 1, 1, 0, 1): Fraction(1, 11520),
        (1, 0, 1, 1, 1, 0): Fraction(-59, 725760),
        (1, 0, 1, 1, 1, 1): Fraction(-1, 12096),
        (1, 1, 0, 0, 0, 0): Fraction(1, 80640),
        (1, 1, 0, 0, 0, 1): Fraction(89, 2903040),
        (1, 1, 0, 0, 1, 0): Fraction(-17, 580608),
        (1, 1, 0, 1, 0, 0): Fraction(29, 414720),
        (1, 1, 0, 1, 0, 1): Fraction(-1, 241920),
        (1, 1, 0, 1, 1, 0): Fraction(19, 241920),
        (1, 1, 0, 1, 1, 1): Fraction(1, 6048),
        (1, 1, 1, 0, 0, 0): Fraction(-23, 967680),
        (1, 1, 1, 0, 0, 1): Fraction(1, 725760),
        (1, 1, 1, 0, 1, 0): Fraction(-37, 725760),
        (1, 1, 1, 0, 1, 1): Fraction(-1, 6048),
        (1, 1, 1, 1, 0, 0): Fraction(1, 80640),
        (1, 1, 1, 1, 0, 1): Fraction(1, 12096),
        (1, 1, 1, 1, 1, 0): Fraction(-1, 60480),
    }
    assert all(associator_checks(a).values())
