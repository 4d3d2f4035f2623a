"""Tests for the degree-by-degree associator solver."""

from fractions import Fraction

import pytest

from superchord.associator import (Associator, _BraidIdeal, build_associator,
                                   associator_checks, _wexp, _wmul, _winv)


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
        ideal = _BraidIdeal(n, deg)
        ngen = len(ideal.gens)
        assert ideal._span(deg).rank == expected
        assert ngen ** deg - expected > 0


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
