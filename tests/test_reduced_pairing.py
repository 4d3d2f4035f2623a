"""Pairing modulo four-term relations against the unreduced pairing."""

import random
from fractions import Fraction

import pytest

from superchord.diagrams import (
    CIRCLE, INTERVAL, enumerate_diagrams, slit_component)
from superchord.kontsevich import (
    ZValue, hump_factor, lg_invariant, paired_invariant, reduce_fourterm,
    z_eval)
from superchord.scalars import QALPHA, series_inverse
from superchord.weightsys import named_system, weight_system, wlg
from superchord.words import parse_word

TREFOIL = "braid[2]: s1 s1 s1 t1^-3 ; close"
FIG8 = "braid[3]: s1 s2^-1 s1 s2^-1 ; close"
HUMP = "obj: +\nslice: cup(+-) id(+)\nslice: id(+) cap(-+)"

# (strands, generator of each letter, |writhe|): closures are knots
KNOT_SHAPES = ((2, "111", 3), (3, "1212", 2), (2, "11111", 3),
               (3, "1112", 0), (2, "1111111", 1))

# dimensions of the circle quotient by four-term relations, degrees 0-5
QUOTIENT_DIMS = (1, 1, 2, 3, 6, 10)


def knot_words(count, seed):
    """Closed knot braids of the shapes above, writhe cancelled by t1."""
    rng = random.Random(seed)
    words = []
    for i in range(count):
        n, gens, writhe = KNOT_SHAPES[i % len(KNOT_SHAPES)]
        while True:
            signs = [rng.choice((1, -1)) for _ in gens]
            if abs(sum(signs)) == writhe:
                break
        toks = ["s%s" % k if s > 0 else "s%s^-1" % k
                for k, s in zip(gens, signs)]
        twist = " t1^%d" % -sum(signs) if sum(signs) else ""
        words.append("braid[%d]: %s%s ; close" % (n, " ".join(toks), twist))
    return words


def direct_pairing(word, weight, ring, order):
    """Every class of the integral cut at place 0 and weighed, and every
    class of the hump factor, with no four-term quotient."""
    word = parse_word(word)
    z = z_eval(word, order)
    series = z.pair(lambda d: weight(slit_component(d, 0)), ring)
    caps = sum(1 for sl in word.slices for tok in sl if tok[0] == "cap")
    if caps > 1:
        inv = series_inverse(hump_factor(order).pair(weight, ring))
        for _ in range(caps - 1):
            series = series * inv
    return series


def test_lg_reduced_equals_direct_on_generated_knots():
    words = knot_words(20, seed=7)
    assert len(set(words)) >= 10
    for text in set(words):
        assert lg_invariant(text, 3) == direct_pairing(text, wlg, QALPHA, 3)


@pytest.mark.parametrize("name", ["gl11", "gl21"])
@pytest.mark.parametrize("text", [TREFOIL, FIG8])
def test_gl_reduced_equals_direct_at_order_four(name, text):
    rep, tv = named_system(name)
    weight = weight_system(rep, tv)
    assert (paired_invariant(text, weight, rep.ring, 4)
            == direct_pairing(text, weight, rep.ring, 4))


def assert_reduced_is_direct(words, order):
    """lg_invariant, and paired_invariant with gl11 and gl21, equal
    direct_pairing on every knot word at this order."""
    systems = [named_system(name) for name in ("gl11", "gl21")]
    for text in words:
        assert (lg_invariant(text, order)
                == direct_pairing(text, wlg, QALPHA, order)), text
        for rep, tv in systems:
            weight = weight_system(rep, tv)
            assert (paired_invariant(text, weight, rep.ring, order)
                    == direct_pairing(text, weight, rep.ring, order)), text


def test_reduced_equals_direct_on_generated_knots_at_order_four():
    words = set(knot_words(10, seed=11))
    assert len(words) >= 5
    assert_reduced_is_direct(sorted(words), 4)


@pytest.mark.parametrize("degree", range(6))
def test_residuals_span_exactly_a_quotient_basis(degree):
    keys = set()
    for d in enumerate_diagrams((CIRCLE,), degree):
        e = d.encoding()
        z = ZValue((CIRCLE,), {e: Fraction(1)}, {e: d}, degree)
        reduced = reduce_fourterm(z)
        assert reduce_fourterm(reduced) == reduced
        keys.update(reduced.terms)
    assert len(keys) == QUOTIENT_DIMS[degree]


def test_reduction_refuses_all_but_one_circle():
    # the hump's interval and the Hopf link's two circles
    for text, skeleton in ((HUMP, (INTERVAL,)),
                           ("braid[2]: s1 s1 ; close", (CIRCLE, CIRCLE))):
        z = z_eval(text, 2)
        assert z.skeleton == skeleton
        with pytest.raises(ValueError, match="one circle"):
            reduce_fourterm(z)
