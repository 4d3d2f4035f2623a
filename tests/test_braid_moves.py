"""Framed invariance of the integral's values under braid moves.

wz_eval with a weight system and lg_invariant are invariants of framed
links (Le-Murakami, Compositio Math. 102, 1996; Bar-Natan,
"Non-associative tangles", 1997).  The framing of a closed braid is its
blackboard framing plus its twists t<k>, so the braid relation
s1 s2 s1 = s2 s1 s2 (or with every letter inverted) applied inside a
word, far commutation s1 s3 = s3 s1 on four strands, and conjugation by
a generator, change neither the link nor its framing; they keep the
number of maxima too, so wz_eval must not move.
Markov stabilisation w -> w s<n>^e t<n>^-e on n + 1 strands adds a
crossing whose framing the twist takes back, and a maximum, which only
paired_invariant divides out: it is compared on knots, with the gl(2|1)
weight system and as lg_invariant.  The Links-Gould weight kills an
isolated chord, so lg_invariant sees no framing; the gl(2|1) weight
does not, so its pairing checks the compensating twist.  The words are
generated closed braids on at most 4 strands, at order 3.
"""

from hypothesis import given, settings, strategies as st

from superchord.diagrams import CIRCLE
from superchord.kontsevich import lg_invariant, paired_invariant, wz_eval
from superchord.scalars import QQ
from superchord.weightsys import named_system, weight_system
from superchord.words import parse_word

ORDER = 3

moves = settings(derandomize=True, max_examples=20, deadline=None)


def _word(n, letters):
    """A closed braid of (kind, strand, exponent) letters."""
    return "braid[%d]: %s ; close" % (n, " ".join(
        "%s%d%s" % (kind, k, "" if e == 1 else "^-1")
        for kind, k, e in letters))


@st.composite
def _letters(draw, n, most):
    return draw(st.lists(st.tuples(st.just("s"), st.integers(1, n - 1),
                                   st.sampled_from((1, -1))),
                         max_size=most))


def _assert_same(n, a, b, m=None):
    """wz_eval with gl21 and gl11 and, on a knot, lg_invariant and the
    gl21 paired_invariant agree on the closures of a on n strands and of
    b on m strands; wz_eval is compared only when the two have the same
    width."""
    wa, wb = _word(n, a), _word(m or n, b)
    if m is None:
        for name in ("gl21", "gl11"):
            rep, tensor = named_system(name)
            assert (wz_eval(wa, rep, tensor, ORDER)
                    == wz_eval(wb, rep, tensor, ORDER)), (wa, wb, name)
    if parse_word(wa).components == (CIRCLE,):
        assert lg_invariant(wa, ORDER) == lg_invariant(wb, ORDER), (wa, wb)
        gl21 = weight_system(*named_system("gl21"))
        assert (paired_invariant(wa, gl21, QQ, ORDER)
                == paired_invariant(wb, gl21, QQ, ORDER)), (wa, wb)


@moves
@given(data=st.data(), e=st.sampled_from((1, -1)))
def test_braid_relation_inside_a_word(data, e):
    before = data.draw(_letters(3, 2))
    after = data.draw(_letters(3, 3 - len(before)))
    lhs = [("s", 1, e), ("s", 2, e), ("s", 1, e)]
    rhs = [("s", 2, e), ("s", 1, e), ("s", 2, e)]
    _assert_same(3, before + lhs + after, before + rhs + after)


@moves
@given(data=st.data(), e=st.sampled_from((1, -1)),
       f=st.sampled_from((1, -1)))
def test_far_commutation_on_four_strands(data, e, f):
    before = data.draw(_letters(4, 2))
    after = data.draw(_letters(4, 4 - len(before)))
    _assert_same(4, before + [("s", 1, e), ("s", 3, f)] + after,
                 before + [("s", 3, f), ("s", 1, e)] + after)


@moves
@given(data=st.data(), n=st.integers(2, 3), e=st.sampled_from((1, -1)))
def test_conjugation_by_a_generator(data, n, e):
    word = data.draw(_letters(n, 4))
    k = data.draw(st.integers(1, n - 1))
    _assert_same(n, word, [("s", k, e)] + word + [("s", k, -e)])


@moves
@given(data=st.data(), n=st.integers(1, 2), e=st.sampled_from((1, -1)))
def test_markov_stabilisation_with_a_compensating_twist(data, n, e):
    word = data.draw(_letters(n, 5)) if n > 1 else []
    _assert_same(n, word, word + [("s", n, e), ("t", n, -e)], n + 1)


def test_markov_stabilisation_of_the_trefoil():
    trefoil = [("s", 1, 1)] * 3 + [("t", 1, -1)] * 3
    _assert_same(2, trefoil, trefoil + [("s", 2, 1), ("t", 2, -1)], 3)
