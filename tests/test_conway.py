"""Skein-recursion Conway oracle against table values, and the gl(1|1)
pairing against it on generated knots."""

import pytest
from hypothesis import assume, given, settings, strategies as st

from superchord.conway import conway_polynomial
from superchord.diagrams import CIRCLE
from superchord.kontsevich import paired_invariant
from superchord.verify import conway_series
from superchord.weightsys import named_system, weight_system
from superchord.words import parse_word


def test_unknot_and_unlinks():
    assert conway_polynomial("braid[1]: ; close") == [1]
    assert conway_polynomial("braid[2]: ; close") == [0]
    assert conway_polynomial("braid[3]: ; close") == [0]


def test_hopf_links_carry_the_sign():
    assert conway_polynomial("braid[2]: s1 s1 ; close") == [0, 1]
    assert conway_polynomial("braid[2]: s1^-1 s1^-1 ; close") == [0, -1]


def test_small_knots_from_the_tables():
    assert conway_polynomial("braid[2]: s1 s1 s1 ; close") == [1, 0, 1]
    assert conway_polynomial("braid[2]: s1^-1 s1^-1 s1^-1 ; close") == [1, 0, 1]
    assert conway_polynomial("braid[3]: s1 s2^-1 s1 s2^-1 ; close") == [1, 0, -1]
    assert conway_polynomial("braid[2]: s1^5 ; close") == [1, 0, 3, 0, 1]


def test_value_only_depends_on_the_knot():
    presentations = ["braid[2]: s1 s1 s1 ; close",
                     "braid[3]: s1 s2 s1 s2 ; close",
                     "braid[2]: s1 s1 s1 t1^-3 ; close",
                     "braid[3]: s1 s2 s1 s2 t1^-4 ; close"]
    values = {tuple(conway_polynomial(w)) for w in presentations}
    assert values == {(1, 0, 1)}


def test_rejects_open_sliced_and_marked_words():
    with pytest.raises(ValueError):
        conway_polynomial("braid[2]: s1 s1")
    with pytest.raises(ValueError):
        conway_polynomial("slice: cup(+-)\nslice: cap(+-)")
    with pytest.raises(ValueError):
        conway_polynomial("braid[2]: s1 sing s1 ; close")


def test_second_coefficient_row_for_the_acceptance_knots():
    row = [conway_polynomial(w)[2] if len(conway_polynomial(w)) > 2 else 0
           for w in ("braid[1]: ; close",
                     "braid[2]: s1 s1 s1 t1^-3 ; close",
                     "braid[3]: s1 s2^-1 s1 s2^-1 ; close")]
    assert row == [0, 1, -1]


@st.composite
def closed_knot_braids(draw):
    """Closed knot braids on at most 3 strands with at most 6 letters, and
    a t1 twist that cancels the writhe."""
    n = draw(st.integers(1, 3))
    letters = draw(st.lists(
        st.tuples(st.integers(1, max(1, n - 1)), st.sampled_from((1, -1))),
        max_size=6 if n > 1 else 0))
    writhe = sum(s for _, s in letters)
    text = " ".join("s%d%s" % (k, "" if s > 0 else "^-1") for k, s in letters)
    if writhe:
        text += " t1^%d" % -writhe
    word = "braid[%d]: %s ; close" % (n, text)
    assume(parse_word(word).components == (CIRCLE,))
    return word


@settings(derandomize=True, max_examples=60, deadline=None)
@given(word=closed_knot_braids())
def test_gl11_pairing_is_conway_on_generated_knots(word):
    rep, tensor = named_system("gl11")
    lhs = paired_invariant(word, weight_system(rep, tensor), rep.ring, 3)
    assert lhs == conway_series(word, 3)
