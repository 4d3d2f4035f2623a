"""Mirror images: every crossing sign and twist of a word inverted.

A mirror turns each crossing's exp(+-t/2) into exp(-+t/2) and keeps
every cup, cap and associator move.  The stored associator is even,
Phi(-A, -B) = Phi(A, B), so the degree-m part of the integral changes
by (-1)^m: the raw terms of z_eval, the h^m coefficients of wz_eval,
and lg_invariant on knots, whose hump factor is even as well.  Under an
associator that is not even (test_associator.odd_gauge) the invariants
still obey this, as they do not depend on the associator, and the raw
terms of a chiral knot do not.  The words are generated closed braids
on at most 3 strands with at most 6 letters, links included, at order 4.

A marked crossing stays X+ in the mirror, as the grammar asks, so the
mirror of its double point X+ - X- is minus the mirror image: a word
with j marks mirrors to degree m times (-1)^(m + j).
"""

from hypothesis import given, settings

from superchord.diagrams import CIRCLE
from superchord.kontsevich import lg_invariant, wz_eval, z_eval
from superchord.verify import SINGULAR_WORDS
from superchord.weightsys import named_system
from superchord.words import TangleWord, parse_word
from test_associator import SIX_KNOTS, odd_gauge
from test_double_points import THREE_MARKS
from test_int_walk import braids

ORDER = 4


def mirror(word):
    """The word with every crossing sign and every twist inverted, but a
    marked crossing kept X+."""
    word = parse_word(word)
    slices = [[("x", 1 if tok[2] else -tok[1], tok[2]) if tok[0] == "x"
               else tok for tok in sl] for sl in word.slices]
    braid = word.braid
    if braid is not None:
        n, letters, closed = braid
        braid = (n, [(kind, k, s if marked else -s, marked)
                     for kind, k, s, marked in letters], closed)
    return TangleWord(word.source, slices, braid)


def _signed(coeffs):
    """The coefficient of degree m times (-1)^m."""
    return [c if m % 2 == 0 else -c for m, c in enumerate(coeffs)]


def _raw(word, order=ORDER):
    """z_eval's terms, each with the (-1)^m of its degree m applied."""
    return {e: c if len(e[1]) % 2 == 0 else -c
            for e, c in z_eval(word, order).terms.items()}


def _invariants(word, order):
    """The h-coefficients of wz_eval with gl21, gl11 and valpha, and of
    lg_invariant on a knot."""
    out = {name: list(wz_eval(word, *named_system(name), order).c)
           for name in ("gl21", "gl11", "valpha")}
    if parse_word(word).components == (CIRCLE,):
        out["lg"] = list(lg_invariant(word, order).c)
    return out


def assert_mirror_signs_the_invariants(word, order=ORDER):
    """Each invariant of the mirror is that of the word with degree m
    times (-1)^m."""
    got = _invariants(mirror(word), order)
    assert got == {k: _signed(v) for k, v in
                   _invariants(word, order).items()}


def assert_mirror_signs_every_degree(words, order):
    """The raw terms and each invariant of every word's mirror are the
    word's with degree m times (-1)^m."""
    for word in words:
        assert z_eval(mirror(word), order).terms == _raw(word, order), word
        assert_mirror_signs_the_invariants(word, order)


def _by_marks(coeffs, marks):
    """The coefficient of degree m times (-1)^(m + marks)."""
    return [c if (m + marks) % 2 == 0 else -c for m, c in enumerate(coeffs)]


def assert_mirror_signs_singular_words(words, order):
    """The raw terms and the wz_eval series with gl21, gl11 and valpha of
    each word's mirror are the word's with degree m times (-1)^(m + j), j
    its marks; returns the number of words checked."""
    for text in words:
        word = parse_word(text)
        j = word.sing_count
        assert z_eval(mirror(word), order).terms == {
            e: c if (len(e[1]) + j) % 2 == 0 else -c
            for e, c in z_eval(word, order).terms.items()}, text
        for name in ("gl21", "gl11", "valpha"):
            rep, tensor = named_system(name)
            got = wz_eval(mirror(word), rep, tensor, order).c
            want = wz_eval(word, rep, tensor, order).c
            assert list(got) == _by_marks(want, j), (name, text)
    return len(words)


def test_mirror_inverts_every_crossing_and_twist():
    word = parse_word(SIX_KNOTS[0])
    back = mirror(mirror(word))
    assert back.slices == word.slices and back.braid == word.braid
    assert mirror(word).framings == tuple(-f for f in word.framings)
    assert mirror(word).writhe == -word.writhe
    # a mark stays on a positive crossing
    marked = parse_word(THREE_MARKS)
    back = mirror(mirror(marked))
    assert back.slices == marked.slices and back.braid == marked.braid
    assert all(tok[1] == 1 for sl in mirror(marked).slices for tok in sl
               if tok[0] == "x" and tok[2])
    assert mirror(marked).sing_count == 3


def test_mirror_of_a_singular_word_signs_by_its_marks():
    words = [text for _m, _label, text in SINGULAR_WORDS] + [THREE_MARKS]
    assert assert_mirror_signs_singular_words(words, ORDER) == 4


@settings(derandomize=True, max_examples=20, deadline=None)
@given(word=braids())
def test_mirror_signs_odd_degrees_on_generated_braids(word):
    assert_mirror_signs_every_degree((word,), ORDER)


def test_mirror_under_a_non_even_associator():
    trefoil = SIX_KNOTS[0]
    link = "braid[3]: s1 s2^-1 s1 s2 s2 s1^-1 s2 ; close"
    with odd_gauge():
        for word in (trefoil, link):
            assert_mirror_signs_the_invariants(word)
        raw, mirrored = _raw(trefoil), z_eval(mirror(trefoil), ORDER).terms
    assert mirrored != raw
    # the two agree below degree 3, where the odd gauge's Phi_3(-A, -B)
    # = -Phi_3(A, B) first enters
    low = [{e: c for e, c in terms.items() if len(e[1]) < 3}
           for terms in (mirrored, raw)]
    assert low[0] == low[1] and low[0]
