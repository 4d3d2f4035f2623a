"""Marked double points walked once against the sum over their resolutions.

Both chord engines read a marked crossing as X+ - X-, the integral of a
singular knot (Bar-Natan, Topology 34, 1995): `kontsevich._moves` holds
the double point as a third move kind beside the crossing and the
associator move, so `z_eval`, `wz_eval` and `vassiliev_defect` walk a
word with m marks once.  The oracle is the alternating sum over the 2^m
resolutions of `resolve_singular` below, each a plain word that
`resolution` writes with every mark made X+ or X-, walked as before.
The words are generated closed braids on at most 3 strands with at most
6 letters and (1,1)-tangles, each with 1 to 3 marks, at orders 3 and 4.
`wz_eval` walks each word twice from an empty image table: the first
walk builds the image of each move it meets twice, a double point met
twice included, and the second reads those images.  Over Q(alpha) the
int walk at alpha = 2^K is checked too, with K from the double point's
own terms in `_NormBackend`.  On the same words the walk starts at
degree m with the marks' chord diagram, signed by the marked crossings'
oriented signs.
"""

import re

import pytest
from hypothesis import example, given, settings, strategies as st

from superchord import kontsevich
from superchord.diagrams import canonical_form
from superchord.kontsevich import _moves, vassiliev_defect, wz_eval, z_eval
from superchord.scalars import add_term
from superchord.verify import SINGULAR_WORDS
from superchord.weightsys import named_system
from superchord.words import TangleWord, diagram_of_singular, parse_word
from test_int_walk import _assert_wz_matches, braids, tangles
from test_move_images import met_twice

# a knot on 3 strands with three marks and framing 4
THREE_MARKS = ("braid[3]: s1 sing s2^-1 s1 sing s2^-1 s1 sing s2 s1 s2 "
               "; close")


def resolve_singular(word):
    """All 2^m resolutions of the marked double points, with signs."""
    return [resolution(word, mask) for mask in range(2 ** word.sing_count)]


def resolution(word, mask=0):
    """One resolution of the marked double points and its sign: the b-th
    marked crossing becomes X- where bit b of mask is set and X+
    elsewhere, and the sign is -1 to the number of X-."""
    sites = [(i, j) for i, sl in enumerate(word.slices)
             for j, tok in enumerate(sl) if tok[0] == "x" and tok[2]]
    slices = [list(sl) for sl in word.slices]
    sign = 1
    for b, (i, j) in enumerate(sites):
        s = 1 if (mask >> b) & 1 == 0 else -1
        sign *= s
        slices[i][j] = ("x", s, False)
    braid = None
    if word.braid is not None:
        n, letters, closed = word.braid
        signs = iter([slices[i][j][1] for i, j in sites])
        braid = (n, [(t[0], t[1], next(signs), False) if t[3] else t
                     for t in letters], closed)
    return sign, TangleWord(word.source, slices, braid)


def _marks(draw, tokens, is_crossing):
    """The places of 1 to 3 of the crossings among tokens."""
    sites = [i for i, tok in enumerate(tokens) if is_crossing(tok)]
    return draw(st.sets(st.sampled_from(sites), min_size=1,
                        max_size=min(3, len(sites))))


@st.composite
def singular_braids(draw):
    """A closed braid of test_int_walk.braids with 1 to 3 marks; a marked
    letter is written positive, as the grammar asks."""
    head, body = draw(braids()).split(": ")
    letters = body.replace(" ; close", "").split()
    marked = _marks(draw, letters, lambda tok: True)
    return "%s: %s ; close" % (head, " ".join(
        tok.replace("^-1", "") + " sing" if i in marked else tok
        for i, tok in enumerate(letters)))


@st.composite
def singular_tangles(draw):
    """A (1,1)-tangle of test_int_walk.tangles with 1 to 3 marks, each
    marked crossing written X+."""
    lines = draw(tangles()).split("\n")
    marked = _marks(draw, lines, lambda line: "X" in line)
    return "\n".join(re.sub(r"X[+-]", "X+ sing", line) if i in marked
                     else line for i, line in enumerate(lines))


def _signed_sum(values):
    """The sum of sign * value over (sign, value) pairs."""
    total = None
    for sign, value in values:
        value = value if sign > 0 else -value
        total = value if total is None else total + value
    return total


def z_resolution_sum(word, order):
    """The terms of z_eval summed over the resolutions with their signs."""
    total = {}
    for sign, res in resolve_singular(word):
        for e, c in z_eval(res, order).terms.items():
            add_term(total, e, sign * c)
    return total


def wz_resolution_sum(word, rep, tensor, order):
    """wz_eval summed over the resolutions with their signs, degree by
    degree for a (1,1)-tangle."""
    values = [(sign, wz_eval(res, rep, tensor, order))
              for sign, res in resolve_singular(word)]
    if word.is_closed:
        return _signed_sum(values)
    return [_signed_sum((sign, value[m]) for sign, value in values)
            for m in range(order + 1)]


def assert_wz_is_the_resolution_sum(name, text, order):
    """wz_eval of the word, walked twice from an empty image table, equals
    the resolution sum on both walks: the first builds the image of each
    signature it meets twice, double points included, and the second
    reads those from their first use.  Returns the signatures (crossing,
    sign, roles) with an image, a double point's of sign 0: those met
    twice in one walk, and no others."""
    rep, tensor = named_system(name)
    word = parse_word(text)
    want = wz_resolution_sum(word, rep, tensor, order)
    _moves(order)[2].clear()
    for _ in range(2):
        assert wz_eval(word, rep, tensor, order) == want, (name, text)
    images, = _moves(order)[2].values()
    assert set(images) == met_twice(word), (name, text)
    return sorted(images)


def _walks(call):
    """call() and the number of kontsevich._walk calls it made."""
    walk, calls = kontsevich._walk, []

    def counted(*args):
        calls.append(args)
        return walk(*args)

    kontsevich._walk = counted
    try:
        return call(), len(calls)
    finally:
        kontsevich._walk = walk


def assert_double_points_are_the_resolution_sums(order, words):
    """vassiliev_defect with gl21 and valpha, and z_eval by class, of each
    closed word against the sums over its resolutions, and each in one
    walk (two over Q(alpha): the bound, then the ints); returns the
    number of words checked."""
    for text in words:
        word = parse_word(text)
        z, walks = _walks(lambda: z_eval(word, order))
        assert walks == 1 and z.terms == z_resolution_sum(word, order)
        for name, want in (("gl21", 1), ("valpha", 2)):
            rep, tensor = named_system(name)
            defect, walks = _walks(
                lambda: vassiliev_defect(word, rep, tensor, order))
            assert walks == want, (name, text)
            assert defect == wz_resolution_sum(word, rep, tensor, order), (
                name, text)
    return len(words)


marks = settings(derandomize=True, max_examples=40, deadline=None)


@marks
@given(text=st.one_of(singular_braids(), singular_tangles()),
       order=st.integers(3, 4))
def test_z_eval_is_the_resolution_sum(text, order):
    word = parse_word(text)
    want = z_resolution_sum(word, order)
    for _ in range(2):
        assert z_eval(word, order).terms == want


@pytest.mark.parametrize("name", ["gl21", "gl11", "valpha"])
@marks
@given(text=st.one_of(singular_braids(), singular_tangles()),
       order=st.integers(3, 4))
def test_wz_eval_is_the_resolution_sum(name, text, order):
    assert_wz_is_the_resolution_sum(name, text, order)


@pytest.mark.parametrize("name", ["gl21", "gl11", "valpha"])
def test_a_double_point_met_twice_is_read_from_its_image(name):
    # the interleaved 2-mark word meets its double point twice in one
    # walk, so the first walk builds its image and the second reads it
    interleaved, = [w for _m, label, w in SINGULAR_WORDS
                    if label == "interleaved"]
    held = assert_wz_is_the_resolution_sum(name, interleaved, 4)
    assert [sig for sig in held if sig[1] == 0] == [(True, 0, (1, 1))]


@pytest.mark.parametrize("name", ["valpha", "lg"])
@settings(derandomize=True, max_examples=4, deadline=None)
@given(text=singular_tangles(), order=st.integers(3, 4))
def test_double_point_bound_holds_on_the_q_alpha_walk(name, text, order):
    # the int walk at alpha = 2^K against the walk over Q(alpha), and
    # the bound of _NormBackend, from the double point's own terms,
    # against the largest coefficient that walk reaches
    _assert_wz_matches(name, text, order)


@marks
@given(text=st.one_of(singular_braids(), singular_tangles()))
def test_resolutions_share_their_framing_parities(text):
    word = parse_word(text)
    resolutions = resolve_singular(word)
    assert len(resolutions) == 2 ** word.sing_count
    assert len({tuple(f % 2 for f in res.framings)
                for _sign, res in resolutions}) == 1
    # the all-positive resolution is the first, the one vassiliev_defect
    # checks
    sign, first = resolutions[0]
    again = resolution(word)
    assert sign == again[0] == 1 and again[1].slices == first.slices


def _oriented_mark_sign(word):
    """The product over the marked crossings of the written sign times
    the orientations of the two strands crossed there."""
    signs, sign = list(word.source), 1
    for sl in word.slices:
        p = 0
        for tok in sl:
            if tok[0] == "x":
                if tok[2]:
                    sign *= tok[1] * signs[p] * signs[p + 1]
                signs[p], signs[p + 1] = signs[p + 1], signs[p]
                p += 2
            elif tok[0] == "cup":
                signs[p:p] = [tok[1], -tok[1]]
                p += 2
            elif tok[0] == "cap":
                del signs[p:p + 2]
            else:
                p += 1
    return sign


@settings(derandomize=True, max_examples=100, deadline=None)
@given(text=st.one_of(singular_braids(), singular_tangles()),
       extra=st.integers(0, 1))
# X+ marked where an upward strand meets a downward one: it starts at -D
@example(text="obj: +\nslice: id(+) cup(-+)\nslice: X+ sing id(+)\n"
              "slice: cap(-+) id(+)", extra=0)
def test_leading_term_is_the_signed_double_point_diagram(text, extra):
    # z_eval of m marks has no term below degree m, and its degree-m
    # part is s D: D the chord diagram of the marks, s the product of the
    # marked crossings' oriented signs
    word = parse_word(text)
    m = word.sing_count
    terms = z_eval(word, m + extra).terms
    assert all(len(e[1]) >= m for e in terms)
    lead = {e: c for e, c in terms.items() if len(e[1]) == m}
    assert lead == {canonical_form(diagram_of_singular(word)):
                    _oriented_mark_sign(word)}


def test_double_point_is_the_crossings_difference():
    for order in range(6):
        moves = _moves(order)[1]
        terms = moves[True, 0][0]
        assert [k for k, _w, _m in terms] == list(range(1, order + 1, 2))
        plus, minus = moves[True, 1][0], moves[True, -1][0]
        for k, _w, mult in terms:
            # X+ - X-, term by term, over the same B^k
            assert mult == plus[k - 1][2] - minus[k - 1][2]


def test_singular_words_and_three_marks_at_order_3():
    words = [text for _m, _label, text in SINGULAR_WORDS] + [THREE_MARKS]
    assert assert_double_points_are_the_resolution_sums(3, words) == 4


def test_a_singular_knot_pairs_its_alternating_integral():
    # lg reads the marks as z_eval does: one double point on the
    # trefoil's braid is the trefoil minus the unknot s1 s1^-1 s1
    text = "braid[2]: s1 s1 sing s1 t1^-3 ; close"
    plus, minus = (kontsevich.lg_invariant(res, 3)
                   for _s, res in resolve_singular(parse_word(text)))
    assert kontsevich.lg_invariant(text, 3) == plus - minus
