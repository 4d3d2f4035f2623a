"""The slice engine's move images against the direct walk of each move.

kontsevich._MatrixBackend applies a crossing, a double point or an
associator move through its image once a walk meets the move's signature
a second time, or once an earlier walk on the same int system built it:
for each block code the columns of the move's word series, built once
and kept in the `_moves` table, under the int system that walks them.
The oracle is the direct walk of every move, the word series applied by
`_series` on each use, as every use was walked before images.  Both must
give the same layers, key for key, on every walk of a word: the first,
which builds the images of the signatures it meets twice, and the
second, which reads them from its first use.  Q(alpha) systems are
compared as the ints they walk at alpha = 2^K, K from the proven bound
of `_NormBackend`, which both backends share.
"""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from superchord import associator
from superchord.associator import build_associator
from superchord.kontsevich import _MatrixBackend, _moves, _walk, wz_eval
from superchord.weightsys import lg_data, named_system
from superchord.words import parse_word
from test_associator import SIX_KNOTS, odd_gauge
from test_int_walk import braids, tangles

SYSTEMS = {"gl21": lambda: named_system("gl21"),
           "gl11": lambda: named_system("gl11"),
           "valpha": lambda: named_system("valpha"),
           "lg": lg_data}


class DirectBackend(_MatrixBackend):
    """The slice engine without images: every move walks its series."""

    def move(self, p, crossing, sign, signs):
        plan = _moves(self.order)[1][crossing, sign][1]
        total = self._series(self.deg, p, signs, plan)
        self.deg = ([self.ws.flip(layer, p) for layer in total]
                    if crossing else total)


class SignatureBackend:
    """A walk that applies nothing and lists the signature of each move."""

    def __init__(self):
        self.met = []

    def move(self, p, crossing, sign, signs):
        self.met.append((crossing, sign, tuple(
            signs[p:p + 2] if crossing else signs[:p + 2])))

    def cup(self, p, sign):
        pass

    cap = cup

    def finish(self):
        return self.met


def met_twice(word):
    """The move signatures that one walk of word meets more than once:
    those, and only those, that the slice engine keeps an image of."""
    met = _walk(word, SignatureBackend())
    return {sig for sig in met if met.count(sig) > 1}


def layers(backend_class, word, order, name):
    """The int layers of one walk of word, keyed as the engine keys them."""
    backend = backend_class(word, order, *SYSTEMS[name]())
    _walk(word, backend)
    return backend.ws, backend.deg


def assert_images_are_the_direct_walk(order, names, words):
    """Walk each word twice per system from an empty image table, so that
    the first walk builds the images of the signatures it meets twice and
    the second reads them from their first use, and compare both walks
    with the direct one, which must leave the table empty; the table
    then holds the signatures met twice alone.  Returns the number of
    images built."""
    built = 0
    for name in names:
        for text in words:
            word = parse_word(text)
            _moves(order)[2].clear()
            view, want = layers(DirectBackend, word, order, name)
            assert not _moves(order)[2], "the direct walk used images"
            for _ in range(2):
                assert layers(_MatrixBackend, word, order, name) == (
                    view, want), (name, text)
            held = _moves(order)[2][view]
            assert set(held) == met_twice(word), (name, text)
            built += sum(1 for image in held.values() if image)
    return built


def assert_least_exact_base(base, terms):
    """base is the least positive int with q | base^k for every term (k,
    m, p/q), and each int multiplier m is p base^k / q, no remainder
    dropped; as p and q are coprime, the second gives q | base^k."""
    assert base >= 1
    for k, m, c in terms:
        assert m * c.denominator == c.numerator * base ** k, (k, m, c)
    for b in range(1, base):
        assert any(b ** k % c.denominator for k, _m, c in terms), b


def term_coefficients(order, assoc):
    """p/q of every non-unit term of exp(sign t / 2) and of Phi^sign
    through order, keyed as associator.int_series keys them."""
    want = {}
    for sign in (1, -1):
        want[True, sign] = [Fraction(sign ** k, 2 ** k * factorial(k))
                            for k in range(1, order + 1)]
        want[False, sign] = [c for k, _w, c in assoc.words(sign)
                             if k <= order]
    return want


def paired_terms(table, want):
    """(k, multiplier, p/q) for every term (k, word, multiplier) of each
    series of table, p/q its coefficient in want."""
    out = []
    for key, coefficients in want.items():
        terms = table[key]
        assert len(terms) == len(coefficients), key
        out += [(k, m, c) for (k, _w, m), c in zip(terms, coefficients)]
    return out


def move_terms(order):
    """(k, multiplier, p/q) for every term of every move of _moves, p/q
    rebuilt from exp(sign t / 2), its odd part X+ - X- and the words of
    the associator and its inverse."""
    want = term_coefficients(order, build_associator(max(2, order)))
    want[True, 0] = [a - b for a, b in zip(want[True, 1], want[True, -1])
                     if a != b]
    return paired_terms({key: terms for key, (terms, _plan)
                         in _moves(order)[1].items()}, want)


def check_terms(assoc, order):
    """(k, multiplier, p/q) for every term of associator.int_series, the
    series of Phi, Phi^-1 and exp(+-x / 2) that the load check reads."""
    return paired_terms(associator.int_series(assoc, order)[1],
                        term_coefficients(order, assoc))


def test_image_multipliers_are_exact():
    # both chord engines and the associator check hold degree k over
    # B^k, B = scalars.graded_base of their terms: each term p/q is the
    # one int p B^k / q at every layer, B the least that makes it one
    for order, base in enumerate((1, 2, 12, 12, 60, 60, 420)):
        assert _moves(order)[0] == base
        assert_least_exact_base(base, move_terms(order))
        assoc = (build_associator(order) if order >= 2
                 else associator.Associator(order, {}))
        assert associator.int_series(assoc, order)[0] == base
        assert_least_exact_base(base, check_terms(assoc, order))


@st.composite
def open_braids(draw):
    """An open braid on 2 or 3 strands with 1 to 6 letters."""
    return draw(braids()).replace(" ; close", "")


images = settings(derandomize=True, max_examples=25, deadline=None)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
@images
@given(text=st.one_of(braids(), open_braids(), tangles()),
       order=st.integers(3, 4))
def test_move_images_equal_the_direct_walk(name, text, order):
    assert_images_are_the_direct_walk(order, (name,), (text,))


def test_direct_walk_builds_no_image():
    # the oracle walks every move's series: were its override not the
    # method the walk calls, it would build and read images, and the
    # comparison would set the engine against itself
    _moves(4)[2].clear()
    for _ in range(2):
        layers(DirectBackend, parse_word(SIX_KNOTS[1]), 4, "gl21")
    assert not _moves(4)[2]


def test_every_system_builds_images_on_a_knot():
    # the figure eight meets its crossing and associator signatures
    # more than once, so each system builds and reads images
    word = SIX_KNOTS[1]
    for name in sorted(SYSTEMS):
        assert assert_images_are_the_direct_walk(4, (name,), (word,)) > 0


def direct_wz_eval(text, rep, tensor, order):
    """wz_eval of an open word with more than one strand, every move
    walked directly: per degree, {(target, source indices): value}."""
    word = parse_word(text)
    backend = DirectBackend(word, order, rep, tensor)
    nt = len(word.target)
    width = nt + len(word.source)
    out = []
    for layer in _walk(word, backend):
        split = [(backend.ws.decode(k, width), v) for k, v in layer.items()]
        out.append({(d[:nt], d[nt:]): v for d, v in split})
    return out


def test_images_follow_a_swapped_associator():
    # a closed word does not see the associator; an open braid does, so
    # an image of the stored associator kept under odd_gauge would show
    text = "braid[3]: s1 s2^-1 s1 s1 s2 s1^-1"
    rep, tensor = named_system("gl21")

    def raw():
        # the second walk reads the images that the first one built
        walks = [wz_eval(text, rep, tensor, 4) for _ in range(2)]
        assert any(image for held in _moves(4)[2].values()
                   for image in held.values())
        for got in walks:
            assert got == direct_wz_eval(text, rep, tensor, 4)
        return walks[-1]

    _moves(4)[2].clear()
    stored = raw()
    with odd_gauge():
        odd = raw()
    assert odd != stored
