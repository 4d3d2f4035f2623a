"""The slice engine's move images against the direct walk of each move.

kontsevich._MatrixBackend applies a crossing or an associator move through
its image from the second use of the move's signature in one walk, or its
kontsevich._ADMIT-th on one int system: for each block code the columns
of the move's word series, built once and kept in the `_moves` table,
under the int system that walks them.
The oracle is the direct walk of every move, the word series applied by
`_series` on each use, as every use was walked before images.  Both must
give the same layers, key for key, on every walk of a word, the walks
that build images and those that only read them included.  Q(alpha)
systems are compared as the ints they walk at alpha = 2^K, K from the
proven bound of `_NormBackend`, which both backends share.
"""

import pytest
from hypothesis import given, settings, strategies as st

from superchord import kontsevich
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

    def _move(self, p, crossing, sign, signs):
        plan = _moves(self.order)[1][crossing, sign][1]
        total = self._series(self.deg, p, signs, plan)
        self.deg = ([self.ws.flip(layer, p) for layer in total]
                    if crossing else total)


def layers(backend_class, word, order, name):
    """The int layers of one walk of word, keyed as the engine keys them."""
    backend = backend_class(word, order, *SYSTEMS[name]())
    _walk(word, backend)
    return backend.ws, backend.deg


def assert_images_are_the_direct_walk(order, names, words):
    """Walk each word kontsevich._ADMIT times per system from an empty
    image table, so that its signatures walk directly, are admitted and
    are read from their images, and compare every walk with the direct
    one; returns the number of images built."""
    built = 0
    for name in names:
        for text in words:
            word = parse_word(text)
            _moves(order)[2].clear()
            view, want = layers(DirectBackend, word, order, name)
            for _ in range(kontsevich._ADMIT):
                assert layers(_MatrixBackend, word, order, name) == (
                    view, want), (name, text)
            built += sum(1 for image in _moves(order)[2][view][1].values()
                         if image)
    return built


def test_image_multipliers_are_exact():
    # a term p/q of degree k enters an image column as p Q_k / q and is
    # carried from layer n by scale[k][n] = D[n + k] / (D[n] Q_k); their
    # product must be the term's own multiplier p D[n + k] / (D[n] q),
    # with no remainder dropped by the integer divisions
    for order in range(6):
        dens, moves, _images = _moves(order)
        for (crossing, sign), (terms, _plan, build, scale) in moves.items():
            for (k, _w, mults), (_u, _v, _k, (unit,)) in zip(terms,
                                                             build[1]):
                for n, mult in enumerate(mults):
                    assert unit * scale[k][n] == mult
                    assert scale[k][n] * dens[n] * (
                        dens[k] // scale[k][0]) == dens[n + k]


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
        # the last walk reads the images that the earlier ones admitted
        walks = [wz_eval(text, rep, tensor, 4)
                 for _ in range(kontsevich._ADMIT)]
        assert any(image for _uses, held in _moves(4)[2].values()
                   for image in held.values())
        for got in walks:
            assert got == direct_wz_eval(text, rep, tensor, 4)
        return walks[-1]

    _moves(4)[2].clear()
    stored = raw()
    with odd_gauge():
        odd = raw()
    assert odd != stored
