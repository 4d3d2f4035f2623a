"""The slice engine's word-series schedule against the suffix-cached oracle.

kontsevich._MatrixBackend applies a crossing's or an associator move's
word series on the fixed schedule that kontsevich._moves holds: each word
split as u v, each suffix v applied once to the source layers, each
prefix u applied by Horner over the prefix trie to one state per target
layer.  The oracle here is the earlier schedule, kept verbatim: every
word applied letter by letter from its last letter, each suffix of a
word cached and carried on the layers up to its top, order minus the
least degree of a word that ends in it.  After one move both must give
the same layers, key for key, on random states of every named system
and the Links-Gould pair, on both uses of a move made twice in one walk:
the direct walk of the first and the image that the second builds and
reads (kontsevich._MatrixBackend.move).  Q(alpha) layers are walked as
the package walks them, as ints on the system at alpha = 2^K; P ->
P(2^K) is one to one on the polynomials with |coefficients| < 2^(K -
1), far above any the moves here make, so equal ints are equal
polynomials.
"""

import pytest
from hypothesis import given, settings, strategies as st

from superchord.kontsevich import _MatrixBackend, _moves
from superchord.scalars import add_term
from superchord.weightsys import lg_data, named_system, weight_system

K = 128
SYSTEMS = {name: weight_system(*named_system(name)).at(k)
           for name, k in (("gl21", 0), ("gl11", 0), ("valpha", K))}
SYSTEMS["lg"] = weight_system(*lg_data()).at(K)


def reference_tops(order, crossing, sign):
    """The top layer on which each suffix of a word is needed: order minus
    the least degree of a word that ends in it."""
    tops = {}
    for k, w, _ in _moves(order)[1][crossing, sign][0]:
        for l in range(k):
            tops[w[l:]] = max(tops.get(w[l:], -1), order - k)
    return tops


def reference_series(backend, p, crossing, sign, signs):
    """The layers plus every word term of the move applied to them,
    each suffix of a word applied once and cached."""
    terms = _moves(backend.order)[1][crossing, sign][0]
    tops = reference_tops(backend.order, crossing, sign)
    base = backend.deg
    total = [dict(d) for d in base]
    cache = {}
    for deg, w, mult in terms:
        acc = base
        for l in range(deg - 1, -1, -1):
            suffix = w[l:]
            if suffix in cache:
                acc = cache[suffix]
                continue
            acc = reference_letter(backend, acc[:tops[suffix] + 1], w[l], p,
                                   signs)
            cache[suffix] = acc
            if not any(acc):
                break
        if not any(acc):
            continue
        for m, layer in enumerate(acc):
            tgt = total[m + deg]
            for key, v in layer.items():
                add_term(tgt, key, v * mult)
    return total


def reference_letter(backend, states, letter, p, signs):
    """Letter 1 is the chord on (p, p + 1); letter 0 sums the chords
    (a, p) over a < p."""
    pairs = [(a, p) for a in range(p)] if letter == 0 else [(p, p + 1)]
    out = [{} for _ in states]
    for a, b in pairs:
        roles = (signs[a], signs[b])
        for state, tgt in zip(states, out):
            backend.ws.chord(state, a, b, roles, out=tgt)
    return out


def reference_layer_applications(order, crossing, sign):
    return sum(top + 1 for top in reference_tops(order, crossing,
                                                 sign).values())


def layer_applications(order, crossing, sign):
    """Layer states a letter is applied to in one move of the plan."""
    suffixes, _, prefixes = _moves(order)[1][crossing, sign][1]
    return (sum(top + 1 for *_, top in suffixes)
            + sum(order - low + 1 for *_, low in prefixes))


@st.composite
def moves(draw, name):
    """A backend over the named system holding sparse random layers on
    p + 2 live strands and up to two frozen source strands, and one move
    at p with random strand signs."""
    ws = SYSTEMS[name]
    order = draw(st.integers(2, 5))
    p = draw(st.integers(0, 3))
    width = p + 2 + draw(st.integers(0, 2))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=width,
                          max_size=width))
    layers = []
    for _ in range(order + 1):
        keys = draw(st.lists(
            st.tuples(*[st.integers(0, ws.dim - 1)] * width),
            max_size=4, unique=True))
        values = draw(st.lists(st.sampled_from((-2, -1, 1, 2, 3)),
                               min_size=len(keys), max_size=len(keys)))
        if ws.ring.name == "Q":
            layer = dict(zip(keys, values))
        else:
            # v alpha + 1 for odd v, else v, at alpha = 2^K
            layer = {k: (v << K) + 1 if v % 2 else v
                     for k, v in zip(keys, values)}
        layers.append({ws.encode(k): v for k, v in layer.items()})
    backend = _MatrixBackend.__new__(_MatrixBackend)
    backend.order, backend.ws, backend.deg = order, ws, layers
    crossing = draw(st.booleans())
    return backend, p, crossing, draw(st.sampled_from((1, -1))), signs


oracle = settings(derandomize=True, max_examples=30, deadline=None)


def _assert_move_matches(backend, p, crossing, sign, signs):
    """The move applied twice to the same layers in one walk, from an
    empty image table: the first use walks the series directly, the
    second builds the move's image and reads it."""
    want = reference_series(backend, p, crossing, sign, signs)
    if crossing:
        want = [backend.ws.flip(layer, p) for layer in want]
    source = backend.deg
    _moves(backend.order)[2].clear()
    backend.met = set()
    for _ in range(2):
        backend.deg = source
        backend.move(p, crossing, sign, signs)
        assert backend.deg == want


@pytest.mark.parametrize("name", sorted(SYSTEMS))
@oracle
@given(data=st.data())
def test_move_matches_the_suffix_cached_oracle(name, data):
    _assert_move_matches(*data.draw(moves(name)))


def test_move_matches_the_oracle_on_full_layers_at_order_5():
    # every layer holds the identity on three strands, so the degree-4
    # words act on the two source layers 0 and 1
    ws = SYSTEMS["gl21"]
    for crossing in (False, True):
        for sign in (1, -1):
            backend = _MatrixBackend.__new__(_MatrixBackend)
            backend.order, backend.ws = 5, ws
            backend.deg = [ws.identity(3) for _ in range(6)]
            _assert_move_matches(backend, 1, crossing, sign, [1, -1, 1])


def test_plan_applies_fewer_letters_than_the_suffix_cache():
    for sign in (1, -1):
        assert (layer_applications(3, False, sign)
                == reference_layer_applications(3, False, sign) == 8)
        for order, before in ((4, 36), (5, 64), (6, 186)):
            assert reference_layer_applications(order, False, sign) == before
            assert layer_applications(order, False, sign) < before
        for order in range(2, 6):
            # a crossing keeps the suffix-cached schedule
            assert (layer_applications(order, True, sign)
                    == reference_layer_applications(order, True, sign))
