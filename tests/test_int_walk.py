"""The int chord engines against the Q(alpha) walks they replaced.

Both chord engines walk a Q(alpha) system as ints on its system at
alpha = 2^K (`WeightSystem.at`), with K from a proven bound on the
output coefficients (`WeightSystem.bound` for the station walk,
`kontsevich._NormBackend` for the slice engine), and decode each output
once (`scalars.kronecker_decode`).  The references here are the earlier
walks over Q(alpha), kept as they were: the same WeightSystem
operations and the same `_MatrixBackend` schedule, run on a copy of the
system whose chord tables hold every value as its AlphaScalar, with
each output multiplied by its unit at the end.  Both must give the same
values, and every bound must reach the largest |coefficient| of the
numerators that the reference finds, on generated words and on every
interval diagram of degree <= 4.
"""

from copy import copy
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from superchord.diagrams import enumerate_diagrams
from superchord.kontsevich import (
    _moves, _MatrixBackend, _NormBackend, _walk, wz_eval)
from superchord.scalars import QALPHA, AlphaScalar, Poly, alpha
from superchord.weightsys import (
    _sweep, lg_data, named_system, weight_system)
from superchord.words import parse_word
from test_weightsys import lg_pair

SYSTEMS = {"valpha": lambda: named_system("valpha"), "lg": lg_data,
           "lg_2_2a": lambda: lg_pair(alpha() * 2 + 2)}

_references = {}


def alpha_system(ws):
    """A copy of ws whose chord cells hold each column value as its
    AlphaScalar, signed (-1)^q for an odd entry, None for an empty
    column, so that its operations walk Q(alpha) states."""
    if ws not in _references:
        ref = copy(ws)
        ref._cells = {}
        for roles, columns in ws._columns.items():
            cells = ref._cells[roles] = dict.fromkeys(
                x << ws.bits | y for x in ws._codes for y in ws._codes)
            for key, column in columns.items():
                vals = [(da, db, AlphaScalar(Poly(v)), odd)
                        for da, db, v, odd in column]
                cells[key] = tuple(tuple((da, db, -v if q and odd else v)
                                         for da, db, v, odd in vals)
                                   for q in (0, 1))
        _references[ws] = ref
    return _references[ws]


def reference_walk(ws, diagram):
    """The station walk of a one-interval diagram over Q(alpha): the
    numerator state and the unit that divides it by chord_den once per
    chord and signs it once per upward chord end."""
    ref = alpha_system(ws)
    state = ref.identity(1)
    ups = chords = 0
    for step in _sweep(diagram):
        if step[0] == "cup":
            state = ref.cup(state, step[1], 1)
        elif step[0] == "cap":
            state = ref.cap(state, step[1], step[2])
        else:
            ups += step[3].count(-1)
            chords += 1
            state = ref.chord(state, *step[1:])
        if not state:
            break
    unit = QALPHA.one / ws.chord_den ** chords
    return state, -unit if ups % 2 else unit


class ReferenceBackend(_MatrixBackend):
    """The slice engine over Q(alpha); finish keeps the numerator layers,
    each over (B chord_den)^m."""

    def __init__(self, word, order, ws):
        self.order, self.ws = order, alpha_system(ws)
        self.deg = [self.ws.identity(len(word.source))]
        self.deg += [{} for _ in range(order)]
        self.met = set()

    def finish(self):
        return self.deg


def largest_coefficient(state):
    """The largest |coefficient| over a state of int polynomials."""
    out = 0
    for v in state.values():
        v = QALPHA.coerce(v)
        assert v.is_polynomial() and v.num.d == 1
        out = max([out] + [abs(c) for c in v.num.n])
    return out


@pytest.mark.parametrize("name", ["lg", "lg_2_2a"])
def test_station_walk_matches_the_q_alpha_walk(name):
    # every interval diagram of degree <= 4, the whole endomorphism
    ws = weight_system(*SYSTEMS[name]())
    for m in range(5):
        for d in enumerate_diagrams(("interval",), m):
            state, unit = reference_walk(ws, d)
            want = {ws.decode(k, 2): v * unit for k, v in state.items()}
            assert ws.tangle11(d).m == want, d
            assert ws.bound(_sweep(d)) >= largest_coefficient(state), d


def test_bounds_take_each_factor_of_the_proof():
    # the station walk: norm[roles] per chord and dim per cap
    ws = weight_system(*lg_data())
    for d in enumerate_diagrams(("interval",), 3):
        steps = _sweep(d)
        want = 1
        for step in steps:
            if step[0] == "chord":
                want *= ws.norm[step[3]]
            elif step[0] == "cap":
                want *= ws.dim
        assert ws.bound(steps) == want, d
    # the slice engine: one crossing is exp(chord / 2), |(1/2)^m / m!|
    # times norm^m on layer m over B^m, and the cap after it takes dim
    base = _moves(3)[0]
    crossing = [Fraction((ws.norm[1, -1] * base) ** m, 2 ** m * factorial(m))
                for m in range(4)]
    word = parse_word("slice: id(+) id(-)\nslice: X+")
    assert _walk(word, _NormBackend(3, ws)) == crossing
    word = parse_word("slice: id(+) id(-)\nslice: X+\nslice: cap(-+)")
    assert _walk(word, _NormBackend(3, ws)) == [ws.dim * b for b in crossing]
    # a double point, X+ - X-, has no unit term and doubles the odd ones
    word = parse_word("slice: id(+) id(-)\nslice: X+ sing")
    point = [2 * b if m % 2 else 0 for m, b in enumerate(crossing)]
    assert _walk(word, _NormBackend(3, ws)) == point


@st.composite
def braids(draw):
    """A closed braid on 2 or 3 strands with 1 to 6 letters."""
    n = draw(st.integers(2, 3))
    letters = draw(st.lists(st.tuples(st.integers(1, n - 1),
                                      st.sampled_from(("", "^-1"))),
                            min_size=1, max_size=6))
    return "braid[%d]: %s ; close" % (
        n, " ".join("s%d%s" % letter for letter in letters))


@st.composite
def tangles(draw):
    """A (1,1)-tangle on at most 3 strands: an upward strand beside a
    cup, 1 to 6 crossings, and the cap that leaves one upward strand."""
    cup = draw(st.sampled_from(((1, -1), (-1, 1))))
    signs = [1, *cup]
    name = {1: "+", -1: "-"}
    lines = ["obj: +",
             "slice: id(+) cup(%s%s)" % tuple(name[s] for s in cup)]
    for _ in range(draw(st.integers(1, 6))):
        p = draw(st.integers(0, 1))
        toks = ["id(%s)" % name[s] for s in signs]
        toks[p:p + 2] = ["X" + draw(st.sampled_from("+-"))]
        lines.append("slice: " + " ".join(toks))
        signs[p], signs[p + 1] = signs[p + 1], signs[p]
    p = draw(st.sampled_from([p for p in (0, 1)
                              if signs[p] != signs[p + 1]
                              and signs[2 - 2 * p] > 0]))
    toks = ["id(%s)" % name[s] for s in signs]
    toks[p:p + 2] = ["cap(%s%s)" % (name[signs[p]], name[signs[p + 1]])]
    lines.append("slice: " + " ".join(toks))
    return "\n".join(lines)


walks = settings(derandomize=True, max_examples=6, deadline=None)


def _assert_wz_matches(name, text, order):
    rep, tensor = SYSTEMS[name]()
    ws = weight_system(rep, tensor)
    word = parse_word(text)
    layers = _walk(word, ReferenceBackend(word, order, ws))
    bounds = _walk(word, _NormBackend(order, ws))
    got = wz_eval(word, rep, tensor, order)
    base = _moves(order)[0] * ws.chord_den
    for m, layer in enumerate(layers):
        assert bounds[m] >= largest_coefficient(layer), (text, m)
        unit = QALPHA.one / base ** m
        if word.is_closed:
            assert got.coeff(m) == layer.get(0, QALPHA.zero) * unit
        else:
            assert got[m].m == {ws.decode(k, 2): v * unit
                                for k, v in layer.items()}, (text, m)


@pytest.mark.parametrize("name", ["valpha", "lg"])
@walks
@given(text=braids(), order=st.integers(3, 4))
def test_wz_eval_on_closed_braids_matches_the_q_alpha_walk(name, text,
                                                           order):
    _assert_wz_matches(name, text, order)


@pytest.mark.parametrize("name", ["valpha", "lg"])
@walks
@given(text=tangles(), order=st.integers(3, 4))
def test_wz_eval_on_tangles_matches_the_q_alpha_walk(name, text, order):
    _assert_wz_matches(name, text, order)
