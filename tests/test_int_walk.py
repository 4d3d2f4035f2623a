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

from bisect import bisect
from copy import copy
from fractions import Fraction
from math import factorial
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from superchord import weightsys
from superchord.diagrams import CIRCLE, INTERVAL, enumerate_diagrams
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


def reference_sweep(diagram):
    """The planar walk of a diagram as steps on live positions.

    Each component is a serpentine of stations, one chord endpoint per
    station, with roles alternating +1 (downward, through V) and -1
    (upward, through the dual).  The interval's last station is live
    from the start (the source) and its first one is never closed (the
    target).  Cups open station pairs left to right; each chord is
    applied as soon as both its stations are open, and each turn closes
    as soon as both its stations have had their chord and are adjacent
    among the live stations, so a circle's closure follows its inner
    turns.  The steps are ("cup", p), ("chord", a, b, roles) and
    ("cap", p, sign): p is the live position of the left station, and a
    cap's sign is the role of its left station.
    """
    station, roles, cups, caps, live = {}, [], [], [], []
    for c, kind in enumerate(diagram.skeleton):
        k = diagram.counts[c]
        closed = kind == CIRCLE
        nst = max(k + k % 2, 2) if closed else k + 1 - k % 2
        g = len(roles)
        for p in range(k):
            station[(c, p)] = g + p
        roles += [1, -1] * (nst // 2) + [1] * (nst % 2)
        cups += range(g, g + nst - 1, 2)
        caps += [(s, s + 1) for s in range(g + 1, g + nst - 1 - closed, 2)]
        if closed:
            caps.append((g, g + nst - 1))
        else:
            live.append(g + nst - 1)
    todo = [(station[e1], station[e2]) for e1, e2 in diagram.chords]
    steps = []
    for s in cups:
        p = bisect(live, s)
        live[p:p] = [s, s + 1]
        steps.append(("cup", p))
        for a, b in [ch for ch in todo if ch[0] in live and ch[1] in live]:
            todo.remove((a, b))
            steps.append(("chord", live.index(a), live.index(b),
                          (roles[a], roles[b])))
        busy = {x for ch in todo for x in ch}
        p = 0
        while p < len(live) - 1:
            pair = tuple(live[p:p + 2])
            if pair in caps and busy.isdisjoint(pair):
                steps.append(("cap", p, roles[pair[0]]))
                live[p:p + 2] = []
                p = max(p - 1, 0)
            else:
                p += 1
    return steps


def _chord_widths(steps, width):
    """(roles, live stations) at each chord of steps, width live at the
    start."""
    out = []
    for step in steps:
        if step[0] == "chord":
            out.append((step[3], width))
        width += {"cup": 2, "cap": -2}.get(step[0], 0)
    return out


def assert_sweep_is_the_reference(names, diagrams):
    """On each named system, the station walk of every diagram (a
    one-interval one as its endomorphism's entries, any other as its
    closed value) is the walk of reference_sweep, and _sweep applies the
    reference's chords in its order, each on no more live stations.
    Returns the number of diagrams."""
    for name in names:
        ws = weight_system(*named_system(name))
        for d in diagrams:
            with_source = INTERVAL in d.skeleton
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(weightsys, "_sweep", reference_sweep)
                want = ws._evaluate(d, with_source)
            assert ws._evaluate(d, with_source) == want, (name, d)
            start = d.skeleton.count(INTERVAL)
            got = _chord_widths(_sweep(d), start)
            ref = _chord_widths(reference_sweep(d), start)
            assert [r for r, _ in got] == [r for r, _ in ref], d
            assert all(w <= v for (_, w), (_, v) in zip(got, ref)), d
    return len(diagrams)


SWEEP_SKELETONS = ((INTERVAL,), (CIRCLE,), (CIRCLE, CIRCLE),
                   (INTERVAL, CIRCLE))


def test_sweep_matches_the_reference_sweep():
    # every diagram of degree <= 4 on each skeleton, and a seeded sample
    # of the 945 degree-5 interval classes
    small = [d for sk in SWEEP_SKELETONS for m in range(5)
             for d in enumerate_diagrams(sk, m)]
    sample = Random(0).sample(enumerate_diagrams((INTERVAL,), 5), 20)
    assert assert_sweep_is_the_reference(
        ("gl11", "gl21", "lg"), small + sample) == 740
