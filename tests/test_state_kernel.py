"""The int-coded WeightSystem state operations against tuple-keyed oracles.

A state key of the package is one int, strand r's basis index in the bit
field at offset bits * r.  The oracles here are the earlier operations on
keys that are tuples of basis indices, kept verbatim: each chord looks up
its column, walks the key for the two Koszul prefix parities and decides
each sign entry by entry.  Their chord matrices are built here, from the
representation, its dual and the tensor's pair terms, over the test's
own lcm of denominators; every entry of the package's chord columns and
every cell of its int systems is compared with them.  Both must give
the same state, key for key, on random states of every named system, the
Links-Gould pair, the 9-dimensional tensor square of gl(2|1), whose
fields are 5 bits wide, and gl(3|1) with t_sl, whose chord values have
denominator 2.  The package walks a Q(alpha) state as ints on its system
at alpha = 2^K (`WeightSystem.at`); the oracles walk the polynomials
themselves, and the package's ints are decoded before they are compared.
"""

from fractions import Fraction
from itertools import product
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from superchord.liesuper import (
    InvariantTensor, build_gl, casimir_tensor, extend_identity, standard_rep)
from superchord.scalars import AlphaScalar, Poly, add_term, alpha
from superchord.weightsys import (
    WeightSystem, lg_data, named_system, squared_system, weight_system)

from test_liesuper import dual_rep


def oracle_chord(state, a, b, matrix, par):
    out = {}
    for key, coeff in state.items():
        cell = matrix.get((key[a], key[b]))
        if not cell:
            continue
        pa = 0
        for r in range(a):
            pa ^= par[key[r]]
        pb = pa
        for r in range(a, b):
            pb ^= par[key[r]]
        ca, cb = key[a], key[b]
        for (ra, rb), val in cell:
            s = 1
            if (par[ra] ^ par[ca]) and pa:
                s = -s
            if (par[rb] ^ par[cb]) and pb:
                s = -s
            k2 = list(key)
            k2[a] = ra
            k2[b] = rb
            add_term(out, tuple(k2),
                     coeff * val if s > 0 else -(coeff * val))
    return out


def oracle_cup(state, p, sign, dim, par):
    out = {}
    for key, v in state.items():
        for i in range(dim):
            out[key[:p] + (i, i) + key[p:]] = (
                -v if sign < 0 and par[i] else v)
    return out


def oracle_cap(state, p, sign, par):
    out = {}
    for key, v in state.items():
        i = key[p]
        if i == key[p + 1]:
            add_term(out, key[:p] + key[p + 2:],
                     -v if sign > 0 and par[i] else v)
    return out


def oracle_flip(state, p, par):
    out = {}
    for key, v in state.items():
        i, j = key[p], key[p + 1]
        out[key[:p] + (j, i) + key[p + 2:]] = (
            -v if par[i] and par[j] else v)
    return out


def _gl31_sl():
    g = build_gl(3, 1)
    return standard_rep(g, "defining"), casimir_tensor(g, "sl")


SYSTEMS = {"gl21": lambda: named_system("gl21"),
           "gl11": lambda: named_system("gl11"),
           "valpha": lambda: named_system("valpha"),
           "lg": lg_data,
           "gl21_squared": lambda: squared_system("gl21"),
           "gl31_sl": _gl31_sl}

# the t_gl and V_alpha chord matrices are integral; t_sl on gl(3|1) has
# halves
CHORD_DEN = {"gl31_sl": 2}

_oracles = {}


def _tuple_matrices(rep, tensor):
    """Each role pair's chord matrix {(ca, cb): [((ra, rb), value)]}, the
    sum c A_i x B_j over the tensor's pair terms (c, i, j), A through
    rep.mats at a site of role +1 and through the dual's at one of role
    -1, over its own lcm of denominators: ints over Q, ring values over
    Q(alpha)."""
    ring = rep.ring
    mats = {1: rep.mats, -1: dual_rep(rep).mats}
    matrices = {}
    for roles in product((1, -1), repeat=2):
        m = {}
        for c, i, j in tensor.as_pair_terms():
            for (ra, ca), va in mats[roles[0]][i].m.items():
                for (rb, cb), vb in mats[roles[1]][j].m.items():
                    add_term(m.setdefault((ca, cb), {}), (ra, rb),
                             ring.coerce(c) * va * vb)
        matrices[roles] = m
    over_q = ring.name == "Q"
    den = 1
    if over_q:
        den = lcm(*(Fraction(v).denominator for m in matrices.values()
                    for cell in m.values() for v in cell.values()))
    return {roles: {col: sorted((rows, int(v * den) if over_q else v)
                                for rows, v in cell.items())
                    for col, cell in m.items() if cell}
            for roles, m in matrices.items()}, den


def _system(name):
    """The shared WeightSystem and the test's own chord matrices."""
    if name not in _oracles:
        rep, tensor = SYSTEMS[name]()
        ws = weight_system(rep, tensor)
        matrices, den = _tuple_matrices(rep, tensor)
        assert den == ws.chord_den == CHORD_DEN.get(name, 1)
        _oracles[name] = ws, matrices
    return _oracles[name]


# alpha = 2^K for the Q(alpha) states: every coefficient the tests meet
# stays far below 2^(K - 1)
K = 64


def _k(ws):
    """The K of the system a state is walked on: 0 over Q."""
    return 0 if ws.ring.name == "Q" else K


def _at_k(ws, v):
    """An oracle value as the package walks it: a Q(alpha) polynomial
    with int coefficients at alpha = 2^K."""
    if ws.ring.name == "Q":
        return v
    p = v.as_poly()
    assert p.d == 1
    return sum(c << K * i for i, c in enumerate(p.n))


def _encoded(ws, state):
    out = {ws.encode(key): _at_k(ws, v) for key, v in state.items()}
    assert len(out) == len(state)
    return out


def _decoded(ws, state, width):
    out = {ws.decode(key, width): ws.at(_k(ws)).value(v, 1)
           for key, v in state.items()}
    assert len(out) == len(state)
    return out


@st.composite
def _states(draw, name):
    """A width up to 8 and a tuple-keyed state of that width over the
    named system, with small values, so that sums cancel now and then."""
    ws, _ = _system(name)
    width = draw(st.integers(2, 8))
    keys = draw(st.lists(
        st.tuples(*[st.integers(0, ws.dim - 1)] * width),
        min_size=1, max_size=12, unique=True))
    values = draw(st.lists(st.sampled_from((-2, -1, 1, 2, 3)),
                           min_size=len(keys), max_size=len(keys)))
    if ws.ring.name == "Q":
        state = dict(zip(keys, values))
    else:
        a = alpha()
        state = {k: a * v + 1 if v % 2 else ws.ring.coerce(v)
                 for k, v in zip(keys, values)}
    return width, state


kernel = settings(derandomize=True, max_examples=25, deadline=None)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_field_width_and_round_trip(name):
    ws, _ = _system(name)
    assert 1 << ws.bits - 1 >= ws.dim > 1 << ws.bits - 2
    assert ws.bits == (5 if name == "gl21_squared" else
                       2 if name == "gl11" else 3)
    for key in product(range(ws.dim), repeat=3):
        assert ws.decode(ws.encode(key), 3) == key
    assert ws.encode(()) == 0
    assert ws.identity(0) == {0: 1}
    assert _decoded(ws, ws.identity(2), 4) == {
        key + key: 1 for key in product(range(ws.dim), repeat=2)}


@pytest.mark.parametrize("name", ["gl21", "gl11", "valpha", "lg"])
def test_only_the_int_systems_walk_chords(name):
    # the shared system holds the columns, not the cells: chord raises
    # there instead of walking tuples, and the operations that read no
    # cells give what they give on its int systems
    ws, _ = _system(name)
    view = ws.at(_k(ws))
    state = ws.identity(2)
    with pytest.raises(AttributeError):
        ws.chord(state, 0, 1, (1, 1))
    assert view.chord(state, 0, 1, (1, 1))
    assert ws.cup(state, 1, -1) == view.cup(state, 1, -1)
    assert ws.cap(state, 0, 1) == view.cap(state, 0, 1)
    assert ws.flip(state, 0) == view.flip(state, 0)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_chord_tables_match_the_tuple_matrices(name):
    # a column lists its entries (da, db, value, odd): the value as its
    # int coefficients in alpha (one over Q), odd when both sites change
    # parity.  The system at alpha = 2^K (K = 0 over Q) holds one cell
    # per pair of basis indices, None for an empty column, with the
    # values at 2^K for q = 0 and q = 1, an odd entry signed (-1)^q
    ws, matrices = _system(name)
    view = ws.at(_k(ws))
    code = {i: ws.encode((i,)) for i in range(ws.dim)}
    for roles, matrix in matrices.items():
        columns, cells = ws._columns[roles], view._cells[roles]
        assert len(cells) == ws.dim ** 2
        assert len(columns) == len(matrix)
        rows_norm = {}
        for ca, cb in product(range(ws.dim), repeat=2):
            key = code[ca] << ws.bits | code[cb]
            if (ca, cb) not in matrix:
                assert key not in columns and cells[key] is None
                continue
            for (ra, rb), v in matrix[ca, cb]:
                rows_norm[ra, rb] = rows_norm.get((ra, rb), 0) + sum(
                    abs(c) for c in AlphaScalar.coerce(v).as_poly().c)
            want = {(code[ra] - code[ca], code[rb] - code[cb]):
                    (v, int(ws.par[ra] != ws.par[ca]))
                    for (ra, rb), v in matrix[ca, cb]}
            got = {(da, db): (AlphaScalar(Poly(v)), odd)
                   for da, db, v, odd in columns[key]}
            assert len(got) == len(columns[key])
            assert got == want, (roles, ca, cb)
            for q in (0, 1):
                assert len(cells[key][q]) == len(want)
                assert {(da, db): v for da, db, v in cells[key][q]} == {
                    d: _at_k(ws, -v if q and odd else v)
                    for d, (v, odd) in want.items()}, (roles, ca, cb, q)
        # the largest summed |value|_1 that writes into one output pair
        assert ws.norm[roles] == max(rows_norm.values()), roles


@pytest.mark.parametrize("name", sorted(SYSTEMS))
@kernel
@given(data=st.data())
def test_chord_matches_the_tuple_oracle(name, data):
    ws, matrices = _system(name)
    width, state = data.draw(_states(name))
    coded = _encoded(ws, state)
    for a in range(width):
        for b in range(a + 1, width):
            for roles in product((1, -1), repeat=2):
                want = oracle_chord(state, a, b, matrices[roles], ws.par)
                got = ws.at(_k(ws)).chord(coded, a, b, roles)
                assert _decoded(ws, got, width) == want, (a, b, roles)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
@kernel
@given(data=st.data())
def test_chords_added_into_one_state_match_their_sum(name, data):
    # letter 0 of an associator move: the chords (a, p), a < p, summed
    ws, matrices = _system(name)
    width, state = data.draw(_states(name))
    p = width - 1
    roles = data.draw(st.lists(st.sampled_from((1, -1)), min_size=width,
                               max_size=width))
    want = {}
    out = {}
    for a in range(p):
        pair = (roles[a], roles[p])
        for key, v in oracle_chord(state, a, p, matrices[pair],
                                   ws.par).items():
            add_term(want, key, v)
        got = ws.at(_k(ws)).chord(_encoded(ws, state), a, p, pair, out=out)
        assert got is out
    assert _decoded(ws, out, width) == want


@pytest.mark.parametrize("name", sorted(SYSTEMS))
@kernel
@given(data=st.data())
def test_cup_cap_flip_match_the_tuple_oracles(name, data):
    ws, _ = _system(name)
    width, state = data.draw(_states(name))
    coded = _encoded(ws, state)
    view = ws.at(_k(ws))
    for p in range(width + 1):
        for sign in (1, -1):
            cupped = view.cup(coded, p, sign)
            want = oracle_cup(state, p, sign, ws.dim, ws.par)
            assert _decoded(ws, cupped, width + 2) == want, (p, sign)
            # a cap after the cup meets equal pairs at p, p + 1 and
            # mostly unequal ones elsewhere
            for q in range(width + 1):
                for s2 in (1, -1):
                    assert _decoded(ws, view.cap(cupped, q, s2), width) == \
                        oracle_cap(want, q, s2, ws.par), (p, sign, q, s2)
    for p in range(width - 1):
        assert _decoded(ws, view.flip(coded, p), width) == \
            oracle_flip(state, p, ws.par), p
        for sign in (1, -1):
            assert _decoded(ws, view.cap(coded, p, sign), width - 2) == \
                oracle_cap(state, p, sign, ws.par), (p, sign)


def test_a_tensor_that_is_not_even_is_refused():
    # the chord signs assume that both sites change parity or neither
    rep, _ = named_system("gl11")
    par = rep.algebra.parities
    even, odd = par.index(0), par.index(1)
    tensor = InvariantTensor(rep.algebra, {(even, odd): 1})
    with pytest.raises(ValueError, match="even tensor"):
        WeightSystem(rep, tensor)


def test_a_q_alpha_value_that_is_not_a_polynomial_is_refused():
    # the engines walk chord table values as polynomials at alpha = 2^K
    rep, _ = lg_data()
    a = alpha() / (alpha() + 1)
    tensor = extend_identity(casimir_tensor(rep.algebra, "sl"), a)
    with pytest.raises(ValueError, match="not a polynomial"):
        WeightSystem(rep, tensor)
