"""Station-machine weight systems against a direct graded-map oracle."""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from superchord.diagrams import (
    ChordDiagram, enumerate_diagrams, four_term_relators, random_diagram,
    slit_component)
from superchord.liesuper import (
    build_gl, casimir_tensor, extend_identity, standard_rep)
from superchord.scalars import QALPHA, alpha
from superchord.supergraded import (
    SuperMap, copair_left, pair_dual_left, pair_dual_right, tensor_space)
from superchord.weightsys import (
    WeightSystem, lg_constant, lg_data, named_system, scalar_of_endo,
    weight_system, wlg, ws_link, ws_tangle11)

from test_liesuper import dual_rep


def brute_eval(diagram, rep, tensor):
    """Evaluate by composing explicit graded maps, slot by slot.

    Independent of the station machine: cups, chord insertions, and caps
    are built as full SuperMap morphisms, so every Koszul sign comes from
    the generic graded Kronecker and composition rules.
    """
    V = rep.space
    ring = rep.ring
    dual = dual_rep(rep)

    slot_of = {}
    slot_dirs = []
    comp_meta = []
    interval = None
    g = 0
    for c, kind in enumerate(diagram.skeleton):
        k = diagram.counts[c]
        if kind == "circle":
            nst = max(k + (k % 2), 2)
        else:
            interval = c
            nst = k if k % 2 == 1 else k + 1
        for p in range(k):
            slot_of[(c, p)] = g + p
        for s in range(nst):
            slot_dirs.append(s % 2)
        comp_meta.append((g, nst, kind))
        g += nst

    spaces = [V if d == 0 else V.dual() for d in slot_dirs]

    # bottom: cups in slot order, identity on the interval's last station
    bottom = SuperMap.identity(tensor_space([]), ring)
    for (start, nst, kind) in comp_meta:
        pairs = nst // 2
        for _ in range(pairs):
            bottom = bottom.tensor(copair_left(V, ring))
        if kind == "interval":
            bottom = bottom.tensor(SuperMap.identity(V, ring))

    def one_site(s, mat):
        left = SuperMap.identity(tensor_space(spaces[:s]), ring)
        right = SuperMap.identity(tensor_space(spaces[s + 1:]), ring)
        return left.tensor(mat).tensor(right)

    state = bottom
    for (e1, e2) in diagram.chords:
        a, b = sorted((slot_of[e1], slot_of[e2]))
        sign = ring.coerce((-1) ** (slot_dirs[a] + slot_dirs[b]))
        ma = rep.mats if slot_dirs[a] == 0 else dual.mats
        mb = rep.mats if slot_dirs[b] == 0 else dual.mats
        op = SuperMap.zero(state.target, state.target, ring)
        for c, i, j in tensor.as_pair_terms():
            term = one_site(a, ma[i]).compose(one_site(b, mb[j]))
            op = op + term.scale(ring.coerce(c) * sign)
        state = op.compose(state)

    # caps: adjacent plain pairings first, then the circle closures
    live = list(range(len(spaces)))
    plain = []
    closures = []
    for (start, nst, kind) in comp_meta:
        stop = nst - 2 if kind == "circle" else nst - 1
        for a in range(1, stop, 2):
            plain.append((start + a, start + a + 1))
        if kind == "circle":
            closures.append((start, start + nst - 1, pair_dual_right))
    for (a, b) in plain:
        state, live = _contract_adjacent(state, live, spaces, a, b,
                                         pair_dual_left(V, ring), ring)
    for (a, b, make) in closures:
        state, live = _contract_adjacent(state, live, spaces, a, b,
                                         make(V, ring), ring)
    return state


def _contract_adjacent(state, live, spaces, a, b, cap, ring):
    ia = live.index(a)
    ib = live.index(b)
    assert ib == ia + 1
    left = SuperMap.identity(tensor_space([spaces[s] for s in live[:ia]]),
                             ring)
    right = SuperMap.identity(tensor_space([spaces[s] for s in live[ib + 1:]]),
                              ring)
    op = left.tensor(cap).tensor(right)
    return op.compose(state), live[:ia] + live[ib + 1:]


def circle(*chords):
    return ChordDiagram(("circle",), chords)


def interval(*chords):
    return ChordDiagram(("interval",), chords)


def test_empty_circle_is_superdimension():
    for (m, n), sdim in [((2, 1), 1), ((1, 1), 0), ((3, 1), 2)]:
        g = build_gl(m, n)
        rep = standard_rep(g, "defining")
        t = casimir_tensor(g, "gl")
        assert ws_link(circle(), rep, t) == Fraction(sdim)


def test_single_chord_circle_frozen():
    # One self-chord closes to str of the Casimir, sdim * sdim here.
    g = build_gl(2, 1)
    rep = standard_rep(g, "defining")
    t = casimir_tensor(g, "gl")
    assert ws_link(circle(((0, 0), (0, 1))), rep, t) == 1
    g11 = build_gl(1, 1)
    rep11 = standard_rep(g11, "defining")
    t11 = casimir_tensor(g11, "gl")
    assert ws_link(circle(((0, 0), (0, 1))), rep11, t11) == 0


def test_degree_two_circle_frozen():
    g = build_gl(2, 1)
    rep = standard_rep(g, "defining")
    t = casimir_tensor(g, "gl")
    parallel = circle(((0, 0), (0, 1)), ((0, 2), (0, 3)))
    assert ws_link(parallel, rep, t) == 1
    g11 = build_gl(1, 1)
    rep11 = standard_rep(g11, "defining")
    t11 = casimir_tensor(g11, "gl")
    crossed = circle(((0, 0), (0, 2)), ((0, 1), (0, 3)))
    assert ws_link(crossed, rep11, t11) == 0
    assert ws_link(parallel, rep11, t11) == 0


def test_two_circle_single_chord_frozen():
    g = build_gl(2, 1)
    rep = standard_rep(g, "defining")
    t = casimir_tensor(g, "gl")
    d = ChordDiagram(("circle", "circle"), [((0, 0), (1, 0))])
    assert ws_link(d, rep, t) == 1


def _setups():
    g21 = build_gl(2, 1)
    g11 = build_gl(1, 1)
    return [
        (standard_rep(g21, "defining"), casimir_tensor(g21, "gl")),
        (standard_rep(g11, "defining"), casimir_tensor(g11, "gl")),
    ]


def test_station_machine_matches_brute_on_links():
    for rep, t in _setups():
        diagrams = []
        for m in range(3):
            diagrams += enumerate_diagrams(("circle",), m)
        diagrams += enumerate_diagrams(("circle", "circle"), 1)
        for d in diagrams:
            got = ws_link(d, rep, t)
            want = brute_eval(d, rep, t).m.get((0, 0), Fraction(0))
            assert got == want, d


def test_station_machine_matches_brute_on_tangles():
    for rep, t in _setups():
        diagrams = []
        for m in range(3):
            diagrams += enumerate_diagrams(("interval",), m)
        for d in diagrams:
            got = ws_tangle11(d, rep, t)
            want = brute_eval(d, rep, t)
            assert got.m == want.m, d


def test_station_machine_matches_brute_with_t_sl():
    # a witness for the chord tables that the two-path checks share:
    # V_alpha over Q(alpha), and gl(3|1), whose t_sl chord values have
    # denominator 2, on closed and interval diagrams of degree <= 2 (on
    # two circles degree <= 1: brute_eval takes 2 s per system at 2)
    g31 = build_gl(3, 1)
    setups = [named_system("valpha"),
              (standard_rep(g31, "defining"), casimir_tensor(g31, "sl"))]
    assert [weight_system(*s).chord_den for s in setups] == [1, 2]
    for rep, t in setups:
        for skeleton, top in ((("circle",), 2), (("circle", "circle"), 1),
                              (("interval",), 2)):
            for m in range(top + 1):
                for d in enumerate_diagrams(skeleton, m):
                    want = brute_eval(d, rep, t)
                    if skeleton == ("interval",):
                        assert ws_tangle11(d, rep, t).m == want.m, d
                    else:
                        assert ws_link(d, rep, t) == want.m.get(
                            (0, 0), rep.ring.zero), d


def test_station_machine_matches_brute_degree_three():
    g = build_gl(2, 1)
    rep = standard_rep(g, "defining")
    t = casimir_tensor(g, "gl")
    for d in enumerate_diagrams(("circle",), 3):
        got = ws_link(d, rep, t)
        want = brute_eval(d, rep, t).m.get((0, 0), Fraction(0))
        assert got == want, d


def test_closure_equals_supertrace_of_any_slitting():
    g = build_gl(2, 1)
    rep = standard_rep(g, "defining")
    t = casimir_tensor(g, "gl")
    for d in enumerate_diagrams(("circle",), 2):
        whole = ws_link(d, rep, t)
        for cut in range(d.counts[0] + 1):
            sl = slit_component(d, 0, cut % max(d.counts[0], 1))
            assert ws_tangle11(sl, rep, t).supertrace() == whole


def test_four_term_vanishing_spot_check():
    for rep, t in _setups():
        for m in (2, 3):
            for rel in four_term_relators(("circle",), m):
                acc = Fraction(0)
                for sign, d in rel:
                    acc += sign * ws_link(d, rep, t)
                assert acc == 0, rel


def test_four_term_on_interval_for_links_gould():
    for rel in four_term_relators(("interval",), 2):
        acc = QALPHA.zero
        for sign, d in rel:
            acc = acc + wlg(d) * QALPHA.coerce(sign)
        assert acc == QALPHA.zero, rel


def test_four_term_on_degree_four_interval_for_links_gould():
    # a seeded sample of the gate `verify fourterm --order 4` runs in full
    rels = four_term_relators(("interval",), 4)
    assert len(rels) == 315
    nonzero = 0
    for rel in random.Random(0).sample(rels, 5):
        acc = QALPHA.zero
        for sign, d in rel:
            v = wlg(d)
            nonzero += v != QALPHA.zero
            acc = acc + v * QALPHA.coerce(sign)
        assert acc == QALPHA.zero, rel
    assert nonzero


def lg_pair(a):
    """lg_data()'s V_alpha with the tensor a (I x I) + t_sl."""
    rep, _tensor = lg_data()
    return rep, extend_identity(casimir_tensor(rep.algebra, "sl"), a)


def test_lg_one_term_relation_frozen():
    # A single chord acts by zero with the canonical constant; with the
    # nearby constant 2 + 2 alpha it acts by 2 alpha^3 - 2 alpha.
    d = interval(((0, 0), (0, 1)))
    assert wlg(d) == QALPHA.zero
    bad = weight_system(*lg_pair(alpha() * 2 + 2))(d)
    want = alpha() * alpha() * alpha() * 2 - alpha() * 2
    assert bad == want


def test_lg_empty_and_closed_frozen():
    assert wlg(interval()) == QALPHA.one
    assert wlg(circle()) == QALPHA.zero
    assert wlg(circle(((0, 0), (0, 1)))) == QALPHA.zero


def test_lg_values_are_polynomial():
    for m in range(3):
        for d in enumerate_diagrams(("interval",), m):
            v = wlg(d)
            assert v.is_polynomial(), d


def reflected(x):
    """x at alpha -> -1 - alpha."""
    def at(p):
        acc = QALPHA.zero
        for c in reversed(p.c):
            acc = acc * (-1 - alpha()) + c
        return acc
    return at(x.num) / at(x.den)


def test_wlg_is_symmetric_under_t0_t1():
    # LG(t0, t1) = LG(t1, t0) with t0 = q^(-2 alpha), t1 = q^(2 alpha + 2)
    # reads alpha -> -1 - alpha, weight by weight, on seeded interval
    # diagrams of degrees 2 to 4
    assert reflected(alpha()) == -1 - alpha()
    rng = random.Random(0)
    values = [wlg(random_diagram(("interval",), rng.randint(2, 4), rng))
              for _ in range(100)]
    assert sum(1 for v in values if v.num.degree() > 0) >= 20
    for v in values:
        assert reflected(v) == v, v


def test_lg_matches_brute():
    from superchord.weightsys import lg_data
    rep, tensor = lg_data()
    for m in range(3):
        for d in enumerate_diagrams(("interval",), m):
            got = ws_tangle11(d, rep, tensor)
            want = brute_eval(d, rep, tensor)
            assert got.m == want.m, d


def test_scalar_of_endo_rejects_non_scalar():
    g = build_gl(2, 1)
    rep = standard_rep(g, "defining")
    assert scalar_of_endo(SuperMap.identity(rep.space, rep.ring)) == 1
    bad = SuperMap(rep.space, rep.space, {(0, 1): Fraction(1)}, rep.ring)
    with pytest.raises(ValueError):
        scalar_of_endo(bad)


def test_ws_link_rejects_intervals():
    g = build_gl(2, 1)
    rep = standard_rep(g, "defining")
    t = casimir_tensor(g, "gl")
    with pytest.raises(ValueError):
        ws_link(interval(), rep, t)
    with pytest.raises(ValueError):
        ws_tangle11(circle(), rep, t)
    two = ChordDiagram(("interval", "interval"), [])
    with pytest.raises(ValueError, match="need an all-circle or one-interval"):
        weight_system(rep, t)(two)


def _relabel(d, perm, rotations):
    """New diagram with components permuted and circles rotated.

    perm[c] is the new index of old component c; rotations[c] shifts
    positions on old component c (ignored for intervals).
    """
    chords = []
    for (a, b) in d.chords:
        out = []
        for (c, p) in (a, b):
            if d.skeleton[c] == "circle" and d.counts[c]:
                p = (p + rotations[c]) % d.counts[c]
            out.append((perm[c], p))
        chords.append(tuple(out))
    skeleton = [None] * len(d.skeleton)
    for c, kind in enumerate(d.skeleton):
        skeleton[perm[c]] = kind
    return ChordDiagram(skeleton, chords)


def _relabellings(d):
    rots = [range(max(1, k)) for k in d.counts]
    for perm in permutations(range(len(d.skeleton))):
        for rot in product(*rots):
            yield _relabel(d, perm, rot)


def test_ws_link_is_invariant_under_relabelling():
    # the memo is keyed by canonical_form, which relabels circles; every
    # relabelling is evaluated on a fresh WeightSystem, not served from it
    cases = [(("circle",), m) for m in range(4)]
    cases += [(("circle", "circle"), m) for m in range(3)]
    for rep, t in _setups():
        for skeleton, m in cases:
            for d in enumerate_diagrams(skeleton, m):
                want = WeightSystem(rep, t)(d)
                for r in _relabellings(d):
                    assert WeightSystem(rep, t)(r) == want, (d, r)


def test_weight_system_memo_matches_fresh_evaluation():
    for rep, t in _setups():
        ws = weight_system(rep, t)
        for m in (2, 3):
            for rel in four_term_relators(("circle",), m):
                for _sign, d in rel:
                    assert ws(d) == WeightSystem(rep, t)(d), d


def test_memoised_wlg_matches_tangle_scalar():
    rep, tensor = lg_data()
    diagrams = [d for m in range(4)
                for d in enumerate_diagrams(("interval",), m)]
    assert len(diagrams) == 20
    for d in diagrams + diagrams:
        assert wlg(d) == scalar_of_endo(ws_tangle11(d, rep, tensor)), d


def test_explicit_constant_is_not_served_from_default_memo():
    pair = lg_pair(alpha() * 2 + 2)
    d = interval(((0, 0), (0, 2)), ((0, 1), (0, 3)))
    default = wlg(d)
    other = weight_system(*pair)(d)
    assert other == scalar_of_endo(ws_tangle11(d, *pair))
    assert other != default
    assert wlg(d) == default


def _mixed_cases():
    """(diagram, has an interval): 35 diagrams on three mixed skeleta."""
    cases = []
    for skeleton in (("interval", "circle"), ("circle", "interval")):
        for m in range(3):
            cases += [(d, True) for d in enumerate_diagrams(skeleton, m)]
    cases += [(d, False) for d in enumerate_diagrams(("circle", "circle"), 2)]
    return cases


def test_station_walk_matches_brute_on_mixed_skeleta():
    # the interval before and after a circle, and two linked circles
    cases = _mixed_cases()
    assert len(cases) == 35
    for rep, t in _setups():
        for d, open_strand in cases:
            want = brute_eval(d, rep, t)
            if open_strand:
                assert ws_tangle11(d, rep, t).m == want.m, d
            else:
                assert ws_link(d, rep, t) == want.m.get((0, 0), Fraction(0)), d


def test_snake_identities_through_state_operations():
    ws = WeightSystem(*named_system("gl21"))
    one = ws.identity(1)
    # cup(+-) left of the strand, then the plain cap(-+) on its right
    assert ws.cap(ws.cup(one, 0, 1), 1, -1) == one
    # cup(-+) right of the strand, then the signed cap(+-) on its left
    assert ws.cap(ws.cup(one, 1, -1), 0, 1) == one
    # the same bends with a plain cap keep the odd sign of the cup
    wrong = ws.cap(ws.cup(one, 1, -1), 0, -1)
    assert wrong != one
    wrong = {ws.decode(k, 2): v for k, v in wrong.items()}
    assert {k: v for k, v in wrong.items() if v != 1} == {
        (i, i): -1 for i in range(ws.dim) if ws.par[i]}


def test_named_systems_match_their_builds():
    g21, g11 = build_gl(2, 1), build_gl(1, 1)
    builds = {"gl21": (g21, "defining", "gl"),
              "gl11": (g11, "defining", "gl"),
              "valpha": (g21, "v_alpha", "sl")}
    for name, (g, rep_name, kind) in builds.items():
        rep, tensor = named_system(name)
        want = standard_rep(g, rep_name)
        assert rep.space.parities == want.space.parities, name
        assert ({i: a.m for i, a in rep.mats.items()}
                == {i: a.m for i, a in want.mats.items()}), name
        assert tensor.terms == casimir_tensor(g, kind).terms, name


def cycle_count(diagram):
    """Cycles of: walk the arc from an endpoint to the next one along its
    circle, then jump to that endpoint's chord partner.  An empty circle
    is one cycle."""
    partner = {}
    for a, b in diagram.chords:
        partner[a], partner[b] = b, a
    count = sum(1 for k in diagram.counts if k == 0)
    seen = set()
    for start in partner:
        if start not in seen:
            count += 1
            ep = start
            while ep not in seen:
                seen.add(ep)
                c, p = ep
                ep = partner[(c, (p + 1) % diagram.counts[c])]
    return count


@lru_cache(maxsize=None)
def gl_defining(m, n):
    g = build_gl(m, n)
    return standard_rep(g, "defining"), casimir_tensor(g, "gl")


@st.composite
def circle_diagrams(draw):
    """Diagrams of degree <= 6 on one or two circles."""
    circles = draw(st.integers(1, 2))
    degree = draw(st.integers(0, 6))
    first = 2 * degree if circles == 1 else draw(st.integers(0, 2 * degree))
    points = [(0, p) for p in range(first)]
    points += [(1, p) for p in range(2 * degree - first)]
    order = draw(st.permutations(points))
    return ChordDiagram(("circle",) * circles,
                        [order[i:i + 2] for i in range(0, 2 * degree, 2)])


@pytest.mark.parametrize("m, n", [(3, 1), (2, 1), (1, 2)])
@settings(derandomize=True, max_examples=40, deadline=None)
@given(d=circle_diagrams())
def test_gl_defining_weight_is_sdim_to_the_cycle_count(m, n, d):
    # t_gl acts on V x V as the super flip, so each cycle closes to one
    # supertrace of the identity: m - n
    assert ws_link(d, *gl_defining(m, n)) == Fraction(m - n) ** cycle_count(d)
