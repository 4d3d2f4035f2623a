"""Station-machine weight systems against a direct graded-map oracle."""

from fractions import Fraction
from itertools import permutations, product

import pytest

from superchord.diagrams import (
    ChordDiagram, enumerate_diagrams, four_term_relators, slit_component)
from superchord.liesuper import (
    build_gl, casimir_tensor, extend_identity, rep_combine, standard_rep)
from superchord.scalars import QALPHA, alpha
from superchord.supergraded import (
    SuperMap, copair_left, pair_dual_left, pair_dual_right, tensor_space)
from superchord.weightsys import (
    WeightSystem, lg_constant, lg_data, scalar_of_endo, wlg, ws_link,
    ws_tangle11)


def brute_eval(diagram, rep, tensor):
    """Evaluate by composing explicit graded maps, slot by slot.

    Independent of the station machine: cups, chord insertions, and caps
    are built as full SuperMap morphisms, so every Koszul sign comes from
    the generic graded Kronecker and composition rules.
    """
    V = rep.space
    ring = rep.ring
    dual = rep_combine("dual", rep)

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


def test_lg_one_term_relation_frozen():
    # A single chord acts by zero with the canonical constant; with the
    # nearby constant 2 + 2 alpha it acts by 2 alpha^3 - 2 alpha.
    d = interval(((0, 0), (0, 1)))
    assert wlg(d) == QALPHA.zero
    bad = wlg(d, a=alpha() * 2 + 2)
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


def _relabellings(d):
    rots = [range(max(1, k)) for k in d.counts]
    for perm in permutations(range(len(d.skeleton))):
        for rot in product(*rots):
            yield d.relabel(perm, rot)


def test_ws_link_is_invariant_under_relabelling():
    # WeightSystem memoises by canonical_form, which relabels circles
    cases = [(("circle",), m) for m in range(4)]
    cases += [(("circle", "circle"), m) for m in range(3)]
    for rep, t in _setups():
        for skeleton, m in cases:
            for d in enumerate_diagrams(skeleton, m):
                want = ws_link(d, rep, t)
                for r in _relabellings(d):
                    assert ws_link(r, rep, t) == want, (d, r)


def test_weight_system_memo_matches_fresh_evaluation():
    for rep, t in _setups():
        ws = WeightSystem(rep, t)
        for m in (2, 3):
            for rel in four_term_relators(("circle",), m):
                for _sign, d in rel:
                    assert ws.link(d) == ws_link(d, rep, t), d


def test_memoised_wlg_matches_tangle_scalar():
    rep, tensor = lg_data()
    diagrams = [d for m in range(4)
                for d in enumerate_diagrams(("interval",), m)]
    assert len(diagrams) == 20
    for d in diagrams + diagrams:
        assert wlg(d) == scalar_of_endo(ws_tangle11(d, rep, tensor)), d


def test_explicit_constant_is_not_served_from_default_memo():
    a = alpha() * 2 + 2
    d = interval(((0, 0), (0, 2)), ((0, 1), (0, 3)))
    default = wlg(d)
    other = wlg(d, a=a)
    assert other == scalar_of_endo(ws_tangle11(d, *lg_data(a)))
    assert other != default
    assert wlg(d) == default
