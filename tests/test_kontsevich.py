"""Truncated Kontsevich integral: anchors, coherence, and composites."""

import random
from fractions import Fraction

import pytest

from superchord.diagrams import (
    CIRCLE, ChordDiagram, INTERVAL, LinearSpan, cable_diagram, canonical_form,
    four_term_relators, random_diagram, relator_vector)
from superchord.kontsevich import (
    hump_factor, lg_invariant, paired_invariant, vassiliev_defect, wz_eval,
    z_eval)
from superchord.liesuper import (
    build_gl, casimir_tensor, rep_combine, standard_rep)
from superchord.scalars import QALPHA, ScalarError, alpha
from superchord.supergraded import SuperMap
from superchord.weightsys import scalar_of_endo, wlg, ws_link, ws_tangle11
from superchord.words import diagram_of_singular, parse_word, resolve_singular

F = Fraction

UNKNOT = "braid[1]: ; close"
TREFOIL = "braid[2]: s1 s1 s1 t1^-3 ; close"
TREFOIL_ALT = "braid[3]: s1 s2 s1 s2 t1^-4 ; close"
FIG8 = "braid[3]: s1 s2^-1 s1 s2^-1 ; close"


def gl21_defining():
    g = build_gl(2, 1)
    return standard_rep(g, "defining"), casimir_tensor(g, "gl")


def gl11_defining():
    g = build_gl(1, 1)
    return standard_rep(g, "defining"), casimir_tensor(g, "gl")


def coeffs_at(z, m):
    return sorted(c for _, c in z.terms_at(m))


def test_unknot_integral_is_trivial():
    z = z_eval(UNKNOT, 3)
    assert z.skeleton == (CIRCLE,)
    empty = ChordDiagram((CIRCLE,), [])
    assert z.terms == {canonical_form(empty): F(1)}


def test_framed_unknot_two_presentations_agree():
    assert z_eval("braid[1]: t1 ; close", 3) == z_eval("braid[2]: s1 ; close", 3)


def test_positive_curl_closure_frozen():
    z = z_eval("braid[2]: s1 ; close", 3)
    theta = ChordDiagram((CIRCLE,), [((0, 0), (0, 1))])
    assert z.coeff(theta) == F(1, 2)
    assert coeffs_at(z, 2) == [F(1, 24), F(1, 12)]
    assert coeffs_at(z, 3) == [F(-1, 24), F(1, 48), F(1, 24)]


def test_reidemeister_two_cancellation():
    assert z_eval("braid[2]: s1 s1^-1", 3) == z_eval("braid[2]:", 3)


def test_reidemeister_three_slide():
    assert z_eval("braid[3]: s1 s2 s1", 3) == z_eval("braid[3]: s2 s1 s2", 3)


def test_hump_factor_same_for_all_bend_orientations():
    words = [
        "obj: +\nslice: cup(+-) id(+)\nslice: id(+) cap(-+)",
        "obj: +\nslice: id(+) cup(-+)\nslice: cap(+-) id(+)",
        "obj: -\nslice: id(-) cup(+-)\nslice: cap(-+) id(-)",
        "obj: -\nslice: cup(-+) id(-)\nslice: id(-) cap(+-)",
    ]
    vals = [z_eval(w, 3) for w in words]
    assert all(v.terms == vals[0].terms for v in vals[1:])
    disjoint = ChordDiagram((INTERVAL,), [((0, 0), (0, 1)), ((0, 2), (0, 3))])
    crossed = ChordDiagram((INTERVAL,), [((0, 0), (0, 2)), ((0, 1), (0, 3))])
    h = hump_factor(3)
    assert h.coeff(disjoint) == F(-1, 24)
    assert h.coeff(crossed) == F(1, 24)
    assert coeffs_at(h, 1) == [] and coeffs_at(h, 3) == []


def test_curl_pair_is_double_hump_modulo_four_term():
    pair = z_eval("braid[1]: t1 t1^-1", 3)
    hump2 = z_eval("obj: +\n"
                   "slice: cup(+-) id(+)\nslice: id(+) cap(-+)\n"
                   "slice: cup(+-) id(+)\nslice: id(+) cap(-+)", 3)
    diff = dict(pair.terms)
    for e, c in hump2.terms.items():
        diff[e] = diff.get(e, F(0)) - c
    by_deg = {}
    for e, c in diff.items():
        if c:
            by_deg.setdefault(len(e[1]), {})[e] = c
    assert set(by_deg) == {2, 3}
    for deg, vec in by_deg.items():
        span = LinearSpan()
        for r in four_term_relators((INTERVAL,), deg):
            span.add(relator_vector(r))
        assert span.contains(vec)


def test_two_path_evaluation_agrees_closed():
    rep, tv = gl21_defining()
    for word in [UNKNOT, "braid[2]: s1 ; close", "braid[2]: s1 s1 ; close",
                 TREFOIL]:
        fused = wz_eval(word, rep, tv, 3)
        paired = z_eval(word, 3).pair(lambda d: ws_link(d, rep, tv), rep.ring)
        assert fused == paired
    kink = wz_eval("braid[2]: s1 ; close", rep, tv, 3)
    assert [kink.coeff(m) for m in range(4)] == [1, F(1, 2), F(1, 8), F(1, 48)]
    hopf = wz_eval("braid[2]: s1 s1 ; close", rep, tv, 3)
    assert [hopf.coeff(m) for m in range(4)] == [1, 1, F(1, 2), F(1, 6)]


def test_two_path_evaluation_agrees_open_strand():
    rep, tv = gl21_defining()
    word = "braid[1]: t1"
    fused = wz_eval(word, rep, tv, 3)
    z = z_eval(word, 3)
    for m in range(4):
        total = SuperMap(rep.space, rep.space, {}, rep.ring)
        for d, c in z.terms_at(m):
            total = total + ws_tangle11(d, rep, tv).scale(rep.ring.coerce(c))
        assert fused[m] == total


def z_alternating(text, order):
    total = {}
    for sign, res in resolve_singular(parse_word(text)):
        for e, c in z_eval(res, order).terms.items():
            total[e] = total.get(e, F(0)) + sign * c
    return {e: c for e, c in total.items() if c}


def test_leading_term_matches_double_points():
    for m, word in [(1, "braid[2]: s1 sing s1 ; close"),
                    (2, "braid[2]: s1 sing s1 sing ; close")]:
        alt = z_alternating(word, 3)
        assert all(len(e[1]) >= m for e in alt)
        lead = {e: c for e, c in alt.items() if len(e[1]) == m}
        target = diagram_of_singular(parse_word(word))
        assert lead == {canonical_form(target): F(1)}


def test_defect_low_degrees_vanish_and_match_weights():
    rep, tv = gl21_defining()
    for m, word in [(1, "braid[2]: s1 sing s1 ; close"),
                    (2, "braid[2]: s1 sing s1 sing ; close")]:
        v = vassiliev_defect(word, rep, tv, 3)
        assert all(v.coeff(j) == 0 for j in range(m))
        target = diagram_of_singular(parse_word(word))
        assert v.coeff(m) == ws_link(target, rep, tv)
    v1 = vassiliev_defect("braid[2]: s1 sing s1 ; close", rep, tv, 3)
    assert [v1.coeff(m) for m in range(4)] == [0, 1, F(1, 2), F(1, 6)]
    v2 = vassiliev_defect("braid[2]: s1 sing s1 sing ; close", rep, tv, 3)
    assert [v2.coeff(m) for m in range(4)] == [0, 0, 1, 0]


def test_defect_rejects_odd_framing():
    rep, tv = gl21_defining()
    with pytest.raises(ValueError):
        vassiliev_defect("braid[2]: s1 sing ; close", rep, tv, 3)


def test_links_gould_unknot_is_one():
    s = lg_invariant(UNKNOT, 3)
    assert [s.coeff(m) for m in range(4)] == [QALPHA.one] + [QALPHA.zero] * 3


def test_links_gould_trefoil_two_presentations_agree():
    a = alpha()
    two = (a + a * a) * 2
    s = lg_invariant(TREFOIL, 3)
    assert [s.coeff(m) for m in range(4)] == [QALPHA.one, QALPHA.zero,
                                              two, -two]
    assert s == lg_invariant(TREFOIL_ALT, 3)


def test_links_gould_figure_eight_frozen():
    a = alpha()
    s = lg_invariant(FIG8, 3)
    assert [s.coeff(m) for m in range(4)] == [QALPHA.one, QALPHA.zero,
                                              -(a + a * a) * 2, QALPHA.zero]


def test_second_coefficient_proportional_to_conway():
    row = [lg_invariant(w, 2).coeff(2) for w in (UNKNOT, TREFOIL, FIG8)]
    assert row[0] == QALPHA.zero
    assert row[1] == -row[2]
    assert not (row[1] == QALPHA.zero)


def test_alexander_rows_from_gl11():
    rep, tv = gl11_defining()

    def w(d):
        return scalar_of_endo(ws_tangle11(d, rep, tv))

    rows = {}
    for name, word in [("unknot", UNKNOT), ("trefoil", TREFOIL),
                       ("fig8", FIG8)]:
        s = paired_invariant(word, w, rep.ring, 3)
        rows[name] = [s.coeff(m) for m in range(4)]
    assert rows["unknot"] == [1, 0, 0, 0]
    assert rows["trefoil"] == [1, 0, 1, 0]
    assert rows["fig8"] == [1, 0, -1, 0]


def test_trivial_specialization_is_constant():
    # gl(2|1) defining with the full Casimir: superdimension one kills
    # every positive degree of the normalized series
    rep, tv = gl21_defining()

    def w(d):
        return scalar_of_endo(ws_tangle11(d, rep, tv))

    for word in (UNKNOT, TREFOIL, FIG8):
        s = paired_invariant(word, w, rep.ring, 3)
        assert [s.coeff(m) for m in range(4)] == [1, 0, 0, 0]


def test_v_alpha_closed_trefoil_vanishes():
    g = build_gl(2, 1)
    rep = standard_rep(g, "v_alpha")
    tv = casimir_tensor(g, "sl")
    s = wz_eval(TREFOIL, rep, tv, 3)
    assert all(s.coeff(m) == QALPHA.zero for m in range(4))


def test_lg_rejects_open_and_multi_component():
    with pytest.raises(ValueError):
        lg_invariant("braid[2]: s1", 2)
    with pytest.raises(ValueError):
        lg_invariant("braid[2]: ; close", 2)


def test_cabling_identity_on_random_diagrams():
    rep, tv = gl11_defining()
    square = rep_combine("tensor", rep, rep)
    rng = random.Random(20240811)
    for _ in range(12):
        d = random_diagram((CIRCLE,), rng.choice([1, 2]), rng)
        lhs = ws_link(d, square, tv)
        rhs = sum((ws_link(l, rep, tv) for l in cable_diagram(d, 0, 2)),
                  rep.ring.zero)
        assert lhs == rhs


def test_negative_order_rejected_before_work():
    rep, tensor = gl21_defining()
    # the word would fail to parse, so the check comes before any work
    with pytest.raises(ScalarError, match="order"):
        z_eval("not a word", -1)
    with pytest.raises(ScalarError, match="order"):
        wz_eval("not a word", rep, tensor, -1)
