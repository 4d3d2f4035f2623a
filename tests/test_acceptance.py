"""Acceptance checklist: twelve structural identities, exact arithmetic.

Run `pytest -s tests/test_acceptance.py` to see one PASS/FAIL line per
criterion.  Every comparison is exact equality over the rationals or
over rational functions in alpha; nothing here is approximate.
"""

import random
from fractions import Fraction

import pytest

from superchord.conway import conway_polynomial
from superchord.diagrams import (
    CIRCLE, INTERVAL, cable_diagram, canonical_form, four_term_relators,
    random_diagram)
from superchord.associator import associator_checks, build_associator
from superchord.kontsevich import (
    lg_invariant, paired_invariant, vassiliev_defect, wz_eval, z_eval)
from superchord.liesuper import (
    build_gl, casimir_tensor, rep_combine, standard_rep)
from superchord.ribbon import (
    RibbonData, ribbon_checks, ribbon_diagonal, ribbon_superflip,
    ribbon_trivial, rt_invariant)
from superchord.scalars import QALPHA, alpha
from superchord.supergraded import SuperMap
from superchord.verify import SINGULAR_WORDS
from superchord.weightsys import scalar_of_endo, wlg, ws_link, ws_tangle11
from superchord.words import diagram_of_singular, parse_word
from test_double_points import resolve_singular

UNKNOT_SLICES = "slice: cup(+-)\nslice: cap(+-)"
UNKNOT = "braid[1]: ; close"
CURL_POS = "braid[1]: t1 ; close"
CURL_NEG = "braid[1]: t1^-1 ; close"
TWISTED_UNKNOT = "braid[2]: s1 ; close"
HOPF = "braid[2]: s1 s1 ; close"
TREFOIL = "braid[2]: s1 s1 s1 t1^-3 ; close"
TREFOIL_WRITHE2 = "braid[2]: s1 s1 s1 t1^-1 ; close"
TREFOIL_3STRAND = "braid[3]: s1 s2 s1 s2 t1^-4 ; close"
TREFOIL_FRAMED = "braid[2]: s1 s1 s1 t1 ; close"
TREFOIL_SLICES = """slice: cup(+-)
slice: id(+) cup(+-) id(-)
slice: id(+) cup(+-) id(+) id(-) id(-)
slice: X+ id(-) id(+) id(-) id(-)
slice: id(+) cap(+-) id(+) id(-) id(-)
slice: X+ id(-) id(-)
slice: X+ id(-) id(-)
slice: X+ id(-) id(-)
slice: id(+) cap(+-) id(-)
slice: cap(+-)"""
FIG8 = "braid[3]: s1 s2^-1 s1 s2^-1 ; close"

FIXTURE_WORDS = (UNKNOT_SLICES, UNKNOT, CURL_POS, CURL_NEG, TWISTED_UNKNOT,
                 HOPF, TREFOIL, TREFOIL_WRITHE2, TREFOIL_3STRAND,
                 TREFOIL_FRAMED, TREFOIL_SLICES, FIG8)
KNOT_WORDS = tuple(w for w in FIXTURE_WORDS if w != HOPF)


def conclude(number, label, ok):
    print("%s  criterion %2d: %s" % ("PASS" if ok else "FAIL", number, label))
    assert ok, "criterion %d failed: %s" % (number, label)


def gl_system(m, n):
    g = build_gl(m, n)
    return standard_rep(g, "defining"), casimir_tensor(g, "gl")


def slit_weight(rep, tv):
    def w(d):
        return scalar_of_endo(ws_tangle11(d, rep, tv))
    return w


def test_criterion_01_four_term_vanishing():
    facts = []
    systems = [gl_system(2, 1), gl_system(1, 1)]
    for skeleton in ((CIRCLE,), (CIRCLE, CIRCLE)):
        for degree in (2, 3):
            for rep, tv in systems:
                facts.append(all(
                    sum((ws_link(d, rep, tv) * s for s, d in r),
                        Fraction(0)) == 0
                    for r in four_term_relators(skeleton, degree)))
    for degree in (2, 3):
        facts.append(all(
            sum((wlg(d) * s for s, d in r), QALPHA.zero) == QALPHA.zero
            for r in four_term_relators((INTERVAL,), degree)))
    conclude(1, "weight systems kill all four-term relators to degree 3",
             all(facts))


def test_criterion_02_algebra_soundness():
    g = build_gl(2, 1)
    jacobi = all(not g.jacobi_residual(i, j, k)
                 for i in range(g.dim)
                 for j in range(g.dim)
                 for k in range(g.dim))
    facts = [jacobi]
    for which in ("gl", "sl"):
        t = casimir_tensor(g, which)
        facts.append(t.is_supersymmetric())
        facts.append(t.is_invariant())
    conclude(2, "gl(2|1) satisfies super-Jacobi; Casimir tensors are "
                "supersymmetric and ad-invariant", all(facts))


def test_criterion_03_associator():
    checks = associator_checks(build_associator(3))
    expected = {"hexagon1", "hexagon2", "pentagon", "degree1_zero",
                "degree2_commutator_1_24"}
    conclude(3, "even associator passes pentagon, hexagons, and the "
                "1/24 normalization", set(checks) == expected
             and all(checks.values()))


def test_criterion_04_z_leading_term():
    facts = []
    for m, _label, text in SINGULAR_WORDS:
        word = parse_word(text)
        total = {}
        for sign, res in resolve_singular(word):
            for e, c in z_eval(res, 3).terms.items():
                total[e] = total.get(e, Fraction(0)) + sign * c
        total = {e: c for e, c in total.items() if c}
        facts.append(all(len(e[1]) >= m for e in total))
        lead = {e: c for e, c in total.items() if len(e[1]) == m}
        facts.append(lead == {canonical_form(diagram_of_singular(word)):
                              Fraction(1)})
    conclude(4, "alternating integral of m double points is the chord "
                "diagram times h^m", all(facts))


def test_criterion_05_defect_weight_correspondence():
    rep, tv = gl_system(2, 1)
    encodings = {
        "single": ((0,), (((0, 0), (0, 1)),)),
        "interleaved": ((0,), (((0, 0), (0, 2)), ((0, 1), (0, 3)))),
        "parallel": ((0,), (((0, 0), (0, 1)), ((0, 2), (0, 3)))),
    }
    facts = [{label for _m, label, _t in SINGULAR_WORDS} == set(encodings)]
    for m, label, text in SINGULAR_WORDS:
        word = parse_word(text)
        d = diagram_of_singular(word)
        facts.append(canonical_form(d) == encodings[label])
        defect = vassiliev_defect(word, rep, tv, 3)
        facts.append(defect.coeff(m) == ws_link(d, rep, tv))
    conclude(5, "degree-m defect coefficient equals the weight of the "
                "double-point diagram", all(facts))


def test_criterion_06_vassiliev_vanishing():
    rep, tv = gl_system(2, 1)
    facts = []
    for m, _label, text in SINGULAR_WORDS:
        defect = vassiliev_defect(text, rep, tv, 3)
        facts.append(all(defect.coeff(j) == 0 for j in range(m)))
    try:
        vassiliev_defect("braid[2]: s1 sing ; close", rep, tv, 3)
        facts.append(False)
    except ValueError:
        facts.append(True)
    conclude(6, "defect vanishes below the double-point count; odd "
                "framings are rejected", all(facts))


def test_criterion_07_links_gould_sanity():
    a = alpha()
    one, zero = QALPHA.one, QALPHA.zero
    unknot = lg_invariant(UNKNOT, 3)
    trefoils = [lg_invariant(w, 3)
                for w in (TREFOIL, TREFOIL_WRITHE2, TREFOIL_3STRAND)]
    fig8 = lg_invariant(FIG8, 3)
    facts = [
        [unknot.coeff(m) for m in range(4)] == [one, zero, zero, zero],
        unknot == lg_invariant(UNKNOT_SLICES, 3),
        trefoils[0] == trefoils[1] == trefoils[2],
        [trefoils[0].coeff(m) for m in range(4)] ==
        [one, zero, (a + a * a) * 2, -(a + a * a) * 2],
        [fig8.coeff(m) for m in range(4)] ==
        [one, zero, -(a + a * a) * 2, zero],
    ]
    for series in [unknot, fig8] + trefoils:
        facts.append(all(series.coeff(m).is_polynomial() for m in range(4)))
    conclude(7, "Links-Gould series: unknot 1, writhe independent, "
                "polynomial in alpha", all(facts))


def test_criterion_08_valpha_vanishing():
    g = build_gl(2, 1)
    rep = standard_rep(g, "v_alpha")
    tv = casimir_tensor(g, "sl")
    facts = []
    for word in (TREFOIL, FIG8):
        s = wz_eval(word, rep, tv, 3)
        facts.append(all(s.coeff(m) == QALPHA.zero for m in range(4)))
    conclude(8, "V_alpha colored links give the zero series", all(facts))


def test_criterion_09_cabling_identity():
    rep, tv = gl_system(2, 1)
    square = rep_combine(rep, rep)
    rng = random.Random(20250817)
    ok = True
    for _ in range(50):
        d = random_diagram((CIRCLE,), rng.choice([1, 2, 3]), rng)
        lhs = ws_link(d, square, tv)
        rhs = sum((ws_link(l, rep, tv) for l in cable_diagram(d, 0, 2)),
                  Fraction(0))
        ok = ok and lhs == rhs
    conclude(9, "tensor-square weight equals the sum over two-cable "
                "lifts (50 random diagrams)", ok)


def test_criterion_10_conway_proportionality():
    words = (UNKNOT, TREFOIL, FIG8)
    conway_row = [conway_polynomial(w)[2] if len(conway_polynomial(w)) > 2
                  else Fraction(0) for w in words]
    facts = [conway_row == [0, 1, -1]]

    a = alpha()
    lg_row = [lg_invariant(w, 2).coeff(2) for w in words]
    ratio = (a + a * a) * 2
    facts.append(lg_row == [ratio * c for c in conway_row])
    facts.append(not ratio == QALPHA.zero)

    rep21, tv21 = gl_system(2, 1)
    gl21_row = [wz_eval(w, rep21, tv21, 2).coeff(2) for w in words]
    facts.append(gl21_row == [Fraction(0) * c for c in conway_row])

    rep11, tv11 = gl_system(1, 1)
    w11 = slit_weight(rep11, tv11)
    gl11_row = [paired_invariant(w, w11, rep11.ring, 2).coeff(2)
                for w in words]
    facts.append(gl11_row == [Fraction(1) * c for c in conway_row])
    conclude(10, "degree-2 coefficients are exact multiples of the "
                 "Conway row (0, 1, -1)", all(facts))


def test_criterion_11_two_path_agreement():
    rep, tv = gl_system(2, 1)
    ok = True
    for text in FIXTURE_WORDS:
        word = parse_word(text)
        fused = wz_eval(word, rep, tv, 3)
        paired = z_eval(word, 3).pair(lambda d: ws_link(d, rep, tv),
                                      rep.ring)
        ok = ok and fused == paired
    conclude(11, "fused evaluation equals weighting the integral on all "
                 "fixture words", ok)


def test_criterion_12_rt_engine():
    trivial = ribbon_trivial()
    facts = [rt_invariant(w, trivial) == 1 for w in KNOT_WORDS]

    diagonal = ribbon_diagonal([[2, 5], [7, 3]])
    entries = dict(diagonal.braiding.m)
    entries[(3, 0)] = Fraction(1)
    vv = diagonal.space.tensor(diagonal.space)
    bad = RibbonData(diagonal.space,
                     SuperMap(vv, vv, entries, diagonal.ring),
                     diagonal.twist, diagonal.ring)
    facts.append(ribbon_checks(bad)["yang_baxter"] is False)
    try:
        rt_invariant(TREFOIL_FRAMED, bad)
        facts.append(False)
    except ValueError as e:
        facts.append("yang_baxter" in str(e))

    for data in (trivial, diagonal, ribbon_superflip()):
        facts.append(rt_invariant(TREFOIL_FRAMED, data) ==
                     rt_invariant(TREFOIL_SLICES, data))
    facts.append(rt_invariant(TREFOIL_FRAMED, diagonal) == 97)
    conclude(12, "ribbon evaluations: trivial data gives 1, bad braiding "
                 "is refused, presentations agree", all(facts))
