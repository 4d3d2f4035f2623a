"""Named verification suites for the structural identities.

Every suite is deterministic: randomized parts take an explicit seed.
A suite returns a VerifyReport carrying one named pass/fail line per
check, so the command line can print them and exit nonzero on failure.
"""

import random
from fractions import Fraction

from .associator import associator_checks, build_associator
from .diagrams import (
    CIRCLE, INTERVAL, cable_diagram, canonical_form, enumerate_diagrams,
    four_term_relators, random_diagram, slit_component)
from .kontsevich import vassiliev_defect, z_eval
from .liesuper import build_gl, casimir_tensor, rep_combine, standard_rep
from .weightsys import WeightSystem, wlg
from .words import diagram_of_singular, parse_word, resolve_singular


class VerifyReport:
    """Ordered pass/fail lines for one suite."""

    def __init__(self, suite):
        self.suite = suite
        self.checks = []

    def add(self, name, ok, detail=""):
        self.checks.append((name, bool(ok), detail))

    @property
    def ok(self):
        return all(ok for _n, ok, _d in self.checks)

    def lines(self):
        out = []
        for name, ok, detail in self.checks:
            mark = "ok  " if ok else "FAIL"
            line = "%s %s.%s" % (mark, self.suite, name)
            if detail:
                line += "  (%s)" % detail
            out.append(line)
        return out


def _gl21():
    g = build_gl(2, 1)
    return standard_rep(g, "defining"), casimir_tensor(g, "gl")


def _gl11():
    g = build_gl(1, 1)
    return standard_rep(g, "defining"), casimir_tensor(g, "gl")


_PARALLEL_KINKS = """slice: cup(+-)
slice: id(+) cup(+-) id(-)
slice: X+ sing id(-) id(-)
slice: id(+) cap(+-) id(-)
slice: id(+) cup(+-) id(-)
slice: X+ sing id(-) id(-)
slice: id(+) cap(+-) id(-)
slice: cap(+-)"""

SINGULAR_WORDS = (
    (1, "single", "braid[2]: s1 sing s1 s1 t1^-1 ; close"),
    (2, "interleaved", "braid[2]: s1 sing s1 sing s1 t1^-1 ; close"),
    (2, "parallel", _PARALLEL_KINKS),
)


def verify_fourterm(order=3, seed=0):
    """Weight systems vanish on every four-term relator, small skeleta."""
    report = VerifyReport("fourterm")
    systems = (("gl21", WeightSystem(*_gl21())),
               ("gl11", WeightSystem(*_gl11())))
    cases = [((CIRCLE,), 2), ((CIRCLE,), 3),
             ((CIRCLE, CIRCLE), 2), ((CIRCLE, CIRCLE), 3)]
    for skeleton, degree in cases:
        rels = four_term_relators(skeleton, degree)
        for name, ws in systems:
            ok = all(sum((ws.link(d) * s for s, d in r),
                         Fraction(0)) == 0 for r in rels)
            report.add("%s_%dcircle_deg%d" % (name, len(skeleton), degree),
                       ok, "%d relators" % len(rels))
    for degree in (2, 3):
        rels = four_term_relators((INTERVAL,), degree)
        zero = wlg(enumerate_diagrams((INTERVAL,), 0)[0]) * 0
        ok = all(sum((wlg(d) * s for s, d in r), zero) == zero for r in rels)
        report.add("lg_interval_deg%d" % degree, ok, "%d relators" % len(rels))
    return report


def verify_oneterm(order=3, seed=0):
    """The Links-Gould system kills diagrams with an isolated chord."""
    report = VerifyReport("oneterm")
    for degree in (1, 2, 3):
        hits = 0
        ok = True
        for d in enumerate_diagrams((INTERVAL,), degree):
            isolated = any(a[0] == b[0] and abs(a[1] - b[1]) == 1
                           for a, b in d.chords)
            if not isolated:
                continue
            hits += 1
            value = wlg(d)
            ok = ok and value == value * 0
        report.add("isolated_deg%d" % degree, ok, "%d diagrams" % hits)
    return report


def verify_associator(order=3, seed=0):
    """Pentagon, hexagons, and the normalization of the even associator."""
    report = VerifyReport("associator")
    assoc = build_associator(max(3, min(order, 4)))
    for name, ok in associator_checks(assoc).items():
        report.add(name, ok)
    return report


def verify_zleading(order=3, seed=0):
    """Alternating integral of m double points starts at degree m."""
    report = VerifyReport("zleading")
    for m, label, text in SINGULAR_WORDS:
        word = parse_word(text)
        total = {}
        for sign, res in resolve_singular(word):
            for e, c in z_eval(res, order).terms.items():
                total[e] = total.get(e, Fraction(0)) + sign * c
        total = {e: c for e, c in total.items() if c}
        report.add("below_m_vanish_%s" % label,
                   all(len(e[1]) >= m for e in total))
        lead = {e: c for e, c in total.items() if len(e[1]) == m}
        target = {canonical_form(diagram_of_singular(word)): Fraction(1)}
        report.add("leading_is_double_point_diagram_%s" % label,
                   lead == target)
    return report


def verify_corollary(order=3, seed=0):
    """Degree-m defect coefficient equals the weight of the diagram."""
    report = VerifyReport("corollary")
    rep, tv = _gl21()
    ws = WeightSystem(rep, tv)
    for m, label, text in SINGULAR_WORDS:
        v = vassiliev_defect(text, rep, tv, order)
        target = ws.link(diagram_of_singular(parse_word(text)))
        report.add("defect_matches_weight_%s" % label, v.coeff(m) == target)
    return report


def verify_vassiliev(order=3, seed=0):
    """Defect vanishes below the number of double points; odd framing bars."""
    report = VerifyReport("vassiliev")
    rep, tv = _gl21()
    for m, label, text in SINGULAR_WORDS:
        v = vassiliev_defect(text, rep, tv, order)
        report.add("vanish_below_%s" % label,
                   all(v.coeff(j) == 0 for j in range(m)))
    try:
        vassiliev_defect("braid[2]: s1 sing ; close", rep, tv, order)
        report.add("odd_framing_rejected", False)
    except ValueError:
        report.add("odd_framing_rejected", True)
    return report


def verify_cabling(order=3, seed=0, samples=50):
    """Tensor square against the sum over two-cable lifts."""
    report = VerifyReport("cabling")
    rep, tv = _gl11()
    ws = WeightSystem(rep, tv)
    square = WeightSystem(rep_combine("tensor", rep, rep), tv)
    rng = random.Random(seed)
    bad = 0
    for _ in range(samples):
        d = random_diagram((CIRCLE,), rng.choice([1, 2]), rng)
        lhs = square.link(d)
        rhs = sum((ws.link(l) for l in cable_diagram(d, 0, 2)),
                  Fraction(0))
        if lhs != rhs:
            bad += 1
    report.add("tensor_square_matches_lifts", bad == 0,
               "%d random diagrams" % samples)
    return report


def verify_slitting(order=3, seed=0, samples=20):
    """Closing a slit component back up recovers the supertrace."""
    report = VerifyReport("slitting")
    ws = WeightSystem(*_gl21())
    rng = random.Random(seed)
    bad = 0
    for _ in range(samples):
        skeleton = rng.choice([(CIRCLE,), (CIRCLE, CIRCLE)])
        d = random_diagram(skeleton, rng.choice([1, 2]), rng)
        comp = rng.randrange(len(skeleton))
        npts = sum(1 for a, b in d.chords for pt in (a, b) if pt[0] == comp)
        cut = rng.randrange(npts + 1)
        endo = ws.tangle11(slit_component(d, comp, cut))
        if endo.supertrace() != ws.link(d):
            bad += 1
    report.add("supertrace_of_slit_matches", bad == 0,
               "%d random diagrams" % samples)
    return report


SUITES = {
    "fourterm": verify_fourterm,
    "oneterm": verify_oneterm,
    "associator": verify_associator,
    "zleading": verify_zleading,
    "corollary": verify_corollary,
    "vassiliev": verify_vassiliev,
    "cabling": verify_cabling,
    "slitting": verify_slitting,
}


def run_suite(name, order=3, seed=0):
    if name not in SUITES:
        raise ValueError("unknown suite %r; have %s"
                         % (name, ", ".join(sorted(SUITES))))
    return SUITES[name](order=order, seed=seed)


def run_all(order=3, seed=0):
    return [run_suite(name, order=order, seed=seed) for name in SUITES]
