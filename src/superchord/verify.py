"""Named verification suites for the structural identities.

Every suite is deterministic: randomized parts take an explicit seed.
A suite returns a VerifyReport carrying one named pass/fail line per
check, so the command line can print them and exit nonzero on failure.
"""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import product

from .associator import associator_checks, build_associator, check_order
from .conway import conway_polynomial
from .diagrams import (
    CIRCLE, INTERVAL, cable_diagram, canonical_form, enumerate_diagrams,
    four_term_relators, random_diagram, slit_component)
from .kontsevich import paired_invariant, vassiliev_defect, z_eval
from .scalars import QALPHA, QQ, SeriesRing, add_term, series_exp
from .weightsys import named_system, squared_system, weight_system, wlg
from .words import diagram_of_singular, parse_word


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

# The least order at which each suite's checks on SINGULAR_WORDS are
# defined: the leading term and the defect coefficient of m marks lie in
# degree m, and vassiliev reads the degrees below m.
_MARKS = max(m for m, _label, _text in SINGULAR_WORDS)
LEAST_ORDER = {"zleading": _MARKS, "corollary": _MARKS,
               "vassiliev": _MARKS - 1}


def fourterm_failures(system):
    """The role patterns (r1, r2, r3) on which [t12, t13 + t23] is not 0.

    The operators act on V^{r1} x V^{r2} x V^{r3}, V for role +1 and V*
    for -1, through WeightSystem.identity(3) and chord, which inserts the
    tensor unsigned by role, as the two-site Casimir action.  For an
    ad-invariant tensor the identity holds on every pattern, and with it
    the vanishing of the weight system on every four-term relator of
    every degree (Bar-Natan, Topology 34, 1995, Thm 6; Vaintrob, MRL 1,
    1994, for superalgebras).  The walk is on the int system
    `WeightSystem.walker` gives for four times the square of the largest
    norm: each side's values are bounded by norm[r1, r2] (norm[r1, r3] +
    norm[r2, r3]), so over Q(alpha) a zero int is a zero polynomial.
    """
    ws = system.walker(4 * max(system.norm.values()) ** 2)
    one = ws.identity(3)
    failures = []
    for r in product((1, -1), repeat=3):
        # t12 (t13 + t23) - (t13 + t23) t12, the rightmost acting first
        right = ws.chord(one, 0, 2, (r[0], r[2]))
        diff = ws.chord(ws.chord(one, 1, 2, (r[1], r[2]), out=right),
                        0, 1, (r[0], r[1]))
        t12 = ws.chord(one, 0, 1, (r[0], r[1]))
        left = ws.chord(t12, 0, 2, (r[0], r[2]))
        for key, v in ws.chord(t12, 1, 2, (r[1], r[2]), out=left).items():
            add_term(diff, key, -v)
        if diff:
            failures.append(r)
    return failures


def verify_fourterm(order=3, seed=0):
    """Weight systems vanish on every four-term relator, small skeleta.

    The structural checks test the local identity behind this for every
    named system and the Links-Gould pair, at every degree at once
    (fourterm_failures).  The relator sweeps test it on relators: the
    Links-Gould interval relators are checked at degrees 2..max(3,
    order).  That is the hypothesis under which paired_invariant may
    reduce a knot's integral modulo the circle relators and weigh each
    basis class cut at place 0: closing is injective modulo four-term
    relations, so where wlg kills the interval relators the cut class
    does not depend on where the circle is cut.
    """
    report = VerifyReport("fourterm")
    for name in ("gl21", "gl11", "valpha", "lg"):
        bad = fourterm_failures(weight_system(*named_system(name)))
        report.add("structural_%s" % name, not bad, "8 role patterns")
    systems = [(name, weight_system(*named_system(name)))
               for name in ("gl21", "gl11")]
    cases = [((CIRCLE,), 2), ((CIRCLE,), 3),
             ((CIRCLE, CIRCLE), 2), ((CIRCLE, CIRCLE), 3)]
    for skeleton, degree in cases:
        rels = four_term_relators(skeleton, degree)
        for name, ws in systems:
            ok = all(sum((ws(d) * s for s, d in r),
                         Fraction(0)) == 0 for r in rels)
            report.add("%s_%dcircle_deg%d" % (name, len(skeleton), degree),
                       ok, "%d relators" % len(rels))
    for degree in range(2, max(3, order) + 1):
        rels = four_term_relators((INTERVAL,), degree)
        ok = all(sum((wlg(d) * s for s, d in r), QALPHA.zero) == 0
                 for r in rels)
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
    assoc = build_associator(max(3, order))
    for name, ok in associator_checks(assoc).items():
        report.add(name, ok)
    return report


def verify_zleading(order=3, seed=0):
    """Alternating integral of m double points starts at degree m, with
    the marks' chord diagram: every mark here is on a crossing of
    oriented sign +1, so its coefficient is 1."""
    check_order(order, LEAST_ORDER["zleading"])
    report = VerifyReport("zleading")
    for m, label, text in SINGULAR_WORDS:
        word = parse_word(text)
        terms = z_eval(word, order).terms
        report.add("below_m_vanish_%s" % label,
                   all(len(e[1]) >= m for e in terms))
        lead = {e: c for e, c in terms.items() if len(e[1]) == m}
        target = {canonical_form(diagram_of_singular(word)): Fraction(1)}
        report.add("leading_is_double_point_diagram_%s" % label,
                   lead == target)
    return report


@lru_cache(maxsize=None)
def _singular_defects(order):
    """SINGULAR_WORDS entries with their gl(2|1) vassiliev_defect appended."""
    rep, tv = named_system("gl21")
    return tuple((m, label, text, vassiliev_defect(text, rep, tv, order))
                 for m, label, text in SINGULAR_WORDS)


def verify_corollary(order=3, seed=0):
    """Degree-m defect coefficient equals the weight of the diagram."""
    check_order(order, LEAST_ORDER["corollary"])
    report = VerifyReport("corollary")
    ws = weight_system(*named_system("gl21"))
    for m, label, text, v in _singular_defects(order):
        target = ws(diagram_of_singular(parse_word(text)))
        report.add("defect_matches_weight_%s" % label, v.coeff(m) == target)
    return report


def verify_vassiliev(order=3, seed=0):
    """Defect vanishes below the number of double points; odd framing bars."""
    check_order(order, LEAST_ORDER["vassiliev"])
    report = VerifyReport("vassiliev")
    for m, label, _text, v in _singular_defects(order):
        report.add("vanish_below_%s" % label,
                   all(v.coeff(j) == 0 for j in range(m)))
    rep, tv = named_system("gl21")
    try:
        vassiliev_defect("braid[2]: s1 sing ; close", rep, tv, order)
        report.add("odd_framing_rejected", False)
    except ValueError:
        report.add("odd_framing_rejected", True)
    return report


def verify_cabling(order=3, seed=0):
    """Tensor square against the sum over two-cable lifts, on 50 random
    diagrams."""
    report = VerifyReport("cabling")
    rep, tv = named_system("gl11")
    ws = weight_system(rep, tv)
    square = weight_system(*squared_system("gl11"))
    rng = random.Random(seed)
    bad = 0
    for _ in range(50):
        d = random_diagram((CIRCLE,), rng.choice([1, 2]), rng)
        lhs = square(d)
        rhs = sum((ws(l) for l in cable_diagram(d, 0, 2)),
                  Fraction(0))
        if lhs != rhs:
            bad += 1
    report.add("tensor_square_matches_lifts", bad == 0,
               "50 random diagrams")
    return report


def verify_slitting(order=3, seed=0):
    """Closing a slit component back up recovers the supertrace, on 20
    random diagrams."""
    report = VerifyReport("slitting")
    ws = weight_system(*named_system("gl21"))
    rng = random.Random(seed)
    bad = 0
    for _ in range(20):
        skeleton = rng.choice([(CIRCLE,), (CIRCLE, CIRCLE)])
        d = random_diagram(skeleton, rng.choice([1, 2]), rng)
        comp = rng.randrange(len(skeleton))
        npts = sum(1 for a, b in d.chords for pt in (a, b) if pt[0] == comp)
        cut = rng.randrange(npts + 1)
        endo = ws.tangle11(slit_component(d, comp, cut))
        if endo.supertrace() != ws(d):
            bad += 1
    report.add("supertrace_of_slit_matches", bad == 0,
               "20 random diagrams")
    return report


CONWAY_WORDS = (
    ("trefoil", "braid[2]: s1 s1 s1 t1^-3 ; close"),
    ("figure_eight", "braid[3]: s1 s2^-1 s1 s2^-1 ; close"),
    ("cinquefoil", "braid[2]: s1 s1 s1 s1 s1 t1^-5 ; close"),
    ("trefoil_3strand", "braid[3]: s1 s1 s1 s2 t1^-4 ; close"),
    ("mirror_trefoil", "braid[2]: s1^-1 s1^-1 s1^-1 t1^3 ; close"),
)


def verify_conway(order=3, seed=0):
    """gl(1|1) on the integral is the Conway polynomial at e^{h/2} - e^{-h/2}.

    The left side runs through the four-term reduced pairing, the right
    side through the independent skein oracle; equal through order.
    """
    report = VerifyReport("conway")
    rep, tv = named_system("gl11")
    weight = weight_system(rep, tv)
    for label, text in CONWAY_WORDS:
        lhs = paired_invariant(text, weight, rep.ring, order)
        report.add("matches_nabla_%s" % label,
                   lhs == conway_series(text, order), "order %d" % order)
    return report


def conway_series(text, order):
    """nabla(e^{h/2} - e^{-h/2}) of a closed braid word, through h^order."""
    sr = SeriesRing(QQ, order)
    half = sr.monomial(1, Fraction(1, 2))
    z = series_exp(half) - series_exp(-half)
    nabla = sr.zero
    for c in reversed(conway_polynomial(text)):
        nabla = nabla * z + c
    return nabla


SUITES = {
    "fourterm": verify_fourterm,
    "oneterm": verify_oneterm,
    "associator": verify_associator,
    "zleading": verify_zleading,
    "corollary": verify_corollary,
    "vassiliev": verify_vassiliev,
    "cabling": verify_cabling,
    "slitting": verify_slitting,
    "conway": verify_conway,
}


def run_suite(name, order=3, seed=0):
    check_order(order)
    if name not in SUITES:
        raise ValueError("unknown suite %r; have %s"
                         % (name, ", ".join(sorted(SUITES))))
    return SUITES[name](order=order, seed=seed)


def run_all(order=3, seed=0):
    """Every suite; an order that one of them cannot serve is refused
    first, one above the cap as everywhere else."""
    check_order(order)
    check_order(order, max(LEAST_ORDER.values()))
    return [run_suite(name, order=order, seed=seed) for name in SUITES]
