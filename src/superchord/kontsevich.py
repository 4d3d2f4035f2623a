"""Combinatorial Kontsevich integral of sliced words, truncated by degree.

The evaluator keeps the boundary object left-nested.  Applying a
generator to strands p, p+1 first regroups them into one block with a
single associator move (none when p = 0), applies the generator, and
regroups back:

    crossing  flip after exp(s eps_p eps_{p+1} (h/2) chord(p, p+1))
    cup, cap  plain bends, so each maximum carries the universal hump
              factor; paired_invariant divides it back out
    curl      already expanded by the parser into cup, crossing, cap

The move on consecutive groups (U, V, W) inserts Phi(T_UV, T_VW), where
T_XY sums eps_i eps_j chord(i, j) over i in X, j in Y on the diagram
side and the plain two-site Casimir action on the matrix side.  Products
are in operator order, so the rightmost letter of an associator word
acts first, lowest on the page.

Two backends walk the same slices: one accumulates chord diagrams on the
traced skeleton (z_eval), one drives the WeightSystem state operations
(cup, chord, cap, flip) over one state per h degree (wz_eval), the same
operations that evaluate single diagrams.  The diagram backend keys its
terms by chord sets on anchor tokens; many keys land on one positioned
diagram, so at the end it sums the keys per positioned diagram and
canonicalises each positioned diagram once.  Both apply a crossing and an
associator move as one kind of step, a word series: the crossing's
exponential is the powers of letter 1, the chord on its two strands,
with coefficients (s/2)^k/k!.  Both keep rational values as Python ints
over one constant denominator per h degree (per chord count for
diagrams), the table D of _layer_dens: D[0] = 1, and D[m] is the lcm of
D[m - k] q over every crossing term and associator coefficient p/q of
degree k, of either sign; at order 4 it is [1, 2, 24, 48, 5760].  A
term adds layer n into layer n + k with the int multiplier
p D[n + k] / (D[n] q) of one cached table (_word_series), so no value
is ever rescaled, and a Fraction is built only at the output, once per
layer or diagram class.  Both truncate as they go.  The diagram backend
never builds a term of more than order chords.  The matrix backend
carries a product of letters only on the layers that its least-degree
completion can still reach, so a word of degree d acts on layers
0..order-d.

Composites: paired_invariant slits z_eval at the basepoint, reduces it
modulo the interval four-term relations (reduce_fourterm) and pairs the
residual basis terms with a weight, so only a basis of the quotient is
ever weighed; lg_invariant does this with the Links-Gould system.
vassiliev_defect alternates wz_eval over the resolutions of marked
double points.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import factorial, lcm

from .associator import build_associator, check_order
from .diagrams import (
    CIRCLE, INTERVAL, ChordDiagram, LinearSpan, canonical_form,
    four_term_relators, relator_vector, slit_component)
from .scalars import (
    QALPHA, QQ, HSeries, SeriesRing, add_term, series_inverse)
from .supergraded import SuperMap
from .weightsys import weight_system, wlg
from .words import PathTracer, TangleWord, parse_word, resolve_singular


@lru_cache(maxsize=None)
def _phi_terms(order, sign):
    """Non-unit associator words of degree <= order."""
    if order < 2:
        return ()
    assoc = build_associator(max(2, order))
    return tuple((m, w, c) for m, w, c in assoc.words(sign) if m <= order)


@lru_cache(maxsize=None)
def _crossing_terms(order, sign):
    """exp(sign chord / 2) as a word series: (sign/2)^k / k! times letter
    1, the chord on the crossing strands, to the k."""
    return tuple((k, (1,) * k, Fraction(sign ** k, 2 ** k * factorial(k)))
                 for k in range(1, order + 1))


@lru_cache(maxsize=None)
def _layer_dens(order):
    """D[m], the one denominator of h-degree layer m: the lcm of D[m - k] q
    over every crossing and associator term of degree k, with coefficient
    p/q, of either sign."""
    terms = [t for sign in (1, -1)
             for t in _crossing_terms(order, sign) + _phi_terms(order, sign)]
    dens = [1]
    for m in range(1, order + 1):
        dens.append(lcm(*(dens[m - k] * c.denominator
                          for k, _, c in terms if k <= m)))
    return tuple(dens)


@lru_cache(maxsize=None)
def _word_series(order, crossing, sign):
    """A crossing's or an associator move's word series, ready for layers.

    Each term is (degree k, word, multipliers): multiplier n is the int
    p D[n + k] / (D[n] q) that takes a layer n value over D[n] to layer
    n + k over D[n + k], with the term's coefficient p/q.  tops maps each
    suffix of a word to the top layer on which it is needed: order minus
    the least degree of a word that ends in it.
    """
    dens = _layer_dens(order)
    words = (_crossing_terms if crossing else _phi_terms)(order, sign)
    terms = tuple(
        (k, w, tuple(c.numerator * dens[n + k] // (dens[n] * c.denominator)
                     for n in range(order - k + 1)))
        for k, w, c in words)
    tops = {}
    for k, w, _ in terms:
        for l in range(k):
            tops[w[l:]] = max(tops.get(w[l:], -1), order - k)
    return terms, tops


def _as_word(word):
    if isinstance(word, TangleWord):
        return word
    return parse_word(word)


def _walk(word, backend):
    """Drive a backend through the slices, keeping the sign word current."""
    signs = list(word.source)
    for sl in word.slices:
        p = 0
        for tok in sl:
            kind = tok[0]
            if kind == "id":
                p += 1
            elif kind == "x":
                if p:
                    backend.associate(p, 1, signs)
                backend.crossing(p, tok[1], signs)
                signs[p], signs[p + 1] = signs[p + 1], signs[p]
                if p:
                    backend.associate(p, -1, signs)
                p += 2
            elif kind == "cup":
                backend.cup(p, tok[1])
                signs[p:p] = [tok[1], -tok[1]]
                if p:
                    backend.associate(p, -1, signs)
                p += 2
            else:
                if p:
                    backend.associate(p, 1, signs)
                backend.cap(p, signs[p])
                del signs[p:p + 2]
    return backend.finish()


class ZValue:
    """Chord diagram expansion of a word; one h per chord.

    terms maps canonical encodings to coefficients; reps keeps one
    representative diagram per class for weight evaluation.
    """

    def __init__(self, skeleton, terms, reps, order):
        self.skeleton = skeleton
        self.order = order
        self.terms = {e: c for e, c in terms.items() if c}
        self.reps = {e: reps[e] for e in self.terms}

    def __eq__(self, other):
        return (isinstance(other, ZValue) and self.skeleton == other.skeleton
                and self.order == other.order and self.terms == other.terms)

    def coeff(self, diagram):
        return self.terms.get(canonical_form(diagram), Fraction(0))

    def pair(self, weight, ring):
        """HSeries of weights: coefficient m sums weight(d) c over degree m."""
        sr = SeriesRing(ring, self.order)
        coeffs = [ring.zero] * (self.order + 1)
        for e, c in self.terms.items():
            m = len(e[1])
            coeffs[m] = coeffs[m] + weight(self.reps[e]) * c
        return HSeries(sr, coeffs)

    def __repr__(self):
        return "ZValue(order=%d, terms=%d)" % (self.order, len(self.terms))


class _DiagramBackend:
    """States are chord sets over stamped anchor tokens, with int
    coefficients over D[m] for m chords (_layer_dens).

    finish places the tokens on the traced skeleton, sums the keys per
    positioned diagram, and builds and canonicalises each distinct
    positioned diagram once.  A class keeps as representative the
    diagram of its first key.
    """

    def __init__(self, word, order):
        self.order = order
        self.tracer = PathTracer(word.source)
        self.terms = {frozenset(): 1}
        self.event = 0

    def _stamp_layers(self, positions):
        e = self.event
        self.event += 1
        for j in range(self.order):
            for p in positions:
                self.tracer.stamp(p, ("a", e, j, p))
        return e

    def crossing(self, p, s, signs):
        e = self._stamp_layers((p, p + 1))
        tvw = [(p, p + 1, signs[p] * signs[p + 1])]
        terms, _ = _word_series(self.order, True, s)
        series = self._expand(terms, (), tvw, e)
        new = {}
        for key, c in self.terms.items():
            add_term(new, key, c)
            self._add_series(new, key, c, series)
        self.terms = new
        self.tracer.cross(p)

    def associate(self, p, sign, signs):
        terms, _ = _word_series(self.order, False, sign)
        if not terms:
            return
        e = self._stamp_layers(range(p + 2))
        tuv = [(a, p, signs[a] * signs[p]) for a in range(p)]
        tvw = [(p, p + 1, signs[p] * signs[p + 1])]
        series = self._expand(terms, tuv, tvw, e)
        new = dict(self.terms)
        for key, c in self.terms.items():
            self._add_series(new, key, c, series)
        self.terms = new

    @staticmethod
    def _expand(terms, tuv, tvw, e):
        """Each word series term as (degree, multipliers, choices), one
        (chord set, sign) per choice of a pair for every letter: letter l
        of a word w picks one pair of tuv (letter 0) or tvw, and anchors
        its chord on layer len(w) - 1 - l of event e."""
        out = []
        for deg, w, mults in terms:
            choices = []
            for picks in product(*(tuv if x == 0 else tvw for x in w)):
                chords = []
                sign = 1
                for l, (a, b, sg) in enumerate(picks):
                    j = deg - 1 - l
                    chords.append((("a", e, j, a), ("a", e, j, b)))
                    sign *= sg
                choices.append((frozenset(chords), sign))
            out.append((deg, mults, choices))
        return out

    def _add_series(self, out, key, c, series):
        """Add c times every non-unit term of a series of _expand to key."""
        n = len(key)
        for deg, mults, choices in series:
            if n + deg > self.order:
                break
            base = c * mults[n]
            for chords, sign in choices:
                add_term(out, key | chords, base if sign > 0 else -base)

    def cup(self, p, sign):
        self.tracer.cup(p, sign)

    def cap(self, p, sign):
        self.tracer.cap(p)

    def finish(self):
        out = self.tracer.finish()
        raw = {}
        for key, c in self.terms.items():
            toks = sorted((t for ch in key for t in ch),
                          key=lambda t: out.token_pos[t])
            pos = {}
            counters = {}
            for t in toks:
                comp, _ = out.token_pos[t]
                pos[t] = (comp, counters.get(comp, 0))
                counters[comp] = counters.get(comp, 0) + 1
            chords = tuple(sorted(tuple(sorted((pos[a], pos[b])))
                                  for a, b in key))
            # a sum that cancels stays: its diagram may still be the
            # first of its class, the class's representative
            raw[chords] = raw.get(chords, 0) + c
        agg = {}
        reps = {}
        for chords, c in raw.items():
            d = ChordDiagram(out.kinds, chords)
            e = canonical_form(d)
            add_term(agg, e, c)
            reps.setdefault(e, d)
        dens = _layer_dens(self.order)
        terms = {e: Fraction(c, dens[len(e[1])]) for e, c in agg.items()}
        return out.kinds, terms, reps


def z_eval(word, order):
    """Kontsevich integral of a word through the given chord degree."""
    check_order(order)
    word = _as_word(word)
    skeleton, terms, reps = _walk(word, _DiagramBackend(word, order))
    return ZValue(skeleton, terms, reps, order)


class _MatrixBackend:
    """States are one WeightSystem state per h degree, walked slice by slice.

    Every slice maps the WeightSystem operations (cup, chord, cap, flip)
    over the degree layers; a strand's role is its sign, so an upward
    strand acts through the dual.  The frozen source indices make open
    words come out as one map per degree.  Layer m holds its values over
    the fixed denominator D[m] chord_den^m (_layer_dens): ints over Q, so
    the walk builds no Fraction, and finish divides each layer once.

    A crossing and an associator move are both a word series applied by
    _series: a crossing is exp(s chord / 2), the powers of letter 1,
    followed by a flip.  A product of letters is carried only on the
    layers that its least-degree completion can still reach, up to order
    minus the least degree of a word that ends in it; higher layers are
    never built.
    """

    def __init__(self, word, order, rep, tensor):
        self.order = order
        self.ws = weight_system(rep, tensor)
        self.deg = [self.ws.identity(len(word.source))]
        self.deg += [dict() for _ in range(order)]

    def _chord(self, states, a, b, signs):
        return [self.ws.chord(s, a, b, (signs[a], signs[b])) for s in states]

    def crossing(self, p, s, signs):
        total = self._series(p, True, s, signs)
        self.deg = [self.ws.flip(layer, p) for layer in total]

    def associate(self, p, sign, signs):
        if _phi_terms(self.order, sign):
            self.deg = self._series(p, False, sign, signs)

    def _series(self, p, crossing, sign, signs):
        """The layers plus every word term of the move applied to them,
        each suffix of a word applied once and cached."""
        terms, tops = _word_series(self.order, crossing, sign)
        base = self.deg
        total = [dict(d) for d in base]
        cache = {}
        for deg, w, mults in terms:
            acc = base
            for l in range(deg - 1, -1, -1):
                suffix = w[l:]
                if suffix in cache:
                    acc = cache[suffix]
                    continue
                acc = self._letter(acc[:tops[suffix] + 1], w[l], p, signs)
                cache[suffix] = acc
                if not any(acc):
                    break
            if not any(acc):
                continue
            for m, layer in enumerate(acc):
                f = mults[m]
                tgt = total[m + deg]
                for key, v in layer.items():
                    add_term(tgt, key, v if f == 1 else v * f)
        return total

    def _letter(self, states, letter, p, signs):
        """Letter 1 is the chord on (p, p + 1); letter 0 sums the chords
        (a, p) over a < p."""
        pairs = [(a, p) for a in range(p)] if letter == 0 else [(p, p + 1)]
        out = self._chord(states, *pairs[0], signs)
        for a, b in pairs[1:]:
            for tgt, layer in zip(out, self._chord(states, a, b, signs)):
                for key, v in layer.items():
                    add_term(tgt, key, v)
        return out

    def cup(self, p, sign):
        self.deg = [self.ws.cup(layer, p, sign) for layer in self.deg]

    def cap(self, p, sign):
        self.deg = [self.ws.cap(layer, p, sign) for layer in self.deg]

    def finish(self):
        dens = _layer_dens(self.order)
        out = []
        for m, layer in enumerate(self.deg):
            unit = self.ws.ring.reciprocal(dens[m] * self.ws.chord_den ** m)
            out.append({key: v * unit for key, v in layer.items()})
        return out


def wz_eval(word, rep, tensor, order):
    """Fused weight-system evaluation of the integral, degree by degree.

    Closed words give an HSeries.  Words with one strand in and one out
    give a list of endomorphisms of V, one per degree.  Other boundaries
    give raw per-degree dicts keyed by (target indices, source indices).
    """
    check_order(order)
    word = _as_word(word)
    backend = _MatrixBackend(word, order, rep, tensor)
    deg = _walk(word, backend)
    ring = rep.ring
    if word.is_closed:
        sr = SeriesRing(ring, order)
        return HSeries(sr, [layer.get((), ring.zero) for layer in deg])
    nt = len(word.target)
    if (word.source, word.target) == ((1,), (1,)):
        out = []
        for layer in deg:
            entries = {(k[0], k[1]): v for k, v in layer.items()}
            out.append(SuperMap(rep.space, rep.space, entries, ring))
        return out
    return [{(k[:nt], k[nt:]): v for k, v in layer.items()} for layer in deg]


_HUMP_WORD = "obj: +\nslice: cup(+-) id(+)\nslice: id(+) cap(-+)"


@lru_cache(maxsize=None)
def hump_factor(order):
    """Integral of one maximum-minimum pair straightened on a strand.

    Plain bends make this series nontrivial from degree two on, and all
    four bend orientations give the same value.  A word picks up one
    copy, modulo four-term relations, for every maximum that a framed
    isotopy could cancel.  The value is the unreduced interval integral;
    paired_invariant reduces it modulo four-term relations before
    weighing it.
    """
    return z_eval(_HUMP_WORD, order)


@lru_cache(maxsize=None)
def _fourterm_span(degree):
    """Span over Q of the degree-m four-term relators on the interval."""
    span = LinearSpan(QQ)
    for relator in four_term_relators((INTERVAL,), degree):
        span.add(relator_vector(relator))
    return span


def reduce_fourterm(z):
    """The same element of the interval quotient by four-term relations.

    Each degree's terms are replaced by their residual modulo the
    relator span.  Pivots are the largest keys, so the residual lives on
    the smallest canonical keys, one basis of the quotient (isolated and
    parallel chords first, the cheapest diagrams to walk).  A weight
    that kills the relators takes the same value on both sides.
    """
    if z.skeleton != (INTERVAL,):
        raise ValueError("four-term reduction needs the interval skeleton")
    layers = {}
    for e, c in z.terms.items():
        layers.setdefault(len(e[1]), {})[e] = c
    terms = {}
    for m, layer in layers.items():
        terms.update(_fourterm_span(m).residual(layer))
    reps = {e: ChordDiagram(z.skeleton, e[1]) for e in terms}
    return ZValue(z.skeleton, terms, reps, z.order)


def _slit(z):
    """A knot's integral cut open at the basepoint: an interval value."""
    terms, reps = {}, {}
    for e, c in z.terms.items():
        d = slit_component(z.reps[e], 0)
        add_term(terms, d.encoding(), c)
        reps.setdefault(d.encoding(), d)
    return ZValue((INTERVAL,), terms, reps, z.order)


def paired_invariant(word, weight, ring, order):
    """Weight-paired integral of a knot word, hump-normalized.

    weight takes interval diagrams and must kill the interval four-term
    relators, as every weight system of an invariant tensor does.  The
    closed component is slit at the basepoint and the result, like the
    hump factor, is reduced modulo four-term relations before any weight
    call, so weight sees only quotient basis diagrams.  Dividing by the
    paired hump factor once per maximum beyond the first makes the
    result a framed invariant of the knot, independent of the sliced
    presentation.
    """
    check_order(order)
    word = _as_word(word)
    if not word.is_closed or word.components != (CIRCLE,):
        raise ValueError("paired invariants need a closed knot word")
    series = reduce_fourterm(_slit(z_eval(word, order))).pair(weight, ring)
    caps = sum(1 for sl in word.slices for tok in sl if tok[0] == "cap")
    if caps > 1:
        hump = reduce_fourterm(hump_factor(order)).pair(weight, ring)
        inv = series_inverse(hump)
        for _ in range(caps - 1):
            series = series * inv
    return series


def lg_invariant(word, order):
    """Links-Gould series of a knot word: wlg on the slit integral."""
    return paired_invariant(word, wlg, QALPHA, order)


def vassiliev_defect(word, rep, tensor, order):
    """Alternating sum of wz_eval over all resolutions of the double points.

    The word must be closed and every resolution must have even framings
    on all components.
    """
    check_order(order)
    word = _as_word(word)
    if not word.is_closed:
        raise ValueError("the defect needs a closed word")
    total = None
    for sign, res in resolve_singular(word):
        if any(f % 2 for f in res.framings):
            raise ValueError("resolution with odd framing %s"
                             % (res.framings,))
        value = wz_eval(res, rep, tensor, order)
        value = value if sign > 0 else -value
        total = value if total is None else total + value
    return total
