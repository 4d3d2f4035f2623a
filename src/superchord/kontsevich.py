"""Combinatorial Kontsevich integral of sliced words, truncated by degree.

The evaluator keeps the boundary object left-nested.  Applying a
generator to strands p, p+1 first regroups them into one block with a
single associator move (none when p = 0), applies the generator, and
regroups back:

    crossing  flip after exp(s eps_p eps_{p+1} (h/2) chord(p, p+1))
    double    a marked crossing, X+ - X- (Bar-Natan's Z of a singular
    point     knot): flip after exp(t/2) - exp(-t/2), t the same signed
              chord, the odd terms only, with no degree-0 term
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
operations that evaluate single diagrams.  The diagram backend keys each
term by its positioned diagram on the current strand pieces, so equal
terms merge as they are made, and canonicalises each key once
(diagrams.diagram_classes): only the first of a class becomes a
ChordDiagram, the representative, and keeps its class key, so weighing
it searches no more.  Both apply the three move kinds as one step,
move(p, crossing, sign, signs), a word series from one int table
(_moves): associator.int_series, the table the associator's load
check verifies, gives the crossing's exponential, the powers of letter
1, the chord on its two strands, with coefficients (s/2)^k/k!, and Phi
and Phi^-1; the double point is the odd crossing terms, doubled.  Both
hold h degree m (m chords for diagrams) as ints over B^m, B of that
table, so a series term has one int multiplier whatever layer it
starts from, and build a Fraction only at the output.  Both truncate
as they go: the diagram backend never builds a term of more than order
chords, and the matrix backend applies each associator word in two
halves (_plan) and reads a move from its image, its operator on a few
strands in the representation (Le-Murakami identify it with the
quantum R-matrix and the associator there), once the walk meets its
signature a second time or an earlier walk on the same int system has
built it (_MatrixBackend.move).

Composites: paired_invariant reduces a knot's z_eval modulo the
four-term relations on the circle (reduce_fourterm), cuts each residual
basis class at place 0 and pairs it with a weight, so only a basis of
the quotient is ever weighed; lg_invariant does this with the
Links-Gould system.  A word with m double points gives the alternating
sum over its 2^m resolutions in one walk, and vassiliev_defect is its
wz_eval after a framing check.
"""

from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import prod

from .associator import build_associator, check_order, int_series
from .diagrams import (
    CIRCLE, ChordDiagram, LinearSpan, canonical_form, diagram_classes,
    four_term_relators, relator_vector, slit_component)
from .scalars import QALPHA, QQ, HSeries, SeriesRing, add_term, series_inverse
from .supergraded import SuperMap
from .weightsys import weight_system, wlg
from .words import PathTracer, parse_word


@lru_cache(maxsize=None)
def _moves(order):
    """The table that both chord engines read at one order: (B, moves,
    images).

    moves[crossing, sign] is (terms, plan): the int series of
    associator.int_series, which the associator's load check verifies,
    for a crossing of that sign, exp(sign chord / 2), or an associator
    move, Phi for sign 1 and Phi^-1 for -1; and a double point (True, 0),
    the crossings' difference, the odd crossing terms doubled.  A term
    (k, word, p B^k / q) takes any layer n, held over B^n, to layer n +
    k.  plan is the term's schedule in _MatrixBackend._series (_plan).

    images[view] maps a move signature to its image, {block code:
    columns}, for the int system view that walks the moves, so walks on
    one view share them (_MatrixBackend.move).  Clearing this cache drops
    them with the rest, as a swapped associator needs.
    """
    base, series = int_series(build_associator(max(2, order)), order)
    series[True, 0] = tuple((k, w, 2 * m) for k, w, m in series[True, 1]
                            if k % 2)
    return base, {key: (terms, _plan(order, key[0], terms))
                  for key, terms in series.items()}, {}


# the piece field of an end piece << 8 | rank, in either half of a chord
_PB = (1 << 32) - 256


def _plan(order, crossing, terms):
    """The schedule of a word series in _MatrixBackend._series.

    An associator word of degree k splits as u v, v its last k // 2
    letters; a crossing word, a power of one letter, keeps u empty.
    Returns (suffixes, terms, prefixes): suffixes (v, letter, rest, top),
    v = letter rest, shortest first, v applied on the source layers
    0..top, order minus the least degree of a word whose v ends in it;
    terms (u, v, k, multiplier); prefixes (q, letter, parent, low),
    q = parent letter, every nonempty prefix of a u, longest first, q
    applied on the target layers low..order, low the least degree of a
    word whose u starts with q.
    """
    splits, tops, lows = [], {}, {}
    for k, w, mult in terms:
        cut = 0 if crossing else k - k // 2
        u, v = w[:cut], w[cut:]
        splits.append((u, v, k, mult))
        for l in range(len(v)):
            tops[v[l:]] = max(tops.get(v[l:], -1), order - k)
        for l in range(1, cut + 1):
            lows[u[:l]] = min(lows.get(u[:l], order), k)
    return (tuple((v, v[0], v[1:], tops[v]) for v in sorted(tops, key=len)),
            tuple(splits),
            tuple((q, q[-1], q[:-1], lows[q])
                  for q in sorted(lows, key=len, reverse=True)))


def _walk(word, backend):
    """Drive a backend through the slices, keeping the sign word current:
    every crossing, double point and associator move is one
    backend.move(p, crossing, sign, signs)."""
    signs = list(word.source)
    for sl in word.slices:
        p = 0
        for tok in sl:
            kind = tok[0]
            if kind == "id":
                p += 1
            elif kind == "x":
                if p:
                    backend.move(p, False, 1, signs)
                backend.move(p, True, 0 if tok[2] else tok[1], signs)
                signs[p], signs[p + 1] = signs[p + 1], signs[p]
                if p:
                    backend.move(p, False, -1, signs)
                p += 2
            elif kind == "cup":
                backend.cup(p, tok[1])
                signs[p:p] = [tok[1], -tok[1]]
                if p:
                    backend.move(p, False, -1, signs)
                p += 2
            else:
                if p:
                    backend.move(p, False, 1, signs)
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
    """States are positioned chord diagrams on the strand pieces, with
    int coefficients over B^m for m chords (_moves).  A piece is a
    source strand or a cup, the PathTracer serial of an open end.  An end
    is piece << 8 | rank, rank its place among the key's own ends on that
    piece; a chord is lo << 32 | hi and a key the sorted tuple of its
    chords.  A term adds ends at piece extremes only: on a head after the
    key's ends there, layers ascending, on a tail before them, layers
    descending; a cap touches no key.  So equal keys stay equal and are
    summed as they are made, keeping a sum that cancels as
    diagram_classes does: each positioned diagram appears where a walk
    keyed by each event's own tokens first meets it.  finish places each
    piece by a marker token and hands each end to diagram_classes as
    component << 32 | piece place << 8 | rank.
    """

    def __init__(self, word, order):
        self.order = order
        self.tracer = PathTracer(word.source)
        for p in range(len(word.source)):
            self.tracer.stamp(p, self.tracer.end_serial(p))
        self.terms = {(): 1}

    def move(self, p, crossing, sign, signs):
        """Apply a crossing, a double point or an associator move at p:
        add each key times every non-unit term of the move's series on
        strands p, p + 1 (a crossing) or 0..p + 1 (an associator move) to
        the next state.  For an associator move that state starts as a
        copy of this one; for a crossing each key's copy goes right before
        its terms, and a double point has none.  A crossing then crosses
        the traced strands."""
        terms = _moves(self.order)[1][crossing, sign][0]
        heads, tails, series = self._expand(terms, p if crossing else 0, p,
                                            signs)
        room = self.order - terms[0][0] if terms else -1
        new = {} if crossing else dict(self.terms)
        for key, c in self.terms.items():
            if crossing and sign:
                new[key] = new.get(key, 0) + c
            n = len(key)
            if n > room:
                continue
            pieces = [x & _PB for ch in key for x in (ch >> 32, ch)]
            low = [*map(pieces.count, heads), 0]
            counted = any(low)
            moved = not tails.isdisjoint(pieces)
            for deg, mult, choices in series:
                if n + deg > self.order:
                    break
                base = c * mult
                for shift, chords, bases, sg in choices:
                    k = key
                    if moved and shift:
                        k = tuple([ch + (shift.get(ch >> 32 & _PB, 0) << 32)
                                   + shift.get(ch & _PB, 0) for ch in key])
                    k = tuple(sorted(k + (tuple(
                        [b + (low[u] << 32) + low[v] for b, u, v in chords])
                        if counted else bases)))
                    new[k] = new.get(k, 0) + (base if sg > 0 else -base)
        self.terms = new
        if crossing:
            self.tracer.cross(p)

    def _expand(self, terms, lo, p, signs):
        """The head pieces, the tail pieces and each series term (degree,
        multiplier, choices) of a move on strands lo..p + 1.  A choice
        picks (a, p), lo <= a < p, for each letter 0 of a word w and (p, p
        + 1) for each letter 1, letter l at layer len(w) - 1 - l.  It is
        (shift, chords, bases, sign): shift maps a tail piece to its new
        ends, by which the key's ranks there rise; a chord is (base, slot
        of lo, slot of hi), a key adding its ends on each slot's piece to
        the base, and bases are the bases alone."""
        step = signs[lo:p + 2]
        pb, heads, tails, slot = [], [], [], []
        for i, d in enumerate(step):
            pb.append(self.tracer.end_serial(lo + i) << 8)
            slot.append(len(heads) if d > 0 else -1)
            (heads if d > 0 else tails).append(i)
        v = p - lo
        pairs = ([(a, v, step[a] * step[v]) for a in range(v)],
                 [(v, v + 1, step[v] * step[v + 1])])
        out = []
        for deg, w, mult in terms:
            choices = []
            for picks in product(*map(pairs.__getitem__, w)):
                shift, run = {}, [0] * len(pb)
                if tails:
                    # tails count down from totals, heads up from new tail ends
                    run = [-1] * len(pb)
                    for a, b, _ in picks:
                        run[a] += 1
                        run[b] += 1
                    shift = {pb[i]: run[i] + 1 for i in tails if run[i] >= 0}
                    run = [shift.get(b, 0) if d > 0 else r
                           for b, d, r in zip(pb, step, run)]
                chords, bases, sign = [], [], 1
                for a, b, sg in reversed(picks):
                    x, y = pb[a] + run[a], pb[b] + run[b]
                    run[a] += step[a]
                    run[b] += step[b]
                    sign *= sg
                    chords.append((x << 32 | y, slot[a], slot[b]) if x < y
                                  else (y << 32 | x, slot[b], slot[a]))
                    bases.append(chords[-1][0])
                choices.append((shift, chords, tuple(bases), sign))
            out.append((deg, mult, choices))
        return [pb[i] for i in heads], {pb[i] for i in tails}, out

    def cup(self, p, sign):
        self.tracer.cup(p, sign)
        self.tracer.stamp(p, self.tracer.end_serial(p))

    def cap(self, p, sign):
        self.tracer.cap(p)

    def finish(self):
        out = self.tracer.finish()
        # each piece << 8 as its component << 32 | its place there << 8
        at = {s << 8: c << 32 | i << 8 for s, (c, i) in out.token_pos.items()}
        terms, reps = diagram_classes(out.kinds, (
            ([at[x & _PB] | x & 255 for k in key for x in (k >> 32, k)], c)
            for key, c in self.terms.items()))
        base = _moves(self.order)[0]
        return out.kinds, {e: Fraction(c, base ** len(e[1]))
                           for e, c in terms.items()}, reps


def z_eval(word, order):
    """Kontsevich integral of a word through the given chord degree; a
    marked crossing counts as X+ - X-."""
    check_order(order)
    word = parse_word(word)
    skeleton, terms, reps = _walk(word, _DiagramBackend(word, order))
    return ZValue(skeleton, terms, reps, order)


class _MatrixBackend:
    """States are one WeightSystem state per h degree, walked slice by slice.

    Every slice maps the WeightSystem operations (cup, chord, cap, flip)
    over the degree layers; a strand's role is its sign, so an upward
    strand acts through the dual.  The frozen source indices make open
    words come out as one map per degree.  A layer is keyed by the
    WeightSystem's int-coded keys; wz_eval decodes them to index tuples
    only for open words.  Letter 0 adds its chords (a, p) into one
    state per layer.  Layer m holds ints over (B chord_den)^m, B of
    _moves, on the int system `WeightSystem.walker` gives for the bound
    of _NormBackend (over Q(alpha) only; at(0) over Q), and finish
    decodes each value once with it.

    Every move is a word series applied by _series: a crossing is
    exp(s chord / 2), the powers of letter 1, followed by a flip, and a
    double point the same with no unit term, so it starts from empty
    layers.  Letters do not depend on the layer, so each word u v goes
    in two halves (_plan): each suffix v once, then each prefix u on the
    sum of its terms' multiples of v(S) by target layer, each letter
    adding into its parent's state; empty layers are skipped.  A move
    whose signature comes back in a walk, or whose image an earlier walk
    built, is read from its image instead (move); met holds the
    signatures this walk has met.
    """

    def __init__(self, word, order, rep, tensor):
        self.order = order
        system = weight_system(rep, tensor)
        self.ws = system.walker(max(_walk(word, _NormBackend(order, system)))
                                if rep.ring is QALPHA else 0)
        self.met = set()
        self.deg = [self.ws.identity(len(word.source))]
        self.deg += [dict() for _ in range(order)]

    def move(self, p, crossing, sign, signs):
        """Apply a crossing, a double point or an associator move at p to
        every layer.

        The move acts on the block of fields p, p + 1 (a crossing) or 0..p
        + 1 (an associator move) and on no other field, whatever the
        layer, so it has an image: for each block code s and degree k >=
        1, the columns of its series applied to s, a flat tuple of (target
        - s, coefficient over B^k) pairs.  Its signature is (crossing,
        sign, roles of the block), for this int system.  A move is read
        from its image when this walk has met its signature before or an
        earlier walk on the same int system built the image; otherwise it
        walks its series directly.  The block codes of the layers that the
        image lacks are built in one walk (_columns); then a key v at
        layer n adds v c into layer n + k, for each column entry c of
        degree k <= order - n, to the flip or the copy of the layers, or
        to empty layers for a double point, signature (True, 0, roles).
        """
        _, moves, table = _moves(self.order)
        plan = moves[crossing, sign][1]
        roles = tuple(signs[p:p + 2] if crossing else signs[:p + 2])
        images = table.setdefault(self.ws, {})
        sig = crossing, sign, roles
        image = images.get(sig)
        if image is None:
            if sig not in self.met:
                self.met.add(sig)
                total = self._series(self.deg, p, signs, plan, sign != 0)
                self.deg = ([self.ws.flip(layer, p) for layer in total]
                            if crossing else total)
                return
            image = images[sig] = {}
        shift = self.ws.bits * p if crossing else 0
        block = (1 << self.ws.bits * len(roles)) - 1
        missing = {key >> shift & block for layer in self.deg
                   for key in layer}.difference(image)
        if missing:
            self._columns(image, missing, crossing, roles, plan)
        out = [self.ws.flip(layer, p) if crossing else dict(layer)
               for layer in self.deg] if sign else [{} for _ in self.deg]
        for n, layer in enumerate(self.deg):
            outs = out[n + 1:]
            for key, v in layer.items():
                for col, tgt in zip(image[key >> shift & block], outs):
                    if col:
                        entries = iter(col)
                        for d, c in zip(entries, entries):
                            add_term(tgt, key + (d << shift), v * c)
        self.deg = out

    def _columns(self, image, codes, crossing, roles, plan):
        """Add the columns of each block code to image, in one walk of the
        series on {s | s << width: 1}: the copy of s above the block keeps
        the sources apart, and degree k comes out over B^k.  A crossing is
        built at p = 0 and followed by its flip.  The columns are those of
        degrees 1..order: the degree-0 term is the flip or the identity,
        which move applies to whole layers."""
        width = self.ws.bits * len(roles)
        seed = {s | s << width: 1 for s in codes}
        total = self._series([seed] + [{} for _ in range(self.order)],
                             len(roles) - 2, roles, plan)
        field = (1 << width) - 1
        cols = {s: [[] for _ in range(self.order)] for s in codes}
        for k, layer in enumerate(total[1:]):
            if crossing:
                layer = self.ws.flip(layer, 0)
            for key, c in layer.items():
                s = key >> width
                cols[s][k] += (key & field) - s, c
        for s, col in cols.items():
            image[s] = tuple(map(tuple, col))

    def _series(self, deg, p, signs, plan, unit=True):
        """The layers deg, if unit, plus every word term of a move's plan
        applied to them: G(q) = C_q + sum over letters y of y(G(q y)) over
        the prefix trie, C_u the sum of the terms u v of their multiples
        of v(S), layer n of v(S) into layer n + k."""
        suffixes, terms, prefixes = plan
        total = [dict(d) if unit else {} for d in deg]
        states = {(): deg}
        for v, letter, rest, top in suffixes:
            states[v] = self._letter(states[rest][:top + 1], letter, p,
                                     signs)
        acc = defaultdict(lambda: [{} for _ in total])
        acc[()] = total
        for u, v, k, mult in terms:
            for layer, out in zip(states[v], acc[u][k:]):
                for key, val in layer.items():
                    add_term(out, key, val * mult)
        for q, letter, parent, low in prefixes:
            self._letter(acc[q][low:], letter, p, signs,
                         out=acc[parent][low:])
        return total

    def _letter(self, states, letter, p, signs, out=None):
        """Letter 1 is the chord on (p, p + 1); letter 0 sums the chords
        (a, p) over a < p.  Empty states are skipped; the terms are added
        into out when it is given."""
        pairs = [(a, p) for a in range(p)] if letter == 0 else [(p, p + 1)]
        if out is None:
            out = [{} for _ in states]
        for a, b in pairs:
            roles = (signs[a], signs[b])
            for state, tgt in zip(states, out):
                if state:
                    self.ws.chord(state, a, b, roles, out=tgt)
        return out

    def cup(self, p, sign):
        self.deg = [self.ws.cup(layer, p, sign) for layer in self.deg]

    def cap(self, p, sign):
        self.deg = [self.ws.cap(layer, p, sign) for layer in self.deg]

    def finish(self):
        base = _moves(self.order)[0] * self.ws.chord_den
        value = self.ws.value
        return [{key: value(v, base ** m)
                 for key, v in layer.items()}
                for m, layer in enumerate(self.deg)]


class _NormBackend:
    """One int per h-degree layer, a bound on the largest |value|_1 of
    _MatrixBackend's layer over Z[alpha] by the factors of
    WeightSystem.bound: a series term of degree k and multiplier f adds
    |f| times its letters' norms times layer n into layer n + k.  No
    term cancels, so the sum bounds _series by the triangle inequality,
    where _MatrixBackend's signed multipliers and add_term would not.
    """

    def __init__(self, order, ws):
        self.order, self.ws = order, ws
        self.deg = [1] + [0] * order

    def move(self, p, crossing, sign, signs):
        norm = self.ws.norm
        letters = (sum(norm[signs[a], signs[p]] for a in range(p)),
                   norm[signs[p], signs[p + 1]])
        # the unit term, which a double point (sign 0) lacks
        total = list(self.deg) if sign else [0] * len(self.deg)
        for k, w, mult in _moves(self.order)[1][crossing, sign][0]:
            f = abs(mult) * prod(letters[x] for x in w)
            for n in range(self.order - k + 1):
                total[n + k] += f * self.deg[n]
        self.deg = total

    def cup(self, p, sign):
        pass

    def cap(self, p, sign):
        self.deg = [self.ws.dim * b for b in self.deg]

    def finish(self):
        return self.deg


def wz_eval(word, rep, tensor, order):
    """Fused weight-system evaluation of the integral, degree by degree.

    Closed words give an HSeries.  Words with one strand in and one out
    give a list of endomorphisms of V, one per degree.  Other boundaries
    give raw per-degree dicts keyed by (target indices, source indices).
    A marked crossing counts as X+ - X-, as in z_eval.
    """
    check_order(order)
    word = parse_word(word)
    backend = _MatrixBackend(word, order, rep, tensor)
    deg = _walk(word, backend)
    ring = rep.ring
    if word.is_closed:
        sr = SeriesRing(ring, order)
        return HSeries(sr, [layer.get(0, ring.zero) for layer in deg])
    decode = backend.ws.decode
    if (word.source, word.target) == ((1,), (1,)):
        return [SuperMap(rep.space, rep.space,
                         {decode(k, 2): v for k, v in layer.items()}, ring)
                for layer in deg]
    nt = len(word.target)
    width = nt + len(word.source)

    def split(key):
        d = decode(key, width)
        return d[:nt], d[nt:]

    return [{split(k): v for k, v in layer.items()} for layer in deg]


_HUMP_WORD = "obj: +\nslice: cup(+-) id(+)\nslice: id(+) cap(-+)"


@lru_cache(maxsize=None)
def hump_factor(order):
    """Integral of one maximum-minimum pair straightened on a strand.

    Plain bends make this series nontrivial from degree two on, and all
    four bend orientations give the same value.  A word picks up one
    copy, modulo four-term relations, for every maximum that a framed
    isotopy could cancel.  The value is the unreduced interval integral,
    and paired_invariant weighs it as it is: it has few classes (3, 17
    and 17 at orders 3, 4 and 5), and a weight system memoises each.
    """
    return z_eval(_HUMP_WORD, order)


@lru_cache(maxsize=None)
def hump_inverse(weight, ring, order):
    """The inverse of the hump factor paired with weight over ring,
    built once per (weight, ring, order): paired_invariant divides every
    knot by it."""
    return series_inverse(hump_factor(order).pair(weight, ring))


@lru_cache(maxsize=None)
def _fourterm_span(degree):
    """Span over Q of the degree-m four-term relators on one circle.

    The relators depend on the degree alone and on no associator, so
    the span is built once per degree for the whole process.
    """
    span = LinearSpan(QQ)
    for relator in four_term_relators((CIRCLE,), degree):
        span.add(relator_vector(relator))
    return span


def reduce_fourterm(z):
    """The same element of the circle quotient by four-term relations.

    z is a knot's integral, on one circle, as z_eval returns it.  Each
    degree's terms are replaced by their residual modulo the relator
    span.  Pivots are the largest keys, so the residual lives on the
    smallest canonical keys, one basis of the quotient (isolated and
    parallel chords first, the cheapest diagrams to walk).  A weight
    that kills the relators takes the same value on both sides.
    """
    if z.skeleton != (CIRCLE,):
        raise ValueError("four-term reduction needs a knot: one circle")
    layers = {}
    for e, c in z.terms.items():
        layers.setdefault(len(e[1]), {})[e] = c
    terms = {}
    for m, layer in layers.items():
        terms.update(_fourterm_span(m).residual(layer))
    reps = {e: ChordDiagram(z.skeleton, e[1]) for e in terms}
    return ZValue(z.skeleton, terms, reps, z.order)


def paired_invariant(word, weight, ring, order):
    """Weight-paired integral of a knot word, hump-normalized.

    weight takes interval diagrams and must kill the interval four-term
    relators, as every weight system of an invariant tensor does: the
    identity [t12, t13 + t23] = 0 of the two-site Casimir actions on V^{r1}
    x V^{r2} x V^{r3}, V or V* on each factor, gives every four-term
    relator of every degree (Bar-Natan, Topology 34, 1995, Thm 6;
    Vaintrob, MRL 1, 1994, for superalgebras), and `verify fourterm`
    checks it on all eight role patterns (verify.fourterm_failures).
    Closing an interval is an isomorphism modulo four-term relations,
    A^fr(interval) = A^fr(circle) (Bar-Natan, same paper), so cutting a
    circle diagram anywhere gives one interval class modulo the
    relators, and weight after the cut kills the circle relators.  The
    integral is therefore reduced on the circle, where z_eval returns
    it, and only its quotient basis classes are cut at place 0 and
    weighed.  Dividing by the paired hump factor once per maximum beyond
    the first makes the result a framed invariant of the knot,
    independent of the sliced presentation; its inverse is built once
    per (weight, ring, order) by `hump_inverse` and read by every knot.
    """
    check_order(order)
    word = parse_word(word)
    if not word.is_closed or word.components != (CIRCLE,):
        raise ValueError("paired invariants need a closed knot word")
    series = reduce_fourterm(z_eval(word, order)).pair(
        lambda d: weight(slit_component(d, 0)), ring)
    caps = sum(1 for sl in word.slices for tok in sl if tok[0] == "cap")
    if caps > 1:
        inv = hump_inverse(weight, ring, order)
        for _ in range(caps - 1):
            series = series * inv
    return series


def lg_invariant(word, order):
    """Links-Gould series of a knot word: paired_invariant with wlg."""
    return paired_invariant(word, wlg, QALPHA, order)


def vassiliev_defect(word, rep, tensor, order):
    """Alternating sum of wz_eval over all resolutions of the double
    points, in one wz_eval walk that reads each as X+ - X-.

    The word must be closed and every resolution must have even framings
    on all components.  A flipped crossing changes a framing by 0 or 2,
    so it suffices to check the word's own, which count each mark as X+.
    """
    check_order(order)
    word = parse_word(word)
    if not word.is_closed:
        raise ValueError("the defect needs a closed word")
    if any(f % 2 for f in word.framings):
        raise ValueError("resolution with odd framing %s" % (word.framings,))
    return wz_eval(word, rep, tensor, order)
