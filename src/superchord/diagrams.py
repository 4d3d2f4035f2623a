"""Chord diagrams on oriented 1-manifold skeletons.

A skeleton is an ordered tuple of components, each a circle or an interval.
A degree-m diagram places 2m endpoints on the skeleton (positions 0..k-1
along each component, cyclic on circles) and pairs them into m chords.
`canonical_form` minimizes the encoding over circle rotations and
permutations of same-kind components, so it can serve as a dictionary key.
The search runs on int chord codes, whose order is the order of the
chord tuples, and relabels only the anchors: the component orders and
rotations whose least chord is the least that any relabelling reaches.
It is memoised for the process on (skeleton, sorted chord codes), so a
positioned diagram is searched once however many calls meet it.
`diagram_classes` positions chord sets given by ordered ends, sums them
per positioned diagram and per class, and builds a ChordDiagram only
for each class's representative, with the key kept on it.

`four_term_relators` produces, on the same int codes, the signed 4-diagram
combinations that every weight system must kill, `cable_diagram` lifts a
diagram along the doubling of one component, and `LinearSpan` does exact
row reduction over Q or Q(alpha): the rank and membership questions
about relator spans, and every other exact linear solve in the package.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product

from .scalars import QQ, add_term

CIRCLE = "circle"
INTERVAL = "interval"

_KIND_CODE = {CIRCLE: 0, INTERVAL: 1}

# int codes of the canonical search: endpoint (c, p) is c * _PLACE + p
# and chord (a, b), a < b, is a * _END + b, so that int order is the order
# of the tuples; a placed end (diagram_classes) is c << 32 | place
_PLACE = 1 << 16
_END = _PLACE * _PLACE


def _endpoint(ep):
    """A chord endpoint (component, position) of two ints; a bool, float,
    string or other value raises ValueError instead of being coerced."""
    c, p = ep
    for v in (c, p):
        if isinstance(v, bool) or not isinstance(v, int):
            raise ValueError("chord endpoint must be an integer pair, got %r"
                             % (ep,))
    return c, p


def _kind_codes(skeleton):
    """The kinds' codes; an unknown kind raises ValueError."""
    for kind in skeleton:
        if kind not in _KIND_CODE:
            raise ValueError("unknown component kind %r" % (kind,))
    return tuple(map(_KIND_CODE.__getitem__, skeleton))


class ChordDiagram:
    """Chord pairing on an ordered skeleton of circles and intervals.

    Endpoints on component c sit at positions 0..k_c-1 read along the
    orientation; chords are unordered pairs of endpoints (c, p).
    """

    def __init__(self, skeleton, chords):
        self.skeleton = tuple(skeleton)
        _kind_codes(self.skeleton)
        seen = set()
        norm = []
        for chord in chords:
            a, b = sorted(_endpoint(ep) for ep in chord)
            if a == b:
                raise ValueError("chord with equal endpoints %r" % (a,))
            norm.append((a, b))
            for ep in (a, b):
                if ep in seen:
                    raise ValueError("endpoint %r used twice" % (ep,))
                if not 0 <= ep[0] < len(self.skeleton):
                    raise ValueError("endpoint %r off the skeleton" % (ep,))
                seen.add(ep)
        if max(len(self.skeleton), len(seen)) >= _PLACE:
            raise ValueError("at most %d components and endpoints"
                             % (_PLACE - 1))
        counts = [0] * len(self.skeleton)
        for (c, _) in seen:
            counts[c] += 1
        for c, k in enumerate(counts):
            pts = sorted(p for (cc, p) in seen if cc == c)
            if pts != list(range(k)):
                raise ValueError(
                    "positions on component %d must be exactly 0..%d"
                    % (c, k - 1))
        self.chords = tuple(sorted(norm))
        self.counts = tuple(counts)
        self._key = None  # canonical_form's, once searched

    @property
    def degree(self):
        return len(self.chords)

    def encoding(self):
        return (_kind_codes(self.skeleton), self.chords)

    def __eq__(self, other):
        return (isinstance(other, ChordDiagram)
                and self.encoding() == other.encoding())

    def __hash__(self):
        return hash(self.encoding())

    def __repr__(self):
        return "ChordDiagram(%r, %r)" % (self.skeleton, self.chords)


def _orders(skeleton, counts):
    """The component orders to search: each kind's components with
    chords, in every order, on that kind's lowest places, and its empty
    ones on the rest.  Moving a component down lowers the code of each
    of its chords, so the sorted tuple is no larger."""
    places = {}
    for c, kind in enumerate(skeleton):
        places.setdefault(kind, []).append(c)
    for choice in product(*[
            [(order + tuple(c for c in cs if not counts[c]), cs)
             for order in permutations([c for c in cs if counts[c]])]
            for cs in places.values()]):
        perm = {c: p for order, cs in choice for c, p in zip(order, cs)}
        yield [perm[c] for c in range(len(skeleton))]


@lru_cache(maxsize=None)
def _least_relabelling(skeleton, codes):
    """The least sorted tuple of chord codes over circle rotations and
    same-kind permutations: the canonical search.

    Only the relabellings of `_orders` are searched.  The least end of
    every relabelling is at place 0 of the first nonempty component, so
    the least chord is that end's chord.  It depends only on the
    component order and on the rotations of its one or two components;
    a partner on another circle is best at place 0, which fixes that
    circle's rotation too.  Tuples compare their least chords first, so
    only these anchors whose least chord is the least of all are
    relabelled and sorted, over every rotation of any further circle.
    """
    circle = [kind == CIRCLE for kind in skeleton]
    if not codes or (len(skeleton) < 2 and not any(circle)):
        return codes
    counts = [0] * len(skeleton)
    partner, ends = {}, []
    for x in codes:
        a, b = divmod(x, _END)
        partner[a], partner[b] = b, a
        ends.append(divmod(a, _PLACE) + divmod(b, _PLACE))
        counts[a // _PLACE] += 1
        counts[b // _PLACE] += 1
    least = None
    for perm in _orders(skeleton, counts):
        o = min((c for c in range(len(counts)) if counts[c]),
                key=perm.__getitem__)
        k = counts[o]
        for r in range(k) if circle[o] else (0,):
            # the end that rotation r puts at place 0, and its partner
            o2, q = divmod(partner[o * _PLACE + -r % k], _PLACE)
            r2 = None
            if o2 == o:
                q = (q + r) % k
            elif circle[o2]:
                r2, q = -q % counts[o2], 0
            first = perm[o] * _PLACE * _END + perm[o2] * _PLACE + q
            if least is None or first < least:
                least, anchors = first, []
            if first == least:
                anchors.append((perm, {o: r} if r2 is None
                                else {o: r, o2: r2}))
    best = None
    for perm, fixed in anchors:
        bases = [c * _PLACE for c in perm]
        for rots in product(*[(fixed[c],) if c in fixed
                              else range(k) if k and circle[c] else (0,)
                              for c, k in enumerate(counts)]):
            # place p of component c goes to place (p + rots[c]) % k of
            # component perm[c]
            new = []
            for c, p, c2, p2 in ends:
                a = bases[c] + (p + rots[c]) % counts[c]
                b = bases[c2] + (p2 + rots[c2]) % counts[c2]
                new.append(a * _END + b if a < b else b * _END + a)
            new.sort()
            new = tuple(new)
            if best is None or new < best:
                best = new
    return best


def _chords_of(codes):
    """The chords ((c, p), (c', p')) of chord codes."""
    return tuple((divmod(x // _END, _PLACE), divmod(x % _END, _PLACE))
                 for x in codes)


def canonical_form(diagram):
    """Minimal encoding over circle rotations and same-kind permutations.

    The search is memoised for the process, and the key is also kept on
    the diagram, so later calls on it skip even the memo lookup.
    """
    key = diagram._key
    if key is None:
        key = diagram.encoding()
        if diagram.skeleton != (INTERVAL,):
            codes = tuple((c * _PLACE + p) * _END + c2 * _PLACE + p2
                          for (c, p), (c2, p2) in diagram.chords)
            best = _least_relabelling(diagram.skeleton, codes)
            key = (key[0], _chords_of(best))
        diagram._key = key
    return key


def diagram_classes(skeleton, placed):
    """Sum placed chord sets per diagram class.

    placed yields (ends, coefficient) pairs: ends gives each chord's two
    ends in turn, each end one int, component << 32 | place, where places
    only order the ends along a component.  A chord set is positioned by
    sorting its ends, an end's position being its rank among the set's
    ends on its component, and the coefficients are summed per
    positioned diagram, each searched at most once per process.  Returns
    the nonzero sums and one representative per class whose sum is
    nonzero, both keyed by canonical encoding: the representative is the
    first positioned diagram met in its class, the only one built as a
    ChordDiagram, with its key kept on it.
    """
    raw = {}
    for ends, c in placed:
        pos = {}
        comp = -1
        for n, x in enumerate(sorted(ends)):
            if x >> 32 != comp:
                comp = x >> 32
                base = comp * _PLACE - n
            pos[x] = base + n
        it = iter(ends)
        codes = tuple(sorted([pos[x] * _END + pos[y] if x < y
                              else pos[y] * _END + pos[x]
                              for x, y in zip(it, it)]))
        # a sum that cancels stays: its diagram may still be the first
        # of its class, the class's representative
        raw[codes] = raw.get(codes, 0) + c
    agg, first = {}, {}
    for codes, c in raw.items():
        best = _least_relabelling(skeleton, codes)
        add_term(agg, best, c)
        first.setdefault(best, codes)
    kinds = _kind_codes(skeleton)
    terms, reps = {}, {}
    for best, c in agg.items():
        d = ChordDiagram(skeleton, _chords_of(first[best]))
        d._key = (kinds, _chords_of(best))
        terms[d._key] = c
        reps[d._key] = d
    return terms, reps


def _compositions(total, parts):
    """Tuples of parts nonnegative integers summing to total, in
    lexicographic order."""
    return (c for c in product(range(total + 1), repeat=parts)
            if sum(c) == total)


def _matchings(items):
    if not items:
        yield ()
        return
    first = items[0]
    for i in range(1, len(items)):
        rest = items[1:i] + items[i + 1:]
        for tail in _matchings(rest):
            yield ((first, items[i]),) + tail


def enumerate_diagrams(skeleton, degree):
    """One representative per equivalence class, all degree-m diagrams."""
    skeleton = tuple(skeleton)
    if degree == 0:
        return [ChordDiagram(skeleton, [])]
    out = []
    seen = set()
    for counts in _compositions(2 * degree, len(skeleton)):
        points = [(c, p) for c, k in enumerate(counts) for p in range(k)]
        for pairs in _matchings(points):
            d = ChordDiagram(skeleton, pairs)
            key = canonical_form(d)
            if key not in seen:
                seen.add(key)
                out.append(d)
    return out


def random_diagram(skeleton, degree, rng):
    """Uniformly random placement and pairing (not class-uniform)."""
    skeleton = tuple(skeleton)
    comps = [rng.randrange(len(skeleton)) for _ in range(2 * degree)]
    counts = [0] * len(skeleton)
    points = []
    for c in comps:
        points.append((c, counts[c]))
        counts[c] += 1
    rng.shuffle(points)
    pairs = [(points[2 * i], points[2 * i + 1]) for i in range(degree)]
    return ChordDiagram(skeleton, pairs)


def four_term_relators(skeleton, degree):
    """All degree-m four-term relators on the skeleton, deduplicated.

    A relator picks m-1 chords plus one extra fixed leg b, distinguishes a
    chord A among the m-1, and completes b to a chord by inserting its
    moving leg on the four arcs adjacent to A's endpoints:

        + (before a1) - (after a1) + (before a2) - (after a2).

    Sliding the moving leg past an endpoint of A changes the inserted word
    by a commutator; the two commutators cancel by ad-invariance of the
    chord tensor, so every weight system vanishes on each relator.

    Points and terms are int codes: the moving leg inserted at point x
    moves the ends from x to the end of its component up by one.  Each
    positioned term is searched once per process; only kept relators'
    terms are built, one ChordDiagram each, with its key kept on it.
    """
    m = degree
    if m < 2:
        return []
    skeleton = tuple(skeleton)
    kinds = _kind_codes(skeleton)
    relators = []
    seen = set()
    built = {}
    npts = 2 * m - 1
    for counts in _compositions(npts, len(skeleton)):
        points = [c * _PLACE + p for c, k in enumerate(counts)
                  for p in range(k)]
        for bi in range(npts):
            leg = points[bi]
            rest = points[:bi] + points[bi + 1:]
            for pairs in _matchings(rest):
                for a1, a2 in pairs:
                    terms = []
                    for x, sign in ((a1, 1), (a1 + 1, -1),
                                    (a2, 1), (a2 + 1, -1)):
                        top = (x // _PLACE + 1) * _PLACE
                        codes = [(a + (x <= a < top)) * _END
                                 + b + (x <= b < top) for a, b in pairs]
                        y = leg + (x <= leg < top)
                        codes.append(y * _END + x if y < x else x * _END + y)
                        codes.sort()
                        terms.append((sign, tuple(codes)))
                    key = tuple(sorted((s, _least_relabelling(skeleton, t))
                                       for s, t in terms))
                    if key in seen:
                        continue
                    seen.add(key)
                    for i, (s, t) in enumerate(terms):
                        if t not in built:
                            built[t] = ChordDiagram(skeleton, _chords_of(t))
                            built[t]._key = (kinds, _chords_of(
                                _least_relabelling(skeleton, t)))
                        terms[i] = (s, built[t])
                    relators.append(terms)
    return relators


def relator_vector(relator):
    """Signed sum of canonical forms, as a sparse Fraction vector."""
    out = {}
    for sign, d in relator:
        add_term(out, canonical_form(d), Fraction(sign))
    return out


def cable_diagram(diagram, comp, q=2):
    """All lifts of a diagram along the q-fold cabling of one component.

    Component comp is replaced by q parallel copies (indices comp to
    comp+q-1); every chord endpoint on it goes to one of the copies,
    keeping its order along the component.  Returns the q^k lifted
    diagrams; a weight system in the q-th tensor power sums to the same
    value over them.
    """
    if q < 1:
        raise ValueError("cabling needs at least one copy")
    k = diagram.counts[comp]
    kind = diagram.skeleton[comp]
    skeleton = (diagram.skeleton[:comp] + (kind,) * q
                + diagram.skeleton[comp + 1:])
    lifts = []
    for choice in product(range(q), repeat=k):
        newpos = {}
        counters = [0] * q
        for p in range(k):
            newpos[p] = (comp + choice[p], counters[choice[p]])
            counters[choice[p]] += 1

        def move(ep):
            c, p = ep
            if c == comp:
                return newpos[p]
            if c > comp:
                return (c + q - 1, p)
            return ep

        chords = [(move(a), move(b)) for (a, b) in diagram.chords]
        lifts.append(ChordDiagram(skeleton, chords))
    return lifts


def slit_component(diagram, comp, cut=0):
    """Cut a circle open into an interval, starting at position `cut`.

    The cut runs along the arc just before the endpoint at position cut,
    so old position p becomes (p - cut) mod k.
    """
    if diagram.skeleton[comp] != CIRCLE:
        raise ValueError("component %d is not a circle" % comp)
    k = diagram.counts[comp]

    def move(ep):
        c, p = ep
        if c == comp and k:
            return (c, (p - cut) % k)
        return ep

    skeleton = (diagram.skeleton[:comp] + (INTERVAL,)
                + diagram.skeleton[comp + 1:])
    chords = [(move(a), move(b)) for (a, b) in diagram.chords]
    return ChordDiagram(skeleton, chords)


def close_component(diagram, comp):
    """Glue the two ends of an interval into a circle."""
    if diagram.skeleton[comp] != INTERVAL:
        raise ValueError("component %d is not an interval" % comp)
    skeleton = (diagram.skeleton[:comp] + (CIRCLE,)
                + diagram.skeleton[comp + 1:])
    return ChordDiagram(skeleton, diagram.chords)


class LinearSpan:
    """Row space over `ring` (QQ or QALPHA), keyed by hashable totally
    ordered labels: the package's one exact linear solver."""

    def __init__(self, ring=QQ):
        self.ring = ring
        self._rows = {}

    @property
    def rank(self):
        return len(self._rows)

    def _residual(self, vec):
        # Eliminates pivot keys from the top down, so the result carries no
        # pivot key at all and is the unique normal form modulo the span.
        # That uniqueness makes the map linear, which callers rely on.
        coerce = self.ring.coerce
        vec = {k: coerce(v) for k, v in vec.items() if v}
        out = {}
        first = None
        while vec:
            pivot = max(vec)
            row = self._rows.get(pivot)
            if row is None:
                if first is None:
                    first = pivot
                out[pivot] = vec.pop(pivot)
                continue
            c = -vec[pivot]
            for k, v in row.items():
                add_term(vec, k, c * v)
        return out, first

    def add(self, vec):
        """Insert a vector; returns True if it enlarged the span."""
        red, pivot = self._residual(vec)
        if not red:
            return False
        c = red[pivot]
        self._rows[pivot] = {k: v / c for k, v in red.items()}
        return True

    def contains(self, vec):
        red, _ = self._residual(vec)
        return not red

    def residual(self, vec):
        """The part of vec not explained by the span, fully reduced."""
        red, _ = self._residual(vec)
        return red


def invert_matrix(entries, n, ring=QQ):
    """Inverse of the n x n matrix {(i, j): a_ij}, or None if singular.

    Row i is {(1, j): a_ij} + {(0, i): 1}; modulo their span, (1, j) is
    -sum_i inv_ji (0, i), or keeps a (1, .) key if the matrix is singular.
    """
    span = LinearSpan(ring)
    for i in range(n):
        row = {(1, j): entries.get((i, j), ring.zero) for j in range(n)}
        row[(0, i)] = ring.one
        span.add(row)
    rows = [span.residual({(1, j): ring.one}) for j in range(n)]
    if any(side for r in rows for side, _ in r):
        return None
    return {(j, i): -r[(0, i)] for j, r in enumerate(rows)
            for i in range(n) if (0, i) in r}
