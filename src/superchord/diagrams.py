"""Chord diagrams on oriented 1-manifold skeletons.

A skeleton is an ordered tuple of components, each a circle or an interval.
A degree-m diagram places 2m endpoints on the skeleton (positions 0..k-1
along each component, cyclic on circles) and pairs them into m chords.
`canonical_form` minimizes the encoding over circle rotations and
permutations of same-kind components, so it can serve as a dictionary key.

`four_term_relators` produces the signed 4-diagram combinations that every
weight system must kill, `cable_diagram` lifts a diagram along the doubling
of one component, and `LinearSpan` does exact row reduction over Q or
Q(alpha): the rank and membership questions about relator spans, and
every other exact linear solve in the package.
"""

from fractions import Fraction
from itertools import permutations, product

from .scalars import QQ, add_term

CIRCLE = "circle"
INTERVAL = "interval"

_KIND_CODE = {CIRCLE: 0, INTERVAL: 1}


def _endpoint(ep):
    """A chord endpoint (component, position) of two ints; a bool, float,
    string or other value raises ValueError instead of being coerced."""
    c, p = ep
    for v in (c, p):
        if isinstance(v, bool) or not isinstance(v, int):
            raise ValueError("chord endpoint must be an integer pair, got %r"
                             % (ep,))
    return c, p


class ChordDiagram:
    """Chord pairing on an ordered skeleton of circles and intervals.

    Endpoints on component c sit at positions 0..k_c-1 read along the
    orientation; chords are unordered pairs of endpoints (c, p).
    """

    def __init__(self, skeleton, chords):
        self.skeleton = tuple(skeleton)
        for kind in self.skeleton:
            if kind not in _KIND_CODE:
                raise ValueError("unknown component kind %r" % (kind,))
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

    @property
    def degree(self):
        return len(self.chords)

    def encoding(self):
        kinds = tuple(_KIND_CODE[k] for k in self.skeleton)
        return (kinds, self.chords)

    def __eq__(self, other):
        return (isinstance(other, ChordDiagram)
                and self.encoding() == other.encoding())

    def __hash__(self):
        return hash(self.encoding())

    def __repr__(self):
        return "ChordDiagram(%r, %r)" % (self.skeleton, self.chords)


def _kind_preserving_perms(skeleton):
    n = len(skeleton)
    for perm in permutations(range(n)):
        if all(skeleton[c] == skeleton[perm[c]] for c in range(n)):
            yield perm


def canonical_form(diagram):
    """Minimal encoding over circle rotations and same-kind permutations."""
    if diagram.skeleton == (INTERVAL,):
        return diagram.encoding()
    counts = diagram.counts
    rot_ranges = [range(max(1, k)) if kind == CIRCLE else range(1)
                  for kind, k in zip(diagram.skeleton, counts)]
    best = None
    for perm in _kind_preserving_perms(diagram.skeleton):
        for rots in product(*rot_ranges):
            # the chords with components permuted and circles rotated
            chords = []
            for (c1, p1), (c2, p2) in diagram.chords:
                a = (perm[c1], (p1 + rots[c1]) % counts[c1])
                b = (perm[c2], (p2 + rots[c2]) % counts[c2])
                chords.append((a, b) if a < b else (b, a))
            chords = tuple(sorted(chords))
            if best is None or chords < best:
                best = chords
    return (diagram.encoding()[0], best)


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


def _insert_point(chords, leg, comp, pos):
    """Shift positions >= pos on comp up by one, in chords and the free leg."""

    def bump(ep):
        c, p = ep
        if c == comp and p >= pos:
            return (c, p + 1)
        return ep

    shifted = [(bump(a), bump(b)) for (a, b) in chords]
    return shifted, bump(leg)


def four_term_relators(skeleton, degree):
    """All degree-m four-term relators on the skeleton, deduplicated.

    A relator picks m-1 chords plus one extra fixed leg b, distinguishes a
    chord A among the m-1, and completes b to a chord by inserting its
    moving leg on the four arcs adjacent to A's endpoints:

        + (before a1) - (after a1) + (before a2) - (after a2).

    Sliding the moving leg past an endpoint of A changes the inserted word
    by a commutator; the two commutators cancel by ad-invariance of the
    chord tensor, so every weight system vanishes on each relator.
    """
    m = degree
    if m < 2:
        return []
    skeleton = tuple(skeleton)
    relators = []
    seen = set()
    npts = 2 * m - 1
    for counts in _compositions(npts, len(skeleton)):
        points = [(c, p) for c, k in enumerate(counts) for p in range(k)]
        for bi in range(npts):
            leg = points[bi]
            rest = points[:bi] + points[bi + 1:]
            for pairs in _matchings(rest):
                for ai in range(len(pairs)):
                    a1, a2 = pairs[ai]
                    terms = []
                    for anchor, offset, sign in (
                            (a1, 0, 1), (a1, 1, -1), (a2, 0, 1), (a2, 1, -1)):
                        c, p = anchor
                        shifted, new_leg = _insert_point(
                            pairs, leg, c, p + offset)
                        d = ChordDiagram(
                            skeleton, list(shifted) + [(new_leg, (c, p + offset))])
                        terms.append((sign, d))
                    key = tuple(sorted(
                        (s, canonical_form(d)) for s, d in terms))
                    if key in seen:
                        continue
                    seen.add(key)
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
