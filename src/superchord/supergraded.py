"""Z/2-graded linear algebra over exact coefficient rings.

A :class:`SuperSpace` is a finite-dimensional graded vector space given by
the parity of each basis vector.  A :class:`SuperMap` is a sparse matrix
between two such spaces, tagged with the coefficient ring of its entries.

Tensor products are indexed row-major (first factor most significant).
The graded tensor of maps carries the Koszul sign

    (f (x) g)(v (x) w) = (-1)^{|g| |v|} f(v) (x) g(w),

so the second factor must be parity-homogeneous.  Evaluation and
coevaluation maps for the dual space follow the convention

    d(e^i (x) e_j) = delta_ij,          b(1) = sum_i e_i (x) e^i,
    d'(e_j (x) e^i) = (-1)^|i| delta_ij, b'(1) = sum_i (-1)^|i| e^i (x) e_i,

which makes both zigzag composites the identity.
"""

from __future__ import annotations

from .scalars import QQ, RingMismatchError, add_term


def rings_equal(a, b):
    return a is b or a.name == b.name


class SuperSpace:
    """Graded space given by a tuple of basis parities (0 even, 1 odd);
    any other parity raises ValueError."""

    __slots__ = ("parities", "labels")

    def __init__(self, parities, labels=None):
        ps = self.parities = tuple(parities)
        if not set(ps) <= {0, 1}:
            raise ValueError("a parity must be 0 or 1, got %r" % (ps,))
        if labels is None:
            labels = tuple("e%d" % i for i in range(len(ps)))
        self.labels = tuple(labels)
        if len(self.labels) != len(ps):
            raise ValueError("label count does not match dimension")

    @property
    def dim(self):
        return len(self.parities)

    def superdim(self):
        return sum(1 if p == 0 else -1 for p in self.parities)

    def tensor(self, other):
        ps = [(p + q) % 2 for p in self.parities for q in other.parities]
        ls = ["%s.%s" % (a, b) for a in self.labels for b in other.labels]
        return SuperSpace(ps, ls)

    def dual(self):
        return SuperSpace(self.parities, tuple(l + "*" for l in self.labels))

    def __eq__(self, other):
        return isinstance(other, SuperSpace) and self.parities == other.parities

    def __hash__(self):
        return hash(self.parities)

    def __repr__(self):
        return "SuperSpace(%s)" % (self.parities,)


UNIT = SuperSpace((0,), ("1",))


def tensor_space(spaces):
    if not spaces:
        return UNIT
    acc = spaces[0]
    for sp in spaces[1:]:
        acc = acc.tensor(sp)
    return acc


class SuperMap:
    """Sparse matrix (column convention: f(e_j) = sum_i M[i,j] e_i)."""

    __slots__ = ("source", "target", "ring", "m")

    def __init__(self, source, target, entries=None, ring=QQ):
        self.source = source
        self.target = target
        self.ring = ring
        m = {}
        if entries:
            for (i, j), v in entries.items():
                v = ring.coerce(v)
                if v:
                    m[(i, j)] = v
        self.m = m

    @staticmethod
    def identity(space, ring=QQ):
        return SuperMap(space, space,
                        {(i, i): ring.one for i in range(space.dim)}, ring)

    @staticmethod
    def zero(source, target, ring=QQ):
        return SuperMap(source, target, {}, ring)

    def entry(self, i, j):
        return self.m.get((i, j), self.ring.zero)

    def is_zero(self):
        return not self.m

    def _check_ring(self, other):
        if not rings_equal(self.ring, other.ring):
            raise RingMismatchError("map over %s combined with map over %s"
                                    % (self.ring.name, other.ring.name))

    def __add__(self, other):
        self._check_ring(other)
        if self.source != other.source or self.target != other.target:
            raise ValueError("adding maps with different shapes")
        m = dict(self.m)
        for k, v in other.m.items():
            add_term(m, k, v)
        out = SuperMap(self.source, self.target, None, self.ring)
        out.m = m
        return out

    def __neg__(self):
        out = SuperMap(self.source, self.target, None, self.ring)
        out.m = {k: -v for k, v in self.m.items()}
        return out

    def __sub__(self, other):
        return self + (-other)

    def scale(self, s):
        s = self.ring.coerce(s)
        out = SuperMap(self.source, self.target, None, self.ring)
        if s:
            out.m = {k: v * s for k, v in self.m.items()}
        return out

    def compose(self, other):
        """self after other."""
        self._check_ring(other)
        if other.target != self.source:
            raise ValueError("composing maps with mismatched middle space")
        cols = {}
        for (i, j), v in other.m.items():
            cols.setdefault(j, []).append((i, v))
        rows = {}
        for (i, j), v in self.m.items():
            rows.setdefault(j, []).append((i, v))
        m = {}
        for j, col in cols.items():
            for mid, v in col:
                row = rows.get(mid)
                if not row:
                    continue
                for i, w in row:
                    add_term(m, (i, j), w * v)
        out = SuperMap(other.source, self.target, None, self.ring)
        out.m = m
        return out

    def parity(self):
        """0 or 1 for homogeneous maps, None if entries mix parities."""
        ps, pt = self.source.parities, self.target.parities
        seen = None
        for (i, j) in self.m:
            p = (pt[i] + ps[j]) % 2
            if seen is None:
                seen = p
            elif seen != p:
                return None
        return 0 if seen is None else seen

    def tensor(self, other):
        """Graded Kronecker product; `other` must be homogeneous."""
        self._check_ring(other)
        g = other.parity()
        if g is None:
            raise ValueError("second tensor factor is not homogeneous")
        src = self.source.tensor(other.source)
        tgt = self.target.tensor(other.target)
        ds, dt = other.source.dim, other.target.dim
        ps = self.source.parities
        m = {}
        for (i, j), v in self.m.items():
            sign = -1 if (g and ps[j]) else 1
            base_v = v if sign == 1 else -v
            for (k, l), w in other.m.items():
                m[(i * dt + k, j * ds + l)] = base_v * w
        out = SuperMap(src, tgt, None, self.ring)
        out.m = m
        return out

    def supertrace(self):
        if self.source != self.target:
            raise ValueError("supertrace needs equal source and target")
        ps = self.source.parities
        acc = self.ring.zero
        for (i, j), v in self.m.items():
            if i == j:
                acc = acc + (-v if ps[i] else v)
        return acc

    def __eq__(self, other):
        if not isinstance(other, SuperMap):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and rings_equal(self.ring, other.ring) and self.m == other.m)

    def __repr__(self):
        return "SuperMap(%dx%d, %d entries, %s)" % (
            self.target.dim, self.source.dim, len(self.m), self.ring.name)


def koszul_flip(v, w, ring=QQ):
    """The symmetry V (x) W -> W (x) V, with sign (-1)^{|v||w|}."""
    dv, dw = v.dim, w.dim
    entries = {}
    for i, p in enumerate(v.parities):
        for j, q in enumerate(w.parities):
            s = -1 if (p and q) else 1
            entries[(j * dv + i, i * dw + j)] = s
    return SuperMap(v.tensor(w), w.tensor(v), entries, ring)


def pair_dual_left(v, ring=QQ):
    """d : V* (x) V -> k, e^i (x) e_j -> delta_ij."""
    d = v.dim
    return SuperMap(v.dual().tensor(v), UNIT,
                    {(0, i * d + i): ring.one for i in range(d)}, ring)


def copair_left(v, ring=QQ):
    """b : k -> V (x) V*, 1 -> sum e_i (x) e^i."""
    d = v.dim
    return SuperMap(UNIT, v.tensor(v.dual()),
                    {(i * d + i, 0): ring.one for i in range(d)}, ring)


def pair_dual_right(v, ring=QQ):
    """d' : V (x) V* -> k, e_j (x) e^i -> (-1)^|i| delta_ij."""
    d = v.dim
    entries = {}
    for i, p in enumerate(v.parities):
        entries[(0, i * d + i)] = -ring.one if p else ring.one
    return SuperMap(v.tensor(v.dual()), UNIT, entries, ring)


def copair_right(v, ring=QQ):
    """b' : k -> V* (x) V, 1 -> sum (-1)^|i| e^i (x) e_i."""
    d = v.dim
    entries = {}
    for i, p in enumerate(v.parities):
        entries[(i * d + i, 0)] = -ring.one if p else ring.one
    return SuperMap(UNIT, v.dual().tensor(v), entries, ring)
