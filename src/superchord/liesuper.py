"""Lie superalgebras of gl(m|n) type and their finite dimensional modules.

A `LieSuperAlgebra` stores a homogeneous basis, parities, and sparse
structure constants.  For gl(m|n) the basis is the matrix units E_ab with
parity |a|+|b| and bracket

    [E_ab, E_cd] = d_bc E_ad - (-1)^{(|a|+|b|)(|c|+|d|)} d_da E_cb.

Invariant 2-tensors (Casimir elements of g x g) are kept in basis
coordinates by `InvariantTensor`; `casimir_tensor` produces t_gl, the
tensor dual to the supertrace form on gl(m|n), by inverting the Gram
matrix of the form.  Every other tensor is t_gl plus a multiple of the
central I x I, added by `extend_identity`: t_sl, and the Links-Gould
tensor a (I x I) + t_sl.  Representations carry one matrix per basis
element; odd basis elements act by parity-reversing maps, and
`standard_rep` checks the bracket axiom exactly.  `rep_combine` is the
graded tensor product; no dual module is built, because the chord tables
of `weightsys` read V* as signed partial transposes of V.  `build_gl`,
`standard_rep`, `invariant_form` and `casimir_tensor` are memoised, so
each object is built and checked once per process and shared by every
caller, which must not mutate it.
"""

from fractions import Fraction
from functools import lru_cache

from .diagrams import invert_matrix
from .scalars import QALPHA, QQ, AlphaScalar, add_term, alpha
from .supergraded import SuperMap, SuperSpace, rings_equal


class LieSuperAlgebra:
    """Finite dimensional Lie superalgebra with sparse structure constants."""

    def __init__(self, name, labels, parities, table):
        self.name = name
        self.labels = tuple(labels)
        self.parities = tuple(p % 2 for p in parities)
        self.table = table
        self.index = {lab: i for i, lab in enumerate(self.labels)}
        if len(self.labels) != len(self.parities):
            raise ValueError("label/parity length mismatch")

    @property
    def dim(self):
        return len(self.labels)

    def bracket(self, i, j):
        """Coordinates of [e_i, e_j] as a sparse dict."""
        return self.table.get((i, j), {})

    def jacobi_residual(self, i, j, k):
        """[e_i,[e_j,e_k]] - [[e_i,e_j],e_k] - (-1)^{|i||j|}[e_j,[e_i,e_k]]."""
        out = {}
        s = (-1) ** (self.parities[i] * self.parities[j])
        for l, c in self.bracket(j, k).items():
            for m, d in self.bracket(i, l).items():
                add_term(out, m, c * d)
        for l, c in self.bracket(i, j).items():
            for m, d in self.bracket(l, k).items():
                add_term(out, m, -c * d)
        for l, c in self.bracket(i, k).items():
            for m, d in self.bracket(j, l).items():
                add_term(out, m, -s * c * d)
        return out

    def identity_coords(self):
        """Coordinates of the identity matrix, for gl-type algebras."""
        out = {}
        for i, lab in enumerate(self.labels):
            if isinstance(lab, tuple) and lab[0] == lab[1]:
                out[i] = Fraction(1)
        return out

    def __repr__(self):
        return "LieSuperAlgebra(%s, dim=%d)" % (self.name, self.dim)


@lru_cache(maxsize=None)
def build_gl(m, n):
    """gl(m|n) on matrix units, 1-based row/column labels."""
    if m <= 0 or n <= 0:
        raise ValueError("gl(m|n) needs positive m and n")
    d = m + n

    def par(a):
        return 0 if a <= m else 1

    labels = [(a, b) for a in range(1, d + 1) for b in range(1, d + 1)]
    parities = [(par(a) + par(b)) % 2 for (a, b) in labels]
    index = {lab: i for i, lab in enumerate(labels)}
    table = {}
    for i, (a, b) in enumerate(labels):
        for j, (c, e) in enumerate(labels):
            out = {}
            if b == c:
                add_term(out, index[(a, e)], Fraction(1))
            if e == a:
                sgn = (-1) ** (parities[i] * parities[j])
                add_term(out, index[(c, b)], Fraction(-sgn))
            if out:
                table[(i, j)] = out
    alg = LieSuperAlgebra("gl(%d|%d)" % (m, n), labels, parities, table)
    alg.m = m
    alg.n = n
    return alg


@lru_cache(maxsize=None)
def invariant_form(alg):
    """Supertrace form B(x, y) = str(rho(x) rho(y)) in the defining rep."""
    rho = standard_rep(alg, "defining")
    form = {}
    for i in range(alg.dim):
        for j in range(alg.dim):
            v = rho.act(i).compose(rho.act(j)).supertrace()
            if v:
                form[(i, j)] = v
    return form


def _invert_form(alg, form):
    """Inverse Gram matrix of the form, solved exactly by `invert_matrix`."""
    inv = invert_matrix(form, alg.dim)
    if inv is None:
        raise ValueError("invariant form is degenerate")
    return inv


class InvariantTensor:
    """Element of g x g in basis coordinates, usually ad-invariant."""

    def __init__(self, algebra, terms, ring=QQ):
        self.algebra = algebra
        self.ring = ring
        self.terms = {}
        for key, c in terms.items():
            c = ring.coerce(c)
            if c:
                self.terms[key] = c

    def as_pair_terms(self):
        """List of (coefficient, i, j) with t = sum c e_i x e_j."""
        return [(c, i, j) for (i, j), c in sorted(self.terms.items())]

    def flip(self):
        """Koszul flip: e_i x e_j -> (-1)^{|i||j|} e_j x e_i."""
        par = self.algebra.parities
        out = {}
        for (i, j), c in self.terms.items():
            s = (-1) ** (par[i] * par[j])
            out[(j, i)] = c if s > 0 else -c
        return InvariantTensor(self.algebra, out, self.ring)

    def ad_residual(self, k):
        """Coordinates of ad_{e_k}(t); identically zero iff t is invariant.

        ad acts on g x g by [x, u] x v + (-1)^{|x||u|} u x [x, v].
        """
        alg = self.algebra
        par = alg.parities
        out = {}
        for (i, j), c in self.terms.items():
            for l, s in alg.bracket(k, i).items():
                add_term(out, (l, j), c * self.ring.coerce(s))
            sign = (-1) ** (par[k] * par[i])
            for l, s in alg.bracket(k, j).items():
                add_term(out, (i, l), c * self.ring.coerce(sign * s))
        return out

    def is_invariant(self):
        return all(not self.ad_residual(k) for k in range(self.algebra.dim))

    def is_supersymmetric(self):
        return self.flip().terms == self.terms

    def __repr__(self):
        return "InvariantTensor(%s, %d terms)" % (
            self.algebra.name, len(self.terms))


@lru_cache(maxsize=None)
def casimir_tensor(alg, which):
    """Tensor dual to the supertrace form B: t = sum (B^{-1})^{ij} e_i x e_j.

    which = "gl" inverts the full form.  which = "sl" is the tensor dual
    to B restricted to the supertraceless subalgebra I-perp: one shift
    t_sl = t_gl - (1 / B(I, I)) I x I, with B(I, I) = str(I) = m - n read
    from the form, so it is undefined for gl(m|m).  which has no default,
    so that each tensor has one memo key.
    """
    form = invariant_form(alg)
    inv = _invert_form(alg, form)
    t_gl = InvariantTensor(alg, inv, QQ)
    if which == "gl":
        return t_gl
    if which != "sl":
        raise ValueError("which must be 'gl' or 'sl'")
    ident = alg.identity_coords()
    b_ii = sum(ci * cj * form.get((i, j), 0)
               for i, ci in ident.items() for j, cj in ident.items())
    if not b_ii:
        raise ValueError(
            "the sl Casimir tensor divides by the superdimension m - n "
            "and is undefined for gl(m|m)")
    return extend_identity(t_gl, -1 / b_ii)


def extend_identity(t, a):
    """s = a (I x I) + t for a scalar a.  s lies over t's ring when a is
    rational and over Q(alpha) when a is an alpha scalar."""
    ring = QALPHA if isinstance(a, AlphaScalar) else t.ring
    terms = {k: ring.coerce(c) for k, c in t.terms.items()}
    ident = t.algebra.identity_coords()
    for i, ci in ident.items():
        for j, cj in ident.items():
            add_term(terms, (i, j), a * ring.coerce(ci * cj))
    return InvariantTensor(t.algebra, terms, ring)


class Representation:
    """Matrices for each basis element, acting on a super vector space."""

    def __init__(self, algebra, space, mats, ring, name=""):
        self.algebra = algebra
        self.space = space
        self.ring = ring
        self.mats = mats
        self.name = name or "rep"
        self._check_parities()

    def _check_parities(self):
        for i, mat in self.mats.items():
            if mat.is_zero():
                continue
            p = mat.parity()
            if p is None:
                raise ValueError(
                    "action of %r is not parity homogeneous" % (
                        self.algebra.labels[i],))
            if p != self.algebra.parities[i]:
                raise ValueError(
                    "action of %r has parity %d, expected %d" % (
                        self.algebra.labels[i], p, self.algebra.parities[i]))

    def act(self, i):
        return self.mats[i]

    def act_element(self, coords):
        out = SuperMap.zero(self.space, self.space, self.ring)
        for i, c in coords.items():
            out = out + self.mats[i].scale(self.ring.coerce(c))
        return out

    def axiom_residual(self, i, j):
        """rho([e_i,e_j]) - rho(e_i)rho(e_j) + (-1)^{|i||j|} rho(e_j)rho(e_i)."""
        alg = self.algebra
        lhs = self.act_element(alg.bracket(i, j))
        ij = self.mats[i].compose(self.mats[j])
        ji = self.mats[j].compose(self.mats[i])
        s = (-1) ** (alg.parities[i] * alg.parities[j])
        return lhs - (ij - ji.scale(self.ring.coerce(s)))

    def check_axioms(self):
        for i in range(self.algebra.dim):
            for j in range(self.algebra.dim):
                if not self.axiom_residual(i, j).is_zero():
                    raise ValueError(
                        "bracket axiom fails on %r, %r" % (
                            self.algebra.labels[i], self.algebra.labels[j]))
        return True

    def __repr__(self):
        return "Representation(%s on %d|%d, %s)" % (
            self.name, sum(1 for p in self.space.parities if p == 0),
            sum(1 for p in self.space.parities if p == 1), self.algebra.name)


def rep_combine(rep, other):
    """Graded tensor product of two representations of one algebra:
    rho(x) = rho1(x) x id + id x rho2(x) with graded Kronecker factors, so
    the Koszul sign on the second summand is automatic.  No dual module is
    built anywhere: the chord tables read V* as signed partial transposes.
    """
    if other.algebra is not rep.algebra:
        raise ValueError("mismatched algebras")
    if not rings_equal(rep.ring, other.ring):
        raise ValueError("mismatched coefficient rings")
    space = rep.space.tensor(other.space)
    ida = SuperMap.identity(rep.space, rep.ring)
    idb = SuperMap.identity(other.space, other.ring)
    mats = {}
    for i in range(rep.algebra.dim):
        left = rep.mats[i].tensor(idb)
        right = ida.tensor(other.mats[i])
        mats[i] = left + right
    return Representation(rep.algebra, space, mats, rep.ring,
                          "%s(x)%s" % (rep.name, other.name))


def _matrix_unit_rep(alg):
    d = alg.m + alg.n
    parities = tuple(0 if a <= alg.m else 1 for a in range(1, d + 1))
    space = SuperSpace(parities, tuple("v%d" % a for a in range(1, d + 1)))
    mats = {}
    for i, (a, b) in enumerate(alg.labels):
        mats[i] = SuperMap(space, space, {(a - 1, b - 1): Fraction(1)}, QQ)
    return Representation(alg, space, mats, QQ, "defining")


def _kac_module(alg):
    """The 2|2 dimensional gl(2|1) module with highest weight (0, 0 | alpha).

    Basis w, E31 w, E32 w, E32 E31 w.  The action of a generator is computed
    by commuting it rightward through a PBW word with the structure
    constants until it reaches the highest weight vector, where E33 scales
    by alpha and the rest of the parabolic acts by zero.  Every matrix entry
    comes out a polynomial in alpha.
    """
    if (alg.m, alg.n) != (2, 1):
        raise ValueError("the Kac module construction is for gl(2|1)")
    e31 = alg.index[(3, 1)]
    e32 = alg.index[(3, 2)]
    e33 = alg.index[(3, 3)]
    lowering = (e31, e32)
    words = [(), (e31,), (e32,), (e32, e31)]
    basis = {w: i for i, w in enumerate(words)}

    def accum(out, coords, c):
        for w, v in coords.items():
            add_term(out, w, v * c)

    def apply_gen(g, word):
        """e_g . (word . w) in basis-word coordinates; word is canonical."""
        new = (g,) + word
        if new in basis:
            return {new: QALPHA.one}
        if not word:
            if g == e33:
                return {(): QALPHA.coerce(alpha())}
            return {}
        b0 = word[0]
        if g == b0 and g in lowering:
            return {}
        out = {}
        sgn = QALPHA.coerce(
            Fraction((-1) ** (alg.parities[g] * alg.parities[b0])))
        for w, c in apply_gen(g, word[1:]).items():
            accum(out, apply_gen(b0, w), c * sgn)
        for k, c in alg.bracket(g, b0).items():
            accum(out, apply_gen(k, word[1:]), QALPHA.coerce(c))
        return out

    space = SuperSpace((0, 1, 1, 0), ("b0", "b1", "b2", "b3"))
    mats = {}
    for g in range(alg.dim):
        entries = {}
        for col, word in enumerate(words):
            for w, c in apply_gen(g, word).items():
                entries[(basis[w], col)] = c
        mats[g] = SuperMap(space, space, entries, QALPHA)
    return Representation(alg, space, mats, QALPHA, "v_alpha")


@lru_cache(maxsize=None)
def standard_rep(alg, which):
    """Built-in modules: 'defining', the matrix units on C^{m|n}, and
    'v_alpha', the 2|2 dimensional Kac module of gl(2|1)."""
    if which == "defining":
        rep = _matrix_unit_rep(alg)
    elif which == "v_alpha":
        rep = _kac_module(alg)
    else:
        raise ValueError("unknown representation %r" % (which,))
    rep.check_axioms()
    return rep
