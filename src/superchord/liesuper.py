"""Lie superalgebras of gl(m|n) type and their finite dimensional modules.

A `LieSuperAlgebra` stores a homogeneous basis, parities, and sparse
structure constants.  For gl(m|n) the basis is the matrix units E_ab with
parity |a|+|b| and bracket

    [E_ab, E_cd] = d_bc E_ad - (-1)^{(|a|+|b|)(|c|+|d|)} d_da E_cb.

Invariant 2-tensors (Casimir elements of g x g) are kept in basis
coordinates by `InvariantTensor`; `casimir_tensor` produces the tensor dual
to the supertrace form on gl(m|n), or its sl(m|n) variant, by inverting the
Gram matrix of the form.  Representations carry one matrix per basis
element; odd basis elements act by parity-reversing maps and every
constructor checks the bracket axiom exactly.
"""

from fractions import Fraction

from .diagrams import invert_matrix
from .scalars import QALPHA, QQ, alpha
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

    def parity(self, i):
        return self.parities[i]

    def bracket(self, i, j):
        """Coordinates of [e_i, e_j] as a sparse dict."""
        return self.table.get((i, j), {})

    def bracket_elements(self, x, y):
        """Bracket of two coordinate vectors (sparse dicts)."""
        out = {}
        for i, ci in x.items():
            for j, cj in y.items():
                for k, c in self.bracket(i, j).items():
                    v = out.get(k, 0) + ci * cj * c
                    if v:
                        out[k] = v
                    elif k in out:
                        del out[k]
        return out

    def jacobi_residual(self, i, j, k):
        """[e_i,[e_j,e_k]] - [[e_i,e_j],e_k] - (-1)^{|i||j|}[e_j,[e_i,e_k]]."""
        out = {}

        def accum(coeffs, sign):
            for idx, c in coeffs.items():
                v = out.get(idx, 0) + sign * c
                if v:
                    out[idx] = v
                elif idx in out:
                    del out[idx]

        for l, c in self.bracket(j, k).items():
            accum({m: c * d for m, d in self.bracket(i, l).items()}, 1)
        for l, c in self.bracket(i, j).items():
            accum({m: c * d for m, d in self.bracket(l, k).items()}, -1)
        s = (-1) ** (self.parities[i] * self.parities[j])
        for l, c in self.bracket(i, k).items():
            accum({m: c * d for m, d in self.bracket(j, l).items()}, -s)
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
                k = index[(a, e)]
                out[k] = out.get(k, Fraction(0)) + 1
            if e == a:
                sgn = (-1) ** (parities[i] * parities[j])
                k = index[(c, b)]
                out[k] = out.get(k, Fraction(0)) - sgn
            out = {k: Fraction(v) for k, v in out.items() if v}
            if out:
                table[(i, j)] = out
    alg = LieSuperAlgebra("gl(%d|%d)" % (m, n), labels, parities, table)
    alg.m = m
    alg.n = n
    return alg


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
            if not (c == ring.zero):
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

    def add(self, other):
        if other.algebra is not self.algebra:
            raise ValueError("mismatched algebras")
        out = dict(self.terms)
        for key, c in other.terms.items():
            v = out.get(key, self.ring.zero) + self.ring.coerce(c)
            out[key] = v
        return InvariantTensor(self.algebra, out, self.ring)

    def scale(self, c):
        c = self.ring.coerce(c)
        return InvariantTensor(
            self.algebra, {k: v * c for k, v in self.terms.items()}, self.ring)

    def ad_residual(self, k):
        """Coordinates of ad_{e_k}(t); identically zero iff t is invariant.

        ad acts on g x g by [x, u] x v + (-1)^{|x||u|} u x [x, v].
        """
        alg = self.algebra
        par = alg.parities
        out = {}

        def accum(key, c):
            v = out.get(key, self.ring.zero) + c
            if v == self.ring.zero:
                out.pop(key, None)
            else:
                out[key] = v

        for (i, j), c in self.terms.items():
            for l, s in alg.bracket(k, i).items():
                accum((l, j), c * self.ring.coerce(s))
            sign = (-1) ** (par[k] * par[i])
            for l, s in alg.bracket(k, j).items():
                accum((i, l), c * self.ring.coerce(sign * s))
        return out

    def is_invariant(self):
        return all(not self.ad_residual(k) for k in range(self.algebra.dim))

    def is_supersymmetric(self):
        return self.flip().terms == self.terms

    def __repr__(self):
        return "InvariantTensor(%s, %d terms)" % (
            self.algebra.name, len(self.terms))


def casimir_tensor(alg, which="gl"):
    """Tensor dual to the supertrace form: t = sum (B^{-1})^{ij} e_i x e_j.

    which = "gl" inverts the full form; "sl" subtracts the identity
    component, t_sl = t_gl - (1/(m-n)) I x I, giving the tensor dual to the
    form restricted to the supertraceless subalgebra.
    """
    form = invariant_form(alg)
    inv = _invert_form(alg, form)
    t_gl = InvariantTensor(alg, inv, QQ)
    if which == "gl":
        return t_gl
    if which != "sl":
        raise ValueError("which must be 'gl' or 'sl'")
    if alg.m == alg.n:
        raise ValueError(
            "the sl Casimir tensor divides by the superdimension m - n "
            "and is undefined for gl(m|m)")
    ident = alg.identity_coords()
    sdim = Fraction(alg.m - alg.n)
    ii = {}
    for i, ci in ident.items():
        for j, cj in ident.items():
            ii[(i, j)] = -ci * cj / sdim
    return t_gl.add(InvariantTensor(alg, ii, QQ))


def extend_identity(t, a):
    """s = a (I x I) + t for a scalar a, over the alpha-rational ring."""
    alg = t.algebra
    a = QALPHA.coerce(a)
    terms = {k: QALPHA.coerce(c) for k, c in t.terms.items()}
    ident = alg.identity_coords()
    for i, ci in ident.items():
        for j, cj in ident.items():
            key = (i, j)
            v = terms.get(key, QALPHA.zero) + a * QALPHA.coerce(ci * cj)
            terms[key] = v
    return InvariantTensor(alg, terms, QALPHA)


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

    def casimir(self, tensor):
        """Action of a 2-tensor by multiplication, sum t^{ij} rho_i rho_j."""
        out = SuperMap.zero(self.space, self.space, self.ring)
        for c, i, j in tensor.as_pair_terms():
            term = self.mats[i].compose(self.mats[j])
            out = out + term.scale(self.ring.coerce(c))
        return out

    def __repr__(self):
        return "Representation(%s on %d|%d, %s)" % (
            self.name, sum(1 for p in self.space.parities if p == 0),
            sum(1 for p in self.space.parities if p == 1), self.algebra.name)


def rep_combine(kind, rep, other=None):
    """Dual or tensor product of representations.

    dual:   rho*(x)[k, j] = -(-1)^{|x||j|} rho(x)[j, k] on the dual space.
    tensor: rho(x) = rho1(x) x id + id x rho2(x) with graded Kronecker
            factors, so the Koszul sign on the second summand is automatic.
    """
    if kind == "dual":
        space = rep.space.dual()
        mats = {}
        for i, mat in rep.mats.items():
            px = rep.algebra.parities[i]
            entries = {}
            for (j, k), c in mat.m.items():
                s = -((-1) ** (px * space.parities[j]))
                entries[(k, j)] = c if s > 0 else -c
            mats[i] = SuperMap(space, space, entries, rep.ring)
        return Representation(rep.algebra, space, mats, rep.ring,
                              rep.name + "*")
    if kind == "tensor":
        if other is None:
            raise ValueError("tensor needs two representations")
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
    raise ValueError("kind must be 'dual' or 'tensor'")


def _matrix_unit_rep(alg):
    d = alg.m + alg.n
    parities = tuple(0 if a <= alg.m else 1 for a in range(1, d + 1))
    space = SuperSpace(parities, tuple("v%d" % a for a in range(1, d + 1)))
    mats = {}
    for i, (a, b) in enumerate(alg.labels):
        mats[i] = SuperMap(space, space, {(a - 1, b - 1): Fraction(1)}, QQ)
    return Representation(alg, space, mats, QQ, "defining")


def _weight_rep(alg, weights, ring, name):
    """One dimensional even module with prescribed diagonal weights."""
    space = SuperSpace((0,), ("w",))
    mats = {}
    for i, lab in enumerate(alg.labels):
        a, b = lab
        if a == b and weights.get(a):
            mats[i] = SuperMap(space, space,
                               {(0, 0): ring.coerce(weights[a])}, ring)
        else:
            mats[i] = SuperMap.zero(space, space, ring)
    return Representation(alg, space, mats, ring, name)


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
            s = out.get(w, QALPHA.zero) + v * c
            if s == QALPHA.zero:
                out.pop(w, None)
            else:
                out[w] = s

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


def standard_rep(alg, which, beta=None):
    """Built-in modules: 'defining', 'n_beta' (needs beta), 'v_alpha'."""
    if which == "defining":
        rep = _matrix_unit_rep(alg)
    elif which == "n_beta":
        if beta is None:
            raise ValueError("n_beta needs the weight parameter beta")
        if (alg.m, alg.n) != (2, 1):
            raise ValueError("n_beta is a gl(2|1) module")
        b = QALPHA.coerce(beta)
        rep = _weight_rep(alg, {1: b, 2: b, 3: -b}, QALPHA, "n_beta")
    elif which == "v_alpha":
        rep = _kac_module(alg)
    else:
        raise ValueError("unknown representation %r" % (which,))
    rep.check_axioms()
    return rep
