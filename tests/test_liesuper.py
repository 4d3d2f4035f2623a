"""Structure constants, invariant tensors, and the built-in modules."""

from fractions import Fraction

import pytest

from superchord.diagrams import invert_matrix
from superchord.liesuper import (
    InvariantTensor, Representation, build_gl, casimir_tensor,
    extend_identity, invariant_form, rep_combine, standard_rep)
from superchord.scalars import QALPHA, QQ, add_term, alpha
from superchord.supergraded import SuperMap


def frac(x):
    return Fraction(x)


def dual_rep(rep):
    """The dual module, rho*(x)[k, j] = -(-1)^{|x||j|} rho(x)[j, k] on
    the dual space: the oracle for the signed partial transposes by which
    the chord tables read V*."""
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


def _tensor_sum(self, other):
    """self + other over self's ring, in self's key order."""
    if other.algebra is not self.algebra:
        raise ValueError("mismatched algebras")
    out = dict(self.terms)
    for key, c in other.terms.items():
        add_term(out, key, self.ring.coerce(c))
    return InvariantTensor(self.algebra, out, self.ring)


def reference_casimir(alg, which):
    """casimir_tensor with t_sl built by its own I x I loop over m - n
    and a tensor sum: the oracle for the one `extend_identity` shift."""
    inv = invert_matrix(invariant_form(alg), alg.dim)
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
    return _tensor_sum(t_gl, InvariantTensor(alg, ii, QQ))


def assert_casimir_is_the_oracle(pairs):
    """casimir_tensor(build_gl(m, n), which) against reference_casimir for
    each (m, n) and which in gl, sl: the same terms in the same key order
    over the same ring, or the same ValueError text.  Returns the number
    of (m, n) pairs checked."""
    count = 0
    for m, n in pairs:
        g = build_gl(m, n)
        for which in ("gl", "sl"):
            try:
                want = reference_casimir(g, which)
            except ValueError as e:
                with pytest.raises(ValueError) as got:
                    casimir_tensor(g, which)
                assert str(got.value) == str(e), (m, n, which)
                continue
            t = casimir_tensor(g, which)
            assert list(t.terms.items()) == list(want.terms.items()), (
                m, n, which)
            assert t.ring is want.ring, (m, n, which)
        count += 1
    return count


def casimir(rep, tensor):
    """Action of a 2-tensor by multiplication, sum t^{ij} rho_i rho_j."""
    out = SuperMap.zero(rep.space, rep.space, rep.ring)
    for c, i, j in tensor.as_pair_terms():
        term = rep.mats[i].compose(rep.mats[j])
        out = out + term.scale(rep.ring.coerce(c))
    return out


def test_gl11_basis_and_parities():
    g = build_gl(1, 1)
    assert g.dim == 4
    assert g.labels == ((1, 1), (1, 2), (2, 1), (2, 2))
    assert g.parities == (0, 1, 1, 0)


def test_build_gl_rejects_degenerate_sizes():
    with pytest.raises(ValueError):
        build_gl(0, 1)
    with pytest.raises(ValueError):
        build_gl(3, -1)


def test_sl_casimir_rejects_zero_superdimension():
    g = build_gl(1, 1)
    with pytest.raises(ValueError):
        casimir_tensor(g, "sl")


def test_bracket_examples_gl21():
    g = build_gl(2, 1)
    ix = g.index
    assert g.bracket(ix[(1, 1)], ix[(1, 2)]) == {ix[(1, 2)]: 1}
    # odd/odd bracket is the anticommutator
    assert g.bracket(ix[(1, 3)], ix[(3, 1)]) == {ix[(1, 1)]: 1, ix[(3, 3)]: 1}
    assert g.bracket(ix[(1, 2)], ix[(2, 1)]) == {ix[(1, 1)]: 1, ix[(2, 2)]: -1}
    assert g.bracket(ix[(3, 1)], ix[(3, 2)]) == {}


def test_super_jacobi_gl21_all_triples():
    g = build_gl(2, 1)
    for i in range(g.dim):
        for j in range(g.dim):
            for k in range(g.dim):
                assert g.jacobi_residual(i, j, k) == {}


def test_invariant_form_values_and_supersymmetry():
    g = build_gl(2, 1)
    ix = g.index
    form = invariant_form(g)
    assert form[(ix[(1, 2)], ix[(2, 1)])] == 1
    assert form[(ix[(3, 3)], ix[(3, 3)])] == -1
    assert form[(ix[(1, 1)], ix[(1, 1)])] == 1
    assert form.get((ix[(1, 2)], ix[(1, 2)]), 0) == 0
    for i in range(g.dim):
        for j in range(g.dim):
            s = (-1) ** (g.parities[i] * g.parities[j])
            assert form.get((i, j), 0) == s * form.get((j, i), 0)


def test_invariant_form_ad_invariance():
    # B([x, y], z) = B(x, [y, z]) for all basis triples.
    g = build_gl(2, 1)
    form = invariant_form(g)
    for i in range(g.dim):
        for j in range(g.dim):
            for k in range(g.dim):
                left = sum(c * form.get((l, k), 0)
                           for l, c in g.bracket(i, j).items())
                right = sum(c * form.get((i, l), 0)
                            for l, c in g.bracket(j, k).items())
                assert left == right


def test_casimir_is_the_oracle_on_small_gl():
    # the sl shift through one extend_identity against its own I x I
    # loop, every gl(m|n) with 1 <= m, n <= 3; gl(m|m) refuses sl
    pairs = [(m, n) for m in range(1, 4) for n in range(1, 4)]
    assert assert_casimir_is_the_oracle(pairs) == 9


def test_extend_identity_takes_its_ring_from_its_constant():
    g = build_gl(2, 1)
    t = casimir_tensor(g, "gl")
    # str(I) = 1 on gl(2|1), so a rational shift by -1 is t_sl, over Q
    s = extend_identity(t, Fraction(-1))
    assert s.ring is QQ
    assert list(s.terms.items()) == list(casimir_tensor(g, "sl").terms.items())
    assert extend_identity(t, 3).ring is QQ
    for a in (alpha(), QALPHA.coerce(Fraction(1, 2))):
        assert extend_identity(t, a).ring is QALPHA
    # a rational constant keeps a Q(alpha) tensor's ring
    s = extend_identity(extend_identity(t, alpha()), Fraction(1, 2))
    assert s.ring is QALPHA
    assert s.terms == extend_identity(t, alpha() + Fraction(1, 2)).terms


def test_casimir_gl11_frozen_inverse():
    # Inverting the 4x4 Gram matrix of the supertrace form by hand gives
    # t = E11xE11 - E12xE21 + E21xE12 - E22xE22.
    g = build_gl(1, 1)
    t = casimir_tensor(g, "gl")
    assert t.terms == {(0, 0): 1, (1, 2): -1, (2, 1): 1, (3, 3): -1}


def test_casimir_gl21_supersymmetric_and_invariant():
    g = build_gl(2, 1)
    for which in ("gl", "sl"):
        t = casimir_tensor(g, which)
        assert t.is_supersymmetric()
        assert t.is_invariant()


def test_casimir_gl21_formula():
    g = build_gl(2, 1)
    ix = g.index
    t = casimir_tensor(g, "gl")
    expected = {}
    for a in range(1, 4):
        for b in range(1, 4):
            sign = -1 if b == 3 else 1
            expected[(ix[(a, b)], ix[(b, a)])] = Fraction(sign)
    assert t.terms == expected


def test_tsl_is_dual_to_restricted_form():
    # Contracting t_sl with B projects any x onto the supertraceless part:
    # sum_ij t^{ij} B(x, e_i) e_j = x - (str x / sdim) I.
    g = build_gl(2, 1)
    form = invariant_form(g)
    t = casimir_tensor(g, "sl")
    ident = g.identity_coords()
    for x in range(g.dim):
        out = {}
        for (i, j), c in t.terms.items():
            v = out.get(j, 0) + c * form.get((x, i), 0)
            out[j] = v
        out = {k: v for k, v in out.items() if v}
        a, b = g.labels[x]
        strx = 0 if a != b else (1 if a <= g.m else -1)
        expect = {x: Fraction(1)}
        for k, c in ident.items():
            v = expect.get(k, 0) - Fraction(strx) * c
            expect[k] = v
        expect = {k: v for k, v in expect.items() if v}
        assert out == expect


def test_extend_identity_spot_entries():
    g = build_gl(2, 1)
    ix = g.index
    t = casimir_tensor(g, "sl")
    a = alpha() * 2 + 2
    s = extend_identity(t, a)
    e11 = ix[(1, 1)]
    e33 = ix[(3, 3)]
    # t_sl has no (E11, E11) component for gl(2|1), so s picks up a there.
    assert s.terms[(e11, e11)] == a
    # (E33, E33): -1 from t_gl, -1 from the identity substraction, +a.
    assert s.terms[(e33, e33)] == a - 2
    assert s.is_supersymmetric()
    assert s.is_invariant()


def test_defining_rep_gl21():
    g = build_gl(2, 1)
    rep = standard_rep(g, "defining")
    assert rep.space.superdim() == 1
    assert rep.space.parities == (0, 0, 1)
    ix = g.index
    assert rep.act(ix[(1, 2)]).m == {(0, 1): 1}
    omega = casimir(rep, casimir_tensor(g, "gl"))
    assert omega == SuperMap.identity(rep.space, rep.ring)


def test_defining_casimir_gl11_vanishes():
    g = build_gl(1, 1)
    rep = standard_rep(g, "defining")
    omega = casimir(rep, casimir_tensor(g, "gl"))
    assert omega.is_zero()


def test_v_alpha_action_table():
    # Frozen from a hand computation with the PBW basis w, E31 w, E32 w,
    # E32 E31 w (parities even, odd, odd, even).
    g = build_gl(2, 1)
    rep = standard_rep(g, "v_alpha")
    assert rep.space.parities == (0, 1, 1, 0)
    ix = g.index
    a = alpha()
    one = QALPHA.one

    def mat(i):
        return rep.act(ix[i]).m

    assert mat((1, 1)) == {(1, 1): -one, (3, 3): -one}
    assert mat((2, 2)) == {(2, 2): -one, (3, 3): -one}
    assert mat((3, 3)) == {(0, 0): a, (1, 1): a + 1, (2, 2): a + 1,
                           (3, 3): a + 2}
    assert mat((1, 2)) == {(2, 1): -one}
    assert mat((2, 1)) == {(1, 2): -one}
    assert mat((1, 3)) == {(0, 1): a, (2, 3): -(a + 1)}
    assert mat((2, 3)) == {(0, 2): a, (1, 3): a + 1}
    assert mat((3, 1)) == {(1, 0): one, (3, 2): -one}
    assert mat((3, 2)) == {(2, 0): one, (3, 1): one}


def test_v_alpha_casimir_eigenvalues():
    g = build_gl(2, 1)
    rep = standard_rep(g, "v_alpha")
    a = alpha()
    omega_gl = casimir(rep, casimir_tensor(g, "gl"))
    omega_sl = casimir(rep, casimir_tensor(g, "sl"))
    ident = SuperMap.identity(rep.space, rep.ring)
    assert omega_gl == ident.scale(-(a * a + a * 2))
    assert omega_sl == ident.scale(-(a * a * 2 + a * 2))


def test_v_alpha_one_term_constant_kills_casimir():
    # s = a (I x I) + t_sl acts by zero on V_alpha exactly when
    # a = (2 alpha + 2)/alpha.
    g = build_gl(2, 1)
    rep = standard_rep(g, "v_alpha")
    t = casimir_tensor(g, "sl")
    a_lg = (alpha() * 2 + 2) / alpha()
    s = extend_identity(t, a_lg)
    assert casimir(rep, s).is_zero()
    # The nearby polynomial constant does not work.
    s_bad = extend_identity(t, alpha() * 2 + 2)
    assert not casimir(rep, s_bad).is_zero()


def test_dual_rep_satisfies_axioms():
    g = build_gl(2, 1)
    rep = standard_rep(g, "defining")
    dual = dual_rep(rep)
    assert dual.check_axioms()
    assert dual.space.parities == rep.space.parities
    ix = g.index
    # rho*(E12)[k, j] = -rho(E12)[j, k] on even indices
    assert dual.act(ix[(1, 2)]).m == {(1, 0): -1}


def test_dual_of_v_alpha_satisfies_axioms():
    g = build_gl(2, 1)
    rep = standard_rep(g, "v_alpha")
    dual = dual_rep(rep)
    assert dual.check_axioms()


def test_tensor_rep_carrier_and_axioms():
    g = build_gl(2, 1)
    rep = standard_rep(g, "defining")
    two = rep_combine(rep, rep)
    evens = sum(1 for p in two.space.parities if p == 0)
    odds = sum(1 for p in two.space.parities if p == 1)
    assert (evens, odds) == (5, 4)
    assert two.check_axioms()


def test_rep_combine_rejects_bad_kinds():
    g = build_gl(2, 1)
    rep = standard_rep(g, "defining")
    with pytest.raises(TypeError):
        rep_combine(rep)
    with pytest.raises(ValueError, match="mismatched algebras"):
        rep_combine(rep, standard_rep(build_gl(1, 1), "defining"))
    with pytest.raises(ValueError, match="mismatched coefficient rings"):
        rep_combine(rep, standard_rep(g, "v_alpha"))
