import random
from fractions import Fraction

import pytest

from superchord.scalars import QQ
from superchord.supergraded import (SuperMap, SuperSpace, UNIT, copair_left,
                                    copair_right, koszul_flip, pair_dual_left,
                                    pair_dual_right)


V21 = SuperSpace((0, 0, 1))


def rand_map(rng, src, tgt, parity=None):
    m = {}
    for i in range(tgt.dim):
        for j in range(src.dim):
            if parity is not None and (tgt.parities[i] + src.parities[j]) % 2 != parity:
                continue
            if rng.random() < 0.7:
                m[(i, j)] = Fraction(rng.randint(-4, 4))
    return SuperMap(src, tgt, m)


def test_superdim():
    assert V21.superdim() == 1
    assert SuperSpace((0, 1)).superdim() == 0
    assert V21.tensor(V21).superdim() == 1


def test_compose_identity():
    rng = random.Random(3)
    f = rand_map(rng, V21, V21)
    i = SuperMap.identity(V21)
    assert f.compose(i) == f
    assert i.compose(f) == f


def test_interchange_law():
    rng = random.Random(9)
    for par_f in (0, 1):
        for par_g in (0, 1):
            f = rand_map(rng, V21, V21, par_f)
            g = rand_map(rng, V21, V21, par_g)
            if f.is_zero() or g.is_zero():
                continue
            i = SuperMap.identity(V21)
            lhs = f.tensor(i).compose(i.tensor(g))
            assert lhs == f.tensor(g)
            rhs = i.tensor(g).compose(f.tensor(i))
            sign = -1 if (par_f and par_g) else 1
            assert rhs == f.tensor(g).scale(sign)


def test_flip_involution():
    W = SuperSpace((0, 1))
    t1 = koszul_flip(V21, W)
    t2 = koszul_flip(W, V21)
    assert t2.compose(t1) == SuperMap.identity(V21.tensor(W))


def test_flip_naturality():
    rng = random.Random(17)
    W = SuperSpace((0, 1, 1))
    for par_f in (0, 1):
        for par_g in (0, 1):
            f = rand_map(rng, V21, V21, par_f)
            g = rand_map(rng, W, W, par_g)
            tau = koszul_flip(V21, W)
            lhs = tau.compose(f.tensor(g))
            sign = -1 if (par_f and par_g) else 1
            rhs = g.tensor(f).compose(tau).scale(sign)
            assert lhs == rhs


def test_zigzag_identities():
    for sp in (V21, SuperSpace((0, 1, 1, 0)), SuperSpace((1,))):
        d = pair_dual_left(sp)
        b = copair_left(sp)
        d2 = pair_dual_right(sp)
        b2 = copair_right(sp)
        i = SuperMap.identity(sp)
        istar = SuperMap.identity(sp.dual())
        # (d (x) 1) (1 (x) b) = id on V'... first zigzag on V*
        z1 = d.tensor(istar).compose(istar.tensor(b))
        assert z1 == istar
        z2 = i.tensor(d).compose(b.tensor(i))
        assert z2 == i
        z3 = d2.tensor(i).compose(i.tensor(b2))
        assert z3 == i
        z4 = istar.tensor(d2).compose(b2.tensor(istar))
        assert z4 == istar


def test_supertrace_via_pairings():
    # str(f) = d' o (f (x) 1) o b for even f, categorical closed loop
    rng = random.Random(31)
    f = rand_map(rng, V21, V21, 0)
    d2 = pair_dual_right(V21)
    b = copair_left(V21)
    loop = d2.compose(f.tensor(SuperMap.identity(V21.dual()))).compose(b)
    assert loop.entry(0, 0) == f.supertrace()


def test_supertrace_supersymmetry():
    rng = random.Random(12)
    for pf in (0, 1):
        for pg in (0, 1):
            f = rand_map(rng, V21, V21, pf)
            g = rand_map(rng, V21, V21, pg)
            lhs = f.compose(g).supertrace()
            sign = -1 if (pf and pg) else 1
            assert lhs == sign * g.compose(f).supertrace()


def test_supertrace_multiplicative_on_tensor():
    rng = random.Random(8)
    W = SuperSpace((0, 0, 1, 1))
    f = rand_map(rng, V21, V21, 0)
    g = rand_map(rng, W, W, 0)
    assert f.tensor(g).supertrace() == f.supertrace() * g.supertrace()


def test_unit_space():
    assert UNIT.dim == 1
    assert V21.tensor(UNIT).parities == V21.parities


def test_ring_guard():
    from superchord.scalars import QALPHA, RingMismatchError
    f = SuperMap.identity(V21, QQ)
    g = SuperMap.identity(V21, QALPHA)
    with pytest.raises(RingMismatchError):
        f.compose(g)


def test_super_space_refuses_parities_other_than_0_and_1():
    for bad in ((2,), (0, 3), (-1,), (0.5,), (0, 2 ** 64)):
        with pytest.raises(ValueError, match="a parity must be 0 or 1"):
            SuperSpace(bad)
