"""Reshetikhin-Turaev evaluation of sliced words from explicit ribbon data.

RibbonData carries the carrier space, the braiding on V (x) V, the twist
on V, and the four bend maps (plain graded duality by default).  The
named axiom checks are decidable by direct matrix identity: an inverse
braiding, the Yang-Baxter equation, naturality of the twist, the snake
identities, and consistency of the declared twist with the curl built
from braiding and duality, mirroring how the word parser expands kinks.

The evaluator is strict: it tensors one map per token and composes
slice by slice, so no associativity bookkeeping is needed.  Crossings
are supported on two upward strands, which covers braid words and the
kinks the parser produces on them.
"""

from .diagrams import invert_matrix
from .scalars import QQ
from .supergraded import (
    SuperMap, SuperSpace, copair_left, copair_right, koszul_flip,
    pair_dual_left, pair_dual_right, tensor_space)
from .words import parse_word

_CHECK_ORDER = ("inverse", "yang_baxter", "twist_naturality", "snake", "curl")


def invert_supermap(f):
    """Inverse over f.ring, solved exactly by `invert_matrix`; raises on
    singular maps."""
    if f.source.dim != f.target.dim:
        raise ValueError("only square maps can be inverted")
    entries = invert_matrix(f.m, f.source.dim, f.ring)
    if entries is None:
        raise ValueError("map is not invertible")
    return SuperMap(f.target, f.source, entries, f.ring)


class RibbonData:
    """Carrier space with braiding, twist, and the four bend maps."""

    def __init__(self, space, braiding, twist, ring=QQ,
                 cup_pm=None, cup_mp=None, cap_pm=None, cap_mp=None):
        self.space = space
        self.dual = space.dual()
        self.ring = ring
        self.braiding = braiding
        self.braiding_inv = invert_supermap(braiding)
        self.twist = twist
        self.cup_pm = cup_pm if cup_pm is not None else copair_left(space, ring)
        self.cup_mp = cup_mp if cup_mp is not None else copair_right(space, ring)
        self.cap_pm = cap_pm if cap_pm is not None \
            else pair_dual_right(space, ring)
        self.cap_mp = cap_mp if cap_mp is not None \
            else pair_dual_left(space, ring)


def _curl(data, r):
    idv = SuperMap.identity(data.space, data.ring)
    idd = SuperMap.identity(data.dual, data.ring)
    lift = idv.tensor(data.cup_pm)
    cross = r.tensor(idd)
    drop = idv.tensor(data.cap_pm)
    return drop.compose(cross).compose(lift)


def ribbon_checks(data):
    """Named axiom results, in a fixed order, as a name -> bool dict."""
    ring = data.ring
    idv = SuperMap.identity(data.space, ring)
    idd = SuperMap.identity(data.dual, ring)
    r = data.braiding
    out = {}
    out["inverse"] = r.compose(data.braiding_inv) == \
        SuperMap.identity(r.source, ring)
    r1 = r.tensor(idv)
    r2 = idv.tensor(r)
    out["yang_baxter"] = (r1.compose(r2).compose(r1)
                          == r2.compose(r1).compose(r2))
    tt = data.twist.tensor(data.twist)
    out["twist_naturality"] = r.compose(tt) == tt.compose(r)
    snakes = [
        (idv.tensor(data.cap_mp)).compose(data.cup_pm.tensor(idv)) == idv,
        (data.cap_pm.tensor(idv)).compose(idv.tensor(data.cup_mp)) == idv,
        (data.cap_mp.tensor(idd)).compose(idd.tensor(data.cup_pm)) == idd,
        (idd.tensor(data.cap_pm)).compose(data.cup_mp.tensor(idd)) == idd,
    ]
    out["snake"] = all(snakes)
    pos = _curl(data, r)
    neg = _curl(data, data.braiding_inv)
    out["curl"] = pos == data.twist and data.twist.compose(neg) == idv
    return out


def _token_map(tok, signs, p, data):
    kind = tok[0]
    if kind == "id":
        space = data.space if tok[1] > 0 else data.dual
        return SuperMap.identity(space, data.ring)
    if kind == "x":
        if signs[p] < 0 or signs[p + 1] < 0:
            raise ValueError("crossings act on two upward strands here")
        return data.braiding if tok[1] > 0 else data.braiding_inv
    if kind == "cup":
        return data.cup_pm if tok[1] > 0 else data.cup_mp
    return data.cap_pm if tok[1] > 0 else data.cap_mp


def rt_invariant(word, data, validate=True):
    """Scalar of a closed word, or the boundary map of an open one.

    With validate on, any failed ribbon axiom raises before evaluation.
    """
    if validate:
        failed = [n for n in _CHECK_ORDER if not ribbon_checks(data)[n]]
        if failed:
            raise ValueError("ribbon axioms fail: %s" % ", ".join(failed))
    if isinstance(word, str):
        word = parse_word(word)
    if word.sing_count:
        raise ValueError("resolve marked crossings before evaluating")
    spaces = {1: data.space, -1: data.dual}
    state = SuperMap.identity(
        tensor_space([spaces[s] for s in word.source]), data.ring)
    signs = list(word.source)
    for sl in word.slices:
        factor = None
        p = 0
        nxt = []
        for tok in sl:
            m = _token_map(tok, signs, p, data)
            factor = m if factor is None else factor.tensor(m)
            if tok[0] == "id":
                nxt.append(signs[p])
                p += 1
            elif tok[0] == "x":
                nxt.extend((signs[p + 1], signs[p]))
                p += 2
            elif tok[0] == "cup":
                nxt.extend((tok[1], -tok[1]))
            else:
                p += 2
        state = factor.compose(state)
        signs = nxt
    if word.is_closed:
        return state.m.get((0, 0), data.ring.zero)
    return state


def ribbon_trivial(ring=QQ):
    """One-dimensional even carrier; every closed word evaluates to one."""
    v = SuperSpace((0,), ("v",))
    one = SuperMap.identity(v, ring)
    return RibbonData(v, SuperMap.identity(v.tensor(v), ring), one, ring)


def ribbon_superflip(ring=QQ):
    """Graded flip braiding on a (1|1) carrier with the identity twist.

    Symmetric, so every axiom holds, and the parity signs in the bends
    and the Koszul sign of the flip all get exercised; closed values are
    powers of the superdimension, hence zero.
    """
    v = SuperSpace((0, 1), ("e", "o"))
    return RibbonData(v, koszul_flip(v, v, ring),
                      SuperMap.identity(v, ring), ring)


def ribbon_diagonal(q, ring=QQ):
    """Colour braiding e_i (x) e_j -> q[i][j] e_j (x) e_i on an even space.

    Any grid of nonzero scalars satisfies Yang-Baxter; the twist forced
    by the curl is diag(q[i][i]).
    """
    n = len(q)
    v = SuperSpace((0,) * n, tuple("c%d" % i for i in range(n)))
    entries = {}
    for i in range(n):
        for j in range(n):
            entries[(j * n + i, i * n + j)] = ring.coerce(q[i][j])
    braiding = SuperMap(v.tensor(v), v.tensor(v), entries, ring)
    twist = SuperMap(v, v, {(i, i): ring.coerce(q[i][i]) for i in range(n)},
                     ring)
    return RibbonData(v, braiding, twist, ring)
