"""Reshetikhin-Turaev evaluation of sliced words from explicit ribbon data.

RibbonData carries the carrier space, the braiding on V (x) V and its
inverse, the twist on V, and the four bend maps (plain graded duality by
default).  `MAPS` names every map but the inverse, with its strand
counts: the maps a .ribbon file holds, read over Q.  The inverse may be
declared; otherwise `invert_matrix` solves for it, which needs a field,
so data over Q[[h]] declares it.  The named axiom checks are decidable
by direct matrix identity: an inverse braiding, the Yang-Baxter
equation, naturality of the twist, the snake identities, and
consistency of the declared twist with the curl built from braiding and
duality, mirroring how the word parser expands kinks.
`RibbonData.checks` holds their results, computed once per instance, so
loading data and then evaluating on it checks the axioms once.

The evaluator applies each token's map in place to a sparse state, on
the token's own fields, with the Koszul sign of the tensor of maps, so
identity tokens cost nothing.  Crossings are supported on two upward
strands, which covers braid words and the kinks the parser makes.
"""

from functools import cached_property
from itertools import product

from .diagrams import invert_matrix
from .scalars import QQ, HSeries, add_term, series_inverse
from .supergraded import (
    SuperMap, SuperSpace, copair_left, copair_right, koszul_flip,
    pair_dual_left, pair_dual_right, tensor_space)
from .words import parse_word


def invert_supermap(f):
    """Inverse over f.ring, solved exactly by `invert_matrix`; raises on
    singular maps."""
    if f.source.dim != f.target.dim:
        raise ValueError("only square maps can be inverted")
    entries = invert_matrix(f.m, f.source.dim, f.ring)
    if entries is None:
        raise ValueError("map is not invertible")
    return SuperMap(f.target, f.source, entries, f.ring)


# the maps of a .ribbon file, with their source and target strand
# counts; a strand is V or V*, which have the same parities
MAPS = dict(braiding=(2, 2), twist=(1, 1), cup_pm=(0, 2), cup_mp=(0, 2),
            cap_pm=(2, 0), cap_mp=(2, 0))
_ARITY = dict(MAPS, braiding_inv=(2, 2))


class RibbonData:
    """Carrier space with braiding, twist, and the four bend maps.

    braiding_inv, when given, is taken as declared and checked by the
    `inverse` axiom; when omitted it is solved over the ring.
    """

    def __init__(self, space, braiding, twist, ring=QQ,
                 cup_pm=None, cup_mp=None, cap_pm=None, cap_mp=None,
                 braiding_inv=None):
        self.space = space
        self.dual = space.dual()
        self.ring = ring
        self.braiding = braiding
        self.braiding_inv = braiding_inv or invert_supermap(braiding)
        self.twist = twist
        self.cup_pm = cup_pm or copair_left(space, ring)
        self.cup_mp = cup_mp or copair_right(space, ring)
        self.cap_pm = cap_pm or pair_dual_right(space, ring)
        self.cap_mp = cap_mp or pair_dual_left(space, ring)

    @cached_property
    def checks(self):
        """The named axiom results of `ribbon_checks`, computed once."""
        return ribbon_checks(self)

    @cached_property
    def _columns(self):
        """name -> (arity, {source digits: [(target digits, v)]}, parity),
        with each v equal to one stored as the ring's one, for `_run`."""
        d, out, one = self.space.dim, {}, self.ring.one
        spaces = [tensor_space([self.space] * k) for k in range(3)]
        fields = [list(product(range(d), repeat=k)) for k in range(3)]
        for name, (a, b) in _ARITY.items():
            f = getattr(self, name)
            if (f.source, f.target) != (spaces[a], spaces[b]):
                raise ValueError("%s has the wrong shape" % name)
            cols = {}
            for (i, j), v in f.m.items():
                cols.setdefault(fields[a][j], []).append(
                    (fields[b][i], one if v == one else v))
            out[name] = (a, cols, f.parity())
        return out

    def require_axioms(self):
        """Raise ValueError naming every failed axiom, in check order."""
        failed = [n for n, ok in self.checks.items() if not ok]
        if failed:
            raise ValueError("ribbon axioms fail: %s" % ", ".join(failed))


def _run(data, width, *slices):
    """Apply the slices, bottom first, to the identity on width fields, as
    a state {(target digits, source index): value}; a slice names its maps
    left to right, None for an identity.  Maps act on their own fields,
    right to left, so an odd map's Koszul sign is the parity of the source
    fields left of it; as in `SuperMap.tensor`, an inhomogeneous map raises
    unless it comes first.  Unit factors are not multiplied."""
    par, one = data.space.parities, data.ring.one
    fields = product(range(data.space.dim), repeat=width)
    state = {(t, s): one for s, t in enumerate(fields)}
    for names in slices:
        ops, p = [], 0
        for k, name in enumerate(names):
            if name is None:
                p += 1
                continue
            a, cols, parity = data._columns[name]
            if parity is None and k:
                raise ValueError("second tensor factor is not homogeneous")
            ops.append((p, a, cols, parity))
            p += a
        for p, a, cols, odd in reversed(ops):
            out = {}
            for (t, s), v in state.items():
                if odd and sum(par[i] for i in t[:p]) % 2:
                    v = -v
                for tgt, w in cols.get(t[p:p + a], ()):
                    add_term(out, (t[:p] + tgt + t[p + a:], s),
                             v if w is one else w if v is one else w * v)
            state = out
    return state


def ribbon_checks(data):
    """Named axiom results, in a fixed order, as a name -> bool dict."""
    r, ri, tw = "braiding", "braiding_inv", "twist"
    out = {"inverse": _run(data, 2, [ri], [r]) == _run(data, 2)}
    r1, r2 = [r, None], [None, r]
    out["yang_baxter"] = _run(data, 3, r1, r2, r1) == _run(data, 3, r2, r1, r2)
    out["twist_naturality"] = (_run(data, 2, [tw, tw], [r])
                               == _run(data, 2, [r], [tw, tw]))
    ident = _run(data, 1)
    snakes = [_run(data, 1, ["cup_pm", None], [None, "cap_mp"]),
              _run(data, 1, [None, "cup_mp"], ["cap_pm", None]),
              _run(data, 1, [None, "cup_pm"], ["cap_mp", None]),
              _run(data, 1, ["cup_mp", None], [None, "cap_pm"])]
    out["snake"] = all(s == ident for s in snakes)
    pos = _run(data, 1, [None, "cup_pm"], [r, None], [None, "cap_pm"])
    neg = _run(data, 1, [None, "cup_pm"], [ri, None], [None, "cap_pm"], [tw])
    out["curl"] = pos == _run(data, 1, [tw]) and neg == ident
    return out


_NAMES = {"x": ("braiding", "braiding_inv"), "cup": ("cup_pm", "cup_mp"),
          "cap": ("cap_pm", "cap_mp")}


def _names(sl, signs):
    """Yield a slice's map names for `_run`; signs goes from under to over."""
    q = 0
    for kind, s, *_ in sl:
        if kind == "x" and (signs[q] < 0 or signs[q + 1] < 0):
            raise ValueError("crossings act on two upward strands here")
        if kind == "cup":
            signs[q:q] = (s, -s)
        elif kind == "cap":
            del signs[q:q + 2]
        q += {"id": 1, "cap": 0}.get(kind, 2)
        yield None if kind == "id" else _NAMES[kind][s < 0]


def rt_invariant(word, data):
    """Scalar of a closed word, or the boundary map of an open one.

    Any failed ribbon axiom raises before evaluation; the axioms are
    checked once per RibbonData.
    """
    data.require_axioms()
    word = parse_word(word)
    if word.sing_count:
        raise ValueError("resolve marked crossings before evaluating")
    signs = list(word.source)
    # each slice's names are read while it is applied, after the last's
    state = _run(data, len(signs), *(_names(sl, signs) for sl in word.slices))
    if word.is_closed:
        return state.get(((), 0), data.ring.zero)
    spaces = {1: data.space, -1: data.dual}
    flat = product(range(data.space.dim), repeat=len(word.target))
    flat = {t: i for i, t in enumerate(flat)}
    entries = {(flat[t], s): v for (t, s), v in state.items()}
    return SuperMap(tensor_space([spaces[x] for x in word.source]),
                    tensor_space([spaces[x] for x in word.target]),
                    entries, data.ring)


def ribbon_trivial(ring=QQ):
    """One-dimensional even carrier; every closed word evaluates to one."""
    v = SuperSpace((0,), ("v",))
    one = SuperMap.identity(v, ring)
    braiding = SuperMap.identity(v.tensor(v), ring)
    return RibbonData(v, braiding, one, ring, braiding_inv=braiding)


def ribbon_superflip(ring=QQ):
    """Graded flip braiding on a (1|1) carrier with the identity twist.

    Symmetric, so every axiom holds, and the parity signs in the bends
    and the Koszul sign of the flip all get exercised; closed values are
    powers of the superdimension, hence zero.
    """
    v = SuperSpace((0, 1), ("e", "o"))
    flip = koszul_flip(v, v, ring)
    return RibbonData(v, flip, SuperMap.identity(v, ring), ring,
                      braiding_inv=flip)


def ribbon_diagonal(q, ring=QQ):
    """Colour braiding e_i (x) e_j -> q[i][j] e_j (x) e_i on an even space.

    Any grid of nonzero scalars satisfies Yang-Baxter; the twist forced
    by the curl is diag(q[i][i]).  The inverse is declared, entry by
    entry, so the ring may be Q[[h]] (each q[i][j] a unit there).
    """
    n = len(q)
    v = SuperSpace((0,) * n, tuple("c%d" % i for i in range(n)))
    entries, inverse = {}, {}
    for i in range(n):
        for j in range(n):
            c = ring.coerce(q[i][j])
            entries[(j * n + i, i * n + j)] = c
            inverse[(i * n + j, j * n + i)] = (
                series_inverse(c) if isinstance(c, HSeries) else 1 / c)
    vv = v.tensor(v)
    braiding = SuperMap(vv, vv, entries, ring)
    twist = SuperMap(v, v, {(i, i): ring.coerce(q[i][i]) for i in range(n)},
                     ring)
    return RibbonData(v, braiding, twist, ring,
                      braiding_inv=SuperMap(vv, vv, inverse, ring))
