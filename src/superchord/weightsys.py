"""Weight systems: exact evaluation of chord diagrams in a representation.

One state machine evaluates both diagrams and tangle words.  A state is
a sparse dict keyed by one int that holds the live basis indices, one
per strand, followed by the frozen source indices: strand r's index i
sits in the bit field at offset bits * r as (i << 1) | parity(i), so
the empty key is 0, a prefix parity is the popcount of the key under a
mask, and cups, caps, flips and chords move fields by shifts and masks.
`WeightSystem` gives the only operations on it; `WeightSystem.decode`
turns a key back into its index tuple, which only outputs need (the
endomorphism of a one-interval diagram, the open words of
`kontsevich.wz_eval`).  A walk runs on the int system `walker(b)`,
`at(k)` at alpha = 2^k, k picked from the walk's bound b (0 over Q); it
owns k, and its `value` decodes once at the output.  The chord columns
are held over one common int denominator, `chord_den` (1 for the
gl(m|n) defining modules with t_gl), so a state after c chords stands
for itself over chord_den^c, and whoever walks it divides once at the
end.  A strand of role +1 runs downward through V, one of role -1
upward through V*.  `cup(+-)` (k -> V x V*) and `cap(-+)` (V* x V -> k)
are plain; `cap(+-)`, the right pairing V x V* -> k, and
`cup(-+)` sign odd indices, which gives the supertrace sign.  `chord`
inserts the invariant tensor sum t^{ij} e_i x e_j at two strands, acting
through the representation or its dual by role, with Koszul transport
signs from the parities of the indices to the left of each insertion,
read from a cell of `at(k)` signed for the parity between the two sites;
`flip` is the super flip of a crossing.

A diagram is walked as a planar picture: each component is a serpentine
of stations, one chord endpoint per station, alternating roles +1 and
-1.  The walk is a sweep: cups open the stations left to right (the
interval's last station is open from the start: its source), each chord
is applied as soon as both its stations are open, and after every chord
and every cup each turn closes whose two stations have had their chord
and are adjacent among the open stations (a circle's closure after its
inner turns), leaving a scalar or the entries of an endomorphism of V.
Closing after every chord, not only after each cup, keeps interlaced
diagrams narrow: no chord is applied on more open stations.  The order
does not change the value: a cup or cap inserts or removes a pair
(i, i) of even total parity, so the Koszul signs of the chords are
those of opening every cup first, and chords on distinct stations
commute because the tensor is even.  The chord tables are unsigned by
role; each upward endpoint contributes one factor -1, uniform over the
state, so it is applied once to the result, with the division by
chord_den.
The slice engine of `kontsevich.wz_eval` drives the same operations,
slice by slice, over one state per h degree.

`weight_system(rep, tensor)` gives the one `WeightSystem` of a pair: its
chord columns, built with it in one pass (`_chord_tables`: the role pair
(+1, +1) summed, the other three its signed partial transposes), its
int systems and its memo.  It walks nothing itself: `chord` runs on `at(k)`
only.  `ws(d)` is the closed value of an all-circle diagram, or the
scalar by which the endomorphism of a one-interval diagram acts
(`scalar_of_endo`); other skeletons raise ValueError.  It is memoised by
`canonical_form`, so each diagram class is evaluated once per (rep,
tensor); this relies on the value being invariant under rotating circles
and permuting components, which holds because the tensor is
ad-invariant.  `ws_link`, `ws_tangle11` (not memoised) and `wlg` use the
shared instance.  `named_system` gives the named (rep, tensor) pairs of
the command line and the verify suites; `wlg` is the Links-Gould weight
system on the 2|2 dimensional gl(2|1) module V_alpha with the one-term
tensor s = a (I x I) + t_sl (`lg_data`).
"""

from bisect import bisect
from copy import copy
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import lcm, prod

from .diagrams import CIRCLE, INTERVAL, canonical_form
from .liesuper import (
    build_gl, casimir_tensor, extend_identity, rep_combine, standard_rep)
from .scalars import (
    QALPHA, Poly, add_term, alpha, kronecker_bits, kronecker_decode)
from .supergraded import SuperMap


def _sweep(diagram):
    """The planar walk of a diagram as steps on live positions.

    Each component is a serpentine of stations, one chord endpoint per
    station, with roles alternating +1 (downward, through V) and -1
    (upward, through the dual).  The interval's last station is live
    from the start (the source) and its first one is never closed (the
    target).  Cups open station pairs left to right; each chord is
    applied as soon as both its stations are open, and after every
    chord, and after every cup for cups that open no chord, each turn
    closes whose two stations have had their chord and are adjacent
    among the live stations, so a circle's closure follows its inner
    turns.  The chords come in the same order as when turns closed
    after each cup only, each on no more live stations.  The steps are
    ("cup", p), ("chord", a, b, roles) and ("cap", p, sign): p is the
    live position of the left station, and a cap's sign is the role of
    its left station.
    """
    station, roles, cups, caps, live = {}, [], [], [], []
    for c, kind in enumerate(diagram.skeleton):
        k = diagram.counts[c]
        closed = kind == CIRCLE
        nst = max(k + k % 2, 2) if closed else k + 1 - k % 2
        g = len(roles)
        for p in range(k):
            station[(c, p)] = g + p
        roles += [1, -1] * (nst // 2) + [1] * (nst % 2)
        cups += range(g, g + nst - 1, 2)
        caps += [(s, s + 1) for s in range(g + 1, g + nst - 1 - closed, 2)]
        if closed:
            caps.append((g, g + nst - 1))
        else:
            live.append(g + nst - 1)
    todo = [(station[e1], station[e2]) for e1, e2 in diagram.chords]
    steps = []

    def close():
        """Close every turn whose stations are done and adjacent."""
        busy = {x for ch in todo for x in ch}
        p = 0
        while p < len(live) - 1:
            pair = tuple(live[p:p + 2])
            if pair in caps and busy.isdisjoint(pair):
                steps.append(("cap", p, roles[pair[0]]))
                live[p:p + 2] = []
                p = max(p - 1, 0)
            else:
                p += 1

    for s in cups:
        p = bisect(live, s)
        live[p:p] = [s, s + 1]
        steps.append(("cup", p))
        for a, b in [ch for ch in todo if ch[0] in live and ch[1] in live]:
            todo.remove((a, b))
            steps.append(("chord", live.index(a), live.index(b),
                          (roles[a], roles[b])))
            close()
        close()
    return steps


def _chord_tables(rep, tensor, codes, bits):
    """The chord columns of (rep, tensor), their int denominator
    chord_den and their norms.

    The chord sum c A_i x B_j over the tensor's pair terms (c, i, j) is
    summed once, with A and B through rep.mats: the role pair (+1, +1).
    A site of role -1 acts through the dual, rho*(x)[c, r] =
    -(-1)^{|x||r|} rho(x)[r, c], and |x| = |r| + |c| on a nonzero
    entry, so the other three role pairs are partial transposes of that
    sum, each entry signed by its index pairs alone; no dual is built.
    The tables are unsigned by role.  A column, at code(ca) << bits |
    code(cb), lists the entries (da, db, value, odd), sorted by output
    indices: the output takes code(ra) - code(ca) at the first site and
    code(rb) - code(cb) at the second, the value is held over chord_den
    as a tuple of int coefficients in alpha, lowest degree first (one
    over Q), and odd is 1 when both sites change parity (the tensor is
    even, so both do or neither does).  norm[roles] is the largest, over
    output pairs, of the summed |coefficients| writing into one.  Raises
    ValueError on an entry that changes the parity of one site only, and
    on a Q(alpha) value that is not a polynomial.
    """
    ring, par = rep.ring, rep.space.parities
    sums = {}
    for c, i, j in tensor.as_pair_terms():
        c = ring.coerce(c)
        right = rep.mats[j].m.items()
        for (ra, ca), va in rep.mats[i].m.items():
            cva = c * va
            for (rb, cb), vb in right:
                add_term(sums, (ra, ca, rb, cb), cva * vb)
    for key, v in sums.items():
        v = v.as_poly() if ring is QALPHA else Poly.const(v)
        sums[key] = v.n, v.d
    den = lcm(1, *(d for _, d in sums.values()))

    def site(role, r, c):
        """The entry of rep's (r, c) at a site of role: (row, column,
        sign).  At role -1 it is the dual's (c, r), whose sign
        -(-1)^{|r|(1 + |c|)} is +1 for r odd and c even only."""
        return (r, c, 1) if role > 0 else (c, r, 1 if par[r] > par[c] else -1)

    columns, norm = {}, {}
    for roles in product((1, -1), repeat=2):
        cols, rows_norm = {}, {}
        for (ra, ca, rb, cb), (n, d) in sums.items():
            (ra, ca, sa), (rb, cb, sb) = (site(roles[0], ra, ca),
                                          site(roles[1], rb, cb))
            odd = (codes[ra] ^ codes[ca]) & 1
            if odd != (codes[rb] ^ codes[cb]) & 1:
                raise ValueError("weight systems need an even tensor")
            val = tuple(x * sa * sb * (den // d) for x in n)
            cols.setdefault(codes[ca] << bits | codes[cb], []).append(
                (ra, rb, codes[ra] - codes[ca], codes[rb] - codes[cb], val,
                 odd))
            rows_norm[ra, rb] = rows_norm.get((ra, rb), 0) + sum(map(abs, val))
        columns[roles] = {key: tuple(entry[2:] for entry in sorted(col))
                          for key, col in cols.items()}
        norm[roles] = max(rows_norm.values(), default=0)
    return columns, den, norm


class WeightSystem:
    """A representation and an invariant tensor, evaluated on diagrams.

    A state is a sparse dict keyed by ints: the live basis indices
    followed by the frozen source indices, strand r in the bit field at
    offset bits * r, coded as (i << 1) | parity(i), so the empty key is
    0 and a parity of fields is a masked popcount.  `identity`, `cup`,
    `chord`, `cap` and `flip` are the only operations on it, shared by
    the station walk here and the slice engine of `kontsevich.wz_eval`;
    `decode` gives a key's index tuple, which only outputs need.  The
    chord columns of each pair of strand roles, unsigned by role, are
    built with the system by `_chord_tables`, over one int denominator
    chord_den; `at(k)` turns them into the cells that `chord` reads, so
    only an int system walks (`walker` picks it and its k), and this one
    answers `identity`, `cup`, `cap`, `flip`, `encode` and `decode`,
    which read no cells.  Calling the system on a diagram evaluates each
    canonical_form class once and answers repeats from a memo;
    `tangle11` evaluates afresh every time.
    Build one through `weight_system`, so that its callers share it.
    """

    def __init__(self, rep, tensor):
        self.rep = rep
        self.tensor = tensor
        self.ring = rep.ring
        self.par = rep.space.parities
        self.dim = rep.space.dim
        self.bits = (self.dim - 1).bit_length() + 1
        self._field = (1 << self.bits) - 1
        self._codes = [i << 1 | p for i, p in enumerate(self.par)]
        self._columns, self.chord_den, self.norm = _chord_tables(
            rep, tensor, self._codes, self.bits)
        self._memo = {}
        self._views = {}

    def at(self, k):
        """The int system at alpha = 2^k (k = 0 over Q), the only one
        that walks: the same codes and bits, no memo, its k, by which
        `value` decodes, and one chord table per role pair with one cell
        per pair of basis codes, None for an empty column.  A cell holds
        its column's entries (da, db, P(2^k)) for q = 0 and q = 1, q the
        parity of the fields from the first site up to the second; an odd
        entry takes the Koszul sign (-1)^q.  Cached per k; `walker`
        picks k."""
        if k not in self._views:
            view = copy(self)
            view.k = k
            view._cells = {}
            for roles, columns in self._columns.items():
                cells = view._cells[roles] = dict.fromkeys(
                    x << self.bits | y for x in self._codes
                    for y in self._codes)
                for key, column in columns.items():
                    vals = [(da, db, sum(c << k * i for i, c in enumerate(v)),
                             odd) for da, db, v, odd in column]
                    cells[key] = tuple(tuple((da, db, -n if q and odd else n)
                                             for da, db, n, odd in vals)
                                       for q in (0, 1))
            view._memo = view._views = None
            self._views[k] = view
        return self._views[k]

    def walker(self, bound):
        """The int system that walks values of |coefficients| at most
        bound over Z[alpha]: at(0) over Q, and over Q(alpha) at(k) with
        2^(k - 1) > bound, so that `value` reads each coefficient back."""
        return self.at(kronecker_bits(bound) if self.ring is QALPHA else 0)

    def bound(self, steps):
        """A bound on every |coefficient| of the station walk of steps
        over Z[alpha]: the product of norm[roles] over its chords and dim
        per cap.

        Proof.  Let |S| be the largest |v|_1, the sum of |coefficients|,
        over the values v of a state S; |PQ|_1 <= |P|_1 |Q|_1.  An output
        value of a chord sums the entries writing into one output pair
        times one input value each, so |chord(S)| <= norm[roles] |S|; a
        sum of chords takes the sum of their norms.  A cap sums dim keys,
        |cap(S)| <= dim |S|; a cup, a flip or the identity moves values;
        a word-series term of multiplier f takes |f| (_NormBackend).  P
        -> P(2^k) is a ring homomorphism, so the walk on at(k) gives
        N(2^k) for an output N, whose balanced base-2^k digits are N's
        coefficients once 2^(k - 1) exceeds this bound (`walker`).
        """
        return prod(self.norm[s[3]] if s[0] == "chord" else
                    self.dim if s[0] == "cap" else 1 for s in steps)

    def value(self, n, den):
        """The ring value of n / den, for an int n of this int system."""
        return kronecker_decode(n, self.k, den) if self.k else Fraction(n, den)

    def encode(self, indices):
        """The key of a tuple of basis indices."""
        key = 0
        for r, i in enumerate(indices):
            key |= self._codes[i] << self.bits * r
        return key

    def decode(self, key, width):
        """The basis indices of a key of width strands, as a tuple."""
        bits, field = self.bits, self._field
        return tuple((key >> bits * r & field) >> 1 for r in range(width))

    def _parity_mask(self, n):
        """The parity bits of the first n fields."""
        return ((1 << self.bits * n) - 1) // self._field

    def identity(self, n):
        """The identity on n strands: live indices equal to the sources."""
        return {self.encode(key + key): 1
                for key in product(range(self.dim), repeat=n)}

    def cup(self, state, p, sign):
        """Insert a cup at positions p, p + 1; cup(-+) signs odd indices."""
        sp = self.bits * p
        low = (1 << sp) - 1
        up = sp + 2 * self.bits
        pairs = [((c | c << self.bits) << sp, sign < 0 and c & 1)
                 for c in self._codes]
        out = {}
        for key, v in state.items():
            base = key & low | key >> sp << up
            for pair, odd in pairs:
                out[base | pair] = -v if odd else v
        return out

    def chord(self, state, a, b, roles, out=None):
        """Insert the tensor at positions a < b, unsigned: a strand of role
        +1 acts through V, one of role -1 through the dual.  The values
        come out chord_den times too large.  The terms are added into
        out when it is given, and out is returned."""
        if out is None:
            out = {}
        bits, field = self.bits, self._field
        sa, sb = bits * a, bits * b
        mask = self._parity_mask(a) ^ self._parity_mask(b)
        cells = self._cells[roles]
        for key, v in state.items():
            cell = cells[(key >> sa & field) << bits | key >> sb & field]
            if cell is None:
                continue
            for da, db, val in cell[(key & mask).bit_count() % 2]:
                add_term(out, key + (da << sa) + (db << sb), v * val)
        return out

    def cap(self, state, p, sign):
        """Close positions p, p + 1; cap(+-) signs odd indices."""
        bits = self.bits
        sp = bits * p
        low = (1 << sp) - 1
        up = sp + 2 * bits
        pair = (1 << 2 * bits) - 1
        out = {}
        for key, v in state.items():
            f = key >> sp & pair
            if f & self._field == f >> bits:
                add_term(out, key & low | key >> up << sp,
                         -v if sign > 0 and f & 1 else v)
        return out

    def flip(self, state, p):
        """Super flip of positions p, p + 1, as a crossing carries them."""
        field = self._field
        sp = self.bits * p
        sq = sp + self.bits
        out = {}
        for key, v in state.items():
            i, j = key >> sp & field, key >> sq & field
            out[key + (j - i << sp) + (i - j << sq)] = (
                -v if i & j & 1 else v)
        return out

    def _evaluate(self, diagram, with_source):
        """Run the steps of `_sweep` through cup, chord and cap on at(k);
        a scalar, or the {(target, source): value} entries of an
        endomorphism.

        Interleaving gives the value of opening every cup before the
        first chord: a cup or cap inserts or removes a pair (i, i) of
        even total parity, so it leaves the Koszul signs of the chords
        unchanged, and chords on distinct stations commute because the
        tensor is even.  An empty state ends the walk early.  The walk
        runs on the `walker` of its `bound`, and the state is divided by
        chord_den once per chord, at the end.
        """
        steps = _sweep(diagram)
        view = self.walker(self.bound(steps))
        state = view.identity(1 if with_source else 0)
        ups = chords = 0
        for step in steps:
            if step[0] == "cup":
                state = view.cup(state, step[1], 1)
            elif step[0] == "cap":
                state = view.cap(state, step[1], step[2])
            else:
                ups += step[3].count(-1)
                chords += 1
                state = view.chord(state, *step[1:])
            if not state:
                break
        den = self.chord_den ** chords
        sign = -1 if ups % 2 else 1
        if with_source:
            return {self.decode(key, 2): view.value(sign * v, den)
                    for key, v in state.items()}
        return view.value(sign * state.get(0, 0), den)

    def __call__(self, diagram):
        """Weight of a diagram: the closed value of an all-circle skeleton,
        or the scalar action of a one-interval one.  Memoised by
        canonical_form, which reads a key kept on the diagram without a
        second search."""
        key = canonical_form(diagram)
        if key not in self._memo:
            intervals = diagram.skeleton.count(INTERVAL)
            if intervals == 0:
                self._memo[key] = self._evaluate(diagram, False)
            elif intervals == 1:
                self._memo[key] = scalar_of_endo(self.tangle11(diagram))
            else:
                raise ValueError(
                    "need an all-circle or one-interval skeleton")
        return self._memo[key]

    def tangle11(self, diagram):
        """Endomorphism of V for a skeleton with exactly one interval."""
        if sum(1 for kind in diagram.skeleton if kind == INTERVAL) != 1:
            raise ValueError(
                "ws_tangle11 needs exactly one interval component")
        entries = self._evaluate(diagram, True)
        return SuperMap(self.rep.space, self.rep.space, entries, self.ring)


@lru_cache(maxsize=None)
def weight_system(rep, tensor):
    """The one WeightSystem of a representation and an invariant tensor.

    Both hash by identity, so every caller holding the same pair shares
    one instance: its chord tables and its memo.
    """
    return WeightSystem(rep, tensor)


def ws_link(diagram, rep, tensor):
    """Scalar value of a diagram whose components are all circles."""
    if any(kind != CIRCLE for kind in diagram.skeleton):
        raise ValueError("ws_link needs a closed skeleton")
    return weight_system(rep, tensor)(diagram)


def ws_tangle11(diagram, rep, tensor):
    """Endomorphism of V for a skeleton with exactly one interval."""
    return weight_system(rep, tensor).tangle11(diagram)


def scalar_of_endo(endo):
    """The scalar c with endo = c id; raises if the map is not scalar."""
    ring = endo.ring
    dim = endo.source.dim
    c = endo.m.get((0, 0), ring.zero)
    expect = {(i, i): c for i in range(dim) if c}
    if endo.m != expect:
        raise ValueError("endomorphism is not a scalar multiple of id")
    return c


def lg_constant():
    """The one-term constant (2 alpha + 2)/alpha of the Links-Gould system."""
    return (alpha() * 2 + 2) / alpha()


@lru_cache(maxsize=None)
def lg_data():
    """Representation V_alpha and tensor a (I x I) + t_sl, with a =
    lg_constant() the unique constant satisfying the one-term relation.
    Memoised, so every caller shares one (rep, tensor) pair."""
    g = build_gl(2, 1)
    rep = standard_rep(g, "v_alpha")
    return rep, extend_identity(casimir_tensor(g, "sl"), lg_constant())


# the named systems besides "lg": name -> ((m, n), module, tensor)
SYSTEMS = {"gl21": ((2, 1), "defining", "gl"),
           "gl11": ((1, 1), "defining", "gl"),
           "valpha": ((2, 1), "v_alpha", "sl")}


@lru_cache(maxsize=None)
def named_system(name):
    """(rep, tensor) of a named system: the defining gl(2|1) or gl(1|1)
    module with t_gl, V_alpha with t_sl, or "lg", the Links-Gould pair
    lg_data().  Memoised, so a name always gives the same pair."""
    if name == "lg":
        return lg_data()
    (m, n), rep, tensor = SYSTEMS[name]
    g = build_gl(m, n)
    return standard_rep(g, rep), casimir_tensor(g, tensor)


@lru_cache(maxsize=None)
def squared_system(name):
    """(V x V, tensor) of a named system (V, tensor): the tensor square
    that the cabling check weighs.  Memoised like named_system, so its
    weight_system is built once."""
    rep, tensor = named_system(name)
    return rep_combine(rep, rep), tensor


def wlg(diagram):
    """Links-Gould weight of a diagram: scalar action on V_alpha.

    Closed skeletons give the plain link value (a multiple of the
    superdimension 0); skeletons with one interval give the scalar by
    which the invariant endomorphism acts.
    """
    return weight_system(*lg_data())(diagram)
