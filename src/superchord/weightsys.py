"""Weight systems: exact evaluation of chord diagrams in a representation.

A diagram component is drawn as a serpentine of vertical stations that
alternate between downward copies of V and upward copies of V*, one chord
endpoint per station.  Cups (k -> V x V*) feed the bottoms, caps
(V* x V -> k) close the tops, and a circle is finished with the right
pairing V x V* -> k, which carries the supertrace sign.  A chord inserts
the invariant tensor sum t^{ij} e_i x e_j at its two stations, acting
through the representation on downward stations and through the dual
representation on upward ones, with one factor -1 per upward endpoint.
Koszul transport signs come from the parities of the basis indices sitting
to the left of each insertion slot.

A `WeightSystem(rep, tensor)` holds one system: the dual representation,
built once, and the chord matrices, built on first use for each pair of
station directions.  `link` closes every component and returns a scalar;
`tangle11` leaves the single interval component open and returns an
endomorphism of V; `interval_scalar` is the scalar by which that
endomorphism acts, after checking that it is a multiple of the identity.  `link` and `interval_scalar` are
memoised by `canonical_form`, so each diagram class is evaluated once per
instance; this relies on the value being invariant under rotating circles
and permuting components, which holds because the tensor is invariant.
`ws_link` and `ws_tangle11` evaluate one diagram on a fresh instance and
keep nothing between calls.  `wlg` is the Links-Gould weight system on the
2|2 dimensional gl(2|1) module V_alpha with the one-term tensor
s = a (I x I) + t_sl; with the default a it uses one process-wide
instance.
"""

from fractions import Fraction
from functools import lru_cache

from .diagrams import CIRCLE, INTERVAL, canonical_form
from .liesuper import (
    build_gl, casimir_tensor, extend_identity, rep_combine, standard_rep)
from .scalars import alpha
from .supergraded import SuperMap

DOWN = 0
UP = 1


class _Layout:
    """Station assignment for a skeleton with given endpoint counts."""

    def __init__(self, diagram):
        self.slot_of = {}
        self.comp_slots = []
        self.directions = []
        self.interval_comp = None
        g = 0
        for c, kind in enumerate(diagram.skeleton):
            k = diagram.counts[c]
            if kind == CIRCLE:
                nst = max(k if k % 2 == 0 else k + 1, 2)
            else:
                if self.interval_comp is not None:
                    raise ValueError("at most one interval component")
                self.interval_comp = c
                nst = k if k % 2 == 1 else k + 1
            for p in range(k):
                self.slot_of[(c, p)] = g + p
            for s in range(nst):
                self.directions.append(DOWN if s % 2 == 0 else UP)
            self.comp_slots.append((g, nst, kind))
            g += nst
        self.total = g

    def cups(self):
        """Bottom turns; the interval's last station stays open (source)."""
        out = []
        for (start, nst, kind) in self.comp_slots:
            stop = nst if kind == CIRCLE else nst - 1
            for a in range(0, stop, 2):
                out.append(start + a)
        return out

    def source_slot(self):
        start, nst, _ = self.comp_slots[self.interval_comp]
        return start + nst - 1

    def target_slot(self):
        start, _, _ = self.comp_slots[self.interval_comp]
        return start

    def caps(self):
        """Top turns: plain pairings plus one signed closure per circle."""
        out = []
        for (start, nst, kind) in self.comp_slots:
            if kind == CIRCLE:
                for a in range(1, nst - 2, 2):
                    out.append((start + a, start + a + 1, "d"))
                out.append((start, start + nst - 1, "dprime"))
            else:
                for a in range(1, nst - 1, 2):
                    out.append((start + a, start + a + 1, "d"))
        return out


def _chord_matrix(mats_a, mats_b, terms, ring):
    """Column-indexed two-site matrix of sum c A_i x B_j over terms (c, i, j).

    The slice engine passes ``tensor.as_pair_terms()`` as they are; the
    station engine multiplies each coefficient by its station sign first.
    """
    by_col = {}
    for c, i, j in terms:
        c = ring.coerce(c)
        for (ra, ca), va in mats_a[i].m.items():
            cva = c * va
            for (rb, cb), vb in mats_b[j].m.items():
                col = (ca, cb)
                cell = by_col.setdefault(col, {})
                v = cell.get((ra, rb), ring.zero) + cva * vb
                if v == ring.zero:
                    cell.pop((ra, rb), None)
                else:
                    cell[(ra, rb)] = v
    return {col: sorted(cell.items()) for col, cell in by_col.items() if cell}


def _initial_state(layout, dim, ring, with_source):
    """Product of cups, every free index enumerated; keys are index tuples.

    For a tangle the key carries one extra entry, the source index feeding
    the interval's passive last station.
    """
    cups = layout.cups()
    keys = [[0] * layout.total]
    base = [0] * layout.total
    states = {}

    def fill(pos, key):
        if pos == len(cups):
            if with_source:
                src = layout.source_slot()
                for s in range(dim):
                    k2 = list(key)
                    k2[src] = s
                    states[tuple(k2) + (s,)] = ring.one
            else:
                states[tuple(key)] = ring.one
            return
        a = cups[pos]
        for i in range(dim):
            key[a] = i
            key[a + 1] = i
            fill(pos + 1, key)
        key[a] = 0
        key[a + 1] = 0

    fill(0, base)
    return states


def _apply_chord(state, a, b, matrix, par, ring):
    out = {}
    for key, coeff in state.items():
        cell = matrix.get((key[a], key[b]))
        if not cell:
            continue
        pa = 0
        for r in range(a):
            pa ^= par[key[r]]
        pb = pa
        for r in range(a, b):
            pb ^= par[key[r]]
        ca, cb = key[a], key[b]
        for (ra, rb), val in cell:
            s = 1
            if (par[ra] ^ par[ca]) and pa:
                s = -s
            if (par[rb] ^ par[cb]) and pb:
                s = -s
            k2 = list(key)
            k2[a] = ra
            k2[b] = rb
            k2 = tuple(k2)
            term = coeff * val if s > 0 else -(coeff * val)
            v = out.get(k2, ring.zero) + term
            if v == ring.zero:
                out.pop(k2, None)
            else:
                out[k2] = v
    return out


def _contract(state, layout, par, ring, with_source):
    """Apply all caps; returns a scalar or an endomorphism entry dict."""
    caps = layout.caps()
    scalar = ring.zero
    entries = {}
    tgt = layout.target_slot() if with_source else None
    for key, coeff in state.items():
        ok = True
        for (a, b, kind) in caps:
            if key[a] != key[b]:
                ok = False
                break
            if kind == "dprime" and par[key[a]]:
                coeff = -coeff
        if not ok:
            continue
        if with_source:
            k = (key[tgt], key[-1])
            v = entries.get(k, ring.zero) + coeff
            if v == ring.zero:
                entries.pop(k, None)
            else:
                entries[k] = v
        else:
            scalar = scalar + coeff
    return entries if with_source else scalar


class WeightSystem:
    """A representation and an invariant tensor, evaluated on diagrams.

    The dual representation is built once; the chord matrix for each pair
    of station directions is built on first use.  `link` and
    `interval_scalar` evaluate each canonical_form class once and answer
    repeats from a memo; `tangle11` evaluates afresh every time.
    """

    def __init__(self, rep, tensor):
        self.rep = rep
        self.tensor = tensor
        self.ring = rep.ring
        self.par = rep.space.parities
        self.dim = rep.space.dim
        self.dual = rep_combine("dual", rep)
        self._matrices = {}
        self._memo = {}

    def _matrix(self, colors):
        """Chord matrix for the directions (DOWN or UP) of its two stations.

        Upward stations act through the dual and each contributes a -1.
        """
        if colors not in self._matrices:
            mats = (self.rep.mats, self.dual.mats)
            sign = (-1) ** colors.count(UP)
            terms = [(self.ring.coerce(c) * sign, i, j)
                     for c, i, j in self.tensor.as_pair_terms()]
            self._matrices[colors] = _chord_matrix(
                mats[colors[0]], mats[colors[1]], terms, self.ring)
        return self._matrices[colors]

    def _evaluate(self, diagram, with_source):
        layout = _Layout(diagram)
        state = _initial_state(layout, self.dim, self.ring, with_source)
        for (e1, e2) in diagram.chords:
            a, b = layout.slot_of[e1], layout.slot_of[e2]
            matrix = self._matrix((layout.directions[a], layout.directions[b]))
            state = _apply_chord(state, a, b, matrix, self.par, self.ring)
            if not state:
                break
        return _contract(state, layout, self.par, self.ring, with_source)

    def _once(self, diagram, evaluate):
        key = canonical_form(diagram)
        if key not in self._memo:
            self._memo[key] = evaluate(diagram)
        return self._memo[key]

    def _link(self, diagram):
        if any(kind != CIRCLE for kind in diagram.skeleton):
            raise ValueError("ws_link needs a closed skeleton")
        return self._evaluate(diagram, False)

    def link(self, diagram):
        """Scalar value of a diagram whose components are all circles."""
        return self._once(diagram, self._link)

    def tangle11(self, diagram):
        """Endomorphism of V for a skeleton with exactly one interval."""
        if sum(1 for kind in diagram.skeleton if kind == INTERVAL) != 1:
            raise ValueError(
                "ws_tangle11 needs exactly one interval component")
        entries = self._evaluate(diagram, True)
        return SuperMap(self.rep.space, self.rep.space, entries, self.ring)

    def interval_scalar(self, diagram):
        """The scalar by which tangle11(diagram) acts; raises if it is not
        a multiple of the identity."""
        return self._once(diagram,
                          lambda d: scalar_of_endo(self.tangle11(d)))


def ws_link(diagram, rep, tensor):
    """Scalar value of a diagram whose components are all circles."""
    return WeightSystem(rep, tensor)._link(diagram)


def ws_tangle11(diagram, rep, tensor):
    """Endomorphism of V for a skeleton with exactly one interval."""
    return WeightSystem(rep, tensor).tangle11(diagram)


def scalar_of_endo(endo):
    """The scalar c with endo = c id; raises if the map is not scalar."""
    ring = endo.ring
    dim = endo.source.dim
    c = endo.m.get((0, 0), ring.zero)
    expect = {(i, i): c for i in range(dim) if not (c == ring.zero)}
    if endo.m != expect:
        raise ValueError("endomorphism is not a scalar multiple of id")
    return c


def lg_constant():
    """The one-term constant (2 alpha + 2)/alpha of the Links-Gould system."""
    return (alpha() * 2 + 2) / alpha()


@lru_cache(maxsize=None)
def _lg_default():
    g = build_gl(2, 1)
    rep = standard_rep(g, "v_alpha")
    tensor = extend_identity(casimir_tensor(g, "sl"), lg_constant())
    return rep, tensor


def lg_data(a=None):
    """Representation V_alpha and tensor a (I x I) + t_sl; a defaults to
    the unique constant satisfying the one-term relation."""
    if a is None:
        return _lg_default()
    g = build_gl(2, 1)
    rep = standard_rep(g, "v_alpha")
    tensor = extend_identity(casimir_tensor(g, "sl"), a)
    return rep, tensor


@lru_cache(maxsize=None)
def _lg_system():
    return WeightSystem(*lg_data())


def wlg(diagram, a=None):
    """Links-Gould weight of a diagram: scalar action on V_alpha.

    Closed skeletons give the plain link value (a multiple of the
    superdimension 0); skeletons with one interval give the scalar by
    which the invariant endomorphism acts.  The default constant uses one
    process-wide WeightSystem, so each class is evaluated once; an
    explicit a gets a fresh one.
    """
    ws = _lg_system() if a is None else WeightSystem(*lg_data(a))
    if any(kind == INTERVAL for kind in diagram.skeleton):
        return ws.interval_scalar(diagram)
    return ws.link(diagram)
