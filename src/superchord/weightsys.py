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

`ws_link` closes every component and returns a scalar; `ws_tangle11`
leaves the single interval component open and returns an endomorphism of
V; `wlg` is the Links-Gould weight system on the 2|2 dimensional gl(2|1)
module V_alpha with the one-term tensor s = a (I x I) + t_sl.
"""

from fractions import Fraction
from functools import lru_cache

from .diagrams import CIRCLE, INTERVAL
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


def _evaluate(diagram, rep, tensor, with_source):
    layout = _Layout(diagram)
    ring = rep.ring
    par = rep.space.parities
    dim = rep.space.dim
    dual = rep_combine("dual", rep)
    state = _initial_state(layout, dim, ring, with_source)
    # upward stations act through the dual and each contributes a -1
    mats = {DOWN: rep.mats, UP: dual.mats}
    matrices = {}
    for (e1, e2) in diagram.chords:
        a, b = layout.slot_of[e1], layout.slot_of[e2]
        colors = (layout.directions[a], layout.directions[b])
        if colors not in matrices:
            sign = (-1) ** colors.count(UP)
            terms = [(ring.coerce(c) * sign, i, j)
                     for c, i, j in tensor.as_pair_terms()]
            matrices[colors] = _chord_matrix(mats[colors[0]],
                                             mats[colors[1]], terms, ring)
        state = _apply_chord(state, a, b, matrices[colors], par, ring)
        if not state:
            break
    return _contract(state, layout, par, ring, with_source), layout


def ws_link(diagram, rep, tensor):
    """Scalar value of a diagram whose components are all circles."""
    if any(kind != CIRCLE for kind in diagram.skeleton):
        raise ValueError("ws_link needs a closed skeleton")
    value, _ = _evaluate(diagram, rep, tensor, False)
    return value


def ws_tangle11(diagram, rep, tensor):
    """Endomorphism of V for a skeleton with exactly one interval."""
    if sum(1 for kind in diagram.skeleton if kind == INTERVAL) != 1:
        raise ValueError("ws_tangle11 needs exactly one interval component")
    entries, _ = _evaluate(diagram, rep, tensor, True)
    return SuperMap(rep.space, rep.space, entries, rep.ring)


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


def wlg(diagram, a=None):
    """Links-Gould weight of a diagram: scalar action on V_alpha.

    Closed skeletons give the plain ws_link value (a multiple of the
    superdimension 0); skeletons with one interval give the scalar by
    which the invariant endomorphism acts.
    """
    rep, tensor = lg_data(a)
    if any(kind == INTERVAL for kind in diagram.skeleton):
        return scalar_of_endo(ws_tangle11(diagram, rep, tensor))
    return ws_link(diagram, rep, tensor)
