"""Combinatorial Kontsevich integral of sliced words, truncated by degree.

The evaluator keeps the boundary object left-nested.  Applying a
generator to strands p, p+1 first regroups them into one block with a
single associator move (none when p = 0), applies the generator, and
regroups back:

    crossing  flip after exp(s eps_p eps_{p+1} (h/2) chord(p, p+1))
    cup, cap  plain bends, so each maximum carries the universal hump
              factor; paired_invariant divides it back out
    curl      already expanded by the parser into cup, crossing, cap

The move on consecutive groups (U, V, W) inserts Phi(T_UV, T_VW), where
T_XY sums eps_i eps_j chord(i, j) over i in X, j in Y on the diagram
side and the plain two-site Casimir action on the matrix side.  Products
are in operator order, so the rightmost letter of an associator word
acts first, lowest on the page.

Two backends walk the same slices: one accumulates chord diagrams on the
traced skeleton (z_eval), one contracts representation matrices degree
by degree (wz_eval).  Composites: lg_invariant pairs z_eval with the
Links-Gould system on slit diagrams, vassiliev_defect alternates wz_eval
over the resolutions of marked double points.
"""

from fractions import Fraction
from functools import lru_cache

from .associator import build_associator
from .diagrams import (
    CIRCLE, INTERVAL, ChordDiagram, canonical_form, slit_component)
from .liesuper import rep_combine
from .scalars import (
    QALPHA, HSeries, ScalarError, SeriesRing, series_inverse)
from .supergraded import SuperMap
from .weightsys import _apply_chord, _chord_matrix, wlg
from .words import PathTracer, TangleWord, parse_word, resolve_singular


@lru_cache(maxsize=None)
def _phi_terms(order, sign):
    """Non-unit associator words of degree <= order."""
    if order < 2:
        return ()
    assoc = build_associator(max(2, order))
    return tuple((m, w, c) for m, w, c in assoc.words(sign) if m <= order)


def _check_order(order):
    """Refuse a negative truncation order before any work starts."""
    if order < 0:
        raise ScalarError("order must be >= 0, got %r" % (order,))


def _as_word(word):
    if isinstance(word, TangleWord):
        return word
    return parse_word(word)


def _walk(word, backend):
    """Drive a backend through the slices, keeping the sign word current."""
    signs = list(word.source)
    for sl in word.slices:
        p = 0
        for tok in sl:
            kind = tok[0]
            if kind == "id":
                p += 1
            elif kind == "x":
                if p:
                    backend.associate(p, 1, signs)
                backend.crossing(p, tok[1], signs)
                signs[p], signs[p + 1] = signs[p + 1], signs[p]
                if p:
                    backend.associate(p, -1, signs)
                p += 2
            elif kind == "cup":
                backend.cup(p, tok[1])
                signs[p:p] = [tok[1], -tok[1]]
                if p:
                    backend.associate(p, -1, signs)
                p += 2
            else:
                if p:
                    backend.associate(p, 1, signs)
                backend.cap(p, signs[p])
                del signs[p:p + 2]
    return backend.finish()


class ZValue:
    """Chord diagram expansion of a word; one h per chord.

    terms maps canonical encodings to coefficients; reps keeps one
    representative diagram per class for weight evaluation.
    """

    def __init__(self, skeleton, terms, reps, order):
        self.skeleton = skeleton
        self.order = order
        self.terms = {e: c for e, c in terms.items() if c}
        self.reps = {e: reps[e] for e in self.terms}

    def __eq__(self, other):
        return (isinstance(other, ZValue) and self.skeleton == other.skeleton
                and self.order == other.order and self.terms == other.terms)

    def coeff(self, diagram):
        return self.terms.get(canonical_form(diagram), Fraction(0))

    def terms_at(self, m):
        return [(self.reps[e], c) for e, c in sorted(self.terms.items())
                if len(e[1]) == m]

    def pair(self, weight, ring):
        """HSeries of weights: coefficient m sums weight(d) c over degree m."""
        sr = SeriesRing(ring, self.order)
        coeffs = [ring.zero] * (self.order + 1)
        for e, c in self.terms.items():
            m = len(e[1])
            coeffs[m] = coeffs[m] + weight(self.reps[e]) * c
        return HSeries(sr, coeffs)

    def __repr__(self):
        return "ZValue(order=%d, terms=%d)" % (self.order, len(self.terms))


class _DiagramBackend:
    """States are chord sets over stamped anchor tokens, with coefficients."""

    def __init__(self, word, order):
        self.order = order
        self.tracer = PathTracer(word.source)
        self.terms = {frozenset(): Fraction(1)}
        self.event = 0

    def _stamp_layers(self, positions):
        e = self.event
        self.event += 1
        for j in range(self.order):
            for p in positions:
                self.tracer.stamp(p, ("a", e, j, p))
        return e

    def crossing(self, p, s, signs):
        e = self._stamp_layers((p, p + 1))
        half = Fraction(s * signs[p] * signs[p + 1], 2)
        new = {}
        for key, c in self.terms.items():
            f = Fraction(1)
            chords = []
            for k in range(self.order - len(key) + 1):
                if k:
                    f = f * half / k
                    chords.append((("a", e, k - 1, p), ("a", e, k - 1, p + 1)))
                k2 = key.union(chords)
                new[k2] = new.get(k2, Fraction(0)) + c * f
        self.terms = new
        self.tracer.cross(p)

    def associate(self, p, sign, signs):
        words_ = _phi_terms(self.order, sign)
        if not words_:
            return
        e = self._stamp_layers(range(p + 2))
        tuv = [(a, p, signs[a] * signs[p]) for a in range(p)]
        tvw = [(p, p + 1, signs[p] * signs[p + 1])]
        add = {}
        for key, c in self.terms.items():
            room = self.order - len(key)
            for deg, w, coeff in words_:
                if deg > room:
                    continue
                self._letters(add, key, c * coeff, w, tuv, tvw, e)
        for key, v in add.items():
            self.terms[key] = self.terms.get(key, Fraction(0)) + v
        self.terms = {k: v for k, v in self.terms.items() if v}

    def _letters(self, out, key, base, w, tuv, tvw, e):
        deg = len(w)

        def rec(l, chords, sgn):
            if l == deg:
                k2 = key.union(chords)
                out[k2] = out.get(k2, Fraction(0)) + base * sgn
                return
            j = deg - 1 - l
            for (a, b, s) in (tuv if w[l] == 0 else tvw):
                rec(l + 1, chords + [(("a", e, j, a), ("a", e, j, b))],
                    sgn * s)

        rec(0, [], 1)

    def cup(self, p, sign):
        self.tracer.cup(p, sign)

    def cap(self, p, sign):
        self.tracer.cap(p)

    def finish(self):
        out = self.tracer.finish()
        agg = {}
        reps = {}
        for key, c in self.terms.items():
            if not c:
                continue
            toks = sorted((t for ch in key for t in ch),
                          key=lambda t: out.token_pos[t])
            pos = {}
            counters = {}
            for t in toks:
                comp, _ = out.token_pos[t]
                pos[t] = (comp, counters.get(comp, 0))
                counters[comp] = counters.get(comp, 0) + 1
            d = ChordDiagram(out.kinds, [(pos[a], pos[b]) for a, b in key])
            e = canonical_form(d)
            agg[e] = agg.get(e, Fraction(0)) + c
            reps.setdefault(e, d)
        return out.kinds, agg, reps


def z_eval(word, order):
    """Kontsevich integral of a word through the given chord degree."""
    _check_order(order)
    word = _as_word(word)
    skeleton, terms, reps = _walk(word, _DiagramBackend(word, order))
    return ZValue(skeleton, terms, reps, order)


class _MatrixBackend:
    """States are basis-index keys per h degree, contracted slice by slice.

    Keys carry the current positions followed by the frozen source
    indices, so open words come out as one map per degree.
    """

    def __init__(self, word, order, rep, tensor):
        self.order = order
        self.rep = rep
        self.dual = rep_combine("dual", rep)
        self.tensor = tensor
        self.ring = rep.ring
        self.par = rep.space.parities
        self.dim = rep.space.dim
        self._mats = {}
        self.nsrc = len(word.source)
        self.deg = [dict() for _ in range(order + 1)]
        for key in self._keys(self.nsrc):
            self.deg[0][key + key] = self.ring.one

    def _keys(self, n):
        if n == 0:
            yield ()
            return
        for rest in self._keys(n - 1):
            for i in range(self.dim):
                yield rest + (i,)

    def _matrix(self, roles):
        key = (roles[0] > 0, roles[1] > 0)
        if key not in self._mats:
            mats_a = self.rep.mats if key[0] else self.dual.mats
            mats_b = self.rep.mats if key[1] else self.dual.mats
            self._mats[key] = _chord_matrix(
                mats_a, mats_b, self.tensor.as_pair_terms(), self.ring)
        return self._mats[key]

    def _apply_site(self, states, a, b, roles):
        mat = self._matrix(roles)
        return [_apply_chord(s, a, b, mat, self.par, self.ring)
                for s in states]

    def crossing(self, p, s, signs):
        roles = (signs[p], signs[p + 1])
        total = [dict(d) for d in self.deg]
        acc = self.deg
        f = Fraction(1)
        for k in range(1, self.order + 1):
            f = f * Fraction(s, 2) / k
            acc = self._apply_site(acc, p, p + 1, roles)
            if not any(acc):
                break
            fc = self.ring.coerce(f)
            for m in range(self.order + 1 - k):
                for key, v in acc[m].items():
                    tgt = total[m + k]
                    w = tgt.get(key, self.ring.zero) + fc * v
                    if w == self.ring.zero:
                        tgt.pop(key, None)
                    else:
                        tgt[key] = w
        flipped = [dict() for _ in range(self.order + 1)]
        for m, layer in enumerate(total):
            for key, v in layer.items():
                i, j = key[p], key[p + 1]
                k2 = key[:p] + (j, i) + key[p + 2:]
                if self.par[i] and self.par[j]:
                    v = -v
                flipped[m][k2] = v
        self.deg = flipped

    def associate(self, p, sign, signs):
        words_ = _phi_terms(self.order, sign)
        if not words_:
            return
        base = self.deg
        total = [dict(d) for d in base]
        cache = {}
        for deg, w, coeff in words_:
            acc = base
            for l in range(deg - 1, -1, -1):
                suffix = w[l:]
                if suffix in cache:
                    acc = cache[suffix]
                    continue
                acc = self._letter(acc, w[l], p, signs)
                cache[suffix] = acc
                if not any(acc):
                    break
            if not any(acc):
                continue
            fc = self.ring.coerce(coeff)
            for m in range(self.order + 1 - deg):
                for key, v in acc[m].items():
                    tgt = total[m + deg]
                    u = tgt.get(key, self.ring.zero) + fc * v
                    if u == self.ring.zero:
                        tgt.pop(key, None)
                    else:
                        tgt[key] = u
        self.deg = total

    def _letter(self, states, letter, p, signs):
        out = [dict() for _ in range(self.order + 1)]
        pairs = ([(a, p) for a in range(p)] if letter == 0 else [(p, p + 1)])
        for a, b in pairs:
            part = self._apply_site(states, a, b, (signs[a], signs[b]))
            for m, layer in enumerate(part):
                tgt = out[m]
                for key, v in layer.items():
                    u = tgt.get(key, self.ring.zero) + v
                    if u == self.ring.zero:
                        tgt.pop(key, None)
                    else:
                        tgt[key] = u
        return out

    def cup(self, p, sign):
        new = [dict() for _ in range(self.order + 1)]
        for m, layer in enumerate(self.deg):
            for key, v in layer.items():
                for i in range(self.dim):
                    if sign < 0 and self.par[i]:
                        w = -v
                    else:
                        w = v
                    new[m][key[:p] + (i, i) + key[p:]] = w
        self.deg = new

    def cap(self, p, sign):
        new = [dict() for _ in range(self.order + 1)]
        for m, layer in enumerate(self.deg):
            tgt = new[m]
            for key, v in layer.items():
                if key[p] != key[p + 1]:
                    continue
                if sign > 0 and self.par[key[p]]:
                    v = -v
                k2 = key[:p] + key[p + 2:]
                u = tgt.get(k2, self.ring.zero) + v
                if u == self.ring.zero:
                    tgt.pop(k2, None)
                else:
                    tgt[k2] = u
        self.deg = new

    def finish(self):
        return self.deg


def wz_eval(word, rep, tensor, order):
    """Fused weight-system evaluation of the integral, degree by degree.

    Closed words give an HSeries.  Words with one strand in and one out
    give a list of endomorphisms of V, one per degree.  Other boundaries
    give raw per-degree dicts keyed by (target indices, source indices).
    """
    _check_order(order)
    word = _as_word(word)
    backend = _MatrixBackend(word, order, rep, tensor)
    deg = _walk(word, backend)
    ring = rep.ring
    if word.is_closed:
        sr = SeriesRing(ring, order)
        return HSeries(sr, [layer.get((), ring.zero) for layer in deg])
    nt = len(word.target)
    if (word.source, word.target) == ((1,), (1,)):
        out = []
        for layer in deg:
            entries = {(k[0], k[1]): v for k, v in layer.items()}
            out.append(SuperMap(rep.space, rep.space, entries, ring))
        return out
    return [{(k[:nt], k[nt:]): v for k, v in layer.items()} for layer in deg]


_HUMP_WORD = "obj: +\nslice: cup(+-) id(+)\nslice: id(+) cap(-+)"


@lru_cache(maxsize=None)
def hump_factor(order):
    """Integral of one maximum-minimum pair straightened on a strand.

    Plain bends make this series nontrivial from degree two on, and all
    four bend orientations give the same value.  A word picks up one
    copy, modulo four-term relations, for every maximum that a framed
    isotopy could cancel.
    """
    return z_eval(_HUMP_WORD, order)


def paired_invariant(word, weight, ring, order):
    """Weight-paired integral of a knot word, hump-normalized.

    weight takes interval diagrams; chords on the closed component are
    slit at the basepoint before pairing.  Dividing by the paired hump
    factor once per maximum beyond the first makes the result a framed
    invariant of the knot, independent of the sliced presentation.
    """
    word = _as_word(word)
    if not word.is_closed or word.components != (CIRCLE,):
        raise ValueError("paired invariants need a closed knot word")
    z = z_eval(word, order)
    series = z.pair(lambda d: weight(slit_component(d, 0)), ring)
    caps = sum(1 for sl in word.slices for tok in sl if tok[0] == "cap")
    if caps > 1:
        inv = series_inverse(hump_factor(order).pair(weight, ring))
        for _ in range(caps - 1):
            series = series * inv
    return series


def lg_invariant(word, order):
    """Links-Gould series of a knot word: wlg on the slit integral."""
    return paired_invariant(word, wlg, QALPHA, order)


def vassiliev_defect(word, rep, tensor, order):
    """Alternating sum of wz_eval over all resolutions of the double points.

    The word must be closed and every resolution must have even framings
    on all components.
    """
    word = _as_word(word)
    if not word.is_closed:
        raise ValueError("the defect needs a closed word")
    total = None
    for sign, res in resolve_singular(word):
        if any(f % 2 for f in res.framings):
            raise ValueError("resolution with odd framing %s"
                             % (res.framings,))
        value = wz_eval(res, rep, tensor, order)
        value = value if sign > 0 else -value
        total = value if total is None else total + value
    return total
