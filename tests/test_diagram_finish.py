"""z_eval's diagram backend against the anchor walk it replaced.

The backend keys each term by its positioned diagram on the strand
pieces, so equal terms merge as they are made.  The oracle is the
earlier walk, kept verbatim as _AnchorBackend: it keys each term by a
chord set on anchor tokens stamped for every event, and only its finish
sums the keys per positioned diagram (diagrams.diagram_classes).  Both
must give the same skeleton, the same terms in the same order, and the
same class representatives, the first positioned diagram met in each
class, because zvalue_to_json prints them.  _PerKeyBackend is the anchor
walk with the finish before that: one ChordDiagram and one
canonical_form per term key, the oracle of diagram_classes.  The words
are generated closed braids with twists, open braids, (1,1)-tangles and
words with 1 to 3 marks, at orders 3 and 4; a CI step runs the knots of
tests/test_associator.py and the singular words at order 5.
"""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from superchord import kontsevich
from superchord.diagrams import ChordDiagram, canonical_form, diagram_classes
from superchord.kontsevich import ZValue, _moves, z_eval
from superchord.scalars import add_term
from superchord.words import PathTracer, parse_word
from test_double_points import singular_braids, singular_tangles
from test_int_walk import tangles

# the 20-letter word whose anchor walk hands 29,118 term keys to finish
# for 29 classes at order 4
LONG_WORD = ("braid[3]: s2 s2 s1^-1 s2^-1 s1 s1 s2^-1 s1^-1 s2 s2 s2^-1 "
             "s2^-1 s2^-1 s2 s2 s2 s2^-1 s1 s1 s2 ; close")


class _AnchorBackend:
    """States are chord sets over stamped anchor tokens, with int
    coefficients over B^m for m chords (_moves).

    finish maps each token to one int, component << 32 | place on the
    traced skeleton, and hands each key's ends to
    diagrams.diagram_classes, which places each key by sorting them,
    sums the keys per positioned diagram and searches each distinct
    positioned diagram once.  A class keeps as representative the
    diagram of its first key, the only one built as a ChordDiagram, with
    its class key kept on it.
    """

    def __init__(self, word, order):
        self.order = order
        self.tracer = PathTracer(word.source)
        self.terms = {frozenset(): 1}
        self.event = 0

    def _stamp_layers(self, positions):
        e = self.event
        self.event += 1
        for j in range(self.order):
            for p in positions:
                self.tracer.stamp(p, ("a", e, j, p))
        return e

    def move(self, p, crossing, sign, signs):
        if crossing:
            self._crossing(p, sign, signs)
        else:
            self._associate(p, sign, signs)

    def _crossing(self, p, s, signs):
        e = self._stamp_layers((p, p + 1))
        tvw = [(p, p + 1, signs[p] * signs[p + 1])]
        series = self._expand(_moves(self.order)[1][True, s][0], (), tvw, e)
        new = {}
        for key, c in self.terms.items():
            if s:
                add_term(new, key, c)
            self._add_series(new, key, c, series)
        self.terms = new
        self.tracer.cross(p)

    def _associate(self, p, sign, signs):
        terms = _moves(self.order)[1][False, sign][0]
        if not terms:
            return
        e = self._stamp_layers(range(p + 2))
        tuv = [(a, p, signs[a] * signs[p]) for a in range(p)]
        tvw = [(p, p + 1, signs[p] * signs[p + 1])]
        series = self._expand(terms, tuv, tvw, e)
        new = dict(self.terms)
        for key, c in self.terms.items():
            self._add_series(new, key, c, series)
        self.terms = new

    @staticmethod
    def _expand(terms, tuv, tvw, e):
        """Each word series term as (degree, multiplier, choices), one
        (chord set, sign) per choice of a pair for every letter: letter l
        of a word w picks one pair of tuv (letter 0) or tvw, and anchors
        its chord on layer len(w) - 1 - l of event e."""
        out = []
        for deg, w, mult in terms:
            choices = []
            for picks in product(*(tuv if x == 0 else tvw for x in w)):
                chords = []
                sign = 1
                for l, (a, b, sg) in enumerate(picks):
                    j = deg - 1 - l
                    chords.append((("a", e, j, a), ("a", e, j, b)))
                    sign *= sg
                choices.append((frozenset(chords), sign))
            out.append((deg, mult, choices))
        return out

    def _add_series(self, out, key, c, series):
        """Add c times every non-unit term of a series of _expand to key."""
        n = len(key)
        for deg, mult, choices in series:
            if n + deg > self.order:
                break
            base = c * mult
            for chords, sign in choices:
                add_term(out, key | chords, base if sign > 0 else -base)

    def cup(self, p, sign):
        self.tracer.cup(p, sign)

    def cap(self, p, sign):
        self.tracer.cap(p)

    def finish(self):
        out = self.tracer.finish()
        # each token as one int: its component << 32 | its place on the
        # traced path
        where = {t: c << 32 | i for t, (c, i) in out.token_pos.items()}
        terms, reps = diagram_classes(
            out.kinds, (([where[t] for chord in key for t in chord], c)
                        for key, c in self.terms.items()))
        base = _moves(self.order)[0]
        return out.kinds, {e: Fraction(c, base ** len(e[1]))
                           for e, c in terms.items()}, reps


class _PerKeyBackend(_AnchorBackend):

    def finish(self):
        out = self.tracer.finish()
        agg = {}
        reps = {}
        for key, c in self.terms.items():
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
            add_term(agg, e, c)
            reps.setdefault(e, d)
        base = _moves(self.order)[0]
        terms = {e: Fraction(c, base ** len(e[1])) for e, c in agg.items()}
        return out.kinds, terms, reps


def anchor_z_eval(text, order):
    """z_eval through the anchor walk."""
    word = parse_word(text)
    return ZValue(*kontsevich._walk(word, _AnchorBackend(word, order)),
                  order)


def assert_z_eval_is_the_anchor_walk(words, order):
    """z_eval of each word has the anchor walk's skeleton, terms in the
    same order and representatives with the same chords; returns the
    number of words checked."""
    for text in words:
        got, want = z_eval(text, order), anchor_z_eval(text, order)
        assert got.skeleton == want.skeleton, text
        assert list(got.terms.items()) == list(want.terms.items()), text
        assert [d.chords for d in got.reps.values()] == [
            d.chords for d in want.reps.values()], text
    return len(words)


def _assert_finish_is_per_key(text, order):
    word = parse_word(text)
    (kinds, terms, reps), (kinds0, terms0, reps0) = [
        kontsevich._walk(word, backend(word, order))
        for backend in (_AnchorBackend, _PerKeyBackend)]
    assert kinds == kinds0
    assert terms == terms0
    # a representative is built only for a class whose sum survives
    assert reps.keys() == terms.keys()
    for e in reps:
        assert reps[e].chords == reps0[e].chords


def _letters(draw, n, least, most):
    """Braid letters s<k>, t<k> on n strands, each with exponent 1 or -1."""
    gens = ["s%d" % i for i in range(1, n)] + ["t%d" % i
                                              for i in range(1, n + 1)]
    return " ".join(g + e for g, e in draw(st.lists(
        st.tuples(st.sampled_from(gens), st.sampled_from(("", "^-1"))),
        min_size=least, max_size=most)))


@st.composite
def closed_braids(draw):
    """Closed braids on at most 3 strands with at most 7 letters; links
    and framing twists allowed."""
    n = draw(st.integers(1, 3))
    return "braid[%d]: %s ; close" % (n, _letters(draw, n, 0, 7))


@st.composite
def open_braids(draw):
    """Open braids on 2 or 3 strands with 1 to 5 letters, twists
    allowed."""
    n = draw(st.integers(2, 3))
    return "braid[%d]: %s" % (n, _letters(draw, n, 1, 5))


@settings(derandomize=True, max_examples=20, deadline=None)
@given(word=closed_braids(), order=st.integers(3, 4))
def test_finish_matches_the_per_key_oracle(word, order):
    _assert_finish_is_per_key(word, order)


def test_finish_matches_the_per_key_oracle_on_a_long_word():
    _assert_finish_is_per_key(LONG_WORD, 3)


FAMILIES = {
    "closed braids": closed_braids(),
    "open braids": open_braids(),
    "(1,1)-tangles": tangles(),
    "marked words": st.one_of(singular_braids(), singular_tangles()),
}


@pytest.mark.parametrize("family", FAMILIES)
@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data(), order=st.integers(3, 4))
def test_z_eval_is_the_anchor_walk(family, data, order):
    word = data.draw(FAMILIES[family])
    assert assert_z_eval_is_the_anchor_walk([word], order) == 1


def test_z_eval_is_the_anchor_walk_on_a_long_word():
    assert assert_z_eval_is_the_anchor_walk([LONG_WORD], 3) == 1
