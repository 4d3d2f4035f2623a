"""z_eval's diagram backend against its per-key finish.

The backend's finish sums the term keys per positioned diagram and
canonicalises each positioned diagram once.  The oracle is the earlier
finish, kept verbatim: one ChordDiagram and one canonical_form per term
key.  Both must give the same coefficient per class and, for every class
whose coefficient survives, the same class representative, the first
diagram met in the class, because zvalue_to_json prints it.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from superchord import kontsevich
from superchord.diagrams import ChordDiagram, canonical_form
from superchord.kontsevich import _moves
from superchord.scalars import add_term
from superchord.words import parse_word

# the 20-letter word whose per-key finish made 29,118 canonical_form calls
# for 29 classes at order 4
LONG_WORD = ("braid[3]: s2 s2 s1^-1 s2^-1 s1 s1 s2^-1 s1^-1 s2 s2 s2^-1 "
             "s2^-1 s2^-1 s2 s2 s2 s2^-1 s1 s1 s2 ; close")


class _PerKeyBackend(kontsevich._DiagramBackend):

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
        dens = _moves(self.order)[0]
        terms = {e: Fraction(c, dens[len(e[1])]) for e, c in agg.items()}
        return out.kinds, terms, reps


def _finish_both(text, order):
    word = parse_word(text)
    return [kontsevich._walk(word, backend(word, order))
            for backend in (kontsevich._DiagramBackend, _PerKeyBackend)]


def _assert_same(text, order):
    (kinds, terms, reps), (kinds0, terms0, reps0) = _finish_both(text, order)
    assert kinds == kinds0
    assert terms == terms0
    # a representative is built only for a class whose sum survives
    assert reps.keys() == terms.keys()
    for e in reps:
        assert reps[e].chords == reps0[e].chords


@st.composite
def closed_braids(draw):
    """Closed braids on at most 3 strands with at most 7 letters; links
    and framing twists allowed."""
    n = draw(st.integers(1, 3))
    gens = ["s%d" % i for i in range(1, n)] + ["t%d" % i
                                              for i in range(1, n + 1)]
    letters = draw(st.lists(
        st.tuples(st.sampled_from(gens), st.sampled_from(("", "^-1"))),
        max_size=7))
    return "braid[%d]: %s ; close" % (n, " ".join(g + e for g, e in letters))


@settings(derandomize=True, max_examples=20, deadline=None)
@given(word=closed_braids(), order=st.integers(3, 4))
def test_finish_matches_the_per_key_oracle(word, order):
    _assert_same(word, order)


def test_finish_matches_the_per_key_oracle_on_a_long_word():
    _assert_same(LONG_WORD, 3)
