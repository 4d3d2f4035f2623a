"""Truncation consistency of wz_eval: order n is order n + 1 cut at h^n.

The slice engine carries each chord product only on the degree layers
its least-degree completion can still reach, so a bound that is off by
one shows up here at the first word that needs the top layer.
"""

from functools import lru_cache

from hypothesis import given, settings, strategies as st

from superchord.kontsevich import wz_eval
from superchord.weightsys import named_system

fast = settings(derandomize=True, max_examples=30, deadline=None)


@lru_cache(maxsize=None)
def system(name):
    return named_system(name)


@st.composite
def closed_braids(draw):
    """Closed braid words on at most 3 strands with at most 6 letters."""
    n = draw(st.integers(1, 3))
    gens = ["s%d" % i for i in range(1, n)] + ["t%d" % i
                                              for i in range(1, n + 1)]
    letters = draw(st.lists(
        st.tuples(st.sampled_from(gens), st.sampled_from(("", "^-1"))),
        max_size=6))
    return "braid[%d]: %s ; close" % (n, " ".join(g + e for g, e in letters))


@fast
@given(word=closed_braids(), name=st.sampled_from(("gl21", "gl11")),
       n=st.integers(0, 3))
def test_closed_words_truncate_consistently(word, name, n):
    rep, tensor = system(name)
    low = wz_eval(word, rep, tensor, n)
    high = wz_eval(word, rep, tensor, n + 1)
    assert low.c == high.c[:n + 1]


def test_valpha_tangle_truncates_consistently():
    """The valpha-tangles bench shape: a strand passing a cupped loop."""
    word = "\n".join(["obj: +", "slice: id(+) cup(+-)",
                      "slice: X+ id(-)", "slice: X- id(-)",
                      "slice: X+ id(-)", "slice: id(+) cap(+-)"])
    rep, tensor = system("valpha")
    low = wz_eval(word, rep, tensor, 2)
    high = wz_eval(word, rep, tensor, 3)
    assert len(low) == 3 and len(high) == 4
    for m in range(3):
        assert low[m] == high[m]
    assert high[3].m
