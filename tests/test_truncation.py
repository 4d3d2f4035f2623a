"""Properties of wz_eval on generated closed braid words.

Truncation consistency: order n is order n + 1 cut at h^n.  The slice
engine carries each chord product only on the degree layers its
least-degree completion can still reach, so a bound that is off by one
shows up here at the first word that needs the top layer.

Two-path agreement: the diagram integral z_eval paired with ws_link
equals the fused slice engine wz_eval, for the defining gl(m|n) module,
at order 3 and, on 3-strand words, at order 5.
Both draw on the one memoised weight system of their (rep, tensor)
pair.
"""

from functools import lru_cache

from hypothesis import given, settings, strategies as st

from superchord.kontsevich import wz_eval, z_eval
from superchord.liesuper import build_gl, casimir_tensor, standard_rep
from superchord.weightsys import named_system, ws_link

fast = settings(derandomize=True, max_examples=30, deadline=None)


@st.composite
def closed_braids(draw, least=1):
    """Closed braid words on least to 3 strands with at most 6 letters."""
    n = draw(st.integers(least, 3))
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
    rep, tensor = named_system(name)
    low = wz_eval(word, rep, tensor, n)
    high = wz_eval(word, rep, tensor, n + 1)
    assert low.c == high.c[:n + 1]


@lru_cache(maxsize=None)
def gl_defining(m, n):
    g = build_gl(m, n)
    return standard_rep(g, "defining"), casimir_tensor(g, "gl")


@fast
@given(word=closed_braids(), mn=st.sampled_from(((2, 1), (1, 1), (3, 1))))
def test_closed_words_agree_on_both_paths(word, mn):
    # gl(2|1) and gl(1|1) weigh every closed diagram (m - n)^cycles, that is
    # 1 or 0, so only gl(3|1) sees a memo that mixes up diagram classes
    rep, tensor = gl_defining(*mn)
    paired = z_eval(word, 3).pair(lambda d: ws_link(d, rep, tensor), rep.ring)
    assert paired == wz_eval(word, rep, tensor, 3)


@settings(derandomize=True, max_examples=8, deadline=None)
@given(word=closed_braids(least=3), name=st.sampled_from(("gl21", "gl11")))
def test_closed_words_agree_on_both_paths_at_order_5(word, name):
    # order 5 is the first where the degree-4 associator words act on two
    # source layers of the slice engine
    rep, tensor = named_system(name)
    paired = z_eval(word, 5).pair(lambda d: ws_link(d, rep, tensor), rep.ring)
    assert paired == wz_eval(word, rep, tensor, 5)


def test_valpha_tangle_truncates_consistently():
    """The valpha-tangles bench shape: a strand passing a cupped loop."""
    word = "\n".join(["obj: +", "slice: id(+) cup(+-)",
                      "slice: X+ id(-)", "slice: X- id(-)",
                      "slice: X+ id(-)", "slice: id(+) cap(+-)"])
    rep, tensor = named_system("valpha")
    low = wz_eval(word, rep, tensor, 2)
    high = wz_eval(word, rep, tensor, 3)
    assert len(low) == 3 and len(high) == 4
    for m in range(3):
        assert low[m] == high[m]
    assert high[3].m
