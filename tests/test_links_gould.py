"""The Links-Gould series against two identities it must satisfy.

Write the h^m coefficient of `lg_invariant` as sum_j c_{m,j} alpha^j.
With beta = alpha h, t0 t1 = 1 is the point h = 0 and t0 <-> t1 is the
map alpha -> -1 - alpha, so the specialisation LG(K; t, t^-1) =
Delta_K(t)^2 (De Wit-Ishii-Links, Algebr. Geom. Topol. 5, 2005) and the
symmetry of LG in t0 and t1 (Links-Gould, Lett. Math. Phys. 26, 1992)
read, on a knot of framing 0:

- c_{m,j} = 0 for j > m, and the top coefficients give
  sum_m c_{m,m} beta^m = nabla_K(2 sinh(beta / 2))^2, with nabla_K the
  Conway polynomial of `conway.conway_polynomial` (`conway_series`);
- every coefficient is invariant under alpha -> -1 - alpha.

Both are asserted in this form, as measured on the package; nothing is
claimed about other normalisations.  The right sides come from the
skein recursion of `conway` and binomial arithmetic, not from chord
diagrams or weight systems, so they check the whole lg path: the
integral, its four-term reduction, the V_alpha weights and the hump
division.
"""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from superchord.kontsevich import lg_invariant
from superchord.verify import CONWAY_WORDS, conway_series
from superchord.words import parse_word
from test_associator import SIX_KNOTS
from test_int_walk import braids

# 6_1, 6_3, 7_1 and the sum of the trefoil and the figure eight, at
# framing 0
MORE_KNOTS = ("braid[4]: s1 s1 s2 s1^-1 s3^-1 s2 s3^-1 t1^-1 ; close",
              "braid[3]: s1 s1 s2^-1 s1 s2^-1 s2^-1 ; close",
              "braid[2]: s1^7 t1^-7 ; close",
              "braid[4]: s1 s1 s1 s2 s3^-1 s2 s3^-1 t1^-3 ; close")


def alpha_degrees(series):
    """c[m][j], the coefficient of alpha^j h^m of a series whose
    coefficients are polynomials in alpha, trailing zeros dropped."""
    return [list(series.coeff(m).as_poly().c)
            for m in range(series.ring.order + 1)]


def reflected(coeffs):
    """The coefficients of p(-1 - alpha), for those of p(alpha):
    (-1 - alpha)^j = (-1)^j sum_i C(j, i) alpha^i."""
    out = [Fraction(0)] * len(coeffs)
    for j, c in enumerate(coeffs):
        for i in range(j + 1):
            out[i] += (-1) ** j * comb(j, i) * c
    return out


def assert_lg_identities(words, order):
    """Both identities on lg of each zero-framed knot word through
    h^order; returns the top coefficients c_{m,m} of the last word."""
    for text in words:
        c = alpha_degrees(lg_invariant(text, order))
        assert all(len(cm) <= m + 1 for m, cm in enumerate(c)), text
        top = [cm[m] if len(cm) > m else 0 for m, cm in enumerate(c)]
        nabla = conway_series(text, order)
        square = nabla * nabla
        assert top == [square.coeff(m) for m in range(order + 1)], text
        assert all(reflected(cm) == cm for cm in c), text
    return top


def test_alpha_degrees_and_the_reflection():
    # the trefoil's h^2 coefficient is 2 alpha + 2 alpha^2, which
    # alpha -> -1 - alpha fixes: 2 (-1 - a) + 2 (1 + a)^2 = 2 a + 2 a^2
    c = alpha_degrees(lg_invariant(CONWAY_WORDS[0][1], 2))
    assert c == [[1], [], [0, 2, 2]]
    assert reflected(c[2]) == c[2]
    assert reflected([0, 1]) == [-1, -1]


@pytest.mark.parametrize("order", [3, 4])
def test_lg_identities_on_fixed_knots(order):
    words = [w for _l, w in CONWAY_WORDS] + list(SIX_KNOTS + MORE_KNOTS)
    assert_lg_identities(words, order)


def test_top_coefficients_of_the_trefoil_and_the_figure_eight():
    # nabla = 1 + z^2 and 1 - z^2 at z = 2 sinh(beta / 2), squared
    trefoil, fig8 = (w for _l, w in CONWAY_WORDS[:2])
    assert assert_lg_identities([trefoil], 4) == [1, 0, 2, 0,
                                                  Fraction(7, 6)]
    assert assert_lg_identities([fig8], 4) == [1, 0, -2, 0, Fraction(5, 6)]


@st.composite
def knots(draw):
    """A closed braid on 2 or 3 strands with 1 to 6 letters whose closure
    is a knot, its writhe cancelled by t1 so that its framing is 0."""
    text = draw(braids().filter(
        lambda t: len(parse_word(t).components) == 1))
    framing, = parse_word(text).framings
    if framing:
        text = text.replace(" ; close", " t1^%d ; close" % -framing)
    return text


@settings(derandomize=True, max_examples=25, deadline=None)
@given(text=knots(), order=st.integers(3, 4))
def test_lg_identities_on_generated_knots(text, order):
    assert parse_word(text).framings == (0,)
    assert_lg_identities([text], order)
