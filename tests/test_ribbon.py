"""Ribbon data axioms and strict evaluation of closed words."""

from fractions import Fraction

import pytest

from superchord.ribbon import (
    RibbonData, invert_supermap, ribbon_checks, ribbon_diagonal,
    ribbon_superflip, ribbon_trivial, rt_invariant)
from superchord.scalars import QQ, SeriesRing
from superchord.supergraded import SuperMap


def test_trivial_data_gives_one_on_every_knot():
    data = ribbon_trivial()
    assert all(ribbon_checks(data).values())
    for w in ["braid[1]: ; close", "braid[2]: s1 ; close",
              "braid[2]: s1 s1 s1 t1^-3 ; close",
              "braid[3]: s1 s2^-1 s1 s2^-1 ; close"]:
        assert rt_invariant(w, data) == 1


def test_diagonal_data_passes_all_checks():
    data = ribbon_diagonal([[2, 5], [7, 3]])
    assert ribbon_checks(data) == {"inverse": True, "yang_baxter": True,
                                   "twist_naturality": True, "snake": True,
                                   "curl": True}


def test_diagonal_invariant_counts_colour_twists():
    data = ribbon_diagonal([[2, 5], [7, 3]])
    assert rt_invariant("braid[1]: ; close", data) == 2
    assert rt_invariant("braid[1]: t1 ; close", data) == 5
    assert rt_invariant("braid[1]: t1^-1 ; close", data) == \
        Fraction(1, 2) + Fraction(1, 3)


def test_two_trefoil_presentations_agree():
    data = ribbon_diagonal([[2, 5], [7, 3]])
    a = rt_invariant("braid[2]: s1 s1 s1 t1 ; close", data)
    b = rt_invariant("braid[3]: s1 s2 s1 s2 ; close", data)
    assert a == b == 2 ** 4 + 3 ** 4


def test_superflip_data_closes_to_superdimension():
    data = ribbon_superflip()
    assert all(ribbon_checks(data).values())
    assert rt_invariant("braid[1]: ; close", data) == 0
    assert rt_invariant("braid[2]: s1 s1 ; close", data) == 0


def test_perturbed_braiding_is_rejected():
    data = ribbon_diagonal([[2, 5], [7, 3]])
    entries = dict(data.braiding.m)
    entries[(3, 0)] = Fraction(1)
    vv = data.space.tensor(data.space)
    bad = RibbonData(data.space, SuperMap(vv, vv, entries, data.ring),
                     data.twist, data.ring)
    assert ribbon_checks(bad)["yang_baxter"] is False
    with pytest.raises(ValueError, match="yang_baxter"):
        rt_invariant("braid[1]: ; close", bad)


def test_diagonal_data_over_series_declares_its_inverse():
    # solving for the inverse over Q[[h]] raised TypeError: HSeries has
    # no division
    ring = SeriesRing(QQ, 4)
    data = ribbon_diagonal([[2, 5], [7, 3]], ring)
    assert all(ribbon_checks(data).values())
    assert rt_invariant("braid[2]: s1 s1 ; close", data) == ring.coerce(83)
    h = ring.monomial(1)
    data = ribbon_diagonal([[2, ring.one + h], [7, 3]], ring)
    assert all(ribbon_checks(data).values())


def test_wrong_declared_inverse_fails_the_inverse_axiom():
    for ring in (QQ, SeriesRing(QQ, 2)):
        data = ribbon_diagonal([[2, 5], [7, 3]], ring)
        bad = RibbonData(data.space, data.braiding, data.twist, ring,
                         braiding_inv=data.braiding)
        assert ribbon_checks(bad)["inverse"] is False
        with pytest.raises(ValueError, match="inverse"):
            rt_invariant("braid[1]: ; close", bad)


def test_open_words_return_boundary_maps():
    data = ribbon_diagonal([[2, 5], [7, 3]])
    m = rt_invariant("braid[2]: s1 s1^-1", data)
    assert m == SuperMap.identity(data.space.tensor(data.space), data.ring)


def test_invert_supermap_round_trip():
    data = ribbon_diagonal([[2, 5], [7, 3]])
    r = data.braiding
    assert invert_supermap(invert_supermap(r)) == r
    with pytest.raises(ValueError):
        invert_supermap(SuperMap(data.space, data.space, {}, data.ring))


def test_marked_words_are_rejected():
    data = ribbon_trivial()
    with pytest.raises(ValueError):
        rt_invariant("braid[2]: s1 sing s1 ; close", data)
