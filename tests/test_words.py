"""Tangle word parsing, tracing, framings, and singular handling."""

import re

import pytest
from superchord.diagrams import CIRCLE, INTERVAL, canonical_form, ChordDiagram
from superchord.words import parse_word, resolve_singular, diagram_of_singular


def test_unknot_closure():
    w = parse_word("braid[1]: ; close")
    assert w.is_closed
    assert w.components == (CIRCLE,)
    assert w.framings == (0,)
    assert w.writhe == 0


def test_trefoil_closure():
    w = parse_word("braid[2]: s1 s1 s1 ; close")
    assert w.components == (CIRCLE,)
    assert w.framings == (3,)
    assert w.writhe == 3


def test_exponent_sugar():
    assert parse_word("braid[2]: s1^3 ; close").writhe == 3
    assert parse_word("braid[2]: s1^-2 ; close").writhe == -2


def test_hopf_closure_two_components():
    w = parse_word("braid[2]: s1 s1 ; close")
    assert w.components == (CIRCLE, CIRCLE)
    assert w.framings == (0, 0)
    assert w.writhe == 2


def test_twist_markers_cancel_framing():
    w = parse_word("braid[2]: s1 s1 s1 t1^-3 ; close")
    assert w.components == (CIRCLE,)
    assert w.framings == (0,)
    assert w.writhe == 0


def test_figure_eight_closure():
    w = parse_word("braid[3]: s1 s2^-1 s1 s2^-1 ; close")
    assert w.components == (CIRCLE,)
    assert w.framings == (0,)


def test_torus_trefoil_closure():
    w = parse_word("braid[3]: s1 s2 s1 s2 ; close")
    assert w.components == (CIRCLE,)
    assert w.framings == (4,)


def test_open_braid_strand():
    w = parse_word("braid[1]:")
    assert w.source == (1,)
    assert w.target == (1,)
    assert w.components == (INTERVAL,)


def test_identity_slice_word():
    w = parse_word("id(+)")
    assert w.source == (1,)
    assert w.target == (1,)
    assert w.components == (INTERVAL,)
    assert w.framings == (0,)


def test_cup_cap_unknot():
    w = parse_word("slice: cup(+-)\nslice: cap(+-)")
    assert w.is_closed
    assert w.components == (CIRCLE,)
    assert w.framings == (0,)


def test_open_curl_framing():
    w = parse_word("braid[1]: t1")
    assert w.components == (INTERVAL,)
    assert w.framings == (1,)
    assert len(w.slices) == 3


def test_over_closing_rejected():
    with pytest.raises(ValueError):
        parse_word("braid[2]: s1 ; close ; close")


def test_unknown_token_rejected():
    with pytest.raises(ValueError):
        parse_word("braid[2]: q1 ; close")
    with pytest.raises(ValueError):
        parse_word("slice: frob(+)")


def test_boundary_mismatch_rejected():
    with pytest.raises(ValueError):
        parse_word("obj: + +\nslice: cap(+-)")
    with pytest.raises(ValueError):
        parse_word("obj: +\nslice: id(-)")


def test_crossing_range_rejected():
    with pytest.raises(ValueError):
        parse_word("braid[2]: s2 ; close")
    with pytest.raises(ValueError):
        parse_word("braid[2]: t3 ; close")


def test_dangling_sing_rejected():
    with pytest.raises(ValueError):
        parse_word("braid[2]: sing s1 ; close")


def test_singular_hopf_diagram():
    w = parse_word("braid[2]: s1 sing s1 ; close")
    assert w.sing_count == 1
    assert w.components == (CIRCLE, CIRCLE)
    d = diagram_of_singular(w)
    want = ChordDiagram((CIRCLE, CIRCLE), [((0, 0), (1, 0))])
    assert canonical_form(d) == canonical_form(want)


def test_singular_self_chord_diagram():
    w = parse_word("braid[3]: s1 sing s2 ; close")
    assert w.components == (CIRCLE,)
    d = diagram_of_singular(w)
    want = ChordDiagram((CIRCLE,), [((0, 0), (0, 1))])
    assert canonical_form(d) == canonical_form(want)


def test_resolutions_signs_and_framings():
    w = parse_word("braid[2]: s1 sing s1 ; close")
    res = resolve_singular(w)
    assert len(res) == 2
    assert sorted(s for s, _ in res) == [-1, 1]
    for sign, r in res:
        assert r.sing_count == 0
        assert r.writhe == 1 + sign
    plain = parse_word("braid[2]: s1 ; close")
    res0 = resolve_singular(plain)
    assert len(res0) == 1
    assert res0[0][0] == 1


def test_two_marked_crossings_resolve_to_four():
    w = parse_word("braid[3]: s1 sing s2 s1 sing s2 ; close")
    assert w.sing_count == 2
    res = resolve_singular(w)
    assert len(res) == 4
    assert sorted(s for s, _ in res) == [-1, -1, 1, 1]
    d = diagram_of_singular(w)
    assert d.skeleton == (CIRCLE,)
    assert d.degree == 2


@pytest.mark.parametrize("text, token", [
    ("obj: + id(-)\nslice: id(+)", "id(-)"),
    ("obj: x\nslice: id(+)", "x"),
])
def test_bad_obj_sign_rejected(text, token):
    with pytest.raises(ValueError, match=r"obj line.*%s" % re.escape(token)):
        parse_word(text)
