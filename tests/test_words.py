"""Tangle word parsing, tracing, framings, and singular handling."""

import re
import time

import pytest
from hypothesis import given, settings, strategies as st

from superchord import words
from superchord.cli import main
from superchord.diagrams import CIRCLE, INTERVAL, canonical_form, ChordDiagram
from superchord.words import MAX_TOKENS, diagram_of_singular, parse_word
from test_double_points import resolution, resolve_singular
from test_ribbon import generated_words


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


def test_a_parsed_word_is_returned_as_it_is():
    # every function that takes a word passes it through parse_word
    for text in ("braid[2]: s1 s1 s1 ; close", "cup(+-) ; cap(+-)"):
        w = parse_word(text)
        assert parse_word(w) is w


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


@pytest.mark.parametrize("gap", ["\t", " \t ", "\t\t"])
def test_any_whitespace_separates_slice_tokens(gap):
    # tokens are split as obj lines and braid words split, on any
    # whitespace within the line
    text = "obj: + + + -\nslice: id(+) X+ id(-)\nslice: cup(+-) %s"
    spaced = parse_word(text % "id(+) id(+) id(+) id(-)")
    tabbed = parse_word(text % gap.join(["id(+)"] * 3 + ["id(-)"]))
    assert (tabbed.source, tabbed.slices, tabbed.components,
            tabbed.framings) == (spaced.source, spaced.slices,
                                 spaced.components, spaced.framings)


# the separators str.splitlines also ends a line at
OTHER_SEPARATORS = ["\f", "\v", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
                    "\u2029"]


@pytest.mark.parametrize("gap", OTHER_SEPARATORS)
def test_only_newlines_end_a_line(gap):
    # lines end at \n, \r\n and \r alone; any other separator is
    # whitespace between the tokens of one slice or obj line
    spaced = parse_word("slice: id(+) id(+) id(+) id(+)")
    split = parse_word("slice: id(+) id(+)%sid(+) id(+)" % gap)
    assert split.source == (1,) * 4
    assert split.slices == spaced.slices
    declared = parse_word("obj: + %s -\nslice: id(+) id(-)" % gap)
    assert declared.source == (1, -1)
    braid = parse_word("braid[2]: s1%ss1 ; close" % gap)
    assert braid.framings == parse_word("braid[2]: s1 s1 ; close").framings


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_each_line_end_splits_slices(end):
    text = end.join(["obj: + -", "slice: id(+) id(-)", "slice: cap(+-)"])
    w = parse_word(text)
    assert (w.source, w.slices) == ((1, -1), [(("id", 1), ("id", -1)),
                                              (("cap", 1),)])


@pytest.mark.parametrize("text", ["slice: id(+) foo", "slice: id(+)\tfoo"])
def test_unknown_slice_token_is_named(text):
    with pytest.raises(ValueError,
                       match=re.escape("unknown token at slice 0: 'foo'")):
        parse_word(text)


def test_boundary_mismatch_rejected():
    with pytest.raises(ValueError):
        parse_word("obj: + +\nslice: cap(+-)")
    with pytest.raises(ValueError):
        parse_word("obj: +\nslice: id(-)")


def test_declared_boundary_under_a_crossing():
    # the obj line gives the boundary, so nothing is inferred from the
    # crossing on it; without the line the boundary cannot be inferred
    w = parse_word("obj: + -\nslice: X+")
    assert (w.source, w.target) == ((1, -1), (-1, 1))
    with pytest.raises(ValueError, match="declare it with an obj line"):
        parse_word("slice: X+")


def test_crossing_range_rejected():
    with pytest.raises(ValueError):
        parse_word("braid[2]: s2 ; close")
    with pytest.raises(ValueError):
        parse_word("braid[2]: t3 ; close")


def test_dangling_sing_rejected():
    with pytest.raises(ValueError):
        parse_word("braid[2]: sing s1 ; close")


@pytest.mark.parametrize("text", [
    "braid[2]: s1^-1 sing s1 ; close",
    "braid[2]: s1 s1^-2 sing ; close",
    "braid[3]: s1 s2^-1 sing s1 ; close",
    "obj: + +\nslice: X- sing",
    "obj: + + +\nslice: id(+) X- sing",
])
def test_signed_sing_rejected(text):
    # a double point is X+ - X- whatever sign is written, so a mark goes
    # on a positive crossing only
    with pytest.raises(ValueError, match="unmarked crossing"):
        parse_word(text)


def test_a_marked_crossing_counts_as_positive():
    # framings and writhe are those of the all-positive resolution
    w = parse_word("braid[2]: s1 sing s1 s1 t1^-1 ; close")
    assert w.framings == resolution(w)[1].framings == (2,)
    assert w.writhe == resolution(w)[1].writhe == 2
    slice_word = parse_word("obj: + +\nslice: X+ sing")
    assert slice_word.slices == [(("x", 1, True),)]
    assert slice_word.writhe == 1


@pytest.mark.parametrize("text", [
    "braid[2]: s1 sing sing ; close",
    "braid[2]: s1^3 sing sing ; close",
    "obj: + +\nslice: X+ sing sing",
    "obj: + + +\nslice: X+ sing sing id(+)",
])
def test_doubled_sing_rejected(text):
    with pytest.raises(ValueError, match="unmarked crossing"):
        parse_word(text)


@pytest.mark.parametrize("text", [
    "braid[2]: s1^99999999999 ; close",
    "braid[2]: t1^-99999999999 ; close",
    "braid[2]: s1^40000 s1^-40000 ; close",
    "braid[99999999999]: s1 ; close",
    "braid[99999]: s1 ; close",
    "braid[99999]: s1",
    "braid[200]: ; close",
    "braid[3]: t1^8000 ; close",
])
def test_oversized_braid_expansion_rejected_before_it_is_built(text):
    start = time.perf_counter()
    with pytest.raises(ValueError, match=str(MAX_TOKENS)):
        parse_word(text)
    assert time.perf_counter() - start < 0.1


def test_braid_expansion_at_the_token_bound_is_built():
    # the closure of 180 strands is 64,800 tokens; one s1 adds 359
    w = parse_word("braid[180]: s1 ; close")
    assert sum(map(len, w.slices)) == 2 * 180 ** 2 + 359 <= MAX_TOKENS


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


# An arc with both ends on the bottom boundary, alone and after crossings
BOTTOM_ARC = "obj: + -\nslice: cap(+-)"
BOTTOM_ARC_CROSSED = ("obj: + -\nid(+) id(-) cup(+-)\nid(+) X+ id(-)\n"
                      "X- X+\nid(+) X+ id(-)\nid(+) id(-) cap(+-)")


@pytest.mark.parametrize("text, comps, framings, z_text", [
    (BOTTOM_ARC, (INTERVAL,), (0,), "h^0  1  (none)\n"),
    (BOTTOM_ARC_CROSSED, (INTERVAL, INTERVAL), (0, 0),
     "h^0  1  (none)\nh^1  -1  0:0-1:0\nh^2  1/2  0:0-1:1 0:1-1:0\n"),
], ids=["bare", "crossed"])
def test_an_arc_with_both_ends_on_the_bottom_is_a_component(
        tmp_path, capsys, text, comps, framings, z_text):
    # the tracer listed intervals only from the ends on the top boundary:
    # the bare arc had no component and the crossed one raised KeyError
    w = parse_word(text)
    assert w.components == comps
    assert w.framings == framings
    path = tmp_path / "arc.tw"
    path.write_text(text + "\n")
    assert main(["z", str(path), "--order", "2"]) == 0
    assert capsys.readouterr().out == z_text


def test_paths_with_a_top_end_keep_their_order(monkeypatch):
    # closed paths first, then the open ones by serial; a path with both
    # ends on the bottom only ever adds a component among them
    seen = []
    finish = words.PathTracer.finish

    def recording(self):
        top = sorted(set(self._find(s) for s, _ in self._ends))
        out = finish(self)
        seen.append([out.comp_of(r) for r in self._closed + top])
        return out

    monkeypatch.setattr(words.PathTracer, "finish", recording)
    bottom_only = 0
    for text in generated_words(40, seed=3):
        w = parse_word(text)
        comps = seen.pop()
        assert comps == sorted(comps)
        assert comps[:w.components.count(CIRCLE)] == list(
            range(w.components.count(CIRCLE)))
        bottom_only += len(w.components) - len(comps)
    assert bottom_only > 0


_NAME = {1: "+", -1: "-"}
# what a spoiled word may hold in place of one of its tokens
_SPOILS = ("id(+)", "id(-)", "X+", "X-", "sing", "cup(+-)", "cup(-+)",
           "cap(+-)", "cap(-+)", "cup(++)", "cap(--)", "id(x)", "", "s1",
           "close", "obj: +", "slice:", "braid[2]: s1")


@st.composite
def sliced_words(draw):
    """A sliced word walked over strand signs, with cups and caps on its
    boundary as well as inside, its obj line kept or dropped, its lines
    split in every accepted way, and at most one token spoiled; (text,
    sound), sound when no token is spoiled and the boundary is declared
    or can be inferred, so that the word must parse."""
    signs = draw(st.lists(st.sampled_from((1, -1)), max_size=3))
    lines = [["obj:"] + [_NAME[s] for s in signs]]
    for _ in range(draw(st.integers(1, 4))):
        row, nxt, p = ["slice:"] if draw(st.booleans()) else [], [], 0
        while p <= len(signs):
            if len(nxt) + len(signs) - p < 6 and draw(st.booleans()):
                s = draw(st.sampled_from((1, -1)))
                row.append("cup(%s%s)" % (_NAME[s], _NAME[-s]))
                nxt += [s, -s]
                continue
            if p == len(signs):
                break
            pair, move = signs[p:p + 2], draw(st.sampled_from("ixc"))
            if move == "x" and len(pair) == 2:
                row += draw(st.sampled_from((["X+"], ["X-"], ["X+", "sing"])))
                nxt += pair[::-1]
                p += 2
            elif move == "c" and len(pair) == 2 and pair[0] == -pair[1]:
                row.append("cap(%s%s)" % tuple(_NAME[s] for s in pair))
                p += 2
            else:
                row.append("id(%s)" % _NAME[signs[p]])
                nxt.append(signs[p])
                p += 1
        lines.append(row or ["slice:"])
        signs = nxt
    declared = draw(st.booleans())
    if not declared:
        del lines[0]
    sound = declared or not any(t[0] == "X" for t in lines[0])
    toks = [(i, j) for i, row in enumerate(lines) for j in range(len(row))]
    if toks and draw(st.booleans()):
        i, j = draw(st.sampled_from(toks))
        spoil = draw(st.sampled_from(_SPOILS))
        sound = sound and spoil == lines[i][j]
        lines[i][j] = spoil
    sep = draw(st.sampled_from(("\n", "\r\n", "\r", ";", " ; ")))
    space = draw(st.sampled_from((" ", "\t", "  ")))
    return sep.join(space.join(row) for row in lines), sound


@settings(derandomize=True, max_examples=200, deadline=None)
@given(case=sliced_words())
def test_sliced_words_parse_or_raise_value_error(case):
    text, sound = case
    try:
        word = parse_word(text)
    except ValueError:
        assert not sound, text
        return
    assert len(word.framings) == len(word.components)
    assert set(word.source + word.target) <= {1, -1}
