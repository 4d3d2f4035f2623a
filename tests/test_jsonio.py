"""JSON round trips and the file loaders."""

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from superchord.diagrams import CIRCLE, ChordDiagram, canonical_form
from superchord.jsonio import (
    diagram_from_json, diagram_to_json, load_diagram, load_ribbon, load_word,
    ribbon_from_json, ribbon_to_json, scalar_from_json, scalar_to_json,
    series_from_json, series_to_json, zvalue_from_json, zvalue_to_json)
from superchord.kontsevich import lg_invariant, z_eval
from superchord.ribbon import (
    MAPS, RibbonData, ribbon_diagonal, ribbon_superflip, rt_invariant)
from superchord.scalars import alpha


def round_trip(obj):
    return json.loads(json.dumps(obj))


def test_scalar_round_trips():
    for v in [Fraction(3), Fraction(-7, 12), alpha() * 2 + 1,
              alpha() / (alpha() + 2)]:
        assert scalar_from_json(round_trip(scalar_to_json(v))) == v


def test_scalar_rejects_garbage():
    with pytest.raises(ValueError):
        scalar_from_json({"weird": 1})


NON_COEFFICIENTS = [1.5, 0.5, 1.0, True, 1e300, None, [1]]


@pytest.mark.parametrize("bad", NON_COEFFICIENTS)
def test_alpha_coefficients_reject_non_integers(bad):
    for obj in ({"num": [bad]}, {"num": ["1"], "den": ["1", bad]}):
        with pytest.raises(ValueError, match="coefficient must be a JSON int"):
            scalar_from_json(obj)
        with pytest.raises(ValueError, match="coefficient must be a JSON int"):
            series_from_json({"h_order": 1, "coeffs": ["1", obj]})


@pytest.mark.parametrize("bad", [5, "1", {"0": 1}, None])
def test_alpha_coefficients_must_be_an_array(bad):
    for obj in ({"num": bad}, {"num": ["1"], "den": bad}):
        with pytest.raises(ValueError, match="must be a JSON array"):
            scalar_from_json(obj)


def test_alpha_coefficients_take_integers_and_strings():
    assert scalar_from_json({"num": [2, "1/2"], "den": [3]}) == (
        (alpha() / 2 + 2) / 3)


def test_series_round_trip_keeps_order_tag():
    s = lg_invariant("braid[2]: s1 s1 s1 t1^-3 ; close", 3)
    j = series_to_json(s)
    assert j["h_order"] == 3
    assert series_from_json(round_trip(j)) == s


def test_diagram_round_trip_up_to_canonical_form():
    d = ChordDiagram((CIRCLE, CIRCLE), [((0, 0), (1, 1)), ((1, 0), (0, 1))])
    back = diagram_from_json(round_trip(diagram_to_json(d)))
    assert canonical_form(back) == canonical_form(d)
    with pytest.raises(ValueError):
        diagram_from_json({"skeleton": ["segment"], "chords": []})


def test_zvalue_json_lists_degrees_and_coeffs():
    z = z_eval("braid[2]: s1 ; close", 2)
    j = round_trip(zvalue_to_json(z))
    assert j["skeleton"] == ["circle"]
    assert j["h_order"] == 2
    assert {t["degree"] for t in j["terms"]} == {0, 1, 2}
    assert zvalue_from_json(j) == z


def _negative_order(z):
    z["h_order"] = -1


def _term_above_order(z):
    # a degree-2 term under h_order 1: ZValue.pair would index past the end
    z["h_order"] = 1


def _degree_not_chord_count(z):
    next(t for t in z["terms"] if t["degree"] == 1)["degree"] = 2


def _class_given_twice(z):
    t = next(t for t in z["terms"] if t["degree"] == 1)
    z["terms"].append(dict(t, coeff="5"))


@pytest.mark.parametrize("spoil, message", [
    (_negative_order, "h_order must be at least 0"),
    (_term_above_order, "degree 2 above h_order 1"),
    (_degree_not_chord_count, "degree 2 has 1 chords"),
    (_class_given_twice, "two terms of one diagram class"),
])
def test_zvalue_rejects_inconsistent_terms(spoil, message):
    z = round_trip(zvalue_to_json(z_eval("braid[2]: s1 ; close", 2)))
    assert zvalue_from_json(z).order == 2
    spoil(z)
    with pytest.raises(ValueError, match=message):
        zvalue_from_json(z)


def test_ribbon_round_trip_and_axiom_gate():
    data = ribbon_diagonal([[2, 5], [7, 3]])
    back = ribbon_from_json(round_trip(ribbon_to_json(data)))
    assert rt_invariant("braid[2]: s1 s1 s1 t1 ; close", back) == 97
    assert ribbon_from_json(round_trip(ribbon_to_json(ribbon_superflip())))
    bad = round_trip(ribbon_to_json(data))
    bad["braiding"].append([3, 0, "1"])
    with pytest.raises(ValueError, match="yang_baxter"):
        ribbon_from_json(bad)


def test_loaders_read_their_files(tmp_path):
    wp = tmp_path / "knot.tw"
    wp.write_text("braid[2]: s1 s1 s1 ; close\n")
    assert load_word(str(wp)).is_closed

    dp = tmp_path / "theta.cd"
    theta = ChordDiagram((CIRCLE,), [((0, 0), (0, 1))])
    dp.write_text(json.dumps(diagram_to_json(theta)))
    assert canonical_form(load_diagram(str(dp))) == canonical_form(theta)

    rp = tmp_path / "colours.ribbon"
    rp.write_text(json.dumps(ribbon_to_json(ribbon_diagonal([[2, 5], [7, 3]]))))
    assert rt_invariant("braid[1]: ; close", load_ribbon(str(rp))) == 2


@pytest.mark.parametrize("load, obj", [
    (diagram_from_json, {"skeleton": ["circle"]}),
    (diagram_from_json, ["circle"]),
    (diagram_from_json, {"skeleton": ["circle"], "chords": [[1, 2]]}),
    (zvalue_from_json, {"skeleton": ["circle"], "h_order": 1}),
    (zvalue_from_json, [1, 2]),
    (ribbon_from_json, {"parities": [0]}),
    (ribbon_from_json, {"parities": [0], "braiding": 5, "twist": []}),
    (ribbon_from_json, "ribbon"),
    (series_from_json, {"h_order": 1}),
])
def test_loaders_reject_missing_keys_and_wrong_types(load, obj):
    with pytest.raises(ValueError, match="malformed"):
        load(obj)


def nested(depth):
    """JSON text of arrays nested depth levels deep."""
    return "[" * depth + "]" * depth


def nested_series(depth):
    """A one-entry .ribbon object whose braiding value is a series of a
    series of ... depth levels deep: shallow enough for the parser, too
    deep for the loader's own recursion."""
    value = "1"
    for _ in range(depth):
        value = {"h_order": 0, "coeffs": [value]}
    return {"parities": [0], "braiding": [[0, 0, value]], "twist": []}


@pytest.mark.parametrize("load, what, text", [
    (load_diagram, "chord diagram", nested(1000)),
    (load_diagram, "chord diagram", nested(20000)),
    (load_ribbon, "ribbon data", nested(1000)),
    (load_ribbon, "ribbon data", nested(20000)),
    (load_ribbon, "ribbon data", json.dumps(nested_series(400))),
], ids=["cd-1000", "cd-20000", "ribbon-1000", "ribbon-20000",
        "ribbon-series-400"])
def test_deep_nesting_is_malformed(tmp_path, load, what, text):
    path = tmp_path / "deep"
    path.write_text(text)
    with pytest.raises(ValueError,
                       match="^malformed %s: nested too deeply$" % what):
        load(str(path))


def _deep_value():
    """The series nested 400 deep of `nested_series`."""
    return nested_series(400)["braiding"][0][2]


def _deep_zvalue():
    return {"skeleton": ["circle"], "h_order": 0,
            "terms": [{"degree": 0, "chords": [], "coeff": _deep_value()}]}


@pytest.mark.parametrize("load, what, obj", [
    (scalar_from_json, "scalar", _deep_value()),
    (series_from_json, "series", _deep_value()),
    (zvalue_from_json, "integral value", _deep_zvalue()),
    (ribbon_from_json, "ribbon data", nested_series(400)),
], ids=["scalar", "series", "zvalue", "ribbon"])
def test_deep_value_in_process_is_malformed(load, what, obj):
    # the private bodies recurse, and only the loader called reports it
    with pytest.raises(ValueError,
                       match="^malformed %s: nested too deeply$" % what):
        load(obj)


ZERO_DENOMINATORS = ["1/0", {"num": ["1"], "den": ["0"]},
                     {"num": ["1/0"]}]


@pytest.mark.parametrize("bad", ZERO_DENOMINATORS)
def test_scalar_zero_denominator_is_value_error(bad):
    with pytest.raises(ValueError, match="zero denominator"):
        scalar_from_json(bad)


@pytest.mark.parametrize("bad", ZERO_DENOMINATORS)
def test_series_and_zvalue_zero_denominator_is_value_error(bad):
    with pytest.raises(ValueError, match="zero denominator"):
        series_from_json({"h_order": 1, "coeffs": ["1", bad]})
    z = round_trip(zvalue_to_json(z_eval("braid[2]: s1 ; close", 1)))
    z["terms"][0]["coeff"] = bad
    with pytest.raises(ValueError, match="zero denominator"):
        zvalue_from_json(z)


def test_ribbon_zero_denominator_is_value_error():
    obj = round_trip(ribbon_to_json(ribbon_diagonal([[2, 5], [7, 3]])))
    obj["braiding"][0][2] = "1/0"
    with pytest.raises(ValueError, match="zero denominator"):
        ribbon_from_json(obj)


@pytest.mark.parametrize("field, row, index", [
    ("twist", [-1, -1, "3"], -1),
    ("twist", [5, 0, "1"], 5),
    ("twist", [0, 2, "1"], 2),
    ("braiding", [4, 0, "1"], 4),
    ("cup_pm", [0, 1, "1"], 1),
    ("cap_mp", [1, 0, "1"], 1),
])
def test_ribbon_entry_index_out_of_range_is_value_error(field, row, index):
    # a negative index would read from the end of the basis, a large one
    # fall off it; both are refused by name, whatever the map's shape
    obj = round_trip(ribbon_to_json(ribbon_diagonal([[2, 5], [7, 3]])))
    obj[field].append(row)
    with pytest.raises(ValueError,
                       match=r"^entry index %d is outside 0\.\.\d+$" % index):
        ribbon_from_json(obj)


NON_INTEGERS = [0.9, 1.0, "0", True, None]


def _set(obj, path, value):
    for k in path[:-1]:
        obj = obj[k]
    obj[path[-1]] = value


@pytest.mark.parametrize("bad", NON_INTEGERS)
def test_integer_fields_reject_non_integers(bad):
    d = {"skeleton": ["circle"], "chords": [[[0, bad], [0, 1]]]}
    with pytest.raises(ValueError, match="chord endpoint must be a JSON int"):
        diagram_from_json(d)
    with pytest.raises(ValueError, match="h_order must be a JSON integer"):
        series_from_json({"h_order": bad, "coeffs": ["1"]})
    z = round_trip(zvalue_to_json(z_eval("braid[2]: s1 ; close", 1)))
    k = next(i for i, t in enumerate(z["terms"]) if t["chords"])
    for path, what in [(("terms", k, "chords", 0, 1, 0), "chord endpoint"),
                       (("h_order",), "h_order")]:
        obj = round_trip(z)
        _set(obj, path, bad)
        with pytest.raises(ValueError, match=what + " must be a JSON int"):
            zvalue_from_json(obj)
    r = round_trip(ribbon_to_json(ribbon_diagonal([[2, 5], [7, 3]])))
    for path, what in [(("braiding", 0, 0), "entry index"),
                       (("twist", 0, 1), "entry index"),
                       (("parities", 0), "parity")]:
        obj = round_trip(r)
        _set(obj, path, bad)
        with pytest.raises(ValueError, match=what + " must be a JSON int"):
            ribbon_from_json(obj)


# a parity other than 0 or 1 and labels other than a JSON array of
# strings; the first two once loaded as even vectors, "ab" as ("a", "b")
BAD_SPACES = [("parities", [2, 2 ** 64], "a parity must be 0 or 1"),
              ("parities", [0, -1], "a parity must be 0 or 1"),
              ("labels", "ab", "labels must be a JSON array of strings"),
              ("labels", ["c0", 1], "labels must be a JSON array of strings"),
              ("labels", None, "labels must be a JSON array of strings")]


def bad_space(field, bad):
    """The diagonal ribbon data with one field of its space replaced."""
    obj = round_trip(ribbon_to_json(ribbon_diagonal([[2, 5], [7, 3]])))
    obj[field] = bad
    return obj


@pytest.mark.parametrize("field, bad, message", BAD_SPACES)
def test_ribbon_parities_and_labels_are_refused(field, bad, message):
    with pytest.raises(ValueError, match="^" + message):
        ribbon_from_json(bad_space(field, bad))


def test_series_order_must_match_the_coefficient_count():
    # refused before the series ring is built, which at h_order 10^30
    # could not even size its zero
    huge = {"h_order": 10 ** 30, "coeffs": ["1"]}
    message = r"^h_order 10{30} needs 10{29}1 coefficients, got 1$"
    for load in (series_from_json, scalar_from_json):
        with pytest.raises(ValueError, match=message):
            load(huge)
    obj = round_trip(ribbon_to_json(ribbon_diagonal([[2, 5], [7, 3]])))
    obj["braiding"][0][2] = huge
    with pytest.raises(ValueError, match=message):
        ribbon_from_json(obj)
    with pytest.raises(ValueError, match="^h_order 2 needs 3 coefficients"):
        series_from_json({"h_order": 2, "coeffs": ["1", "0"]})


# JSON ints the loaders must bear: small ones, and ones of 2^63 and above,
# which fit no index and no machine word
INTS = st.one_of(st.integers(-2, 4), st.integers(2 ** 63, 2 ** 130),
                 st.integers(-2 ** 130, -2 ** 63))
LEAVES = st.one_of(
    INTS, st.booleans(), st.none(), st.floats(-2, 2),
    st.sampled_from(["0", "1", "-1/2", "3/4", "1/0", "a", "circle",
                     "interval", str(2 ** 64)]))
SCALARS = st.recursive(LEAVES, lambda inner: st.one_of(
    st.fixed_dictionaries({"num": st.lists(inner, max_size=3)},
                          optional={"den": st.lists(inner, max_size=3)}),
    st.fixed_dictionaries({"h_order": INTS,
                           "coeffs": st.lists(inner, max_size=3)})),
    max_leaves=6)
SKELETONS = st.lists(st.one_of(st.sampled_from(["circle", "interval"]),
                               LEAVES), max_size=3)
ENDPOINTS = st.one_of(st.lists(INTS, min_size=2, max_size=2), LEAVES)
CHORDS = st.lists(st.one_of(st.lists(ENDPOINTS, min_size=2, max_size=2),
                            LEAVES), max_size=3)
ENTRIES = st.lists(st.one_of(st.tuples(INTS, INTS, SCALARS).map(list),
                             LEAVES), max_size=3)
LOADED = st.one_of(
    st.tuples(st.just(diagram_from_json), st.fixed_dictionaries(
        {"skeleton": SKELETONS, "chords": CHORDS})),
    st.tuples(st.just(scalar_from_json), SCALARS),
    st.tuples(st.just(series_from_json), st.fixed_dictionaries(
        {"h_order": INTS, "coeffs": st.lists(SCALARS, max_size=3)})),
    st.tuples(st.just(zvalue_from_json), st.fixed_dictionaries(
        {"skeleton": SKELETONS, "h_order": INTS,
         "terms": st.lists(st.fixed_dictionaries(
             {"degree": INTS, "chords": CHORDS, "coeff": SCALARS}),
             max_size=2)})),
    st.tuples(st.just(ribbon_from_json), st.fixed_dictionaries(
        {"parities": st.lists(INTS, min_size=1, max_size=2),
         "braiding": ENTRIES, "twist": ENTRIES},
        optional={"labels": st.one_of(st.lists(LEAVES, max_size=2),
                                      LEAVES),
                  **{name: ENTRIES for name in ("cup_pm", "cap_mp")}})))
HUGE_ENTRY = round_trip(ribbon_to_json(ribbon_diagonal([[2, 5], [7, 3]])))
HUGE_ENTRY["braiding"][0][2] = {"h_order": 10 ** 30, "coeffs": ["1"]}


@settings(derandomize=True, max_examples=150, deadline=None)
@given(case=LOADED)
@example(case=(ribbon_from_json, HUGE_ENTRY))
@example(case=(ribbon_from_json, bad_space("parities", [2, 2 ** 64])))
@example(case=(ribbon_from_json, bad_space("labels", "ab")))
def test_loaders_load_or_raise_value_error(case):
    load, obj = case
    try:
        loaded = load(obj)
    except ValueError:
        return
    if load is ribbon_from_json:
        # the space holds the parities and labels read, none rewritten
        assert list(loaded.space.parities) == obj["parities"]
        assert list(loaded.space.labels) == obj.get(
            "labels", list(loaded.space.labels))


def test_unknown_component_kind_is_refused_by_name(tmp_path):
    disk = {"skeleton": ["disk"], "chords": []}
    message = "^unknown component kind 'disk'$"
    with pytest.raises(ValueError, match=message):
        diagram_from_json(disk)
    with pytest.raises(ValueError, match=message):
        zvalue_from_json({"skeleton": ["disk"], "h_order": 0, "terms": []})
    path = tmp_path / "disk.cd"
    path.write_text(json.dumps(disk))
    with pytest.raises(ValueError, match=message):
        load_diagram(str(path))


def test_ribbon_round_trip_keeps_non_default_bends():
    d = ribbon_diagonal([[2, 5], [7, 3]])
    half = Fraction(1, 2)
    data = RibbonData(d.space, d.braiding, d.twist,
                      cup_pm=d.cup_pm.scale(2), cup_mp=d.cup_mp.scale(2),
                      cap_pm=d.cap_pm.scale(half), cap_mp=d.cap_mp.scale(half),
                      braiding_inv=d.braiding_inv)
    assert all(data.checks.values())
    obj = round_trip(ribbon_to_json(data))
    assert list(MAPS) == ["braiding", "twist", "cup_pm", "cup_mp", "cap_pm",
                          "cap_mp"]
    assert list(obj) == ["parities", "labels"] + list(MAPS)
    back = ribbon_from_json(obj)
    for name in MAPS:
        assert getattr(back, name) == getattr(data, name)
    assert back.cup_pm != d.cup_pm and back.cap_mp != d.cap_mp
    for word in ["braid[2]: s1 s1 s1 t1^-3 ; close",
                 "braid[3]: s1 s2^-1 s1 s2^-1 ; close"]:
        assert rt_invariant(word, back) == 2
