"""JSON round trips and the suffix-dispatching loaders."""

import json
from fractions import Fraction

import pytest

from superchord.diagrams import CIRCLE, ChordDiagram, canonical_form
from superchord.jsonio import (
    diagram_from_json, diagram_to_json, load_path, ribbon_from_json,
    ribbon_to_json, scalar_from_json, scalar_to_json, series_from_json,
    series_to_json, zvalue_from_json, zvalue_to_json)
from superchord.kontsevich import lg_invariant, z_eval
from superchord.ribbon import ribbon_diagonal, ribbon_superflip, rt_invariant
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


def test_ribbon_round_trip_and_axiom_gate():
    data = ribbon_diagonal([[2, 5], [7, 3]])
    back = ribbon_from_json(round_trip(ribbon_to_json(data)))
    assert rt_invariant("braid[2]: s1 s1 s1 t1 ; close", back) == 97
    assert ribbon_from_json(round_trip(ribbon_to_json(ribbon_superflip())))
    bad = round_trip(ribbon_to_json(data))
    bad["braiding"].append([3, 0, "1"])
    with pytest.raises(ValueError, match="yang_baxter"):
        ribbon_from_json(bad)


def test_load_path_dispatches_on_suffix(tmp_path):
    wp = tmp_path / "knot.tw"
    wp.write_text("braid[2]: s1 s1 s1 ; close\n")
    assert load_path(str(wp)).is_closed

    dp = tmp_path / "theta.cd"
    theta = ChordDiagram((CIRCLE,), [((0, 0), (0, 1))])
    dp.write_text(json.dumps(diagram_to_json(theta)))
    assert canonical_form(load_path(str(dp))) == canonical_form(theta)

    rp = tmp_path / "colours.ribbon"
    rp.write_text(json.dumps(ribbon_to_json(ribbon_diagonal([[2, 5], [7, 3]]))))
    assert rt_invariant("braid[1]: ; close", load_path(str(rp))) == 2

    with pytest.raises(ValueError):
        load_path(str(tmp_path / "stuff.txt"))


@pytest.mark.parametrize("load, obj", [
    (diagram_from_json, {"skeleton": ["circle"]}),
    (diagram_from_json, ["circle"]),
    (diagram_from_json, {"skeleton": ["circle"], "chords": [[1, 2]]}),
    (zvalue_from_json, {"skeleton": ["circle"], "h_order": 1}),
    (zvalue_from_json, [1, 2]),
    (ribbon_from_json, {"parities": [0]}),
    (ribbon_from_json, {"parities": [0], "braiding": 5, "twist": []}),
    (ribbon_from_json, "ribbon"),
])
def test_loaders_reject_missing_keys_and_wrong_types(load, obj):
    with pytest.raises(ValueError, match="malformed"):
        load(obj)
