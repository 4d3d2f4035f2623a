"""Command line smoke tests driven through main() with argument lists."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from superchord.cli import main
from superchord.diagrams import CIRCLE, ChordDiagram, INTERVAL
from superchord.jsonio import diagram_to_json, ribbon_to_json
from superchord.ribbon import ribbon_diagonal

TREFOIL = "braid[2]: s1 s1 s1 t1^-3 ; close"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_lg_text(tmp_path, capsys):
    path = write(tmp_path, "trefoil.tw", TREFOIL)
    assert main(["lg", path, "--order", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["h^0: 1", "h^1: 0",
                     "h^2: 2 a + 2 a^2", "h^3: -2 a - 2 a^2"]


def test_lg_json(tmp_path, capsys):
    path = write(tmp_path, "trefoil.tw", TREFOIL)
    assert main(["lg", path, "--order", "2", "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["h_order"] == 2
    assert out["coeffs"][0] == {"num": ["1"]}
    assert out["coeffs"][2] == {"num": ["0", "2", "2"]}


def test_ws_crossed_diagram(tmp_path, capsys):
    crossed = ChordDiagram(
        [INTERVAL], [((0, 0), (0, 2)), ((0, 1), (0, 3))])
    path = write(tmp_path, "crossed.cd", json.dumps(diagram_to_json(crossed)))
    assert main(["ws", path]) == 0
    assert capsys.readouterr().out.strip() == "2 a + 2 a^2"
    assert main(["ws", path, "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"num": ["0", "2", "2"]}


@pytest.mark.parametrize("system, on_circle, on_interval", [
    ("lg", "0", "2 a + 2 a^2"),
    ("gl21", "1", "1"),
    ("gl11", "0", "1"),
    ("valpha", "0", "2 a + 6 a^2 + 8 a^3 + 4 a^4"),
])
def test_ws_crossed_circle_and_interval(tmp_path, capsys, system, on_circle,
                                        on_interval):
    for kind, want in ((CIRCLE, on_circle), (INTERVAL, on_interval)):
        d = ChordDiagram([kind], [((0, 0), (0, 2)), ((0, 1), (0, 3))])
        path = write(tmp_path, kind + ".cd", json.dumps(diagram_to_json(d)))
        assert main(["ws", path, "--system", system]) == 0
        assert capsys.readouterr().out.strip() == want


@pytest.mark.parametrize("system", ["lg", "gl21", "gl11", "valpha"])
def test_ws_two_intervals_is_clean_error(tmp_path, capsys, system):
    d = ChordDiagram([INTERVAL, INTERVAL], [((0, 0), (1, 0))])
    path = write(tmp_path, "two.cd", json.dumps(diagram_to_json(d)))
    assert main(["ws", path, "--system", system]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: need an all-circle or one-interval skeleton\n")


def test_z_text_and_json(tmp_path, capsys):
    path = write(tmp_path, "curl.tw", "braid[1]: t1 ; close")
    assert main(["z", path, "--order", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "h^0  1  (none)"
    assert lines[1] == "h^1  1/2  0:0-0:1"
    assert main(["z", path, "--order", "3", "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["h_order"] == 3
    assert {t["degree"] for t in out["terms"]} == {0, 1, 2, 3}


def test_wz_valpha_vanishes(tmp_path, capsys):
    path = write(tmp_path, "trefoil.tw", TREFOIL)
    assert main(["wz", path, "--system", "valpha"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["h^0: 0", "h^1: 0", "h^2: 0", "h^3: 0"]


def test_wz_valpha_order_five_frozen(tmp_path, capsys):
    # the first order where the degree-4 associator words act on two
    # source layers of the slice engine
    path = write(tmp_path, "trefoil.tw", TREFOIL)
    assert main(["wz", path, "--system", "valpha", "--order", "5",
                 "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "h_order": 5, "coeffs": [{"num": []}] * 6}


def test_wz_reads_a_marked_crossing_as_its_two_resolutions(tmp_path,
                                                           capsys):
    # X+ - X-: the Hopf link minus the unknot s1 s1^-1, not the Hopf link
    path = write(tmp_path, "hopf_sing.tw", "braid[2]: s1 s1 sing ; close")
    assert main(["wz", path, "--system", "gl21", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "h_order": 3, "coeffs": ["0", "1", "1/2", "1/6"]}


def test_wz_rejects_open_words(tmp_path, capsys):
    path = write(tmp_path, "open.tw", "braid[2]: s1 s1")
    assert main(["wz", path]) == 1
    assert "closed" in capsys.readouterr().err


def test_rt_default_and_data(tmp_path, capsys):
    path = write(tmp_path, "trefoil.tw", TREFOIL)
    assert main(["rt", path]) == 0
    assert capsys.readouterr().out.strip() == "1"
    data = ribbon_diagonal([[2, 5], [7, 3]])
    dpath = write(tmp_path, "diag.ribbon", json.dumps(ribbon_to_json(data)))
    framed = write(tmp_path, "framed.tw", "braid[2]: s1 s1 s1 t1 ; close")
    assert main(["rt", framed, "--data", dpath]) == 0
    assert capsys.readouterr().out.strip() == "97"


def test_verify_suite_text(capsys):
    assert main(["verify", "--suite", "oneterm", "--order", "2"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert all(line.startswith("ok") for line in out.strip().splitlines())


def test_verify_suite_json(capsys):
    assert main(["verify", "--suite", "associator", "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out[0]["suite"] == "associator"
    assert all(c["ok"] for c in out[0]["checks"])


def test_word_flag_and_algebra_rep(tmp_path, capsys):
    path = write(tmp_path, "trefoil.tw", TREFOIL)
    assert main(["wz", "--algebra", "gl2_1", "--rep", "v_alpha",
                 "--word", path, "--order", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["h^0: 0", "h^1: 0", "h^2: 0", "h^3: 0"]


def test_verify_positional_suite(capsys):
    assert main(["verify", "fourterm", "--degree", "3"]) == 0
    out = capsys.readouterr().out
    assert "fourterm" in out and "FAIL" not in out


def test_order_cap(capsys):
    start = time.perf_counter()
    assert main(["lg", "missing.tw", "--order", "6"]) == 1
    assert time.perf_counter() - start < 0.1
    err = capsys.readouterr().err
    assert err == "error: order must be an int from 0 to 5, got 6\n"


def test_order_cap_exits_1_without_traceback(tmp_path):
    path = write(tmp_path, "trefoil.tw", TREFOIL)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    for args in (["lg", path, "--order", "6"], ["verify", "--order", "6"]):
        proc = subprocess.run(
            [sys.executable, "-m", "superchord"] + args,
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: order must be")
        assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("args, least", [
    (["verify", "all", "--order", "0"], 2),
    (["verify", "all", "--order", "1"], 2),
    (["verify", "zleading", "--order", "1"], 2),
    (["verify", "corollary", "--order", "0"], 2),
    (["verify", "vassiliev", "--order", "0"], 1),
])
def test_verify_refuses_below_its_least_order(capsys, args, least):
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: order must be an int from %d to 5, "
                            "got %s\n" % (least, args[-1]))


def test_verify_serves_its_least_orders(capsys):
    assert main(["verify", "all", "--order", "2"]) == 0
    assert main(["verify", "vassiliev", "--order", "1"]) == 0
    assert "FAIL" not in capsys.readouterr().out


def huge_order_ribbon(tmp_path):
    """A .ribbon file whose first braiding entry is a series of h_order
    10^30 with one coefficient."""
    obj = ribbon_to_json(ribbon_diagonal([[2, 5], [7, 3]]))
    obj["braiding"][0][2] = {"h_order": 10 ** 30, "coeffs": ["1"]}
    return write(tmp_path, "bad.ribbon", json.dumps(obj))


def test_rt_huge_series_order_is_clean_error(tmp_path, capsys):
    path = write(tmp_path, "trefoil.tw", TREFOIL)
    assert main(["rt", path, "--data", huge_order_ribbon(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: h_order %d needs %d coefficients, got 1\n"
                            % (10 ** 30, 10 ** 30 + 1))


def bad_space_ribbon(tmp_path, field, bad):
    """A .ribbon file of the diagonal data with one field of its space
    replaced."""
    obj = ribbon_to_json(ribbon_diagonal([[2, 5], [7, 3]]))
    obj[field] = bad
    return write(tmp_path, "space.ribbon", json.dumps(obj))


@pytest.mark.parametrize("field, bad, message", [
    ("parities", [2, 2 ** 64], "a parity must be 0 or 1, got (2, %d)"
     % 2 ** 64),
    ("labels", "ab", "labels must be a JSON array of strings, got 'ab'"),
])
def test_rt_bad_parity_or_labels_is_clean_error(tmp_path, capsys, field,
                                                bad, message):
    path = write(tmp_path, "trefoil.tw", TREFOIL)
    dpath = bad_space_ribbon(tmp_path, field, bad)
    assert main(["rt", path, "--data", dpath]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s\n" % message


def test_refusals_exit_1_without_traceback(tmp_path):
    path = write(tmp_path, "trefoil.tw", TREFOIL)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    parity = bad_space_ribbon(tmp_path, "parities", [2, 2 ** 64])
    refusals = [["verify", "all", "--order", "1"],
                ["rt", path, "--data", huge_order_ribbon(tmp_path)],
                ["rt", path, "--data", parity]]
    for depth in (1000, 20000):
        deep = "[" * depth + "]" * depth
        refusals += [
            ["ws", write(tmp_path, "deep%d.cd" % depth, deep)],
            ["rt", path, "--data",
             write(tmp_path, "deep%d.ribbon" % depth, deep)]]
    for args in refusals:
        proc = subprocess.run(
            [sys.executable, "-m", "superchord"] + args,
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr


def test_order_five_accepted(tmp_path, capsys):
    path = write(tmp_path, "unknot.tw", "braid[1]: ; close")
    assert main(["z", path, "--order", "5", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["h_order"] == 5


def test_missing_input_argument():
    with pytest.raises(SystemExit):
        main(["lg"])


def test_missing_file(capsys):
    assert main(["lg", "/nonexistent/file.tw"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    json.dumps({"skeleton": ["circle"]}),
    json.dumps([["circle"], []]),
])
def test_ws_malformed_diagram_is_clean_error(tmp_path, capsys, text):
    path = write(tmp_path, "bad.cd", text)
    assert main(["ws", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: malformed chord diagram")
    assert "Traceback" not in err


def test_python_dash_m_runs_from_a_checkout():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "superchord", "verify", "oneterm"],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "ok   oneterm.isolated_deg3" in proc.stdout


def test_rt_zero_denominator_is_clean_error(tmp_path, capsys):
    obj = ribbon_to_json(ribbon_diagonal([[2, 5], [7, 3]]))
    obj["braiding"][0][2] = "1/0"
    dpath = write(tmp_path, "bad.ribbon", json.dumps(obj))
    path = write(tmp_path, "trefoil.tw", TREFOIL)
    assert main(["rt", path, "--data", dpath]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: zero denominator")
    assert "Traceback" not in err


@pytest.mark.parametrize("endpoint", [0.9, "0"])
def test_ws_non_integer_endpoint_is_clean_error(tmp_path, capsys, endpoint):
    text = json.dumps({"skeleton": ["circle"],
                       "chords": [[[0, endpoint], [0, 1]]]})
    path = write(tmp_path, "f.cd", text)
    assert main(["ws", path, "--system", "gl21"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "error: chord endpoint must be a JSON integer")
    assert "Traceback" not in captured.err


def test_rt_float_entry_index_is_clean_error(tmp_path, capsys):
    obj = ribbon_to_json(ribbon_diagonal([[2, 5], [7, 3]]))
    obj["braiding"][0][0] = 0.5
    dpath = write(tmp_path, "bad.ribbon", json.dumps(obj))
    path = write(tmp_path, "trefoil.tw", TREFOIL)
    assert main(["rt", path, "--data", dpath]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: entry index must be a JSON integer")
    assert "Traceback" not in err


@pytest.mark.parametrize("row, message", [
    ([-1, -1, "3"], "entry index -1 is outside 0..1"),
    ([5, 0, "1"], "entry index 5 is outside 0..1"),
])
def test_rt_entry_index_out_of_range_is_clean_error(tmp_path, capsys, row,
                                                    message):
    # [-1, -1, "3"] in place of [1, 1, "3"] names the same twist if read
    # from the end of the basis
    obj = ribbon_to_json(ribbon_diagonal([[2, 5], [7, 3]]))
    obj["twist"][1] = row
    dpath = write(tmp_path, "bad.ribbon", json.dumps(obj))
    path = write(tmp_path, "trefoil.tw", TREFOIL)
    assert main(["rt", path, "--data", dpath]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s\n" % message


@pytest.mark.parametrize("bad", [0.5, True, 1e300])
def test_rt_non_integer_coefficient_is_clean_error(tmp_path, capsys, bad):
    obj = ribbon_to_json(ribbon_diagonal([[2, 5], [7, 3]]))
    obj["braiding"][0][2] = {"num": [bad]}
    dpath = write(tmp_path, "bad.ribbon", json.dumps(obj))
    path = write(tmp_path, "trefoil.tw", TREFOIL)
    assert main(["rt", path, "--data", dpath]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: coefficient must be a JSON integer")
    assert "Traceback" not in captured.err


def test_ws_unknown_component_kind_is_one_error_line(tmp_path, capsys):
    path = write(tmp_path, "disk.cd",
                 json.dumps({"skeleton": ["disk"], "chords": []}))
    assert main(["ws", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unknown component kind 'disk'\n"
