"""Command line smoke tests driven through main() with argument lists."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from superchord.cli import main
from superchord.diagrams import ChordDiagram, INTERVAL
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


def test_order_cap():
    with pytest.raises(SystemExit):
        main(["lg", "missing.tw", "--order", "5"])


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
