"""The named verification suites stay green and report cleanly."""

import pytest

from superchord import verify
from superchord.liesuper import InvariantTensor
from superchord.verify import (
    SUITES, VerifyReport, fourterm_failures, run_all, run_suite)
from superchord.weightsys import WeightSystem, named_system, weight_system


def test_all_suites_green():
    reports = run_all(order=3, seed=0)
    assert [r.suite for r in reports] == list(SUITES)
    assert all(r.ok for r in reports)
    # 38 before the four structural four-term checks
    assert sum(len(r.checks) for r in reports) == 42


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="fourterm"):
        run_suite("nonsense")


def test_report_lines_mark_failures():
    report = VerifyReport("demo")
    report.add("good", True, "fine")
    report.add("bad", False)
    assert not report.ok
    lines = report.lines()
    assert lines[0] == "ok   demo.good  (fine)"
    assert lines[1] == "FAIL demo.bad"


def test_fourterm_checks_lg_interval_relators_through_the_order(monkeypatch):
    # a cheap stand-in for wlg: the check names and relator counts matter
    monkeypatch.setattr(verify, "wlg",
                        weight_system(*named_system("gl11")))
    names = {o: [n for n, _ok, _d in run_suite("fourterm", order=o).checks]
             for o in (2, 3)}
    assert names[2] == names[3]
    assert names[3][-2:] == ["lg_interval_deg2", "lg_interval_deg3"]
    report = run_suite("fourterm", order=4)
    assert report.ok
    assert report.checks[-1] == ("lg_interval_deg4", True, "315 relators")


def test_fourterm_suite_checks_the_structural_identity_first():
    checks = run_suite("fourterm", order=2).checks
    assert checks[:4] == [("structural_%s" % name, True, "8 role patterns")
                          for name in ("gl21", "gl11", "valpha", "lg")]


@pytest.mark.parametrize("name, key", [
    ("gl21", (1, 3)), ("gl11", (1, 2)), ("valpha", (1, 3)), ("lg", (1, 3))])
def test_structural_fourterm_fails_on_a_perturbed_tensor(name, key):
    rep, tensor = named_system(name)
    assert fourterm_failures(weight_system(rep, tensor)) == []
    # doubling one term e_i x e_j, i != j, leaves a tensor that is not
    # ad-invariant, and the identity fails on every role pattern
    terms = dict(tensor.terms)
    terms[key] = terms[key] * 2
    perturbed = InvariantTensor(tensor.algebra, terms, tensor.ring)
    assert len(fourterm_failures(WeightSystem(rep, perturbed))) == 8


def test_conway_suite_sees_a_wrong_polynomial(monkeypatch):
    assert run_suite("conway", order=3).ok
    original = verify.conway_polynomial

    def off_in_z2(word):
        nabla = original(word) + [0, 0]
        nabla[2] += 1
        return nabla

    monkeypatch.setattr(verify, "conway_polynomial", off_in_z2)
    report = run_suite("conway", order=3)
    assert not any(ok for _n, ok, _d in report.checks)


def test_cabling_builds_its_square_system_once():
    run_suite("cabling", seed=0)
    size = weight_system.cache_info().currsize
    for seed in (1, 2):
        run_suite("cabling", seed=seed)
        assert weight_system.cache_info().currsize == size
