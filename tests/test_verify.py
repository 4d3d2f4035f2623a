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


def _no_work(*args, **kwargs):
    raise AssertionError("work started before the order was checked")


def test_least_orders_come_from_the_mark_counts():
    assert max(m for m, _l, _t in verify.SINGULAR_WORDS) == 2
    assert verify.LEAST_ORDER == {"zleading": 2, "corollary": 2,
                                  "vassiliev": 1}


@pytest.mark.parametrize("name, order, least", [
    ("zleading", 0, 2), ("zleading", 1, 2), ("corollary", 0, 2),
    ("corollary", 1, 2), ("vassiliev", 0, 1)])
def test_singular_suites_refuse_orders_below_their_least(monkeypatch, name,
                                                         order, least):
    # below its least order a suite cannot decide its checks: it read
    # v.coeff(2) of an order-1 series, or reported the 2-mark words'
    # leading terms as failures
    for work in ("parse_word", "z_eval", "vassiliev_defect",
                 "_singular_defects", "named_system", "weight_system"):
        monkeypatch.setattr(verify, work, _no_work)
    message = r"^order must be an int from %d to 5, got %d$" % (least, order)
    for run in (SUITES[name], lambda order: run_suite(name, order=order)):
        with pytest.raises(ValueError, match=message):
            run(order=order)


@pytest.mark.parametrize("order", [0, 1])
def test_run_all_refuses_below_its_least_order_up_front(monkeypatch, order):
    for name in SUITES:
        monkeypatch.setitem(SUITES, name, _no_work)
    with pytest.raises(ValueError, match="from 2 to 5, got %d$" % order):
        run_all(order=order)


@pytest.mark.parametrize("order", [0, 1])
def test_other_suites_serve_orders_0_and_1(order):
    served = [name for name in SUITES
              if verify.LEAST_ORDER.get(name, 0) <= order]
    assert len(served) == 6 + order
    for name in served:
        assert run_suite(name, order=order).ok, name


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
