"""Work that one call must not repeat."""

from superchord import diagrams, ribbon
from superchord.associator import associator_checks, build_associator


def _counting(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_rt_invariant_checks_the_axioms_once(monkeypatch):
    data = ribbon.ribbon_diagonal([[2, 5], [7, 3]])
    word = "braid[2]: s1 s1 ; close"
    expected = ribbon.rt_invariant(word, data, validate=False)
    calls = _counting(monkeypatch, ribbon, "ribbon_checks")
    assert ribbon.rt_invariant(word, data) == expected
    assert len(calls) == 1


def test_associator_checks_reuse_the_built_ideal_spans(monkeypatch):
    assoc = build_associator(4)
    calls = _counting(monkeypatch, diagrams.LinearSpan, "add")
    assert all(associator_checks(assoc).values())
    assert calls == []
