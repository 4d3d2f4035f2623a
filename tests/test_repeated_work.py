"""Work that one call must not repeat."""

from fractions import Fraction

from superchord import diagrams, kontsevich, ribbon, weightsys
from superchord.associator import associator_checks, build_associator
from superchord.kontsevich import lg_invariant, wz_eval, z_eval
from test_associator import _solve_associator

# the lg-knots benchmark inputs of seed 0
LG_KNOTS_SEED0 = (
    "braid[2]: s1 s1 s1 t1^-3 ; close",
    "braid[3]: s1^-1 s2 s1 s2 t1^-2 ; close",
    "braid[2]: s1 s1 s1 s1 s1^-1 t1^-3 ; close",
    "braid[3]: s1^-1 s1^-1 s1 s2 ; close",
    "braid[2]: s1^-1 s1^-1 s1 s1^-1 s1^-1 s1 s1 t1^1 ; close",
)


def _counting(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _interval_classes(degree):
    """The diagram classes of the interval four-term relators, by key."""
    return {diagrams.canonical_form(d): d
            for rel in diagrams.four_term_relators((diagrams.INTERVAL,),
                                                   degree)
            for _sign, d in rel}


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


def test_associator_solve_builds_no_relator_span(monkeypatch):
    spans = _counting(monkeypatch, diagrams.LinearSpan, "__init__")
    rows = _counting(monkeypatch, diagrams.LinearSpan, "add")
    _solve_associator(4)
    # one affine solve per even degree, 2 and 4; its rows are keyed by
    # unknowns, never by words of a relator
    assert len(spans) == 2
    assert rows and all(isinstance(k, int) for args in rows for k in args[1])


def test_associator_load_builds_no_span(monkeypatch):
    spans = _counting(monkeypatch, diagrams.LinearSpan, "__init__")
    build_associator.__wrapped__(6)
    assert spans == []


def test_lg_invariant_weighs_quotient_basis_classes_only(monkeypatch):
    weightsys.weight_system.cache_clear()
    calls = _counting(monkeypatch, weightsys.WeightSystem, "tangle11")
    for text in LG_KNOTS_SEED0:
        lg_invariant(text, 3)
    # 1 + 1 + 2 + 3: the interval quotient through degree 3
    assert len(calls) <= 7


def test_wz_eval_applies_chords_only_on_kept_layers(monkeypatch):
    rep, tensor = weightsys.named_system("gl21")
    calls = _counting(monkeypatch, weightsys.WeightSystem, "chord")
    wz_eval("braid[3]: s1 s2^-1 s1 s2^-1 ; close", rep, tensor, 4)
    # 58,230 state keys in 1,340 calls when every chord ran on all layers
    assert sum(len(args[1]) for args in calls) <= 12274


def test_station_walk_applies_chords_on_partial_states(monkeypatch):
    fresh = weightsys.WeightSystem(*weightsys.lg_data())
    classes = _interval_classes(3)
    assert len(classes) == 15
    calls = _counting(monkeypatch, weightsys.WeightSystem, "chord")
    for d in classes.values():
        fresh(d)
    # 19,008 state keys when every cup was opened before the first chord
    assert sum(len(args[1]) for args in calls) <= 9424


def test_station_walk_over_q_alpha_builds_no_fraction(monkeypatch):
    fresh = weightsys.WeightSystem(*weightsys.lg_data())
    classes = _interval_classes(3)
    made = _counting(monkeypatch, Fraction, "__new__")
    for d in classes.values():
        fresh(d)
    # 152,144 when Poly kept its coefficients as Fractions
    assert made == []


def test_slice_engine_over_q_alpha_builds_few_fractions(monkeypatch):
    rep, tensor = weightsys.named_system("valpha")
    word = ("obj: +\nslice: id(+) cup(+-)\nslice: X+ id(-)\n"
            "slice: X- id(-)\nslice: X+ id(-)\nslice: id(+) cap(+-)")
    expected = wz_eval(word, rep, tensor, 3)  # builds the associator
    made = _counting(monkeypatch, Fraction, "__new__")
    assert wz_eval(word, rep, tensor, 3) == expected
    # 33,780 when Poly kept its coefficients as Fractions; what is left
    # is the (s/2)^k / k! of the crossing exponentials (kontsevich)
    assert len(made) <= 30


def test_chord_engines_over_q_build_few_fractions(monkeypatch):
    # the first 3-strand rational-links input of seed 0
    word = "braid[3]: s1 s2^-1 s1^-1 s2 ; close"
    rep, tensor = weightsys.named_system("gl21")
    expected = (z_eval(word, 4), wz_eval(word, rep, tensor, 4))
    made = _counting(monkeypatch, Fraction, "__new__")
    got = (z_eval(word, 4), wz_eval(word, rep, tensor, 4))
    count = len(made)
    assert got == expected
    # 37,812 when both engines held Fraction states; what is left is one
    # Fraction per diagram class and one 1/den per h-degree layer
    assert count <= 26


def test_z_eval_canonicalises_each_positioned_diagram_once(monkeypatch):
    word = ("braid[3]: s2 s2 s1^-1 s2^-1 s1 s1 s2^-1 s1^-1 s2 s2 s2^-1 "
            "s2^-1 s2^-1 s2 s2 s2 s2^-1 s1 s1 s2 ; close")
    calls = _counting(monkeypatch, kontsevich, "canonical_form")
    z = z_eval(word, 4)
    assert len(z.terms) == 29
    # 29,118 when every term key was canonicalised; now one call per
    # distinct positioned diagram
    assert len(calls) <= 319
