"""Work that one call must not repeat."""

import json
from collections import Counter
from fractions import Fraction

import pytest

from superchord import (
    associator, diagrams, jsonio, kontsevich, liesuper, ribbon, scalars,
    verify, weightsys, words)
from superchord.associator import associator_checks, build_associator
from superchord.kontsevich import lg_invariant, wz_eval, z_eval
from superchord.verify import CONWAY_WORDS
from superchord.words import parse_word
from test_associator import _solve_associator
from test_diagram_finish import LONG_WORD, _AnchorBackend

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
    word = "braid[2]: s1 s1 ; close"
    expected = ribbon.rt_invariant(word, ribbon.ribbon_diagonal([[2, 5],
                                                                 [7, 3]]))
    data = ribbon.ribbon_diagonal([[2, 5], [7, 3]])
    calls = _counting(monkeypatch, ribbon, "ribbon_checks")
    assert ribbon.rt_invariant(word, data) == expected
    assert ribbon.rt_invariant(word, data) == expected
    assert len(calls) == 1


def test_rt_invariant_builds_no_slice_wide_map(monkeypatch):
    # each token's map acts on its own fields of the state: no tensor of a
    # whole slice, and no composition with it, in the checks or the walk
    data = ribbon.ribbon_diagonal([[2, 5], [7, 3]])
    tensors = _counting(monkeypatch, ribbon.SuperMap, "tensor")
    composes = _counting(monkeypatch, ribbon.SuperMap, "compose")
    # one component of framing 2: the colours' twists squared
    assert ribbon.rt_invariant("braid[3]: s1 s2^-1 s1 s2 ; close",
                               data) == 2 ** 2 + 3 ** 2
    assert tensors == composes == []


def test_loaded_ribbon_data_is_checked_once(monkeypatch, tmp_path):
    good = ribbon.ribbon_diagonal([[2, 5], [7, 3]])
    path = tmp_path / "colours.ribbon"
    path.write_text(json.dumps(jsonio.ribbon_to_json(good)))
    calls = _counting(monkeypatch, ribbon, "ribbon_checks")
    data = jsonio.load_ribbon(str(path))
    assert ribbon.rt_invariant("braid[2]: s1 s1 s1 t1 ; close", data) == 97
    assert len(calls) == 1

    bad = jsonio.ribbon_to_json(good)
    bad["braiding"].append([3, 0, "1"])
    path.write_text(json.dumps(bad))
    with pytest.raises(ValueError, match="yang_baxter"):
        jsonio.load_ribbon(str(path))
    assert len(calls) == 2


def test_associator_checks_reuse_the_built_ideal_spans(monkeypatch):
    assoc = build_associator(4)
    calls = _counting(monkeypatch, diagrams.LinearSpan, "add")
    assert all(associator_checks(assoc).values())
    assert calls == []


@pytest.mark.parametrize("order", [4, 6])
def test_associator_identities_formed_once_per_build(monkeypatch, order):
    products = _counting(monkeypatch, associator, "_mul")
    residuals = _counting(monkeypatch, associator, "_residual")
    assert all(associator_checks(build_associator.__wrapped__(order))
               .values())
    # one product per identity at the served order, with 2 + 2, 2 + 2
    # and 1 + 2 factor products; 4 Fraction residual triples at order 4,
    # one per degree, each of every identity
    assert len(residuals) == 3
    assert len(products) == 11


def test_each_module_is_built_and_checked_once(monkeypatch):
    for cache in (liesuper.build_gl, liesuper.standard_rep,
                  liesuper.invariant_form, liesuper.casimir_tensor,
                  weightsys.lg_data, weightsys.named_system):
        cache.cache_clear()
    checks = _counting(monkeypatch, liesuper.Representation, "check_axioms")
    named = {name: weightsys.named_system(name)
             for name in ("gl21", "gl11", "valpha", "lg")}
    assert weightsys.lg_data() is named["lg"]
    # the benchmark's set-up asks for the same pairs by hand
    ls = liesuper
    g21, g11 = ls.build_gl(2, 1), ls.build_gl(1, 1)
    by_hand = {
        "gl21": (ls.standard_rep(g21, "defining"),
                 ls.casimir_tensor(g21, "gl")),
        "gl11": (ls.standard_rep(g11, "defining"),
                 ls.casimir_tensor(g11, "gl")),
        "valpha": (ls.standard_rep(g21, "v_alpha"),
                   ls.casimir_tensor(g21, "sl")),
    }
    for name, (rep, tensor) in by_hand.items():
        assert rep is named[name][0] and tensor is named[name][1], name
    assert named["lg"][0] is named["valpha"][0]
    # one check per (algebra, module); casimir_tensor reads the defining
    # module that named_system built
    assert [(args[0].algebra.name, args[0].name) for args in checks] == [
        ("gl(2|1)", "defining"), ("gl(1|1)", "defining"),
        ("gl(2|1)", "v_alpha")]


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
    # the circle quotient basis through degree 3 is 1 + 1 + 2 + 3 classes;
    # these framing-zero integrals never meet the isolated chord, and
    # the hump's 3 interval classes are cuts of the same basis classes
    assert len(calls) == 6


def test_lg_invariant_reduces_on_the_circle_only(monkeypatch):
    kontsevich._fourterm_span.cache_clear()
    calls = _counting(monkeypatch, kontsevich, "four_term_relators")
    for text in LG_KNOTS_SEED0:
        lg_invariant(text, 3)
    assert calls and all(args[0] == (diagrams.CIRCLE,) for args in calls)


def test_lg_invariant_cuts_each_weighed_basis_class_once(monkeypatch):
    slits = _counting(monkeypatch, kontsevich, "slit_component")
    reduced = []
    reduce_fourterm = kontsevich.reduce_fourterm

    def kept(z):
        reduced.append(reduce_fourterm(z))
        return reduced[-1]

    monkeypatch.setattr(kontsevich, "reduce_fourterm", kept)
    for text in LG_KNOTS_SEED0:
        lg_invariant(text, 3)
    assert len(reduced) == len(LG_KNOTS_SEED0)
    assert len(slits) == sum(len(z.terms) for z in reduced)


def _chord_work(monkeypatch, name, order):
    """State keys through chord and chord calls of wz_eval on one 3-strand
    word, from an empty table of move images."""
    rep, tensor = weightsys.named_system(name)
    kontsevich._moves(order)[2].clear()
    calls = _counting(monkeypatch, weightsys.WeightSystem, "chord")
    wz_eval("braid[3]: s1 s2^-1 s1 s2^-1 ; close", rep, tensor, order)
    return sum(len(args[1]) for args in calls), len(calls)


def test_wz_eval_applies_chords_only_on_kept_layers(monkeypatch):
    keys, chords = _chord_work(monkeypatch, "gl21", 4)
    # 58,230 state keys in 1,340 calls when every chord ran on all
    # layers; 12,274 in 364 when each suffix of a word was carried on its
    # own layers and every prefix applied to it
    assert keys <= 9457
    # one call per chord (a, p) of a letter 0 and nonempty layer, also
    # where the calls add into one output state; 203 when every move
    # walked its series, before move images
    assert chords == 179


@pytest.mark.parametrize("name, order, keys, chords", [
    # 72,574 keys in 364 calls with the suffix-cached schedule; 204 calls
    # before move images
    ("valpha", 4, 41358, 180),
    # 21,471 keys in 636 calls with the suffix-cached schedule; the first
    # order where the degree-4 words act on two source layers; 295 calls
    # before move images
    ("gl21", 5, 15089, 239),
])
def test_wz_eval_splits_associator_words(monkeypatch, name, order, keys,
                                         chords):
    got_keys, got_chords = _chord_work(monkeypatch, name, order)
    assert got_keys <= keys
    assert got_chords == chords


# the valpha-tangles benchmark inputs of seed 0, two (1,1)-tangles
VALPHA_TANGLES_SEED0 = tuple(
    "obj: +\nslice: id(+) cup(+-)\n%s\nslice: id(+) cap(+-)"
    % "\n".join("slice: X%s id(-)" % s for s in signs)
    for signs in ("-+-", "--+"))


def _image_builds(monkeypatch):
    """(id of the image, crossing, roles, block codes) of every build of
    move image columns."""
    builds = []
    build = kontsevich._MatrixBackend._columns

    def counted(self, image, codes, crossing, roles, plan):
        builds.append((id(image), crossing, roles, frozenset(codes)))
        return build(self, image, codes, crossing, roles, plan)

    monkeypatch.setattr(kontsevich._MatrixBackend, "_columns", counted)
    return builds


def _walk_seed0_tangles(monkeypatch, rounds):
    """The image builds of walking VALPHA_TANGLES_SEED0 rounds times from
    an empty image table, the signatures that hold an image, and per
    walk how often it meets each of its associator moves' signatures."""
    rep, tensor = weightsys.named_system("valpha")
    kontsevich._moves(4)[2].clear()
    builds = _image_builds(monkeypatch)
    met = []
    move = kontsevich._MatrixBackend.move

    def counted(self, p, crossing, sign, signs):
        if not crossing:
            met.append((sign, tuple(signs[:p + 2])))
        return move(self, p, crossing, sign, signs)

    monkeypatch.setattr(kontsevich._MatrixBackend, "move", counted)
    per_walk = []
    for _ in range(rounds):
        for text in VALPHA_TANGLES_SEED0:
            start = len(met)
            wz_eval(text, rep, tensor, 4)
            per_walk.append(sorted(Counter(met[start:]).values()))
    images, = kontsevich._moves(4)[2].values()
    return (builds, sorted(sig for sig, image in images.items() if image),
            per_walk)


def test_a_move_met_once_per_walk_builds_no_image(monkeypatch):
    # both words walk on one int system and meet the associator move
    # after their cup, the one before their cap and X+ once each, so
    # none of them builds an image; the crossing X-, met twice in the
    # first word, builds the only one
    builds, held, per_walk = _walk_seed0_tangles(monkeypatch, 1)
    assert per_walk == [[1, 1], [1, 1]]
    assert held == [(True, -1, (1, 1))]
    assert [(crossing, roles) for _i, crossing, roles, _c in builds] == [
        (True, (1, 1))]


def test_walking_a_word_again_admits_no_new_image(monkeypatch):
    # a signature met once per walk walks directly however often its
    # word is walked: three rounds still hold the image of X- alone
    builds, held, per_walk = _walk_seed0_tangles(monkeypatch, 3)
    assert per_walk == [[1, 1]] * 6
    assert held == [(True, -1, (1, 1))]
    assert {(crossing, roles) for _i, crossing, roles, _c in builds} == {
        (True, (1, 1))}


def test_each_move_image_column_is_built_once(monkeypatch):
    rep, tensor = weightsys.named_system("gl21")
    words = ("braid[3]: s1 s2^-1 s1^-1 s2 ; close",
             "braid[3]: s2 s2^-1 s1^-1 s1 s1 ; close",
             "braid[3]: s1^-1 s1 s2 s1^-1 s2 s2 ; close",
             "braid[3]: s1 s2^-1 s1 s2^-1 ; close")
    kontsevich._moves(4)[2].clear()
    builds = _image_builds(monkeypatch)
    first = [wz_eval(text, rep, tensor, 4) for text in words]
    assert builds
    # an image grows only by the block codes it lacks, so no column is
    # built twice at one order on one int system
    columns = [(image, code) for image, _x, _r, codes in builds
               for code in codes]
    assert len(columns) == len(set(columns))
    # and a second pass over the same words builds nothing
    del builds[:]
    assert [wz_eval(text, rep, tensor, 4) for text in words] == first
    assert builds == []


def test_vassiliev_defect_walks_once_for_three_marks(monkeypatch):
    rep, tensor = weightsys.named_system("gl21")
    word = parse_word("braid[3]: s1 sing s2^-1 s1 sing s2^-1 s1 sing s2 "
                      "s1 s2 ; close")
    backends = _counting(monkeypatch, kontsevich._MatrixBackend, "__init__")
    walks = _counting(monkeypatch, kontsevich, "_walk")
    traced = _counting(monkeypatch, words.TangleWord, "__init__")
    defect = kontsevich.vassiliev_defect(word, rep, tensor, 4)
    assert [defect.coeff(m) for m in range(3)] == [0, 0, 0]
    # 8 backends and 8 walks when each of the 2^3 resolutions was walked;
    # over Q there is no bound walk either
    assert len(backends) == 1 and len(walks) == 1
    # no resolution: the word's own framings count each mark as X+
    assert not traced


def test_zleading_walks_each_singular_word_once(monkeypatch):
    calls = _counting(monkeypatch, verify, "z_eval")
    traced = _counting(monkeypatch, words.TangleWord, "__init__")
    assert verify.run_suite("zleading").ok
    # 2 + 4 + 4 calls when each of the 2^m resolutions was walked, and a
    # traced word per resolution beside the three parsed words
    assert len(calls) == len(verify.SINGULAR_WORDS) == 3
    assert len(traced) == 3


def test_station_walk_applies_chords_on_partial_states(monkeypatch):
    fresh = weightsys.WeightSystem(*weightsys.lg_data())
    classes = _interval_classes(3)
    assert len(classes) == 15
    calls = _counting(monkeypatch, weightsys.WeightSystem, "chord")
    for d in classes.values():
        fresh(d)
    # 19,008 state keys when every cup was opened before the first chord;
    # 9,424 when caps closed only after each cup, not after each chord
    assert sum(len(args[1]) for args in calls) <= 4894
    assert len(calls) == 30


def test_chord_tables_sum_one_role_pair(monkeypatch):
    data = weightsys.lg_data()
    duals = _counting(monkeypatch, weightsys, "rep_combine")
    products = [_counting(monkeypatch, scalars.AlphaScalar, name)
                for name in ("__mul__", "__rmul__")]
    weightsys.WeightSystem(*data)
    # 1 dual and 396 products when each of the four role pairs was
    # summed through the representation or its dual; the other three are
    # signed partial transposes of the (+1, +1) sum
    assert duals == []
    assert sum(map(len, products)) <= 116


def test_paired_invariant_inverts_the_hump_once_per_order(monkeypatch):
    kontsevich.hump_inverse.cache_clear()
    calls = _counting(monkeypatch, kontsevich, "series_inverse")
    for _label, text in CONWAY_WORDS:
        lg_invariant(text, 3)
    # 5 when each knot inverted the paired hump; every word here has
    # two maxima or more
    assert len(calls) == 1


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


def test_chord_engines_over_q_alpha_do_no_alpha_arithmetic(monkeypatch):
    # both engines walk Q(alpha) as ints at alpha = 2^K and only build
    # each output AlphaScalar, decoded from its int
    rep, tensor = weightsys.named_system("valpha")
    word = ("obj: +\nslice: id(+) cup(+-)\nslice: X+ id(-)\n"
            "slice: X- id(-)\nslice: X+ id(-)\nslice: id(+) cap(+-)")
    expected = wz_eval(word, rep, tensor, 4)
    fresh = weightsys.WeightSystem(*weightsys.lg_data())
    classes = _interval_classes(3)
    calls = [_counting(monkeypatch, scalars.AlphaScalar, name)
             for name in ("__add__", "__radd__", "__sub__", "__rsub__",
                          "__mul__", "__rmul__", "__neg__", "__truediv__")]
    assert wz_eval(word, rep, tensor, 4) == expected
    weights = [fresh(d) for d in classes.values()]
    assert any(weights)
    assert [c for c in calls if c] == []


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


def _searches():
    """The canonical searches made since the memo was last cleared."""
    return diagrams._least_relabelling.cache_info().misses


def test_z_eval_canonicalises_each_positioned_diagram_once():
    word = ("braid[3]: s2 s2 s1^-1 s2^-1 s1 s1 s2^-1 s1^-1 s2 s2 s2^-1 "
            "s2^-1 s2^-1 s2 s2 s2 s2^-1 s1 s1 s2 ; close")
    diagrams._least_relabelling.cache_clear()
    z = z_eval(word, 4)
    assert len(z.terms) == 29
    # 29,118 when every term key was canonicalised; now one search per
    # distinct positioned diagram
    assert _searches() <= 319


@pytest.mark.parametrize("skeleton, degree, most", [
    ((diagrams.CIRCLE,), 5, 945),
    ((diagrams.INTERVAL,), 5, 945),
    ((diagrams.CIRCLE,), 4, 105),
])
def test_four_term_relators_build_and_search_each_term_once(
        monkeypatch, skeleton, degree, most):
    builds = _counting(monkeypatch, diagrams.ChordDiagram, "__init__")
    diagrams._least_relabelling.cache_clear()
    rels = diagrams.four_term_relators(skeleton, degree)
    # 15,120 (1,260 at degree 4) when all four terms of every candidate
    # were built and searched; now at most one of each per distinct
    # positioned diagram, 945 (105) of them
    assert len(builds) <= most and _searches() <= most
    # the key kept on each built term spares even a memo lookup
    info = diagrams._least_relabelling.cache_info()
    for rel in rels:
        for _sign, d in rel:
            diagrams.canonical_form(d)
    assert diagrams._least_relabelling.cache_info() == info


def _positioned_diagrams(word, order):
    """The distinct positioned diagrams of the anchor walk's term keys,
    each key placed on the traced skeleton by sorting its tokens'
    places."""
    backend = _AnchorBackend(word, order)
    finish = backend.finish
    found = set()

    def positioned():
        out = backend.tracer.finish()
        backend.tracer.finish = lambda: out
        for key in backend.terms:
            toks = sorted((t for chord in key for t in chord),
                          key=out.token_pos.__getitem__)
            rank, seen = {}, {}
            for t in toks:
                comp = out.token_pos[t][0]
                rank[t] = (comp, seen.get(comp, 0))
                seen[comp] = seen.get(comp, 0) + 1
            found.add(tuple(sorted(tuple(sorted((rank[a], rank[b])))
                                   for a, b in key)))
        return finish()

    backend.finish = positioned
    kontsevich._walk(word, backend)
    return found


def test_z_eval_and_pair_search_each_positioned_diagram_once():
    # a two-component link: the search permutes its two circles
    word = parse_word("braid[3]: s1 s2^-1 s1 s2 s2 s1^-1 s2 ; close")
    assert word.components == (diagrams.CIRCLE, diagrams.CIRCLE)
    expected = z_eval(word, 4)  # builds the associator
    positioned = _positioned_diagrams(word, 4)
    diagrams._least_relabelling.cache_clear()
    z = z_eval(word, 4)
    assert z == expected
    info = diagrams._least_relabelling.cache_info()
    assert info.misses == len(positioned) and info.hits == 0
    weightsys.weight_system.cache_clear()
    for name in ("gl21", "gl11"):
        rep, tensor = weightsys.named_system(name)
        z.pair(lambda d, r=rep, t=tensor: weightsys.ws_link(d, r, t),
               rep.ring)
    # pair hands the weights the representatives finish built, with
    # their class keys kept on them
    assert diagrams._least_relabelling.cache_info() == info


def test_z_eval_merges_equal_positioned_terms_as_it_walks(monkeypatch):
    # the anchor walk handed 29,118 term keys to diagram_classes here; a
    # walk keyed by positioned diagrams on the strand pieces hands 319
    z_eval(LONG_WORD, 4)  # builds the associator
    placed = []
    classes = kontsevich.diagram_classes

    def counted(skeleton, terms):
        terms = list(terms)
        placed.append(len(terms))
        return classes(skeleton, terms)

    monkeypatch.setattr(kontsevich, "diagram_classes", counted)
    z_eval(LONG_WORD, 4)
    assert len(placed) == 1 and placed[0] <= 400


def test_repeated_calls_search_nothing_again():
    word = LG_KNOTS_SEED0[1]
    assert verify.verify_cabling().ok
    z = z_eval(word, 4)
    before = _searches()
    # the cabling suite's two-cable lifts and the integral's positioned
    # diagrams are all met again, each as a new ChordDiagram or code tuple
    assert verify.verify_cabling().ok
    assert z_eval(word, 4) == z
    assert _searches() == before


def test_paired_invariant_reduces_each_knot_once_and_never_the_hump(
        monkeypatch):
    calls = _counting(monkeypatch, kontsevich, "reduce_fourterm")
    for text in LG_KNOTS_SEED0[:3]:
        lg_invariant(text, 3)
    # each knot has two or three maxima; one reduction of its own
    # integral each, and the hump factor is weighed unreduced
    assert len(calls) == 3
    assert all(args[0].skeleton == (diagrams.CIRCLE,) for args in calls)
