"""Chord diagram combinatorics, canonical forms, and relator spans."""

import random
import time
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from superchord import diagrams as diagram_module
from superchord.diagrams import (
    ChordDiagram, LinearSpan, _least_relabelling, cable_diagram,
    canonical_form, close_component, enumerate_diagrams, four_term_relators,
    random_diagram, relator_vector, slit_component)
from superchord.kontsevich import z_eval
from superchord.verify import run_all
from test_weightsys import _relabel


def test_validation_rejects_bad_input():
    with pytest.raises(ValueError):
        ChordDiagram(("circle",), [(((0, 0)), (0, 0))])
    with pytest.raises(ValueError):
        ChordDiagram(("circle",), [((0, 0), (0, 1)), ((0, 1), (0, 2))])
    with pytest.raises(ValueError):
        # gap: positions must be dense from 0
        ChordDiagram(("circle",), [((0, 1), (0, 2))])
    with pytest.raises(ValueError):
        ChordDiagram(("disk",), [])
    with pytest.raises(ValueError, match="at most 65535"):
        # beyond the 16-bit fields of the canonical search's chord codes
        ChordDiagram(("circle",) * 65536, [])


@pytest.mark.parametrize("bad", [0.9, 1.0, "1", True, False, None,
                                 Fraction(1)])
def test_endpoints_must_be_plain_ints(bad):
    # each bad value once as a position and once as a component
    with pytest.raises(ValueError, match="integer pair"):
        ChordDiagram(("circle",), [((0, 0), (0, bad))])
    with pytest.raises(ValueError, match="integer pair"):
        ChordDiagram(("circle", "circle"), [((bad, 0), (0, 0))])


def test_float_endpoints_are_not_rounded_into_a_chord():
    with pytest.raises(ValueError, match=r"\(0, 0\.9\)"):
        ChordDiagram(("circle",), [((0, 0.9), (0, "1"))])
    d = ChordDiagram(("circle",), [((0, 1), (0, 0))])
    assert d.chords == (((0, 0), (0, 1)),)
    assert all(type(v) is int for chord in d.chords for ep in chord
               for v in ep)


def test_rotation_identifies_circle_diagrams():
    d1 = ChordDiagram(("circle",), [((0, 0), (0, 1)), ((0, 2), (0, 3))])
    d2 = ChordDiagram(("circle",), [((0, 0), (0, 3)), ((0, 1), (0, 2))])
    assert canonical_form(d1) == canonical_form(d2)
    crossed = ChordDiagram(("circle",), [((0, 0), (0, 2)), ((0, 1), (0, 3))])
    assert canonical_form(crossed) != canonical_form(d1)


def test_interval_is_not_rotated():
    d1 = ChordDiagram(("interval",), [((0, 0), (0, 1)), ((0, 2), (0, 3))])
    d2 = ChordDiagram(("interval",), [((0, 0), (0, 3)), ((0, 1), (0, 2))])
    assert canonical_form(d1) != canonical_form(d2)


def test_component_permutation_identifies():
    d1 = ChordDiagram(("circle", "circle"), [((0, 0), (0, 1))])
    d2 = ChordDiagram(("circle", "circle"), [((1, 0), (1, 1))])
    assert canonical_form(d1) == canonical_form(d2)


def test_enumerate_counts_on_circle():
    # 1, 1, 2, 5 classes in degrees 0..3 on one circle.
    for m, count in [(0, 1), (1, 1), (2, 2), (3, 5)]:
        assert len(enumerate_diagrams(("circle",), m)) == count


def test_enumerate_counts_on_interval():
    # Linear diagrams admit no symmetry: 1, 3, 15 pairings in degrees 1..3.
    for m, count in [(0, 1), (1, 1), (2, 3), (3, 15)]:
        assert len(enumerate_diagrams(("interval",), m)) == count


def test_enumerate_counts_on_two_circles():
    assert len(enumerate_diagrams(("circle", "circle"), 1)) == 2


def test_four_term_relator_shapes():
    rels = four_term_relators(("circle",), 3)
    assert rels
    for rel in rels:
        assert len(rel) == 4
        assert sorted(s for s, _ in rel) == [-1, -1, 1, 1]
        assert all(d.degree == 3 for _, d in rel)
        coeffs = relator_vector(rel)
        assert sum(coeffs.values(), Fraction(0)) == 0


def test_four_term_rank_matches_known_dimensions():
    # On the circle the diagram space mod four-term has dimensions
    # 1, 1, 2, 3, 6, 10 in degrees 0..5, so the relator span has rank 0
    # in degree 2 and rank 2 in degree 3.  Closing the interval is an
    # isomorphism modulo four-term relations (Bar-Natan, Topology 34,
    # 1995), so the interval quotient has the same dimensions.
    ranks = {2: 0, 3: 2}
    for skeleton in (("circle",), ("interval",)):
        for m, dim in [(2, 2), (3, 3), (4, 6), (5, 10)]:
            span = LinearSpan()
            for rel in four_term_relators(skeleton, m):
                span.add(relator_vector(rel))
            if skeleton == ("circle",) and m in ranks:
                assert span.rank == ranks[m]
            classes = len(enumerate_diagrams(skeleton, m))
            assert classes - span.rank == dim, (skeleton, m)


def test_four_term_on_interval_exists():
    rels = four_term_relators(("interval",), 2)
    assert rels
    for rel in rels:
        assert all(d.skeleton == ("interval",) for _, d in rel)


def test_cable_single_chord():
    d = ChordDiagram(("circle",), [((0, 0), (0, 1))])
    lifts = cable_diagram(d, 0)
    assert len(lifts) == 4
    keys = sorted(canonical_form(l) for l in lifts)
    both0 = ChordDiagram(("circle", "circle"), [((0, 0), (0, 1))])
    mixed = ChordDiagram(("circle", "circle"), [((0, 0), (1, 0))])
    assert keys.count(canonical_form(both0)) == 2
    assert keys.count(canonical_form(mixed)) == 2


def test_cable_preserves_degree_and_order():
    rng = random.Random(7)
    for _ in range(10):
        d = random_diagram(("circle",), 3, rng)
        for lift in cable_diagram(d, 0):
            assert lift.degree == 3
            assert len(lift.skeleton) == 2


def test_cable_three_copies():
    d = ChordDiagram(("circle",), [((0, 0), (0, 1))])
    lifts = cable_diagram(d, 0, 3)
    assert len(lifts) == 9
    assert all(len(l.skeleton) == 3 for l in lifts)
    with pytest.raises(ValueError):
        cable_diagram(d, 0, 0)


def test_slit_and_close_round_trip():
    d = ChordDiagram(("circle",), [((0, 0), (0, 2)), ((0, 1), (0, 3))])
    for cut in range(4):
        slit = slit_component(d, 0, cut)
        assert slit.skeleton == ("interval",)
        back = close_component(slit, 0)
        assert canonical_form(back) == canonical_form(d)
    with pytest.raises(ValueError):
        slit_component(slit, 0)


def test_random_diagram_is_reproducible():
    a = random_diagram(("circle", "circle"), 3, random.Random(11))
    b = random_diagram(("circle", "circle"), 3, random.Random(11))
    assert a == b
    assert a.degree == 3


def test_linear_span_rank_and_membership():
    span = LinearSpan()
    assert span.add({(0,): 1, (1,): 2})
    assert span.add({(1,): 1})
    assert not span.add({(0,): 2, (1,): 1})
    assert span.rank == 2
    assert span.contains({(0,): 5})
    assert not span.contains({(2,): 1})


def _reference_canonical_form(diagram):
    """canonical_form as first written: relabel every (perm, rotation)."""
    def product_ranges(ranges):
        if not ranges:
            yield ()
            return
        for head in ranges[0]:
            for tail in product_ranges(ranges[1:]):
                yield (head,) + tail

    sk = diagram.skeleton
    best = None
    rot_ranges = [range(max(1, k)) if kind == "circle" else range(1)
                  for kind, k in zip(sk, diagram.counts)]
    for perm in permutations(range(len(sk))):
        if not all(sk[c] == sk[perm[c]] for c in range(len(sk))):
            continue
        for rots in product_ranges(rot_ranges):
            enc = _relabel(diagram, perm, rots).encoding()
            if best is None or enc < best:
                best = enc
    return best


def _reference_compositions(total, parts):
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _reference_compositions(total - first, parts - 1):
            yield (first,) + rest


def _reference_matchings(items):
    if not items:
        yield ()
        return
    for i in range(1, len(items)):
        rest = items[1:i] + items[i + 1:]
        for tail in _reference_matchings(rest):
            yield ((items[0], items[i]),) + tail


def _all_diagrams(skeleton, degree):
    """Every diagram, not one per class, in the reference order."""
    for counts in _reference_compositions(2 * degree, len(skeleton)):
        points = [(c, p) for c, k in enumerate(counts) for p in range(k)]
        for pairs in _reference_matchings(points):
            yield ChordDiagram(skeleton, pairs)


def _reference_enumerate(skeleton, degree):
    if degree == 0:
        return [ChordDiagram(skeleton, [])]
    out, seen = [], set()
    for d in _all_diagrams(skeleton, degree):
        key = _reference_canonical_form(d)
        if key not in seen:
            seen.add(key)
            out.append(d)
    return out


_SKELETA = [("circle",), ("interval",), ("circle", "circle"),
            ("circle", "interval"), ("interval", "circle"),
            ("interval", "interval")]


def _spread_diagrams(skeleton, degree, per_spread, seed=0):
    """per_spread seeded random diagrams of the degree for each spread of
    its ends over the components, the spreads that leave some of them
    empty included."""
    rng = random.Random(seed)
    for counts in _reference_compositions(2 * degree, len(skeleton)):
        points = [(c, p) for c, k in enumerate(counts) for p in range(k)]
        for _ in range(per_spread):
            rng.shuffle(points)
            yield ChordDiagram(skeleton, zip(points[::2], points[1::2]))


def assert_canonical_form_is_the_reference(degree, per_spread=0):
    """The pruned search against every (perm, rotation) relabelling, on
    every diagram of the degree on one circle and on two circles, and on
    three and four circles on per_spread diagrams of each spread of the
    ends (_spread_diagrams)."""
    diagrams = [d for skeleton in (("circle",), ("circle", "circle"))
                for d in _all_diagrams(skeleton, degree)]
    if per_spread:
        diagrams += [d for n in (3, 4) for d in _spread_diagrams(
            ("circle",) * n, degree, per_spread)]
    for d in diagrams:
        assert canonical_form(d) == _reference_canonical_form(d), d


def test_canonical_form_matches_reference():
    for skeleton in _SKELETA:
        for m in range(4):
            for d in _all_diagrams(skeleton, m):
                assert canonical_form(d) == _reference_canonical_form(d), d
    assert_canonical_form_is_the_reference(4)


def test_canonical_form_matches_reference_with_empty_components():
    # the search relabels only the nonempty components of a kind, onto
    # that kind's lowest places
    for n in (3, 4):
        for skeleton in product(("circle", "interval"), repeat=n):
            for m in range(3):
                for d in _all_diagrams(skeleton, m):
                    assert canonical_form(d) == _reference_canonical_form(d)
    for skeleton in (("circle", "interval", "circle", "interval"),
                     ("interval", "circle", "circle", "circle")):
        for d in _spread_diagrams(skeleton, 4, 2):
            assert canonical_form(d) == _reference_canonical_form(d), d


def test_canonical_search_is_not_factorial_in_empty_components():
    # seven and nine circles carry no chord; the search over all n!
    # orders of the circles took 0.9 s on eight and did not end in 100 s
    # on ten
    start = time.perf_counter()
    z = z_eval("braid[10]: s1 ; close", 2)
    assert time.perf_counter() - start < 1
    assert z.skeleton == ("circle",) * 9


@st.composite
def _skeleta_and_diagrams(draw):
    """A random diagram of degree <= 6 on one to three circles, with or
    without one interval anywhere among them."""
    skeleton = ["circle"] * draw(st.integers(1, 3))
    if draw(st.booleans()):
        skeleton.insert(draw(st.integers(0, len(skeleton))), "interval")
    degree = draw(st.integers(0, 6))
    return random_diagram(tuple(skeleton), degree, draw(st.randoms()))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(d=_skeleta_and_diagrams())
def test_canonical_form_matches_reference_on_random_diagrams(d):
    assert canonical_form(d) == _reference_canonical_form(d), d


@st.composite
def _chords_on_two_components(draw):
    """The chords of a random diagram of degree 1 to 5 on two components,
    to be placed on each of two circles, a circle and an interval, and an
    interval and a circle, so that one chord code tuple meets the search
    on three skeleta."""
    degree = draw(st.integers(1, 5))
    return random_diagram(("interval", "interval"), degree,
                          draw(st.randoms())).chords


@settings(derandomize=True, max_examples=100, deadline=None)
@given(chords=_chords_on_two_components())
def test_memoised_canonical_form_is_keyed_by_the_skeleton(chords):
    skeleta = (("circle", "circle"), ("circle", "interval"),
               ("interval", "circle"))
    _least_relabelling.cache_clear()
    for warm in (False, True):
        for skeleton in skeleta:
            # a fresh diagram each time: nothing is kept on it yet
            d = ChordDiagram(skeleton, chords)
            assert canonical_form(d) == _reference_canonical_form(d), (warm, d)
        # three searches on the cold pass, none on the warm one
        assert _least_relabelling.cache_info().misses == 3


def assert_memo_is_the_search(run):
    """Call run() from an empty canonical memo, recording every input
    the search meets, then search each memo entry afresh through
    __wrapped__: each must equal the memoised result.  Returns the
    number of entries."""
    memo = diagram_module._least_relabelling
    memo.cache_clear()
    met = {}

    def recording(skeleton, codes):
        met[skeleton, codes] = memo(skeleton, codes)
        return met[skeleton, codes]

    diagram_module._least_relabelling = recording
    try:
        run()
    finally:
        diagram_module._least_relabelling = memo
    assert len(met) == memo.cache_info().currsize
    for (skeleton, codes), best in met.items():
        assert memo.__wrapped__(skeleton, codes) == best, (skeleton, codes)
    return len(met)


def test_memo_is_the_search_after_the_verify_suites():
    assert assert_memo_is_the_search(run_all) > 0


def test_canonical_form_is_kept_on_the_diagram():
    d = ChordDiagram(("circle", "circle"),
                     [((0, 0), (1, 1)), ((0, 1), (1, 0))])
    key = canonical_form(d)
    assert canonical_form(d) is key
    # a fresh diagram of the same class is searched and gives an equal key
    again = ChordDiagram(d.skeleton, d.chords)
    assert canonical_form(again) == key and canonical_form(again) is not key


def test_enumerate_order_matches_reference():
    for skeleton in _SKELETA:
        for m in range(4):
            assert (enumerate_diagrams(skeleton, m)
                    == _reference_enumerate(skeleton, m)), (skeleton, m)


def _insert_point(chords, leg, comp, pos):
    """Shift positions >= pos on comp up by one, in chords and the free leg."""

    def bump(ep):
        c, p = ep
        if c == comp and p >= pos:
            return (c, p + 1)
        return ep

    shifted = [(bump(a), bump(b)) for (a, b) in chords]
    return shifted, bump(leg)


def _reference_four_term_relators(skeleton, degree):
    """four_term_relators as first written: every term of every candidate
    built as a ChordDiagram and searched before deduplication."""
    m = degree
    if m < 2:
        return []
    skeleton = tuple(skeleton)
    relators = []
    seen = set()
    npts = 2 * m - 1
    for counts in _reference_compositions(npts, len(skeleton)):
        points = [(c, p) for c, k in enumerate(counts) for p in range(k)]
        for bi in range(npts):
            leg = points[bi]
            rest = points[:bi] + points[bi + 1:]
            for pairs in _reference_matchings(rest):
                for ai in range(len(pairs)):
                    a1, a2 = pairs[ai]
                    terms = []
                    for anchor, offset, sign in (
                            (a1, 0, 1), (a1, 1, -1), (a2, 0, 1), (a2, 1, -1)):
                        c, p = anchor
                        shifted, new_leg = _insert_point(
                            pairs, leg, c, p + offset)
                        d = ChordDiagram(skeleton, list(shifted)
                                         + [(new_leg, (c, p + offset))])
                        terms.append((sign, d))
                    key = tuple(sorted(
                        (s, canonical_form(d)) for s, d in terms))
                    if key in seen:
                        continue
                    seen.add(key)
                    relators.append(terms)
    return relators


def _relator_terms(relators):
    return [[(s, d.skeleton, d.chords, canonical_form(d)) for s, d in rel]
            for rel in relators]


def assert_four_term_relators_are_the_reference(skeleton, degree):
    """The int-code enumeration against the reference: the same relators
    in the same order, each term with the same sign, skeleton, positioned
    chords and canonical key."""
    assert (_relator_terms(four_term_relators(skeleton, degree))
            == _relator_terms(_reference_four_term_relators(skeleton,
                                                            degree)))


@pytest.mark.parametrize("skeleton, degrees", [
    (("circle",), (0, 1, 2, 3, 4)),
    (("circle", "circle"), (2, 3)),
    (("interval",), (2, 3, 4)),
    (("interval", "circle"), (3,)),
])
def test_four_term_relators_equal_the_reference(skeleton, degrees):
    for m in degrees:
        assert_four_term_relators_are_the_reference(skeleton, m)


def test_four_term_relators_refuse_an_unknown_kind():
    with pytest.raises(ValueError, match="unknown component kind"):
        four_term_relators(("circle", "disk"), 2)
