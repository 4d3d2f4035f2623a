"""Chord diagram combinatorics, canonical forms, and relator spans."""

import random
from fractions import Fraction
from itertools import permutations

import pytest

from superchord.diagrams import (
    ChordDiagram, LinearSpan, cable_diagram, canonical_form, close_component,
    enumerate_diagrams, four_term_relators, random_diagram, relator_vector,
    slit_component)


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
    # 1, 1, 2, 3 in degrees 0..3, so the relator span has rank 0 in
    # degree 2 and rank 2 in degree 3.
    for m, rank in [(2, 0), (3, 2)]:
        span = LinearSpan()
        for rel in four_term_relators(("circle",), m):
            span.add(relator_vector(rel))
        assert span.rank == rank


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
            enc = diagram.relabel(perm, rots).encoding()
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


def test_canonical_form_matches_reference():
    for skeleton in _SKELETA:
        for m in range(4):
            for d in _all_diagrams(skeleton, m):
                assert canonical_form(d) == _reference_canonical_form(d), d


def test_enumerate_order_matches_reference():
    for skeleton in _SKELETA:
        for m in range(4):
            assert (enumerate_diagrams(skeleton, m)
                    == _reference_enumerate(skeleton, m)), (skeleton, m)
