"""Ribbon data axioms and evaluation of words, against the Kronecker
evaluator that tensors one map per token and composes slice by slice."""

import random
from fractions import Fraction

import pytest

from superchord.ribbon import (
    RibbonData, invert_supermap, ribbon_checks, ribbon_diagonal,
    ribbon_superflip, ribbon_trivial, rt_invariant)
from superchord.scalars import QQ, SeriesRing, series_exp
from superchord.supergraded import SuperMap, SuperSpace, tensor_space
from superchord.words import parse_word


# The Kronecker evaluator, kept as the oracle of the in-place one: every
# slice is one graded tensor of its tokens' maps, identities included.

def _curl(data, r):
    idv = SuperMap.identity(data.space, data.ring)
    idd = SuperMap.identity(data.dual, data.ring)
    lift = idv.tensor(data.cup_pm)
    cross = r.tensor(idd)
    drop = idv.tensor(data.cap_pm)
    return drop.compose(cross).compose(lift)


def kronecker_ribbon_checks(data):
    """Named axiom results, in a fixed order, as a name -> bool dict."""
    ring = data.ring
    idv = SuperMap.identity(data.space, ring)
    idd = SuperMap.identity(data.dual, ring)
    r = data.braiding
    out = {}
    out["inverse"] = r.compose(data.braiding_inv) == \
        SuperMap.identity(r.source, ring)
    r1 = r.tensor(idv)
    r2 = idv.tensor(r)
    out["yang_baxter"] = (r1.compose(r2).compose(r1)
                          == r2.compose(r1).compose(r2))
    tt = data.twist.tensor(data.twist)
    out["twist_naturality"] = r.compose(tt) == tt.compose(r)
    snakes = [
        (idv.tensor(data.cap_mp)).compose(data.cup_pm.tensor(idv)) == idv,
        (data.cap_pm.tensor(idv)).compose(idv.tensor(data.cup_mp)) == idv,
        (data.cap_mp.tensor(idd)).compose(idd.tensor(data.cup_pm)) == idd,
        (idd.tensor(data.cap_pm)).compose(data.cup_mp.tensor(idd)) == idd,
    ]
    out["snake"] = all(snakes)
    pos = _curl(data, r)
    neg = _curl(data, data.braiding_inv)
    out["curl"] = pos == data.twist and data.twist.compose(neg) == idv
    return out


def _token_map(tok, signs, p, data):
    kind = tok[0]
    if kind == "id":
        space = data.space if tok[1] > 0 else data.dual
        return SuperMap.identity(space, data.ring)
    if kind == "x":
        if signs[p] < 0 or signs[p + 1] < 0:
            raise ValueError("crossings act on two upward strands here")
        return data.braiding if tok[1] > 0 else data.braiding_inv
    if kind == "cup":
        return data.cup_pm if tok[1] > 0 else data.cup_mp
    return data.cap_pm if tok[1] > 0 else data.cap_mp


def kronecker_rt_invariant(word, data):
    """Scalar of a closed word, or the boundary map of an open one.

    Any failed ribbon axiom raises before evaluation; the axioms are
    checked once per RibbonData.
    """
    data.require_axioms()
    word = parse_word(word)
    if word.sing_count:
        raise ValueError("resolve marked crossings before evaluating")
    spaces = {1: data.space, -1: data.dual}
    state = SuperMap.identity(
        tensor_space([spaces[s] for s in word.source]), data.ring)
    signs = list(word.source)
    for sl in word.slices:
        factor = None
        p = 0
        nxt = []
        for tok in sl:
            m = _token_map(tok, signs, p, data)
            factor = m if factor is None else factor.tensor(m)
            if tok[0] == "id":
                nxt.append(signs[p])
                p += 1
            elif tok[0] == "x":
                nxt.extend((signs[p + 1], signs[p]))
                p += 2
            elif tok[0] == "cup":
                nxt.extend((tok[1], -tok[1]))
            else:
                p += 2
        state = factor.compose(state)
        signs = nxt
    if word.is_closed:
        return state.m.get((0, 0), data.ring.zero)
    return state


def _outcome(evaluate, *args):
    """The value, or the class and message of the error raised."""
    try:
        return evaluate(*args)
    except ValueError as e:
        return ValueError, str(e)


def assert_rt_is_the_kronecker_oracle(words, datas):
    """rt_invariant equals the Kronecker evaluator on every word and data
    object, value for value (maps entry for entry, on spaces of equal
    parities) or error for error; returns the number of pairs compared."""
    n = 0
    for data in datas:
        for w in words:
            got = _outcome(rt_invariant, w, data)
            want = _outcome(kronecker_rt_invariant, w, data)
            assert got == want, (w, got, want)
            n += 1
    return n


def _braid_word(rng):
    n = rng.randint(1, 4)
    letters = []
    for _ in range(rng.randint(0, 5)):
        if n > 1 and rng.random() < 0.75:
            letters.append("s%d" % rng.randint(1, n - 1))
        else:
            letters.append("t%d" % rng.randint(1, n))
        if rng.random() < 0.4:
            letters[-1] += "^-1"
    close = " ; close" if rng.random() < 0.6 else ""
    return "braid[%d]: %s%s" % (n, " ".join(letters), close)


_SIGN = {1: "+", -1: "-"}


def _sliced_word(rng):
    """A word with cups, caps and crossings on upward pairs, at most six
    strands wide; from an empty bottom it is capped shut at the top."""
    signs = [rng.choice((1, 1, -1)) for _ in range(rng.randint(0, 3))]
    lines = ["obj: " + " ".join(_SIGN[s] for s in signs)]
    for _ in range(rng.randint(1, 4)):
        row, nxt, p, cups = [], [], 0, 0
        while p <= len(signs):
            if cups < 2 and len(signs) + 2 * cups < 5 and (
                    not signs or rng.random() < 0.3):
                s = rng.choice((1, -1))
                row.append("cup(%s%s)" % (_SIGN[s], _SIGN[-s]))
                nxt += [s, -s]
                cups += 1
                continue
            if p == len(signs):
                break
            pair = signs[p:p + 2]
            if pair == [1, 1] and rng.random() < 0.7:
                row.append(rng.choice(("X+", "X-")))
                nxt += pair
                p += 2
            elif len(pair) == 2 and pair[0] == -pair[1] and \
                    rng.random() < 0.4:
                row.append("cap(%s%s)" % (_SIGN[pair[0]], _SIGN[pair[1]]))
                p += 2
            else:
                row.append("id(%s)" % _SIGN[signs[p]])
                nxt.append(signs[p])
                p += 1
        if row:
            lines.append(" ".join(row))
            signs = nxt
    while not lines[0][4:].split() and signs:
        i = next(i for i in range(len(signs) - 1)
                 if signs[i] == -signs[i + 1])
        lines.append(" ".join(
            ["id(%s)" % _SIGN[s] for s in signs[:i]]
            + ["cap(%s%s)" % (_SIGN[signs[i]], _SIGN[signs[i + 1]])]
            + ["id(%s)" % _SIGN[s] for s in signs[i + 2:]]))
        del signs[i:i + 2]
    return "\n".join(lines)


def generated_words(count, seed=0):
    """count braid words (1-4 strands, twists, open and closed) and count
    sliced words with cups and caps, derandomised by seed."""
    rng = random.Random(seed)
    return ([_braid_word(rng) for _ in range(count)]
            + [_sliced_word(rng) for _ in range(count)])


# a 2-component link closed from 4 strands, ten strands wide at its twist
FOUR_STRAND = "braid[4]: s1 s2^-1 s3 s1 s2^-1 s3 t2 ; close"


def exp_diagonal(order):
    """Diagonal data over Q[[h]] with the colours exp(h), exp(2h),
    exp(-h) and exp(3h)."""
    ring = SeriesRing(QQ, order)
    e = [series_exp(ring.monomial(1, k)) for k in (1, 2, -1, 3)]
    return ribbon_diagonal([e[:2], e[2:]], ring)


def oracle_data(ring):
    """Trivial, superflip and diagonal data over ring."""
    h = ring.monomial(1) if ring is not QQ else 0
    return [ribbon_trivial(ring), ribbon_superflip(ring),
            ribbon_diagonal([[ring.coerce(2) + h, 5],
                             [7, ring.coerce(3) - h]], ring)]


ORACLE_RINGS = (QQ, SeriesRing(QQ, 4))


def test_trivial_data_gives_one_on_every_knot():
    data = ribbon_trivial()
    assert all(ribbon_checks(data).values())
    for w in ["braid[1]: ; close", "braid[2]: s1 ; close",
              "braid[2]: s1 s1 s1 t1^-3 ; close",
              "braid[3]: s1 s2^-1 s1 s2^-1 ; close"]:
        assert rt_invariant(w, data) == 1


def test_diagonal_data_passes_all_checks():
    data = ribbon_diagonal([[2, 5], [7, 3]])
    assert ribbon_checks(data) == {"inverse": True, "yang_baxter": True,
                                   "twist_naturality": True, "snake": True,
                                   "curl": True}


def test_diagonal_invariant_counts_colour_twists():
    data = ribbon_diagonal([[2, 5], [7, 3]])
    assert rt_invariant("braid[1]: ; close", data) == 2
    assert rt_invariant("braid[1]: t1 ; close", data) == 5
    assert rt_invariant("braid[1]: t1^-1 ; close", data) == \
        Fraction(1, 2) + Fraction(1, 3)


def test_two_trefoil_presentations_agree():
    data = ribbon_diagonal([[2, 5], [7, 3]])
    a = rt_invariant("braid[2]: s1 s1 s1 t1 ; close", data)
    b = rt_invariant("braid[3]: s1 s2 s1 s2 ; close", data)
    assert a == b == 2 ** 4 + 3 ** 4


def test_superflip_data_closes_to_superdimension():
    data = ribbon_superflip()
    assert all(ribbon_checks(data).values())
    assert rt_invariant("braid[1]: ; close", data) == 0
    assert rt_invariant("braid[2]: s1 s1 ; close", data) == 0


def test_perturbed_braiding_is_rejected():
    data = ribbon_diagonal([[2, 5], [7, 3]])
    entries = dict(data.braiding.m)
    entries[(3, 0)] = Fraction(1)
    vv = data.space.tensor(data.space)
    bad = RibbonData(data.space, SuperMap(vv, vv, entries, data.ring),
                     data.twist, data.ring)
    assert ribbon_checks(bad)["yang_baxter"] is False
    with pytest.raises(ValueError, match="yang_baxter"):
        rt_invariant("braid[1]: ; close", bad)


def test_diagonal_data_over_series_declares_its_inverse():
    # solving for the inverse over Q[[h]] raised TypeError: HSeries has
    # no division
    ring = SeriesRing(QQ, 4)
    data = ribbon_diagonal([[2, 5], [7, 3]], ring)
    assert all(ribbon_checks(data).values())
    assert rt_invariant("braid[2]: s1 s1 ; close", data) == ring.coerce(83)
    h = ring.monomial(1)
    data = ribbon_diagonal([[2, ring.one + h], [7, 3]], ring)
    assert all(ribbon_checks(data).values())


def test_wrong_declared_inverse_fails_the_inverse_axiom():
    for ring in (QQ, SeriesRing(QQ, 2)):
        data = ribbon_diagonal([[2, 5], [7, 3]], ring)
        bad = RibbonData(data.space, data.braiding, data.twist, ring,
                         braiding_inv=data.braiding)
        assert ribbon_checks(bad)["inverse"] is False
        with pytest.raises(ValueError, match="inverse"):
            rt_invariant("braid[1]: ; close", bad)


def test_open_words_return_boundary_maps():
    data = ribbon_diagonal([[2, 5], [7, 3]])
    m = rt_invariant("braid[2]: s1 s1^-1", data)
    assert m == SuperMap.identity(data.space.tensor(data.space), data.ring)


def test_invert_supermap_round_trip():
    data = ribbon_diagonal([[2, 5], [7, 3]])
    r = data.braiding
    assert invert_supermap(invert_supermap(r)) == r
    with pytest.raises(ValueError):
        invert_supermap(SuperMap(data.space, data.space, {}, data.ring))


def test_marked_words_are_rejected():
    data = ribbon_trivial()
    with pytest.raises(ValueError):
        rt_invariant("braid[2]: s1 sing s1 ; close", data)


@pytest.mark.parametrize("ring", ORACLE_RINGS, ids=["Q", "Q[[h]]"])
def test_rt_equals_the_kronecker_oracle_on_generated_words(ring):
    assert assert_rt_is_the_kronecker_oracle(
        generated_words(25), oracle_data(ring)) == 150


def _unchecked(data):
    """data with its axiom results set to none, so both evaluators run on
    maps that are no ribbon data."""
    data.checks = {}
    return data


def _odd_data():
    """The (1|1) carrier with an odd braiding and an odd cup_pm."""
    v = SuperSpace((0, 1), ("e", "o"))
    vv = v.tensor(v)
    odd = SuperMap(vv, vv, {(1, 0): 1, (2, 3): 3, (0, 1): 5, (3, 2): 7})
    cup = SuperMap(tensor_space([]), vv, {(1, 0): 2, (2, 0): -1})
    assert odd.parity() == cup.parity() == 1
    return _unchecked(RibbonData(v, odd, SuperMap.identity(v), QQ,
                                 cup_pm=cup, braiding_inv=odd))


def test_an_odd_map_takes_the_koszul_sign_of_the_fields_left_of_it():
    data = _odd_data()
    words = ["obj: +\nid(+) cup(+-)", "obj: + +\nid(+) id(+) cup(+-)",
             "obj: + + +\nid(+) X+ id(+)", "obj: + + +\nid(+) id(+) X-",
             "obj: + +\nX+\nid(+) cup(+-) id(+)\nid(+) id(+) id(-) id(+)"]
    assert assert_rt_is_the_kronecker_oracle(words, [data]) == len(words)
    # the odd source field e0 (x) o flips the sign of the cup on its right
    m = rt_invariant(words[0], data)
    assert m.entry(1 * 4 + 1, 1) == -2 and m.entry(0 * 4 + 1, 0) == 2


def test_a_map_that_is_not_homogeneous_raises_where_the_oracle_does():
    base = ribbon_superflip()
    vv = base.space.tensor(base.space)
    mixed = SuperMap.identity(vv) + SuperMap(vv, vv, {(1, 0): 1})
    assert mixed.parity() is None
    data = _unchecked(RibbonData(base.space, mixed, base.twist, QQ,
                                 braiding_inv=mixed))
    # the oracle tensors each token's map onto those left of it, so only
    # a slice's first token may be inhomogeneous
    first = ["braid[2]: s1", "braid[2]: s1 s1 ; close", "obj: + +\nX+"]
    later = ["braid[3]: s2", "braid[3]: s2 ; close", "obj: + + +\nid(+) X+",
             "obj: + + + - + +\nid(+) X+ X+ id(+)"]
    # a crossing on a downward strand left of the inhomogeneous map
    # raises first
    downward = "obj: - + + + +\nX+ id(+) X+"
    assert assert_rt_is_the_kronecker_oracle(
        first + later + [downward], [data]) == 8
    with pytest.raises(ValueError, match="upward"):
        rt_invariant(downward, data)
    for w in first:
        rt_invariant(w, data)
    for w in later:
        with pytest.raises(ValueError, match="not homogeneous"):
            rt_invariant(w, data)
    with pytest.raises(ValueError, match="not homogeneous"):
        kronecker_ribbon_checks(data)
    with pytest.raises(ValueError, match="not homogeneous"):
        ribbon_checks(data)


def _test_data():
    """Every data object these tests build, failing ones included."""
    out = [d for ring in ORACLE_RINGS + (SeriesRing(QQ, 2),)
           for d in oracle_data(ring)]
    ring = SeriesRing(QQ, 4)
    out += [ribbon_diagonal([[2, 5], [7, 3]]), exp_diagonal(4),
            ribbon_diagonal([[2, ring.one + ring.monomial(1)], [7, 3]],
                            ring)]
    data = ribbon_diagonal([[2, 5], [7, 3]])
    entries = dict(data.braiding.m)
    entries[(3, 0)] = Fraction(1)
    vv = data.space.tensor(data.space)
    out.append(RibbonData(data.space, SuperMap(vv, vv, entries, data.ring),
                          data.twist, data.ring))
    for ring in (QQ, SeriesRing(QQ, 2)):
        good = ribbon_diagonal([[2, 5], [7, 3]], ring)
        out.append(RibbonData(good.space, good.braiding, good.twist, ring,
                              braiding_inv=good.braiding))
        out.append(RibbonData(good.space, good.braiding,
                              good.twist.scale(2), ring,
                              braiding_inv=good.braiding_inv))
        out.append(RibbonData(good.space, good.braiding, good.twist, ring,
                              cap_mp=good.cap_mp.scale(3),
                              braiding_inv=good.braiding_inv))
    out.append(_odd_data())
    return out


def test_ribbon_checks_equal_the_oracle_on_every_data_object():
    seen = set()
    for data in _test_data():
        got = ribbon_checks(data)
        assert list(got.items()) == list(
            kronecker_ribbon_checks(data).items())
        seen.update((name, ok) for name, ok in got.items())
    # every axiom both holds and fails somewhere
    assert len(seen) == 10


def test_an_empty_slice_on_no_strands_is_the_identity():
    # the Kronecker evaluator had no map to compose for it
    data = ribbon_diagonal([[2, 5], [7, 3]])
    word = "obj:\nslice: cup(+-)\nslice: cap(+-)\nslice:"
    assert rt_invariant(word, data) == rt_invariant("braid[1]: ; close",
                                                    data) == 2
