"""JSON forms for scalars, series, diagrams, integral values, ribbon data.

Rationals travel as "p/q" strings, alpha scalars as numerator and
denominator coefficient arrays, series tagged with their truncation
order.  Tangle words stay in the text grammar.  Loaders dispatch on the
.tw, .cd and .ribbon suffixes, and the ribbon loader refuses data that
fails an axiom check.
"""

import functools
import json
from fractions import Fraction

from .diagrams import CIRCLE, INTERVAL, ChordDiagram, canonical_form
from .kontsevich import ZValue
from .ribbon import RibbonData, ribbon_checks
from .scalars import AlphaScalar, HSeries, Poly, QALPHA, QQ, SeriesRing
from .supergraded import SuperMap, SuperSpace, UNIT
from .words import parse_word


def _loader(what):
    """Report a missing key or a wrong type in the input as ValueError."""
    def wrap(fn):
        @functools.wraps(fn)
        def load(obj, *args):
            try:
                return fn(obj, *args)
            except (KeyError, TypeError, IndexError) as e:
                raise ValueError("malformed %s: %s: %s"
                                 % (what, type(e).__name__, e)) from e
        return load
    return wrap


def scalar_to_json(v):
    if isinstance(v, (int, Fraction)):
        return str(Fraction(v))
    if isinstance(v, AlphaScalar):
        out = {"num": [str(c) for c in v.num.c]}
        if v.den.c != (Fraction(1),):
            out["den"] = [str(c) for c in v.den.c]
        return out
    if isinstance(v, HSeries):
        return series_to_json(v)
    raise TypeError("no JSON form for %r" % (v,))


def scalar_from_json(obj):
    if isinstance(obj, str):
        return Fraction(obj)
    if isinstance(obj, dict) and "num" in obj:
        num = Poly([Fraction(c) for c in obj["num"]])
        den = Poly([Fraction(c) for c in obj.get("den", ["1"])])
        return AlphaScalar(num, den)
    if isinstance(obj, dict) and "h_order" in obj:
        return series_from_json(obj)
    raise ValueError("unrecognized scalar %r" % (obj,))


def series_to_json(s):
    return {"h_order": s.ring.order,
            "coeffs": [scalar_to_json(c) for c in s.c]}


def series_from_json(obj):
    coeffs = [scalar_from_json(c) for c in obj["coeffs"]]
    base = QALPHA if any(isinstance(c, AlphaScalar) for c in coeffs) else QQ
    ring = SeriesRing(base, int(obj["h_order"]))
    return HSeries(ring, [base.coerce(c) for c in coeffs])


def diagram_to_json(diagram):
    return {"skeleton": list(diagram.skeleton),
            "chords": [[list(a), list(b)] for a, b in diagram.chords]}


@_loader("chord diagram")
def diagram_from_json(obj):
    skeleton = []
    for kind in obj["skeleton"]:
        if kind not in (CIRCLE, INTERVAL):
            raise ValueError("unknown skeleton component %r" % (kind,))
        skeleton.append(kind)
    chords = [(tuple(a), tuple(b)) for a, b in obj["chords"]]
    return ChordDiagram(tuple(skeleton), chords)


def zvalue_to_json(z):
    terms = []
    for enc in sorted(z.terms):
        d = z.reps[enc]
        terms.append({"degree": len(enc[1]),
                      "chords": [[list(a), list(b)] for a, b in d.chords],
                      "coeff": scalar_to_json(z.terms[enc])})
    return {"skeleton": list(z.skeleton), "h_order": z.order, "terms": terms}


@_loader("integral value")
def zvalue_from_json(obj):
    skeleton = tuple(diagram_from_json(
        {"skeleton": obj["skeleton"], "chords": []}).skeleton)
    terms, reps = {}, {}
    for t in obj["terms"]:
        chords = [(tuple(a), tuple(b)) for a, b in t["chords"]]
        d = ChordDiagram(skeleton, chords)
        e = canonical_form(d)
        terms[e] = scalar_from_json(t["coeff"])
        reps[e] = d
    return ZValue(skeleton, terms, reps, int(obj["h_order"]))


def _entries_to_json(m):
    return [[i, j, scalar_to_json(v)] for (i, j), v in sorted(m.m.items())]


def _entries_from_json(rows, source, target, ring):
    entries = {}
    for i, j, v in rows:
        entries[(int(i), int(j))] = ring.coerce(scalar_from_json(v))
    return SuperMap(source, target, entries, ring)


_BENDS = ("cup_pm", "cup_mp", "cap_pm", "cap_mp")


def ribbon_to_json(data):
    out = {"parities": list(data.space.parities),
           "labels": list(data.space.labels),
           "braiding": _entries_to_json(data.braiding),
           "twist": _entries_to_json(data.twist)}
    for name in _BENDS:
        out[name] = _entries_to_json(getattr(data, name))
    return out


@_loader("ribbon data")
def ribbon_from_json(obj, ring=QQ):
    """Build RibbonData and verify every axiom; raises on any failure."""
    parities = tuple(int(p) for p in obj["parities"])
    labels = tuple(obj["labels"]) if "labels" in obj else None
    v = SuperSpace(parities, labels)
    vv = v.tensor(v)
    braiding = _entries_from_json(obj["braiding"], vv, vv, ring)
    twist = _entries_from_json(obj["twist"], v, v, ring)
    bends = {}
    shapes = {"cup_pm": (UNIT, v.tensor(v.dual())),
              "cup_mp": (UNIT, v.dual().tensor(v)),
              "cap_pm": (v.tensor(v.dual()), UNIT),
              "cap_mp": (v.dual().tensor(v), UNIT)}
    for name in _BENDS:
        if name in obj:
            src, tgt = shapes[name]
            bends[name] = _entries_from_json(obj[name], src, tgt, ring)
    data = RibbonData(v, braiding, twist, ring, **bends)
    failed = [n for n, ok in ribbon_checks(data).items() if not ok]
    if failed:
        raise ValueError("ribbon axioms fail: %s" % ", ".join(failed))
    return data


def load_word(path):
    with open(path) as f:
        return parse_word(f.read())


def load_diagram(path):
    with open(path) as f:
        return diagram_from_json(json.load(f))


def load_ribbon(path, ring=QQ):
    with open(path) as f:
        return ribbon_from_json(json.load(f), ring)


def load_path(path):
    """Dispatch on suffix: .tw words, .cd diagrams, .ribbon ribbon data."""
    if path.endswith(".tw"):
        return load_word(path)
    if path.endswith(".cd"):
        return load_diagram(path)
    if path.endswith(".ribbon"):
        return load_ribbon(path)
    raise ValueError("unknown file type: %s" % path)
