"""JSON forms for scalars, series, diagrams, integral values, ribbon data.

Rationals travel as "p/q" strings, alpha scalars as numerator and
denominator coefficient arrays, series tagged with their truncation
order.  Tangle words stay in the text grammar.  Each loader reads one
kind of file: load_word a .tw word, load_diagram a .cd diagram and
load_ribbon .ribbon data, which it refuses if an axiom check fails.
Ribbon data is read over Q and holds exactly the maps of `ribbon.MAPS`,
the bends optional.
Integer fields (chord endpoints, truncation orders, matrix indices,
parities) must be JSON integers: a float, a string or a boolean there is
a ValueError, never rounded, and a parity other than 0 or 1 is one too,
as is a value or a file nested too deeply to read.  This module checks
only what JSON alone can get wrong; the skeleton kinds, the parities'
range and the coercion of entries are checked by the classes it builds.
"""

import functools
import json
from fractions import Fraction

from .diagrams import ChordDiagram, canonical_form
from .kontsevich import ZValue
from .ribbon import MAPS, RibbonData
from .scalars import AlphaScalar, HSeries, Poly, QALPHA, QQ, SeriesRing
from .supergraded import SuperMap, SuperSpace, tensor_space
from .words import parse_word


def _loader(what):
    """Report a missing key, a wrong type or nesting too deep to read in
    the input as ValueError."""
    def wrap(fn):
        @functools.wraps(fn)
        def load(obj):
            try:
                return fn(obj)
            except RecursionError:
                raise ValueError(
                    "malformed %s: nested too deeply" % what) from None
            except (KeyError, TypeError, IndexError) as e:
                raise ValueError("malformed %s: %s: %s"
                                 % (what, type(e).__name__, e)) from e
        return load
    return wrap


def _json_int(v, what):
    """A JSON integer field as an int; anything else raises ValueError."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValueError("%s must be a JSON integer, got %r" % (what, v))
    return v


def _endpoint(ep):
    c, p = ep
    return _json_int(c, "chord endpoint"), _json_int(p, "chord endpoint")


def _chords_from_json(rows):
    return [(_endpoint(a), _endpoint(b)) for a, b in rows]


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


def _coefficients(arr):
    """A Q(alpha) coefficient array: "p/q" strings or JSON integers."""
    if not isinstance(arr, list):
        raise ValueError("coefficients must be a JSON array, got %r"
                         % (arr,))
    return [Fraction(c) if isinstance(c, str)
            else _json_int(c, "coefficient") for c in arr]


def _scalar(obj):
    """A Fraction, AlphaScalar or HSeries; a zero denominator, or a
    coefficient that is neither a "p/q" string nor a JSON integer, raises
    ValueError."""
    try:
        if isinstance(obj, str):
            return Fraction(obj)
        if isinstance(obj, dict) and "num" in obj:
            num = Poly(_coefficients(obj["num"]))
            den = Poly(_coefficients(obj.get("den", ["1"])))
            return AlphaScalar(num, den)
    except ZeroDivisionError as e:
        raise ValueError("zero denominator in scalar %r" % (obj,)) from e
    if isinstance(obj, dict) and "h_order" in obj:
        return _series(obj)
    raise ValueError("unrecognized scalar %r" % (obj,))


def series_to_json(s):
    return {"h_order": s.ring.order,
            "coeffs": [scalar_to_json(c) for c in s.c]}


def _series(obj):
    """An HSeries; an h_order other than the coefficient count minus one
    raises ValueError before any series ring is built."""
    coeffs = [_scalar(c) for c in obj["coeffs"]]
    order = _json_int(obj["h_order"], "h_order")
    if order != len(coeffs) - 1:
        raise ValueError("h_order %d needs %d coefficients, got %d"
                         % (order, order + 1, len(coeffs)))
    base = QALPHA if any(isinstance(c, AlphaScalar) for c in coeffs) else QQ
    return HSeries(SeriesRing(base, order), [base.coerce(c) for c in coeffs])


# the public loaders; the private bodies recurse into each other, so a
# value nested too deeply is reported by the loader that was called
@_loader("scalar")
def scalar_from_json(obj):
    return _scalar(obj)


@_loader("series")
def series_from_json(obj):
    return _series(obj)


def diagram_to_json(diagram):
    return {"skeleton": list(diagram.skeleton),
            "chords": [[list(a), list(b)] for a, b in diagram.chords]}


@_loader("chord diagram")
def diagram_from_json(obj):
    return ChordDiagram(obj["skeleton"], _chords_from_json(obj["chords"]))


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
    """A ZValue; a negative h_order, a term whose degree is not its chord
    count or exceeds h_order, or two terms of one diagram class raise
    ValueError."""
    order = _json_int(obj["h_order"], "h_order")
    if order < 0:
        raise ValueError("h_order must be at least 0, got %d" % order)
    # ChordDiagram refuses an unknown kind, also when there are no terms
    skeleton = ChordDiagram(obj["skeleton"], ()).skeleton
    terms, reps = {}, {}
    for t in obj["terms"]:
        d = ChordDiagram(skeleton, _chords_from_json(t["chords"]))
        degree = _json_int(t["degree"], "degree")
        if degree != d.degree:
            raise ValueError("term of degree %d has %d chords"
                             % (degree, d.degree))
        if degree > order:
            raise ValueError("term of degree %d above h_order %d"
                             % (degree, order))
        e = canonical_form(d)
        if e in terms:
            raise ValueError("two terms of one diagram class: %r"
                             % (d.chords,))
        terms[e] = _scalar(t["coeff"])
        reps[e] = d
    return ZValue(skeleton, terms, reps, order)


def _entries_to_json(m):
    return [[i, j, scalar_to_json(v)] for (i, j), v in sorted(m.m.items())]


def _entries_from_json(rows, source, target):
    """The map over Q of [row, column, value] rows, each index a JSON
    integer in range: a row of the target, a column of the source."""
    entries = {}
    for i, j, v in rows:
        key = (_json_int(i, "entry index"), _json_int(j, "entry index"))
        for index, dim in zip(key, (target.dim, source.dim)):
            if not 0 <= index < dim:
                raise ValueError("entry index %d is outside 0..%d"
                                 % (index, dim - 1))
        entries[key] = _scalar(v)
    return SuperMap(source, target, entries)


def ribbon_to_json(data):
    out = {"parities": list(data.space.parities),
           "labels": list(data.space.labels)}
    for name in MAPS:
        out[name] = _entries_to_json(getattr(data, name))
    return out


@_loader("ribbon data")
def ribbon_from_json(obj):
    """Build RibbonData over Q from the maps of `MAPS` that obj holds and
    verify every axiom; raises on any failure, a missing braiding or
    twist, a parity other than 0 or 1 and labels other than a JSON array
    of strings included."""
    parities = tuple(_json_int(p, "parity") for p in obj["parities"])
    labels = obj.get("labels")
    if "labels" in obj and not (isinstance(labels, list) and all(
            isinstance(label, str) for label in labels)):
        raise ValueError("labels must be a JSON array of strings, got %r"
                         % (labels,))
    v = SuperSpace(parities, labels)
    spaces = [tensor_space([v] * k) for k in range(3)]
    data = RibbonData(v, **{
        name: _entries_from_json(obj[name], spaces[a], spaces[b])
        for name, (a, b) in MAPS.items() if name in obj})
    data.require_axioms()
    return data


def load_word(path):
    with open(path) as f:
        return parse_word(f.read())


def _load_json(path, from_json):
    with open(path) as f:
        return from_json(json.load(f))


@_loader("chord diagram")
def load_diagram(path):
    return _load_json(path, diagram_from_json)


@_loader("ribbon data")
def load_ribbon(path):
    return _load_json(path, ribbon_from_json)
