"""scalars.add_term, the package's one add-or-drop-zero accumulation."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

from superchord.scalars import (
    QALPHA, QQ, AlphaScalar, SeriesRing, add_term, alpha)

SRC = Path(__file__).resolve().parent.parent / "src" / "superchord"

_H = SeriesRing(QALPHA, 2)
# (zero, a, b) per ring: a + b != 0 and a is not zero
RINGS = {
    "fraction": (QQ.zero, Fraction(1, 3), Fraction(-5, 7)),
    "alpha": (QALPHA.zero, alpha() / (alpha() + 1), AlphaScalar(2)),
    "series": (_H.zero, _H.monomial(1, alpha()), _H.monomial(0, 3)),
}


@pytest.mark.parametrize("ring", sorted(RINGS))
def test_new_key_takes_the_term_itself(ring):
    _, a, _ = RINGS[ring]
    out = {}
    add_term(out, "k", a)
    assert out == {"k": a}
    assert out["k"] is a


@pytest.mark.parametrize("ring", sorted(RINGS))
def test_terms_accumulate(ring):
    _, a, b = RINGS[ring]
    out = {"other": b}
    add_term(out, "k", a)
    add_term(out, "k", b)
    add_term(out, "k", a)
    assert out == {"other": b, "k": a + b + a}
    assert list(out) == ["other", "k"]


@pytest.mark.parametrize("ring", sorted(RINGS))
def test_exact_cancellation_removes_the_key(ring):
    _, a, b = RINGS[ring]
    out = {"k": a + b, "other": b}
    add_term(out, "k", -a)
    add_term(out, "k", -b)
    assert out == {"other": b}
    add_term(out, "k", a)
    assert list(out) == ["other", "k"]


@pytest.mark.parametrize("ring", sorted(RINGS))
def test_zero_term_on_a_missing_key_stores_nothing(ring):
    zero, a, _ = RINGS[ring]
    out = {"other": a}
    add_term(out, "k", zero)
    add_term(out, "k", a - a)
    assert out == {"other": a}


def _accumulations(tree, path):
    """(path, line) of each `X.pop(k, None)` call and non-slice `del X[k]`
    outside scalars.add_term."""
    found = []

    def visit(node, inside):
        if isinstance(node, ast.FunctionDef) and node.name == "add_term" \
                and path.name == "scalars.py":
            inside = True
        if not inside:
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "pop" and len(node.args) == 2
                    and isinstance(node.args[1], ast.Constant)
                    and node.args[1].value is None):
                found.append((path.name, node.lineno))
            if isinstance(node, ast.Delete):
                for t in node.targets:
                    if (isinstance(t, ast.Subscript)
                            and not isinstance(t.slice, ast.Slice)):
                        found.append((path.name, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, False)
    return found


def test_add_term_is_the_only_drop_zero_accumulation():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = []
    for path in paths:
        found += _accumulations(ast.parse(path.read_text()), path)
    assert found == []


def test_guard_sees_the_inline_idiom():
    inline = ast.parse(
        "def f(out, k, v):\n"
        "    w = out.get(k, 0) + v\n"
        "    if w:\n"
        "        out[k] = w\n"
        "    else:\n"
        "        out.pop(k, None)\n"
        "    del out[k]\n"
        "    del out[1:2]\n")
    assert _accumulations(inline, Path("kontsevich.py")) == [
        ("kontsevich.py", 6), ("kontsevich.py", 7)]
