"""Design guard: no package module imports another module's private name."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "superchord"


def _private_imports(tree, path):
    """(path, line, name) of each `from .module import _name`."""
    return [(path.name, node.lineno, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level
            for alias in node.names if alias.name.startswith("_")]


def test_no_module_imports_a_private_name():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = []
    for path in paths:
        found += _private_imports(ast.parse(path.read_text()), path)
    assert found == []


def test_guard_sees_a_private_import():
    tree = ast.parse(
        "from .weightsys import WeightSystem, _apply_chord\n"
        "from .scalars import add_term\n"
        "from itertools import _private\n")
    assert _private_imports(tree, Path("kontsevich.py")) == [
        ("kontsevich.py", 1, "_apply_chord")]
