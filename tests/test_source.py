"""Source hygiene of the package, read with `ast` only: no import goes
unused, and no private function or class is left without a caller."""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "tropcurves").glob("*.py"))
READERS = PACKAGE + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _references(node):
    """How often each name is read below `node`: as a name, an attribute,
    an imported name or a string equal to it (`monkeypatch.setattr`)."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and sub.value.isidentifier():
            out[sub.value] += 1
    return out


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    tree = _tree(path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
    unused = sorted((line, name) for name, line in imported.items() if name not in used)
    assert not unused, f"{path.name}: imported and never used (line, name): {unused}"


def test_every_private_definition_is_referenced():
    references = Counter()
    for path in READERS:
        references.update(_references(_tree(path)))
    orphans = []
    for path in PACKAGE:
        for node in _tree(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_"):
                if not node.name.startswith("__") and references[node.name] <= _references(node)[node.name]:
                    orphans.append(f"{path.stem}.{node.name}")
    assert not orphans, f"private definitions referenced nowhere outside themselves: {orphans}"
