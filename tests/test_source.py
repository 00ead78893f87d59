"""Source hygiene of the package, read with `ast` only: no import goes
unused, no function, class or method is left without a caller outside the
tests, and the test oracles import nothing from what they check."""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "tropcurves").glob("*.py"))
# the code that calls the package: a name read only by the tests is not API
READERS = PACKAGE + sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
# the library API that README and ROADMAP name and that no reader calls
API = {
    "similar_moves",
    "is_general",
    "induced_map_slopes",
    "constant_family",
    "ray_family",
    "parse_diagram",
    "solution_diagrams",
    "decompose",
    "config_to_json",
    "family_to_json",
    "check_harmonic_or_lcs",
}


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _references(node):
    """How often each name is read below `node`: as a name, an attribute,
    an imported name or a string equal to it (`perfbench/tracer.py` wraps
    functions and methods by name)."""
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


def _definitions(tree):
    """(qualified name, node) of each module-level function and class, and
    of each method of such a class but its dunders."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not (sub.name.startswith("__") and sub.name.endswith("__")):
                    yield f"{node.name}.{sub.name}", sub


def test_every_definition_has_a_caller():
    # names are counted, not bindings: a definition whose name is read
    # elsewhere, even as another object's attribute, counts as called
    references = Counter()
    for path in READERS:
        references.update(_references(_tree(path)))
    orphans, called, defined = [], [], set()
    for path in PACKAGE:
        for qualname, node in _definitions(_tree(path)):
            defined.add(node.name)
            outside = references[node.name] - _references(node)[node.name]
            if node.name in API and outside:
                called.append(f"{path.stem}.{qualname}")
            elif node.name not in API and not outside:
                orphans.append(f"{path.stem}.{qualname}")
    assert not orphans, f"definitions that src/, demos/ and perfbench/ never reference: {orphans}"
    assert not called, f"allow-listed, yet referenced from src/, demos/ or perfbench/: {called}"
    assert API <= defined, f"allow-listed and no longer defined: {sorted(API - defined)}"


def test_fixtures_import_nothing_from_canonical():
    # the brute-force automorphism oracle must share no code with what it checks
    modules = []
    for node in ast.walk(_tree(ROOT / "tests" / "fixtures.py")):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules += [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
    assert not [m for m in modules if m == "tropcurves.canonical" or m.startswith("tropcurves.canonical.")]
