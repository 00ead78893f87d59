"""Source hygiene of the package, read with `ast` only: no import in the
package or its tests goes unused, no function, class or method is left
without a caller outside the tests, and the test oracles import nothing
from what they check.  README.md, read as text, cites a test for every
claim of its Tests section, states each certified bound and refusal
sentence as the code does, and names the API."""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "tropcurves").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
# the code that calls the package: a name read only by the tests is not API
READERS = PACKAGE + sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
# the library API that README and ROADMAP name and that no reader calls;
# README names each outside its Tests section
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


@pytest.mark.parametrize("path", PACKAGE + TESTS, ids=lambda p: p.stem)
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


README = (ROOT / "README.md").read_text()
CITATION = re.compile(r"tests/(test_\w+\.py)::(\w+)")
# a bound as README's certified-scale table states it: `module.NAME` (value)
BOUND = re.compile(r"`(\w+)\.([A-Z_]+)` \((-?\d+)\)")


def _section(title):
    """The lines of README's `## title` section, subsections included."""
    lines = README.splitlines()
    start = lines.index(f"## {title}") + 1
    end = next((i for i in range(start, len(lines)) if lines[i].startswith("## ")), len(lines))
    return lines[start:end]


def _leaf_bullets(lines):
    """The text of each bullet that has no bullet nested under it."""
    bullets = []  # (indent, text)
    for line in lines:
        item = re.match(r"( *)[-*] (.*)", line)
        if item:
            bullets.append((len(item[1]), item[2]))
        elif line.strip() and bullets and line.startswith(" "):
            indent, text = bullets[-1]
            bullets[-1] = indent, f"{text} {line.strip()}"
        elif not line.strip() or not line.startswith(" "):
            bullets.append((-1, ""))  # a break: the bullet before it ends
    following = [indent for indent, _text in bullets[1:]] + [-1]
    return [text for (indent, text), after in zip(bullets, following) if indent >= 0 and after <= indent]


def test_readme_cites_existing_tests_in_every_claim():
    tests = {}
    for name, test in CITATION.findall(README):
        if name not in tests:
            path = ROOT / "tests" / name
            body = _tree(path).body if path.exists() else []
            tests[name] = {node.name for node in body if isinstance(node, ast.FunctionDef)}
        assert test in tests[name], f"README cites tests/{name}::{test}, which is not a top-level def there"
    bare = [text[:60] for text in _leaf_bullets(_section("Tests")) if not CITATION.search(text)]
    assert not bare, f"README Tests bullets citing no test: {bare}"


def test_readme_scale_table_matches_the_code():
    # the rows under the header; the |---| rule does not start with "| "
    rows = [line.split("|")[1:-1] for line in _section("Certified scale") if line.startswith("| ")][1:]
    assert rows
    scale_test = _tree(ROOT / "tests" / "test_scale.py")
    names = {node.id for node in ast.walk(scale_test) if isinstance(node, ast.Name)}
    # the words of each string in test_scale, an f-string's fields left out
    commands = []
    for node in ast.walk(scale_test):
        if isinstance(node, ast.JoinedStr):
            commands.append(" ".join(v.value for v in node.values if isinstance(v, ast.Constant)).split())
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            commands.append(node.value.split())
    for layer, entries, bound, past in rows:
        found = BOUND.findall(bound)
        assert found, f"{layer.strip()}: no bound stated as `module.NAME` (value)"
        for module, name, value in found:
            consts = {
                target.id: node.value.value
                for node in _tree(ROOT / "src" / "tropcurves" / f"{module}.py").body
                if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
                for target in node.targets
                if isinstance(target, ast.Name)
            }
            assert consts.get(name) == int(value), f"{layer.strip()}: {module}.{name} is {consts.get(name)}, not {value}"
        # a quoted refusal sentence is the module's own, each bound's value in it its name
        for sentence in re.findall(r'"(the \w+ layer [^"]*)"', past):
            for _module, name, value in found:
                sentence = re.sub(rf"\b{value}\b", f"{{{name}}}", sentence)
            assert sentence in (ROOT / "src" / "tropcurves" / f"{found[0][0]}.py").read_text(), (
                f"{layer.strip()}: the code raises no {sentence!r}"
            )
        calls, _cli, cli = entries.partition("CLI")
        for call in re.findall(r"`([^`]+)`", calls):
            assert call in names, f"{layer.strip()}: test_scale.py never calls {call}"
        for command in re.findall(r"`([^`]+)`", cli):
            words = command.split()
            assert any(c[:1] == words[:1] and set(words) <= set(c) for c in commands), (
                f"{layer.strip()}: test_scale.py never runs CLI {command}"
            )


def test_readme_names_the_api():
    tests = "\n".join(_section("Tests"))
    outside = README.replace(tests, "")
    missing = sorted(name for name in API if f"`{name}`" not in outside)
    assert not missing, f"allow-listed API that README does not name outside its Tests section: {missing}"
