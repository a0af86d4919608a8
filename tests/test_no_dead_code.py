"""Every function and class defined in the package is referenced somewhere,
every name a package module imports is used in that module, and the
definitions that only tests reference are the few the tests need.

References are read from the syntax trees of src/ and tests/: a name
(`f(...)`), an attribute (`obj.f`), an imported name (`from m import f`)
or a string constant that is an identifier (`monkeypatch.setattr(m, "f",
...)`).  Comments and docstrings do not count, so a definition that only
prose mentions is dead.  Dunder methods are called by the language and
are exempt.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fflab"


def _trees(paths):
    return [(p, ast.parse(p.read_text(), str(p))) for p in paths]


def _package_trees():
    return _trees(sorted(PACKAGE.glob("*.py")))


def _definitions():
    """The names of the package's functions and classes, dunders excepted."""
    return {node.name for _, tree in _package_trees() for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))}


def _references(tree):
    """The identifiers that tree refers to, one per occurrence."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            yield node.value


def test_every_definition_is_referenced():
    paths = [p for top in ("src", "tests") for p in sorted((ROOT / top).rglob("*.py"))]
    refs = Counter(name for _, tree in _trees(paths) for name in _references(tree))
    dead = sorted(name for name in _definitions() if not refs[name])
    assert dead == []


def test_every_import_is_used():
    unused = []
    for path, tree in _package_trees():
        if path.name == "__init__.py":
            continue
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{path.stem}.{bound}")
    assert unused == []


def test_test_only_definitions_are_the_public_api():
    """Definitions that tests reference and no package code does.

    Each one is a name tests need for a behaviour of their own: the pair
    conjugation the invariance tests apply, and the basic element and
    matrix API.  Anything else on tests alone is program code that no
    suite, CLI path or export reaches.
    """
    in_src = {name for _, tree in _package_trees() for name in _references(tree)}
    in_tests = {name for _, tree in _trees(sorted((ROOT / "tests").rglob("*.py")))
                for name in _references(tree)}
    test_only = {name for name in _definitions() if name in in_tests - in_src}
    assert test_only == {"conjugate", "is_exact", "o_term", "trace"}
