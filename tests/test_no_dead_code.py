"""Every function, class and method defined in the package is referenced
somewhere, every name a package module imports is used in that module,
and the definitions that only tests reference are the few the tests need.

References are read from the syntax trees of src/ and tests/: a name
(`f(...)`), an attribute (`obj.f`), an imported name (`from m import f`)
or a string constant that is an identifier (`monkeypatch.setattr(m, "f",
...)`).  A method or property is only reached through an attribute, so a
bare name (a local variable of the same name) does not count for it.
Comments and docstrings do not count, so a definition that only prose
mentions is dead.  Dunder methods are called by the language and are
exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fflab"


def _trees(paths):
    return [(p, ast.parse(p.read_text(), str(p))) for p in paths]


def _package_trees():
    return _trees(sorted(PACKAGE.glob("*.py")))


def _definitions():
    """(owner, name) for the package's functions, classes and methods,
    dunders excepted: owner is the class of a method, None otherwise."""
    defs = set()
    for _, tree in _package_trees():
        methods = {id(node): cls.name for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef) for node in cls.body}
        defs |= {(methods.get(id(node)), node.name) for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef))
                 and not (node.name.startswith("__") and node.name.endswith("__"))}
    return defs


def _references(tree):
    """(identifier, bare) for each reference in tree; bare marks a plain name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, True
        elif isinstance(node, ast.Attribute):
            yield node.attr, False
        elif isinstance(node, ast.alias):
            yield node.name, False
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            yield node.value, False


def _referenced(paths):
    """The definitions (owner, name) that the files at paths refer to."""
    refs = {ref for _, tree in _trees(paths) for ref in _references(tree)}
    return {(owner, name) for owner, name in _definitions()
            if (name, False) in refs or (owner is None and (name, True) in refs)}


def _label(definition):
    owner, name = definition
    return name if owner is None else f"{owner}.{name}"


def test_every_definition_is_referenced():
    paths = [p for top in ("src", "tests") for p in sorted((ROOT / top).rglob("*.py"))]
    dead = sorted(map(_label, _definitions() - _referenced(paths)))
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
    in_src = _referenced([path for path, _ in _package_trees()])
    in_tests = _referenced(sorted((ROOT / "tests").rglob("*.py")))
    test_only = {name for _, name in in_tests - in_src}
    assert test_only == {"conjugate", "is_exact", "o_term", "trace"}
