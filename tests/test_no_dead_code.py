"""Every function and class defined in the package is referenced somewhere.

A definition counts as referenced when its name occurs as a whole word in
src/ or tests/ more often than it is defined, so a name that appears only
at its own definitions is dead.  Dunder methods are called by the language
and are exempt.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fflab"


def _definitions():
    """name -> number of function and class definitions of that name."""
    defs = Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defs[node.name] += 1
    return defs


def test_every_definition_is_referenced():
    text = "\n".join(p.read_text() for top in ("src", "tests")
                     for p in sorted((ROOT / top).rglob("*.py")))
    words = Counter(re.findall(r"\w+", text))
    dead = sorted(name for name, n in _definitions().items() if words[name] <= n)
    assert dead == []
