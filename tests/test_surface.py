"""Every function, class and method of the package has a caller outside
the unit tests: the package itself, the README's library API, the
benchmark or the acceptance gate.  A helper that only a unit test calls
belongs in that test module."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "vangraph").glob("*.py"))
CALLERS = [*SOURCES, ROOT / "README.md",
           *sorted((ROOT / "bench").glob("*.py")),
           ROOT / "tests" / "test_acceptance.py"]


def definitions(tree):
    """(label, name) for each module-level function and class and each
    method, dunders left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item.name


def test_every_definition_has_a_caller_outside_the_unit_tests():
    text = "\n".join(path.read_text(encoding="utf-8") for path in CALLERS)
    # a function or class counts as used on any whole-word match, a
    # method only on an attribute access, so a function of the same
    # name elsewhere does not keep a method alive
    words = Counter(re.findall(r"\w+", text))
    attributes = Counter(re.findall(r"\.(\w+)", text))
    defs = Counter(re.findall(r"^\s*(?:def|class)\s+(\w+)", text, re.M))
    unused = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for label, name in definitions(tree):
            if name.startswith("__") and name.endswith("__"):
                continue
            used = attributes[name] if "." in label else words[name] - defs[name]
            if not used:
                unused.append(f"{path.name}: {label}")
    assert unused == []
