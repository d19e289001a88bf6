"""Rules on the package source, read from its syntax trees."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "glab"


def _names(node):
    """The names a node refers to: a bare name, an attribute, an import."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.alias):
        return [node.name.rpartition(".")[2]]
    return []


def unreferenced(sources: dict[str, str]) -> list[str]:
    """Every public function or method (no leading underscore) whose
    name no module refers to outside its own definition, as
    "module:line name"."""
    refs, own, defs = Counter(), Counter(), []
    for name, text in sources.items():
        for node in ast.walk(ast.parse(text, name)):
            refs.update(_names(node))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.append((name, node.lineno, node.name))
                own[node.name] += sum(n == node.name for inner in ast.walk(node)
                                      for n in _names(inner))
    return [f"{module}:{line} {fn}" for module, line, fn in defs
            if not fn.startswith("_") and refs[fn] == own[fn]]


def test_rule_flags_functions_only_their_own_body_names():
    sources = {"a.py": "def used(): pass\n"
                       "def lonely(): pass\n"
                       "def recursive(n): return recursive(n - 1)\n"
                       "class K:\n"
                       "    def method(self): pass\n"
                       "    def _private(self): pass\n",
               "b.py": "from a import used\nK().method()\n"}
    assert unreferenced(sources) == ["a.py:2 lonely", "a.py:3 recursive"]


def test_every_public_function_is_reached_from_the_package():
    # no public function that no command, law or other function of
    # glab reaches: one that only tests call is dead weight
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unreferenced(sources) == []
