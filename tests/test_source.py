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


def _module_imports(tree):
    """(line, name) of each name that an import at module level binds,
    also inside if and try blocks; imports inside functions and
    `from __future__` are left out."""
    out, stack = [], list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.If, ast.Try)):
            stack += node.body + node.orelse + getattr(node, "finalbody", [])
            stack += [s for h in getattr(node, "handlers", []) for s in h.body]
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(
                node, "module", None) != "__future__":
            out += [(node.lineno, alias.asname or alias.name.partition(".")[0])
                    for alias in node.names]
    return out


def unused_imports(sources: dict[str, str]) -> list[str]:
    """Every name a module-level import binds that its module never
    reads, as "module:line name". A name listed in `__all__` is read,
    and so is one whose import line says `# noqa: F401`."""
    out = []
    for name, text in sources.items():
        tree, lines = ast.parse(text, name), text.splitlines()
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets):
                read.update(ast.literal_eval(node.value))
        out += [f"{name}:{line} {bound}"
                for line, bound in _module_imports(tree)
                if bound not in read and "# noqa: F401" not in lines[line - 1]]
    return sorted(out)


def test_rule_flags_imports_their_module_never_reads():
    sources = {"a.py": "from __future__ import annotations\n"
                       "import os.path\n"
                       "from b import (used, unused)\n"
                       "from b import kept  # noqa: F401\n"
                       "from b import listed\n"
                       "try:\n"
                       "    from c import fast\n"
                       "except ImportError:\n"
                       "    from d import fast\n"
                       "__all__ = ['listed']\n"
                       "def f():\n"
                       "    from e import local\n"
                       "    return used(fast)\n"}
    assert unused_imports(sources) == ["a.py:2 os", "a.py:3 unused"]


def test_every_module_import_is_read():
    # a deletion leaves no import behind that only its module's readers
    # would have to skip
    sources = {path.name: path.read_text()
               for path in sorted(SRC.glob("*.py"))}
    assert unused_imports(sources) == []


def unread_fields(sources: dict[str, str]) -> list[str]:
    """Every field of a `Record` class that no module reads by name, as
    an attribute, as "module:line Class.field". Building a record by
    keyword writes a field and does not count."""
    read, fields = set(), []
    for name, text in sources.items():
        for node in ast.walk(ast.parse(text, name)):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            if isinstance(node, ast.ClassDef) and "Record" in [
                    n for base in node.bases for n in _names(base)]:
                fields += [(name, item.lineno, node.name, item.target.id)
                           for item in node.body
                           if isinstance(item, ast.AnnAssign)
                           and isinstance(item.target, ast.Name)]
    return [f"{module}:{line} {cls}.{field}"
            for module, line, cls, field in fields if field not in read]


def test_rule_flags_record_fields_no_module_reads():
    sources = {"a.py": "class R(Record):\n"
                       "    read: int\n"
                       "    built: int = 0\n"
                       "class S(records.Record):\n"
                       "    unpacked: int\n"
                       "class Plain:\n"
                       "    note: int\n",
               "b.py": "r = R(read=1, built=2)\n"
                       "print(r.read)\n"
                       "u, = S(3)\n"}
    assert unread_fields(sources) == ["a.py:3 R.built", "a.py:5 S.unpacked"]


def test_every_record_field_is_read():
    # a field that only a constructor writes is carried for nobody
    sources = {path.name: path.read_text()
               for path in sorted(SRC.glob("*.py"))}
    assert unread_fields(sources) == []
