"""Instance files: line-oriented text naming an algebra and its codes.

A file fixes one coefficient ring and one group, then optionally
names elements (coefficient lists in group order), ideals (spans of
named elements), and bound overrides:

    ring = zmod(4)
    group = cyclic(2)
    elem e = [3, 1]
    ideal C = span_right(e)
    bound = 4096

Coefficients are bare integers for single-coordinate rings and
coordinate tuples like (1, 0, 0, 1) for compound ones. Parsing is
deterministic, unknown keys are rejected, and every name must be
defined before it is used. The canonical serialization round-trips
and its SHA-256 digest identifies the instance in reports.
"""

from __future__ import annotations

import re

# hashlib loads OpenSSL, which costs every process a few MB and ms for
# one short digest; CPython's built-in SHA-256 gives the same hash
try:
    from _sha2 import sha256     # CPython 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from .config import (DEFAULT_CENSUS_BOUND, DEFAULT_OP_BOUND,
                     INSTANCE_BYTE_LIMIT)
from .errors import ParseError
from .finring import (MatrixRing, PolyQuot, ProductRing, RadicalQuotient,
                      RingSpec, TableRing, Zmod, build_ring)
from .galg import GroupAlgebra
from .grp import (CayleyGroup, CyclicGroup, DihedralGroup, GroupSpec,
                  ProductGroup, SymmetricGroup, build_group)
from .ideals import CodeSet, span
from .records import Record


class ElemDef(Record):
    name: str
    coeffs: tuple


class IdealDef(Record):
    name: str
    side: str
    generators: tuple[str, ...]


class InstanceDescription(Record):
    ring: RingSpec
    group: GroupSpec
    elems: tuple[ElemDef, ...] = ()
    ideals: tuple[IdealDef, ...] = ()
    bound: int | None = None
    census_bound: int | None = None


# ---------------------------------------------------------------------------
# tokenizer

_TOKEN = re.compile(r"""
    (?P<ws>\s+)
  | (?P<int>-?\d+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<string>"[^"\\]*")
  | (?P<punct>[()\[\],=])
""", re.VERBOSE)
# the control characters, of which a string holds none: a tab or a line
# break in a label would split the fields and lines of a report
_CONTROL = re.compile(r"[\x00-\x1f\x7f]")


class _Tokens:
    """A peekable token stream over one line's value text."""

    def __init__(self, text: str, where: str):
        self.where = where
        self.items: list[tuple[str, str]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if m is None:
                raise ParseError(f"{where}: cannot read {text[pos:]!r}")
            pos = m.end()
            kind = m.lastgroup
            if kind != "ws":
                self.items.append((kind, m.group()))
        self.at = 0

    def peek(self) -> tuple[str, str] | None:
        return self.items[self.at] if self.at < len(self.items) else None

    def next(self, expect: str | None = None) -> tuple[str, str]:
        tok = self.peek()
        if tok is None:
            raise ParseError(f"{self.where}: unexpected end of line")
        self.at += 1
        if expect is not None and tok[1] != expect:
            raise ParseError(f"{self.where}: expected {expect!r}, got {tok[1]!r}")
        return tok

    def done(self) -> None:
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"{self.where}: trailing {tok[1]!r}")

    # -- small composite readers -------------------------------------------
    def read_int(self) -> int:
        kind, text = self.next()
        if kind != "int":
            raise ParseError(f"{self.where}: expected an integer, got {text!r}")
        try:
            return int(text)
        except ValueError:      # past the interpreter's limit on digits
            raise ParseError(f"{self.where}: an integer of {len(text)} digits "
                             f"is out of range") from None

    def read_name(self) -> str:
        kind, text = self.next()
        if kind != "name":
            raise ParseError(f"{self.where}: expected a name, got {text!r}")
        return text

    def read_string(self) -> str:
        kind, text = self.next()
        if kind != "string":
            raise ParseError(f"{self.where}: expected a quoted string, got {text!r}")
        if _CONTROL.search(text):
            raise ParseError(f"{self.where}: a string holds a control "
                             f"character: {text!r}")
        return text[1:-1]

    def read_seq(self, item, close: str = "]", empty: bool = True) -> tuple:
        """Comma-separated item() reads between brackets, "[...]" or
        "(...)"; `empty` allows the bare pair."""
        self.next("[" if close == "]" else "(")
        if empty and self.peek() == ("punct", close):
            self.next()
            return ()
        out = []
        while True:
            out.append(item())
            _, text = self.next()
            if text == close:
                return tuple(out)
            if text != ",":
                raise ParseError(
                    f"{self.where}: expected ',' or {close!r}, got {text!r}")


# ---------------------------------------------------------------------------
# structured expressions: `kind(argument, ...)`, one argument per field
# of the kind's record, in the syntax the table names: an integer, a list
# of integers, a table (a list of integer lists), a nested expression,
# one or more nested expressions (a product), or an optional label

# the most expressions nested on one line: reading, writing and building
# a spec recurse once per level, far inside the interpreter's limit
MAX_DEPTH = 32

_RINGS = {"zmod": (Zmod, "int"), "polyquot": (PolyQuot, "int", "ints"),
          "matrix": (MatrixRing, "int", "expr"),
          "product": (ProductRing, "exprs"),
          "radical_quotient": (RadicalQuotient, "expr"),
          "table": (TableRing, "ints", "table", "label")}
_GROUPS = {"cyclic": (CyclicGroup, "int"), "dihedral": (DihedralGroup, "int"),
           "symmetric": (SymmetricGroup, "int"),
           "product": (ProductGroup, "exprs"),
           "cayley": (CayleyGroup, "table", "label")}


def _expr(tok: _Tokens, kinds: dict, noun: str, depth: int = 1):
    if depth > MAX_DEPTH:
        raise ParseError(
            f"{tok.where}: {noun} nested more than {MAX_DEPTH} levels deep")
    head = tok.read_name()
    tok.next("(")
    if head not in kinds:
        raise ParseError(f"{tok.where}: unknown {noun} kind {head!r}")
    read = {"int": tok.read_int, "ints": lambda: tok.read_seq(tok.read_int),
            "table": lambda: tok.read_seq(lambda: tok.read_seq(tok.read_int)),
            "expr": lambda: _expr(tok, kinds, noun, depth + 1),
            "label": tok.read_string}
    cls, *syntax = kinds[head]
    values = []
    for i, arg in enumerate(syntax):
        if arg == "label" and tok.peek() != ("punct", ","):
            break
        if i or arg == "label":
            tok.next(",")
        if arg != "exprs":
            values.append(read[arg]())
            continue
        factors = [read["expr"]()]
        while tok.peek() == ("punct", ","):
            tok.next()
            factors.append(read["expr"]())
        values.append(tuple(factors))
    tok.next(")")
    return cls(*values)


def _coeff(tok: _Tokens):
    """A bare integer or a coordinate tuple like (1, 0)."""
    if tok.peek() == ("punct", "("):
        return tok.read_seq(tok.read_int, ")", empty=False)
    return tok.read_int()


# ---------------------------------------------------------------------------
# file parser

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def parse_instance(text: str) -> InstanceDescription:
    """Parse instance text; ParseError messages carry the line number."""
    # ring, group, bound and census_bound, each on one line at most
    found: dict[str, object] = {}
    elems: list[ElemDef] = []
    ideals: list[IdealDef] = []
    seen: set[str] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"line {lineno}"
        head, eq, value = line.partition("=")
        if not eq:
            raise ParseError(f"{where}: expected 'key = value'")
        key_parts = head.split()
        value = value.strip()

        if len(key_parts) == 1 and key_parts[0] in (
                "ring", "group", "bound", "census_bound"):
            key = key_parts[0]
            if key in found:
                raise ParseError(f"{where}: {key} defined twice")
            tok = _Tokens(value, where)
            found[key] = (_expr(tok, _RINGS, key) if key == "ring" else
                          _expr(tok, _GROUPS, key) if key == "group" else
                          tok.read_int())
            tok.done()
            if key in ("bound", "census_bound") and found[key] < 1:
                raise ParseError(f"{where}: {key} must be positive")
        elif len(key_parts) == 2 and key_parts[0] in ("elem", "ideal"):
            kind, name = key_parts
            if not _IDENT.match(name):
                raise ParseError(f"{where}: bad name {name!r}")
            if name in seen:
                raise ParseError(f"{where}: name {name!r} defined twice")
            seen.add(name)
            tok = _Tokens(value, where)
            if kind == "elem":
                coeffs = tok.read_seq(lambda: _coeff(tok))
                tok.done()
                elems.append(ElemDef(name, coeffs))
            else:
                span_kind = tok.read_name()
                if span_kind not in ("span_right", "span_left"):
                    raise ParseError(
                        f"{where}: ideals are span_right(...) or span_left(...)")
                gens = tok.read_seq(tok.read_name, ")")
                tok.done()
                defined = {e.name for e in elems}
                for g in gens:
                    if g not in defined:
                        raise ParseError(
                            f"{where}: ideal {name!r} uses undefined element {g!r}")
                side = "right" if span_kind == "span_right" else "left"
                ideals.append(IdealDef(name, side, gens))
        else:
            raise ParseError(f"{where}: unknown key {head.strip()!r}")

    for key in ("ring", "group"):
        if key not in found:
            raise ParseError(f"instance has no {key} line")
    return InstanceDescription(elems=tuple(elems), ideals=tuple(ideals),
                               **found)


def load_instance(path: str) -> InstanceDescription:
    """Parse the file at `path`; one that cannot be read as UTF-8 text,
    or that is longer than INSTANCE_BYTE_LIMIT bytes, raises ParseError
    naming the path. At most one byte past the limit is read, so that a
    long file or an endless one is refused in bounded time and memory."""
    try:
        with open(path, "rb") as fh:
            data = fh.read(INSTANCE_BYTE_LIMIT + 1)
        if len(data) > INSTANCE_BYTE_LIMIT:
            raise ParseError(f"{path}: longer than the limit of "
                             f"{INSTANCE_BYTE_LIMIT} bytes")
        text = data.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(
            f"{path}: {getattr(exc, 'strerror', None) or exc}") from None
    return parse_instance(text)


# ---------------------------------------------------------------------------
# canonical serialization and digest

def _expr_text(spec, kinds: dict) -> str:
    write = {"int": str, "ints": _ints, "label": _quoted,
             "table": lambda rows: "[" + ", ".join(map(_ints, rows)) + "]",
             "expr": lambda s: _expr_text(s, kinds),
             "exprs": lambda fs: ", ".join(_expr_text(f, kinds) for f in fs)}
    for head, (cls, *syntax) in kinds.items():
        if isinstance(spec, cls):
            args = ", ".join(write[a](v) for a, v in zip(syntax, spec))
            return f"{head}({args})"
    raise TypeError(f"not a spec of {', '.join(kinds)}: {spec!r}")


def _quoted(label: str) -> str:
    """The label as a string token. A label the syntax cannot read back
    is refused: a string token holds no '"', backslash or control
    character, '#' starts a comment, and a line break ends the line."""
    if (set(label) & set('"\\#') or _CONTROL.search(label)
            or label.splitlines() not in ([], [label])):
        raise ParseError(f"label {label!r} cannot be written as instance text")
    return f'"{label}"'


def _ints(values) -> str:
    return "[" + ", ".join(str(int(v)) for v in values) + "]"


def _coeff_text(c) -> str:
    if isinstance(c, tuple):
        return "(" + ", ".join(str(int(v)) for v in c) + ")"
    return str(int(c))


def format_instance(desc: InstanceDescription) -> str:
    """Canonical text; parse(format(d)) == d. A label that the syntax
    cannot carry raises ParseError (`_quoted`)."""
    lines = [f"ring = {_expr_text(desc.ring, _RINGS)}",
             f"group = {_expr_text(desc.group, _GROUPS)}"]
    if desc.bound is not None:
        lines.append(f"bound = {desc.bound}")
    if desc.census_bound is not None:
        lines.append(f"census_bound = {desc.census_bound}")
    for e in desc.elems:
        coeffs = "[" + ", ".join(_coeff_text(c) for c in e.coeffs) + "]"
        lines.append(f"elem {e.name} = {coeffs}")
    for c in desc.ideals:
        call = "span_right" if c.side == "right" else "span_left"
        lines.append(f"ideal {c.name} = {call}({', '.join(c.generators)})")
    return "\n".join(lines) + "\n"


def instance_digest(desc: InstanceDescription) -> str:
    """SHA-256 of the canonical serialization, hex."""
    return sha256(format_instance(desc).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# building

class BuiltInstance(Record):
    digest: str
    algebra: GroupAlgebra
    elems: dict[str, int]
    ideals: dict[str, CodeSet]
    bound: int = DEFAULT_OP_BOUND
    census_bound: int = DEFAULT_CENSUS_BOUND


def build_instance(desc: InstanceDescription,
                   bound: int | None = None,
                   census_bound: int | None = None) -> BuiltInstance:
    """Construct the algebra and all named objects.

    Explicit arguments beat the file's overrides, which beat the
    defaults. Coefficients are validated against the ring: compound
    rings require coordinate tuples of the declared arity.
    """
    alg = GroupAlgebra(build_ring(desc.ring), build_group(desc.group))
    built = BuiltInstance(
        digest=instance_digest(desc),
        algebra=alg,
        elems={},
        ideals={},
        bound=bound if bound is not None else (
            desc.bound if desc.bound is not None else DEFAULT_OP_BOUND),
        census_bound=census_bound if census_bound is not None else (
            desc.census_bound if desc.census_bound is not None
            else DEFAULT_CENSUS_BOUND),
    )
    ring = alg.ring
    for e in desc.elems:
        if len(e.coeffs) != alg.group.order:
            raise ParseError(
                f"elem {e.name}: expected {alg.group.order} coefficients "
                f"(group order), got {len(e.coeffs)}")
        if len(ring.moduli) > 1 and not all(isinstance(c, tuple) for c in e.coeffs):
            raise ParseError(
                f"elem {e.name}: ring {ring.label} has {len(ring.moduli)} "
                f"coordinates; write coefficients as tuples")
        try:
            built.elems[e.name] = alg.encode(
                ring.encode(c) if isinstance(c, tuple) else c for c in e.coeffs)
        except ValueError as exc:
            raise ParseError(f"elem {e.name}: {exc}") from exc
    for idef in desc.ideals:
        gens = [built.elems[g] for g in idef.generators]
        built.ideals[idef.name] = span(alg, gens, idef.side)
    return built
