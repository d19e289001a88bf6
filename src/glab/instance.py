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
from typing import NamedTuple

# hashlib loads OpenSSL, which costs every process a few MB and ms for
# one short digest; CPython's built-in SHA-256 gives the same hash
try:
    from _sha2 import sha256     # CPython 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from .config import DEFAULT_CENSUS_BOUND, DEFAULT_OP_BOUND
from .errors import ParseError
from .finring import (MatrixRing, PolyQuot, ProductRing, RadicalQuotient,
                      RingSpec, TableRing, Zmod, build_ring)
from .galg import GroupAlgebra
from .grp import (CayleyGroup, CyclicGroup, DihedralGroup, GroupSpec,
                  ProductGroup, SymmetricGroup, build_group)
from .ideals import CodeSet, span
from .records import record


@record
class ElemDef(NamedTuple):
    name: str
    coeffs: tuple


@record
class IdealDef(NamedTuple):
    name: str
    side: str
    generators: tuple[str, ...]


@record
class InstanceDescription(NamedTuple):
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
        return int(text)

    def read_name(self) -> str:
        kind, text = self.next()
        if kind != "name":
            raise ParseError(f"{self.where}: expected a name, got {text!r}")
        return text

    def read_string(self) -> str:
        kind, text = self.next()
        if kind != "string":
            raise ParseError(f"{self.where}: expected a quoted string, got {text!r}")
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
# structured expressions

def _ring_expr(tok: _Tokens) -> RingSpec:
    head = tok.read_name()
    tok.next("(")
    if head == "zmod":
        m = tok.read_int()
        tok.next(")")
        return Zmod(m)
    if head == "polyquot":
        p = tok.read_int()
        tok.next(",")
        modulus = tok.read_seq(tok.read_int)
        tok.next(")")
        return PolyQuot(p, modulus)
    if head == "matrix":
        n = tok.read_int()
        tok.next(",")
        base = _ring_expr(tok)
        tok.next(")")
        return MatrixRing(n, base)
    if head == "product":
        factors = [_ring_expr(tok)]
        while tok.peek() == ("punct", ","):
            tok.next()
            factors.append(_ring_expr(tok))
        tok.next(")")
        return ProductRing(tuple(factors))
    if head == "radical_quotient":
        base = _ring_expr(tok)
        tok.next(")")
        return RadicalQuotient(base)
    if head == "table":
        moduli = tok.read_seq(tok.read_int)
        tok.next(",")
        mul = tok.read_seq(lambda: tok.read_seq(tok.read_int))
        label = "table"
        if tok.peek() == ("punct", ","):
            tok.next()
            label = tok.read_string()
        tok.next(")")
        return TableRing(moduli, mul, label=label)
    raise ParseError(f"{tok.where}: unknown ring kind {head!r}")


def _group_expr(tok: _Tokens) -> GroupSpec:
    head = tok.read_name()
    tok.next("(")
    if head == "cyclic":
        n = tok.read_int()
        tok.next(")")
        return CyclicGroup(n)
    if head == "dihedral":
        n = tok.read_int()
        tok.next(")")
        return DihedralGroup(n)
    if head == "symmetric":
        n = tok.read_int()
        tok.next(")")
        return SymmetricGroup(n)
    if head == "product":
        factors = [_group_expr(tok)]
        while tok.peek() == ("punct", ","):
            tok.next()
            factors.append(_group_expr(tok))
        tok.next(")")
        return ProductGroup(tuple(factors))
    if head == "cayley":
        table = tok.read_seq(lambda: tok.read_seq(tok.read_int))
        label = "cayley"
        if tok.peek() == ("punct", ","):
            tok.next()
            label = tok.read_string()
        tok.next(")")
        return CayleyGroup(table, label=label)
    raise ParseError(f"{tok.where}: unknown group kind {head!r}")


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
    ring: RingSpec | None = None
    group: GroupSpec | None = None
    elems: list[ElemDef] = []
    ideals: list[IdealDef] = []
    bound: int | None = None
    census_bound: int | None = None
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

        if key_parts == ["ring"]:
            if ring is not None:
                raise ParseError(f"{where}: ring defined twice")
            tok = _Tokens(value, where)
            ring = _ring_expr(tok)
            tok.done()
        elif key_parts == ["group"]:
            if group is not None:
                raise ParseError(f"{where}: group defined twice")
            tok = _Tokens(value, where)
            group = _group_expr(tok)
            tok.done()
        elif key_parts == ["bound"] or key_parts == ["census_bound"]:
            tok = _Tokens(value, where)
            n = tok.read_int()
            tok.done()
            if n < 1:
                raise ParseError(f"{where}: {key_parts[0]} must be positive")
            if key_parts == ["bound"]:
                if bound is not None:
                    raise ParseError(f"{where}: bound defined twice")
                bound = n
            else:
                if census_bound is not None:
                    raise ParseError(f"{where}: census_bound defined twice")
                census_bound = n
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

    if ring is None:
        raise ParseError("instance has no ring line")
    if group is None:
        raise ParseError("instance has no group line")
    return InstanceDescription(ring=ring, group=group, elems=tuple(elems),
                               ideals=tuple(ideals), bound=bound,
                               census_bound=census_bound)


def load_instance(path: str) -> InstanceDescription:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read())


# ---------------------------------------------------------------------------
# canonical serialization and digest

def _ring_text(spec: RingSpec) -> str:
    if isinstance(spec, Zmod):
        return f"zmod({spec.m})"
    if isinstance(spec, PolyQuot):
        return f"polyquot({spec.p}, {_ints(spec.modulus)})"
    if isinstance(spec, MatrixRing):
        return f"matrix({spec.n}, {_ring_text(spec.base)})"
    if isinstance(spec, ProductRing):
        return "product(" + ", ".join(_ring_text(f) for f in spec.factors) + ")"
    if isinstance(spec, RadicalQuotient):
        return f"radical_quotient({_ring_text(spec.base)})"
    if isinstance(spec, TableRing):
        rows = "[" + ", ".join(_ints(r) for r in spec.mul) + "]"
        return f"table({_ints(spec.moduli)}, {rows}, {_quoted(spec.label)})"
    raise TypeError(f"not a ring spec: {spec!r}")


def _group_text(spec: GroupSpec) -> str:
    if isinstance(spec, CyclicGroup):
        return f"cyclic({spec.n})"
    if isinstance(spec, DihedralGroup):
        return f"dihedral({spec.n})"
    if isinstance(spec, SymmetricGroup):
        return f"symmetric({spec.n})"
    if isinstance(spec, ProductGroup):
        return "product(" + ", ".join(_group_text(f) for f in spec.factors) + ")"
    if isinstance(spec, CayleyGroup):
        rows = "[" + ", ".join(_ints(r) for r in spec.table) + "]"
        return f"cayley({rows}, {_quoted(spec.label)})"
    raise TypeError(f"not a group spec: {spec!r}")


def _quoted(label: str) -> str:
    """The label as a string token. A label the syntax cannot read back
    is refused: a string token holds no '"' or backslash, '#' starts a
    comment, and a line break ends the line."""
    if set(label) & set('"\\#') or label.splitlines() not in ([], [label]):
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
    lines = [f"ring = {_ring_text(desc.ring)}",
             f"group = {_group_text(desc.group)}"]
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

@record
class BuiltInstance(NamedTuple):
    description: InstanceDescription
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
        description=desc,
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
        scalars: list[int] = []
        for c in e.coeffs:
            if isinstance(c, tuple):
                try:
                    scalars.append(ring.encode(c))
                except ValueError as exc:
                    raise ParseError(f"elem {e.name}: {exc}") from exc
            else:
                if len(ring.moduli) != 1:
                    raise ParseError(
                        f"elem {e.name}: ring {ring.label} has "
                        f"{len(ring.moduli)} coordinates; write coefficients "
                        f"as tuples")
                if not 0 <= c < ring.card:
                    raise ParseError(
                        f"elem {e.name}: coefficient {c} out of range for "
                        f"{ring.label}")
                scalars.append(int(c))
        built.elems[e.name] = alg.encode(scalars)
    for idef in desc.ideals:
        gens = [built.elems[g] for g in idef.generators]
        built.ideals[idef.name] = span(alg, gens, idef.side)
    return built
