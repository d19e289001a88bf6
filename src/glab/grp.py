"""Finite groups with dense multiplication tables.

Elements are integer indices; each group carries its table, the
inversion permutation, the identity index, and readable element
names. Built-in families: cyclic, dihedral, symmetric (degree at most
4), direct products, and explicit audited Cayley tables.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from typing import Union

import numpy as np

from .config import AUDIT_LIMIT
from .errors import ConstructionError, ScaleError
from .finring import (_audit_monoid, _mixed_radix, _past_limit, _powers,
                      _read_table)
from .records import Record


# ---------------------------------------------------------------------------
# specs

class CyclicGroup(Record):
    n: int


class DihedralGroup(Record):
    """Symmetries of a regular n-gon; order 2n."""
    n: int


class SymmetricGroup(Record):
    """All permutations of n points, n at most 4 (order at most 24)."""
    n: int


class ProductGroup(Record):
    factors: tuple["GroupSpec", ...]


class CayleyGroup(Record):
    """Explicit multiplication table, audited at build time."""
    table: tuple[tuple[int, ...], ...]
    label: str = "cayley"


GroupSpec = Union[CyclicGroup, DihedralGroup, SymmetricGroup, ProductGroup, CayleyGroup]


def group_label(spec: GroupSpec) -> str:
    if isinstance(spec, CyclicGroup):
        return f"C{spec.n}"
    if isinstance(spec, DihedralGroup):
        return f"D{spec.n}"
    if isinstance(spec, SymmetricGroup):
        return f"S{spec.n}"
    if isinstance(spec, ProductGroup):
        return "x".join(group_label(f) for f in spec.factors)
    if isinstance(spec, CayleyGroup):
        return spec.label
    raise TypeError(f"not a group spec: {spec!r}")


# ---------------------------------------------------------------------------
# the Group object

class Group:
    """A finite group as a dense multiplication table.

    `mul` is an (order, order) int32 table, `inv` the inversion
    permutation, `identity` the index of the neutral element, and
    `names` a readable label per element.
    """

    def __init__(self, spec: GroupSpec, label: str, mul: np.ndarray,
                 identity: int, names: list[str]):
        self.spec = spec
        self.label = label
        self.mul = mul
        self.order = mul.shape[0]
        self.identity = int(identity)
        self.names = list(names)
        eq = mul == self.identity
        inv = np.argmax(eq, axis=1).astype(np.int32)
        if not eq[np.arange(self.order), inv].all():
            raise ConstructionError(f"{label}: table has an element with no inverse")
        self.inv = inv

    def __repr__(self) -> str:
        return f"Group({self.label}, order={self.order})"


# ---------------------------------------------------------------------------
# builders

def build_group(spec: GroupSpec) -> Group:
    if type(spec) not in _BUILDERS:
        raise TypeError(f"not a group spec: {spec!r}")
    return _BUILDERS[type(spec)](spec)


def _order(spec: GroupSpec) -> Counter:
    """|G| as {b: e}, the product of the powers b^e, from the spec alone.
    A symmetric degree out of range counts as 1; building it fails."""
    if isinstance(spec, CyclicGroup):
        return Counter({spec.n: 1})
    if isinstance(spec, DihedralGroup):
        return Counter({2 * spec.n: 1})
    if isinstance(spec, SymmetricGroup):
        return Counter({math.factorial(spec.n): 1} if 1 <= spec.n <= 4 else {})
    if isinstance(spec, ProductGroup):
        return sum((_order(f) for f in spec.factors), Counter())
    if isinstance(spec, CayleyGroup):
        return Counter({len(spec.table): 1})
    raise TypeError(f"not a group spec: {spec!r}")


def _check_order(kind: str, spec: GroupSpec) -> None:
    """Reject a group larger than the audit limit before any table
    exists; its order is printed as powers b^e, never expanded."""
    order = _order(spec)
    if _past_limit(order, AUDIT_LIMIT):
        raise ScaleError(f"{kind} of order {_powers(order)} exceeds the "
                         f"limit {AUDIT_LIMIT}")


def _build_cyclic(spec: CyclicGroup) -> Group:
    n = spec.n
    if n < 1:
        raise ConstructionError(f"cyclic order must be positive, got {n}")
    _check_order("cyclic group", spec)
    idx = np.arange(n, dtype=np.int64)
    mul = ((idx[:, None] + idx[None, :]) % n).astype(np.int32)
    names = ["e"] + [f"g^{k}" if k > 1 else "g" for k in range(1, n)]
    return Group(spec, group_label(spec), mul, 0, names)


def _build_dihedral(spec: DihedralGroup) -> Group:
    n = spec.n
    if n < 1:
        raise ConstructionError(f"dihedral parameter must be positive, got {n}")
    order = 2 * n
    _check_order("dihedral group", spec)
    # index j*n + i encodes r^i s^j; s r = r^(-1) s, so
    # (r^i s^j)(r^k s^l) = r^(i + (-1)^j k) s^(j + l)
    i, j = np.arange(order) % n, np.arange(order) // n
    mul = ((j[:, None] + j) % 2 * n
           + (i[:, None] + (1 - 2 * j[:, None]) * i) % n).astype(np.int32)
    rotations = ["e", "r"][:n] + [f"r^{k}" for k in range(2, n)]
    names = rotations + ["s"] + [f"{rot} s" for rot in rotations[1:]]
    return Group(spec, group_label(spec), mul, 0, names)


def _perm_cycles(p: tuple[int, ...]) -> str:
    """Cycle notation on 1-based points; identity prints as e."""
    seen, out = set(), []
    for start in range(len(p)):
        k, cycle = start, []
        while k not in seen:
            seen.add(k)
            cycle.append(k)
            k = p[k]
        if len(cycle) > 1:
            out.append("(" + " ".join(str(k + 1) for k in cycle) + ")")
    return "".join(out) or "e"


def _build_symmetric(spec: SymmetricGroup) -> Group:
    n = spec.n
    if not 1 <= n <= 4:
        raise ConstructionError(
            f"symmetric degree must be between 1 and 4, got {n}")
    perms = list(itertools.permutations(range(n)))
    index = {p: k for k, p in enumerate(perms)}
    # composition applies the right factor first
    mul = np.array([[index[tuple(pa[k] for k in pb)] for pb in perms]
                    for pa in perms], dtype=np.int32)
    names = [_perm_cycles(p) for p in perms]
    return Group(spec, group_label(spec), mul, 0, names)


def _build_product(spec: ProductGroup) -> Group:
    if not spec.factors:
        raise ConstructionError("product group needs at least one factor")
    _check_order("product group", spec)
    groups = [build_group(f) for f in spec.factors]
    weights, digits = _mixed_radix([g.order for g in groups])
    identity = int(weights @ [g.identity for g in groups])
    names = ["(" + ", ".join(g.names[d] for g, d in zip(groups, row)) + ")"
             for row in digits.tolist()]
    # componentwise: each digit combines in its own factor's table
    mul = np.zeros((len(digits),) * 2, dtype=np.int32)
    for g, d, w in zip(groups, digits.T, weights.tolist()):
        mul += g.mul[d[:, None], d[None, :]] * w
    return Group(spec, group_label(spec), mul, identity, names)


def _build_cayley(spec: CayleyGroup) -> Group:
    order = len(spec.table)
    _check_order("cayley table", spec)
    mul, identity = _read_table(spec.table, order, f"cayley table {spec.label!r}")
    names = [f"x{k}" for k in range(order)]
    names[identity] = "e"
    group = Group(spec, spec.label, mul, identity, names)
    audit_group(group)
    return group


_BUILDERS = {CyclicGroup: _build_cyclic, DihedralGroup: _build_dihedral,
             SymmetricGroup: _build_symmetric, ProductGroup: _build_product,
             CayleyGroup: _build_cayley}


# ---------------------------------------------------------------------------
# audit

def audit_group(group: Group) -> None:
    """Exhaustive associativity/identity/inverse audit with witnesses."""
    order = group.order
    if order > AUDIT_LIMIT:
        raise ScaleError(
            f"{group.label}: exhaustive group audit limited to {AUDIT_LIMIT}")
    mul, e = group.mul, group.identity
    _audit_monoid(group.label, mul, e)
    ar = np.arange(order, dtype=np.int32)
    if not (mul[ar, group.inv] == e).all() or not (mul[group.inv, ar] == e).all():
        raise ConstructionError(f"{group.label}: inversion permutation broken")
