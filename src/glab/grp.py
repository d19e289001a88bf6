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
from typing import NamedTuple, Union

import numpy as np

from .config import GROUP_AUDIT_LIMIT
from .errors import ConstructionError, ScaleError
from .finring import _identities, _mixed_radix, _past_limit, _powers
from .records import record


# ---------------------------------------------------------------------------
# specs

@record
class CyclicGroup(NamedTuple):
    n: int


@record
class DihedralGroup(NamedTuple):
    """Symmetries of a regular n-gon; order 2n."""
    n: int


@record
class SymmetricGroup(NamedTuple):
    """All permutations of n points, n at most 4 (order at most 24)."""
    n: int


@record
class ProductGroup(NamedTuple):
    factors: tuple["GroupSpec", ...]


@record
class CayleyGroup(NamedTuple):
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
    if isinstance(spec, CyclicGroup):
        return _build_cyclic(spec)
    if isinstance(spec, DihedralGroup):
        return _build_dihedral(spec)
    if isinstance(spec, SymmetricGroup):
        return _build_symmetric(spec)
    if isinstance(spec, ProductGroup):
        return _build_product(spec)
    if isinstance(spec, CayleyGroup):
        return _build_cayley(spec)
    raise TypeError(f"not a group spec: {spec!r}")


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
    if _past_limit(order, GROUP_AUDIT_LIMIT):
        raise ScaleError(f"{kind} of order {_powers(order)} exceeds the "
                         f"limit {GROUP_AUDIT_LIMIT}")


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
    # index j*n + i encodes r^i s^j; s r = r^(-1) s
    mul = np.zeros((order, order), dtype=np.int32)
    for j1 in range(2):
        for i1 in range(n):
            for j2 in range(2):
                for i2 in range(n):
                    i = (i1 + (i2 if j1 == 0 else -i2)) % n
                    j = (j1 + j2) % 2
                    mul[j1 * n + i1, j2 * n + i2] = j * n + i
    names = []
    for j in range(2):
        for i in range(n):
            rot = "e" if i == 0 else ("r" if i == 1 else f"r^{i}")
            if j == 0:
                names.append(rot)
            else:
                names.append("s" if i == 0 else f"{rot} s")
    return Group(spec, group_label(spec), mul, 0, names)


def _perm_cycles(p: tuple[int, ...]) -> str:
    """Cycle notation on 1-based points; identity prints as e."""
    seen = [False] * len(p)
    out = []
    for start in range(len(p)):
        if seen[start] or p[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        nxt = p[start]
        while nxt != start:
            cyc.append(nxt)
            seen[nxt] = True
            nxt = p[nxt]
        out.append("(" + " ".join(str(k + 1) for k in cyc) + ")")
    return "".join(out) if out else "e"


def _build_symmetric(spec: SymmetricGroup) -> Group:
    n = spec.n
    if not 1 <= n <= 4:
        raise ConstructionError(
            f"symmetric degree must be between 1 and 4, got {n}")
    perms = list(itertools.permutations(range(n)))
    index = {p: k for k, p in enumerate(perms)}
    order = len(perms)
    mul = np.zeros((order, order), dtype=np.int32)
    for a, pa in enumerate(perms):
        for b, pb in enumerate(perms):
            # composition applies the right factor first
            mul[a, b] = index[tuple(pa[pb[i]] for i in range(n))]
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
    mul = np.array(spec.table, dtype=np.int32)
    if mul.ndim != 2 or mul.shape[0] != mul.shape[1]:
        raise ConstructionError(f"cayley table must be square, got shape {mul.shape}")
    order = mul.shape[0]
    if order < 1:
        raise ConstructionError("cayley table must be nonempty")
    _check_order("cayley table", spec)
    if mul.min() < 0 or mul.max() >= order:
        raise ConstructionError("cayley table entries out of range")
    ids = _identities(mul)
    if not ids:
        raise ConstructionError(f"cayley table {spec.label!r} has no identity element")
    names = [f"x{k}" for k in range(order)]
    names[ids[0]] = "e"
    group = Group(spec, spec.label, mul, ids[0], names)
    audit_group(group)
    return group


# ---------------------------------------------------------------------------
# audit

def audit_group(group: Group) -> None:
    """Exhaustive associativity/identity/inverse audit with witnesses."""
    order = group.order
    if order > GROUP_AUDIT_LIMIT:
        raise ScaleError(
            f"{group.label}: exhaustive group audit limited to {GROUP_AUDIT_LIMIT}")
    mul = group.mul
    e = group.identity
    ar = np.arange(order, dtype=np.int32)
    if not (np.array_equal(mul[e], ar) and np.array_equal(mul[:, e], ar)):
        raise ConstructionError(f"{group.label}: identity {e} does not act trivially")
    for b in range(order):
        left = mul[mul[:, b], :]
        right = mul[:, mul[b, :]]
        if not np.array_equal(left, right):
            a, c = map(int, np.argwhere(left != right)[0])
            raise ConstructionError(
                f"{group.label}: not associative at ({a}, {b}, {c}): "
                f"({a}*{b})*{c} = {int(left[a, c])}, a*(b*c) = {int(right[a, c])}")
    if not (mul[ar, group.inv] == e).all() or not (mul[group.inv, ar] == e).all():
        raise ConstructionError(f"{group.label}: inversion permutation broken")
