"""Group algebras RG with exact convolution arithmetic.

An element of RG is a coefficient vector over the ring R indexed by
the group's canonical element order, encoded as a single integer in
mixed radix base |R| (group position 0 least significant). Index 0 is
zero; scalars r live at the group identity position.

Alongside O(|G|^2) scalar operations the algebra exposes vectorized
row operations (one result per element of RG) that every exhaustive
scan in the package is built on: left/right multiplication rows,
squaring, the coefficient-inversion involution, and bilinear form
columns. Each left or right multiplication map is computed at most
once per algebra and kept, read-only, while the stored maps fit in
MAP_MEMO_BYTES; past that budget a map is recomputed on each call.
The form is <a, b> = sum over g of a_g * b_g with the left
argument's coefficient first; it is biadditive, G-invariant under
simultaneous right translation, and nondegenerate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_OP_BOUND, MAP_MEMO_BYTES, max_elements
from .errors import ConstructionError, ScaleError
from .finring import Ring, radical_quotient
from .grp import Group


class GroupAlgebra:
    """The group algebra RG as a fully indexed element space."""

    def __init__(self, ring: Ring, group: Group):
        self.ring = ring
        self.group = group
        self.label = f"{ring.label}{group.label}"
        card = ring.card ** group.order
        cap = max_elements()
        if card > cap:
            raise ScaleError(
                f"{self.label}: {ring.card}^{group.order} elements "
                f"exceeds the cap {cap}")
        self.card = card
        self._weights = (ring.card ** np.arange(group.order)).astype(np.int64)
        idx = np.arange(card, dtype=np.int64)
        self.coeffs = ((idx[:, None] // self._weights[None, :])
                       % ring.card).astype(np.int32)
        self.zero = 0
        self.one = ring.one * int(self._weights[group.identity])
        self._hat_all: np.ndarray | None = None
        self._rows: dict[int, np.ndarray] = {}
        self._cols: dict[int, np.ndarray] = {}
        self._memo_bytes = 0

    # -- codec ---------------------------------------------------------------
    def decode(self, x: int) -> tuple[int, ...]:
        """Ring-element index per group position."""
        return tuple(int(c) for c in self.coeffs[x])

    def encode(self, coeff_seq) -> int:
        coeff_seq = list(coeff_seq)
        if len(coeff_seq) != self.group.order:
            raise ValueError(
                f"{self.label}: expected {self.group.order} coefficients")
        total = 0
        for c, w in zip(coeff_seq, self._weights):
            c = int(c)
            if not 0 <= c < self.ring.card:
                raise ValueError(f"coefficient index {c} out of range")
            total += c * int(w)
        return total

    def scalar_elem(self, r: int) -> int:
        """The scalar r placed at the group identity."""
        return int(r) * int(self._weights[self.group.identity])

    def basis_elem(self, g: int) -> int:
        """The group element g with coefficient 1."""
        return self.ring.one * int(self._weights[g])

    def text(self, x: int) -> str:
        """Readable sum of coefficient*name terms."""
        parts = []
        for g, c in enumerate(self.coeffs[x]):
            if c == 0:
                continue
            if c == self.ring.one:
                cs = ""
            elif len(self.ring.moduli) == 1:
                cs = str(int(c))
            else:
                cs = f"[{'.'.join(map(str, self.ring.decode(int(c))))}]"
            name = self.group.names[g]
            if name == "e":
                parts.append(cs if cs else "1")
            else:
                parts.append(f"{cs}{name}" if cs else name)
        return " + ".join(parts) if parts else "0"

    # -- scalar arithmetic -----------------------------------------------------
    def add(self, x: int, y: int) -> int:
        c = self.ring.add[self.coeffs[x], self.coeffs[y]]
        return int(c.astype(np.int64) @ self._weights)

    def sub(self, x: int, y: int) -> int:
        c = self.ring.add[self.coeffs[x], self.ring.neg[self.coeffs[y]]]
        return int(c.astype(np.int64) @ self._weights)

    def mul(self, x: int, y: int) -> int:
        n = self.group.order
        cx, cy = self.coeffs[x], self.coeffs[y]
        out = np.zeros(n, dtype=np.int32)
        for h in range(n):
            if cx[h] == 0:
                continue
            tgt = self.group.mul[h, :]
            out[tgt] = self.ring.add[out[tgt], self.ring.mul[cx[h], cy]]
        return int(out.astype(np.int64) @ self._weights)

    def one_minus(self, x: int) -> int:
        return self.sub(self.one, x)

    def hat(self, x: int) -> int:
        """Coefficient-inversion involution: position g takes the
        coefficient from g^-1."""
        c = self.coeffs[x][self.group.inv]
        return int(c.astype(np.int64) @ self._weights)

    def form(self, x: int, y: int) -> int:
        """<x, y> = sum over g of x_g * y_g, an element of R."""
        acc = 0
        for g in range(self.group.order):
            acc = self.ring.a(acc, self.ring.m(int(self.coeffs[x, g]),
                                               int(self.coeffs[y, g])))
        return acc

    @property
    def elements(self) -> range:
        return range(self.card)

    def __repr__(self) -> str:
        return f"GroupAlgebra({self.label}, card={self.card})"

    # -- vectorized rows (one entry per element of RG) -------------------------
    def add_row(self, a: int) -> np.ndarray:
        """Indices of a + x for every x."""
        out = self.ring.add[self.coeffs[a][None, :], self.coeffs]
        return out.astype(np.int64) @ self._weights

    def mul_row(self, a: int) -> np.ndarray:
        """Indices of a * x for every x (read-only, memoized)."""
        return self._memo(self._rows, self._mul_row, int(a))

    def mul_col(self, b: int) -> np.ndarray:
        """Indices of x * b for every x (read-only, memoized)."""
        return self._memo(self._cols, self._mul_col, int(b))

    def _memo(self, store: dict[int, np.ndarray], compute, a: int) -> np.ndarray:
        out = store.get(a)
        if out is not None:
            return out
        # the smallest unsigned type that holds every index, whatever the cap
        out = compute(a).astype(np.min_scalar_type(self.card - 1))
        out.setflags(write=False)
        if self._memo_bytes + out.nbytes <= MAP_MEMO_BYTES:
            store[a] = out
            self._memo_bytes += out.nbytes
        return out

    def _mul_row(self, a: int) -> np.ndarray:
        n = self.group.order
        ca = self.coeffs[a]
        out = np.zeros((self.card, n), dtype=np.int32)
        for h in range(n):
            if ca[h] == 0:
                continue
            src = self.coeffs[:, self.group.mul[self.group.inv[h], :]]
            out = self.ring.add[out, self.ring.mul[ca[h], src]]
        return out.astype(np.int64) @ self._weights

    def _mul_col(self, b: int) -> np.ndarray:
        n = self.group.order
        cb = self.coeffs[b]
        out = np.zeros((self.card, n), dtype=np.int32)
        for k in range(n):
            if cb[k] == 0:
                continue
            tgt = self.group.mul[:, k]
            for h in range(n):
                g = int(tgt[h])
                out[:, g] = self.ring.add[out[:, g],
                                          self.ring.mul[self.coeffs[:, h], cb[k]]]
        return out.astype(np.int64) @ self._weights

    def square_all(self) -> np.ndarray:
        """Indices of x * x for every x."""
        n = self.group.order
        out = np.zeros((self.card, n), dtype=np.int32)
        for h in range(n):
            for k in range(n):
                g = int(self.group.mul[h, k])
                prod = self.ring.mul[self.coeffs[:, h], self.coeffs[:, k]]
                out[:, g] = self.ring.add[out[:, g], prod]
        return out.astype(np.int64) @ self._weights

    def hat_all(self) -> np.ndarray:
        """The involution as a permutation of the whole index space."""
        if self._hat_all is None:
            c = self.coeffs[:, self.group.inv]
            self._hat_all = c.astype(np.int64) @ self._weights
        return self._hat_all

    def form_row(self, a: int) -> np.ndarray:
        """Ring indices of <a, x> for every x."""
        ca = self.coeffs[a]
        acc = np.zeros(self.card, dtype=np.int32)
        for g in range(self.group.order):
            if ca[g] == 0:
                continue
            acc = self.ring.add[acc, self.ring.mul[ca[g], self.coeffs[:, g]]]
        return acc

    def form_col(self, b: int) -> np.ndarray:
        """Ring indices of <x, b> for every x."""
        cb = self.coeffs[b]
        acc = np.zeros(self.card, dtype=np.int32)
        for g in range(self.group.order):
            if cb[g] == 0:
                continue
            acc = self.ring.add[acc, self.ring.mul[self.coeffs[:, g], cb[g]]]
        return acc

    # -- centrality -------------------------------------------------------------
    def is_central(self, a: int) -> bool:
        """Whether a commutes with all of RG.

        Decided against the generating set (all scalars, all group
        elements); the centralizer is a subring, so commuting with
        generators is commuting with everything. Backed by a full
        row comparison when the algebra is small enough.
        """
        for r in self.ring.elements:
            s = self.scalar_elem(r)
            if self.mul(a, s) != self.mul(s, a):
                return False
        for g in range(self.group.order):
            b = self.basis_elem(g)
            if self.mul(a, b) != self.mul(b, a):
                return False
        if self.card <= DEFAULT_OP_BOUND:
            if not np.array_equal(self.mul_row(a), self.mul_col(a)):
                raise ConstructionError(
                    f"{self.label}: generating-set centrality disagrees with "
                    f"the full scan at element {a} ({self.text(a)})")
        return True


# ---------------------------------------------------------------------------
# coefficientwise reduction onto the residue field

@dataclass(frozen=True)
class ResidueMap:
    """Coefficientwise projection RG -> (R/J)G over a local base ring.

    proj maps every base index to its residue index (a surjective ring
    map, coefficientwise); lift maps each residue index to the base
    element whose coefficients are the least coset representatives.
    """
    base: GroupAlgebra
    residue: GroupAlgebra
    proj: np.ndarray
    lift: np.ndarray

    def reduce(self, x: int) -> int:
        return int(self.proj[x])

    def raise_least(self, y: int) -> int:
        return int(self.lift[y])


def residue_map(alg: GroupAlgebra) -> ResidueMap:
    """Build the residue algebra and both coefficientwise maps."""
    qd = radical_quotient(alg.ring)
    residue = GroupAlgebra(qd.ring, alg.group)
    proj = qd.proj[alg.coeffs] @ residue._weights
    lift = qd.lift[residue.coeffs] @ alg._weights
    if int(proj[alg.one]) != residue.one:
        raise ConstructionError(
            f"{alg.label}: residue projection does not fix the identity")
    return ResidueMap(base=alg, residue=residue,
                      proj=proj.astype(np.int64), lift=lift.astype(np.int64))
