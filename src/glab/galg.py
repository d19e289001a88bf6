"""Group algebras RG with exact convolution arithmetic.

An element of RG is a coefficient vector over the ring R indexed by
the group's canonical element order, encoded as a single integer in
mixed radix base |R| (group position 0 least significant). Index 0 is
zero; scalars r live at the group identity position.

The encoding stays in this module. Every product, sum and form comes
from one of three kernels on coefficient arrays that broadcast over
leading axes, so a single element, a whole row (one result per
element of RG) and a batch of pairs share the same arithmetic; other
modules work on element indices only.

Left and right multiplication maps come from the product kernel only
for the trivial units T = {r*g : r a unit of R, g in G} and for one
representative u of each two-sided orbit T*u*T. Storing u's map
records, for every a = v*u*t of its orbit, the first (v, u, t) that
reaches it, and the map of a is then gathered from the stored maps of
v, u and t: a*x = v*(u*(t*x)) and x*a = ((x*v)*u)*t, by associativity.
Product maps are kept, read-only, while they fit in MAP_MEMO_BYTES;
gathered maps are not kept. Past the budget, orbits are no longer
recorded, and a map that is neither stored nor in a recorded orbit is
a product on each call; with a budget of 0 every map is. The
translation maps x -> x - b, through which glab.ideals closes stacks
of subgroup masks, come from the sum kernel and are kept under the
same budget.
The form is <a, b> = sum over g of a_g * b_g with the left
argument's coefficient first; it is biadditive, G-invariant under
simultaneous right translation, and nondegenerate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import DEFAULT_OP_BOUND, MAP_MEMO_BYTES, max_elements
from .errors import ConstructionError, ScaleError
from .finring import Ring, _mixed_radix, radical_quotient, structure
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
        self._weights, self.coeffs = _mixed_radix((ring.card,) * group.order)
        self.zero = 0
        # flat ring tables, read by take(): a pair (s, t) sits at s*|R| + t,
        # which stays in int32 below TABLE_LIMIT**2
        self._radd, self._rmul = ring.add.ravel(), ring.mul.ravel()
        self.one = ring.one * int(self._weights[group.identity])
        # the group elements and the nonzero scalars generate RG as a ring
        self.generators = list(dict.fromkeys(
            [self.basis_elem(g) for g in range(group.order)]
            + [self.scalar_elem(r) for r in range(1, ring.card)]))
        self._hat_all: np.ndarray | None = None
        self._rows: dict[int, np.ndarray] = {}
        self._cols: dict[int, np.ndarray] = {}
        self._subs: dict[int, np.ndarray] = {}
        self._memo_bytes = 0
        # (v, u, t) with a = v*u*t per element a, u its orbit's
        # representative; -1 until the orbit is recorded
        self._via: np.ndarray | None = None
        # the sides (left: rows) whose unit maps are all stored
        self._units_done: set[bool] = set()

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

    # -- kernels on coefficient arrays, broadcast over leading axes ---------------
    def _product(self, cx: np.ndarray, cy: np.ndarray) -> np.ndarray:
        """Coefficients of x*y.

        The loop runs over the group positions of a single-element
        operand, skipping its zero coefficients: x*y = sum_h x_h (h*y)
        when x is one element (or neither is), sum_k (x*k) y_k when
        only y is.
        """
        gmul, inv, r = self.group.mul, self.group.inv, self.ring.card
        left = cx.ndim == 1 or cy.ndim > 1
        single = cx if left else cy
        out = np.zeros(np.broadcast_shapes(cx.shape, cy.shape), dtype=np.int32)
        for p in range(self.group.order):
            if single.ndim == 1 and single[p] == 0:
                continue
            # multiply first, then move the positions: the products stay
            # C-ordered, which take() reads several times faster
            if left:    # term_g = x_p * y_(p^-1 g)
                prod = self._rmul.take(cx[..., p, None] * r + cy)
                prod = prod[..., gmul[inv[p], :]]
            else:       # term_g = x_(g p^-1) * y_p
                prod = self._rmul.take(cx * r + cy[..., p, None])
                prod = prod[..., gmul[:, inv[p]]]
            out = self._radd.take(out * r + prod)
        return out

    def _sum(self, cx: np.ndarray, cy: np.ndarray) -> np.ndarray:
        """Coefficients of x + y."""
        return self._radd.take(cx * self.ring.card + cy)

    def _form(self, cx: np.ndarray, cy: np.ndarray) -> np.ndarray:
        """Ring indices of <x, y> = sum over g of x_g * y_g."""
        r = self.ring.card
        acc = np.zeros(np.broadcast_shapes(cx.shape, cy.shape)[:-1], dtype=np.int32)
        for g in range(self.group.order):
            prod = self._rmul.take(cx[..., g] * r + cy[..., g])
            acc = self._radd.take(acc * r + prod)
        return acc

    def _index(self, c: np.ndarray):
        """Element indices of coefficient arrays; an int for one element."""
        out = c.astype(np.int64) @ self._weights
        return int(out) if out.ndim == 0 else out

    # -- arithmetic on element indices ---------------------------------------------
    def add(self, x, y):
        """x + y; index arrays broadcast, as in a sumset."""
        return self._index(self._sum(self.coeffs[x], self.coeffs[y]))

    def sub(self, x, y):
        """x - y; index arrays broadcast, as in add."""
        return self._index(self._sum(self.coeffs[x], self.ring.neg[self.coeffs[y]]))

    def mul(self, x, y):
        """x * y; index arrays broadcast, as in add."""
        return self._index(self._product(self.coeffs[x], self.coeffs[y]))

    def one_minus(self, x: int) -> int:
        return self.sub(self.one, x)

    def hat(self, x: int) -> int:
        """Coefficient-inversion involution: position g takes the
        coefficient from g^-1."""
        return int(self.hat_all()[x])

    def form(self, x: int, y: int) -> int:
        """<x, y> = sum over g of x_g * y_g, an element of R."""
        return int(self._form(self.coeffs[x], self.coeffs[y]))

    @property
    def elements(self) -> range:
        return range(self.card)

    def __repr__(self) -> str:
        return f"GroupAlgebra({self.label}, card={self.card})"

    # -- vectorized rows (one entry per element of RG) -------------------------
    @cached_property
    def trivial_units(self) -> list[int]:
        """The units r*g, r a unit of R and g in G, r-major."""
        return [int(r) * int(w) for r in structure(self.ring).units
                for w in self._weights]

    def mul_row(self, a: int) -> np.ndarray:
        """Indices of a * x for every x (read-only)."""
        return self._memo(self._rows, int(a), True)

    def mul_col(self, b: int) -> np.ndarray:
        """Indices of x * b for every x (read-only)."""
        return self._memo(self._cols, int(b), False)

    def _memo(self, store: dict[int, np.ndarray], a: int,
              left: bool) -> np.ndarray:
        out = store.get(a)
        if out is not None:
            return out
        via = [-1, -1, -1] if self._via is None else self._via[a].tolist()
        if via[1] not in (-1, a) and self._units_stored(store, left):
            # a row applies t, then u, then v; a column v, then u, then t
            v, u, t = via if left else via[::-1]
            out = store[v].take(self._memo(store, u, left).take(store[t]))
            out.setflags(write=False)
            return out
        cx, cy = (self.coeffs[a], self.coeffs) if left else (
            self.coeffs, self.coeffs[a])
        out = self._keep(store, a, self._index(self._product(cx, cy)))
        if a in store:
            self._record_orbit(store, a, left)
        return out

    def _keep(self, store: dict[int, np.ndarray], a: int,
              out: np.ndarray) -> np.ndarray:
        """A map made read-only, in the smallest unsigned type that holds
        every index whatever the cap, and stored under a while it fits."""
        out = out.astype(np.min_scalar_type(self.card - 1))
        out.setflags(write=False)
        if self._memo_bytes + out.nbytes <= MAP_MEMO_BYTES:
            store[a] = out
            self._memo_bytes += out.nbytes
        return out

    def _units_stored(self, store: dict[int, np.ndarray], left: bool) -> bool:
        """Store one side's unit maps, as products, if they all fit;
        whether they are stored."""
        if left in self._units_done:
            return True
        missing = [t for t in self.trivial_units if t not in store]
        itemsize = np.min_scalar_type(self.card - 1).itemsize
        size = len(missing) * self.card * itemsize
        if self._memo_bytes + size > MAP_MEMO_BYTES:
            return False
        for t in missing:
            self._memo(store, t, left)
        self._units_done.add(left)
        return True

    def _record_orbit(self, store: dict[int, np.ndarray], u: int,
                      left: bool) -> None:
        """Make u the representative of its orbit T*u*T, unless the orbit
        is recorded already or u is a unit (units are products)."""
        if self._via is None:
            self._via = np.full((self.card, 3), -1, dtype=np.int64)
            self._via[self.trivial_units, 1] = self.trivial_units
        if self._via[u, 1] >= 0 or not self._units_stored(store, left):
            return
        units = np.array(self.trivial_units, dtype=np.int64)
        # inner is u*t over t for rows, v*u over v for columns; the map
        # of a unit w on top of it is one line of the |T| x |T| table of
        # v*u*t, with w as v for rows and as t for columns
        inner = store[u][units]
        outer, across = (0, 2) if left else (2, 0)
        for w in units.tolist():
            got, first = np.unique(store[w][inner], return_index=True)
            new = self._via[got, 1] < 0
            got = got[new]
            self._via[got, outer] = w
            self._via[got, 1] = u
            self._via[got, across] = units[first[new]]

    def sub_col(self, b: int) -> np.ndarray:
        """Indices of x - b for every x (read-only)."""
        out = self._subs.get(int(b))
        if out is None:
            out = self._keep(self._subs, int(b), self._index(
                self._sum(self.coeffs, self.ring.neg[self.coeffs[b]])))
        return out

    def square_all(self) -> np.ndarray:
        """Indices of x * x for every x."""
        return self._index(self._product(self.coeffs, self.coeffs))

    def hat_all(self) -> np.ndarray:
        """The involution as a permutation of the whole index space."""
        if self._hat_all is None:
            self._hat_all = self._index(self.coeffs[:, self.group.inv])
        return self._hat_all

    def form_row(self, a: int) -> np.ndarray:
        """Ring indices of <a, x> for every x."""
        return self._form(self.coeffs[a], self.coeffs)

    def form_col(self, b: int) -> np.ndarray:
        """Ring indices of <x, b> for every x."""
        return self._form(self.coeffs, self.coeffs[b])

    # -- centrality -------------------------------------------------------------
    def is_central(self, a: int) -> bool:
        """Whether a commutes with all of RG.

        Decided against `generators`; the centralizer is a subring, so
        commuting with generators is commuting with everything. Backed
        by a full row comparison when the algebra is small enough.
        """
        ca, cg = self.coeffs[a], self.coeffs[self.generators]
        if not np.array_equal(self._product(ca, cg), self._product(cg, ca)):
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
