"""Group algebras RG with exact convolution arithmetic, and canonical
forms of their additive subgroups.

An element of RG is a coefficient vector over the ring R indexed by
the group's canonical element order, encoded as a single integer in
mixed radix base |R| (group position 0 least significant). Index 0 is
zero; scalars r live at the group identity position.

The encoding stays in this module. Every product, sum and form comes
from one of three kernels on coefficient arrays that broadcast over
leading axes, so a single element, a whole row (one result per
element of RG) and a batch of pairs share the same arithmetic; other
modules work on element indices only.

A multiplication map (a*x, or x*a, for every x) is one kernel call
each time it is asked for. Only the maps of the trivial units
T = {r*g : r a unit of R, g in G} and of the generators are kept, once
per side, because the orbits of `canonical_classes` and the closure
checks of glab.ideals read them again and again. The form is
<a, b> = sum over g of a_g * b_g with the left argument's coefficient
first; it is biadditive, G-invariant under simultaneous right
translation, and nondegenerate.

As an additive group RG is a product of cyclic groups, one per
coordinate (group position, ring coordinate), and each subgroup has one
key: per prime p, the Howell form of its p-part, the reduced row
echelon form over F_p and over Z/p^a the echelon form that also keeps
(p^a / pivot) times each pivot row (Howell 1986; Storjohann & Mulders
1998). A key comes from any generating set (`subgroup_form`), a sum
is the key of two forms stacked (`sum_forms`), and the rows of a form
generate the subgroup (`form_rows`), whose elements are enumerated
from it (`subgroup_mask`). The map x -> u*x (or x -> x*u) is the
integer matrix of the coordinates of u*b_j (b_j*u) over the coordinate
basis; one batched reduction per table keys the image uRG (RGu) or the
kernel Ann_r(u) (Ann_l(u)) of the least element of every orbit of the
trivial units (images) or of every class of the other side's images
(kernels), and each class keeps its least element.
"""

from __future__ import annotations

import math
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np

from .config import DEFAULT_OP_BOUND, max_elements
from .errors import ConstructionError, ScaleError
from .finring import Ring, _mixed_radix, radical_quotient, structure
from .grp import Group
from .records import record


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
        # the modulus of each coordinate, in the order of _coordinate_basis
        self._moduli = ring.moduli * group.order
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
        # `fixed_map` by (left, element)
        self._fixed: dict[tuple[bool, int], np.ndarray] = {}
        # `canonical_classes` by (side, kernel)
        self._least: dict[tuple[str, bool], tuple[np.ndarray, np.ndarray]] = {}
        # each side's principal ideals by least generator, and its
        # kernel classes (`classes` with `kernel`), kept by
        # glab.ideals.principal_ideals and glab.ideals.annihilator_classes
        self.principal_sets: dict[str, dict] = {}
        self.annihilator_sets: dict[str, tuple[np.ndarray, ...]] = {}

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
        """Indices of a * x for every x."""
        return self._index(self._product(self.coeffs[a], self.coeffs))

    def mul_col(self, b: int) -> np.ndarray:
        """Indices of x * b for every x."""
        return self._index(self._product(self.coeffs, self.coeffs[b]))

    def fixed_map(self, a: int, left: bool) -> np.ndarray:
        """`mul_row(a)` (left) or `mul_col(a)` of a trivial unit or a
        generator, computed once per side and kept read-only, in the
        smallest unsigned type that holds every index."""
        got = self._fixed.get((left, a))
        if got is None:
            got = (self.mul_row if left else self.mul_col)(a)
            got = self._fixed[left, a] = got.astype(
                np.min_scalar_type(self.card - 1))
            got.setflags(write=False)
        return got

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
    def central(self, elems) -> np.ndarray:
        """Whether each element commutes with all of RG.

        Decided against `generators`, by one product each way; the
        centralizer is a subring, so commuting with generators is
        commuting with everything. Each element that passes is backed
        by a full row comparison when the algebra is small enough.
        """
        elems = np.asarray(elems, dtype=np.int64)
        ce, cg = self.coeffs[elems][:, None], self.coeffs[self.generators]
        ok = (self._product(ce, cg) == self._product(cg, ce)).all(axis=(1, 2))
        if self.card <= DEFAULT_OP_BOUND:
            for a in elems[ok].tolist():
                if not np.array_equal(self.mul_row(a), self.mul_col(a)):
                    raise ConstructionError(
                        f"{self.label}: generating-set centrality disagrees "
                        f"with the full scan at element {a} ({self.text(a)})")
        return ok

    def is_central(self, a: int) -> bool:
        return bool(self.central([a])[0])

    # -- images and kernels of multiplication maps, by canonical forms ----------
    @cached_property
    def _coordinate_basis(self) -> list[int]:
        """The elements b_j of RG with coordinate j equal to 1 and every
        other 0, where coordinate j is coordinate j % k of the ring
        element at group position j // k (k ring coordinates)."""
        k = len(self.ring.moduli)
        ring_units = [self.ring.encode([int(i == j) for i in range(k)])
                      for j in range(k)]
        return [e * int(w) for w in self._weights for e in ring_units]

    def _basis_images(self, us: np.ndarray, side: str) -> np.ndarray:
        """The coordinates of u*b_j (side "right") or b_j*u ("left") for
        each u and each coordinate basis element b_j, one row per j:
        the map x -> u*x (x -> x*u) as an integer matrix."""
        cu = self.coeffs[us]
        rows = []
        for b in self._coordinate_basis:
            cb = self.coeffs[b]
            prod = self._product(cu, cb) if side == "right" else self._product(cb, cu)
            rows.append(self.ring.coords[prod].reshape(len(us), -1))
        return np.stack(rows, axis=1)

    def canonical_keys(self, us, side: str, kernel: bool = False) -> np.ndarray:
        """One key row per element u of `us`, canonical for the image of
        x -> u*x (side "right", the ideal uRG) or x -> x*u ("left", RGu),
        or with `kernel` for its kernel (Ann_r(u), Ann_l(u)): two
        elements share a key exactly when the two subgroups are equal.
        Batched over `us` in chunks; see `_subgroup_keys`."""
        us = np.asarray(us, dtype=np.int64)
        c = len(self._moduli)
        step = max(1, KEY_CHUNK_ENTRIES // (3 * c * c * (2 if kernel else 1)))
        return np.concatenate([
            _subgroup_keys(self._basis_images(us[i:i + step], side),
                           self._moduli, kernel)
            for i in range(0, len(us), step)])

    def subgroup_form(self, elems) -> np.ndarray:
        """The key of the subgroup the elements generate: one reduction
        of the matrix of their coordinates."""
        coords = self.ring.coords[self.coeffs[elems]].reshape(len(elems), -1)
        return _subgroup_keys(coords[None], self._moduli, False)[0]

    def sum_forms(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The key of A + B for each pair of rows of two stacks of keys
        (or of a stack and one key): per p-part, the Howell form of the
        two forms stacked, in chunks as in `canonical_keys`."""
        a, b = np.broadcast_arrays(a, b)
        n, c = len(a), len(self._moduli)
        w = np.concatenate([a.reshape(n, -1, c, c), b.reshape(n, -1, c, c)],
                           axis=2)
        step = max(1, KEY_CHUNK_ENTRIES // (3 * c * c))
        return np.stack([np.concatenate([
            _howell(w[i:i + step, k], p, e) for i in range(0, n, step)])
            for k, (p, e, _, _) in enumerate(_prime_parts(self._moduli))],
            axis=1).reshape(n, -1).astype(np.uint16)

    def form_rows(self, key: np.ndarray) -> tuple[np.ndarray, int]:
        """The elements whose coordinates are the nonzero rows of the
        form with this key, lifted back to RG, which generate the
        subgroup, and the number of elements of the subgroup."""
        rows, counts = _form_rows(key, self._moduli)
        return rows @ self._coordinate_basis, math.prod(counts.tolist())

    def subgroup_mask(self, key: np.ndarray) -> np.ndarray:
        """The subgroup with this key as a mask, enumerated from it; the
        indices are summed one coordinate at a time: no (n, c) int64
        copy."""
        coords = _subgroup_elements(key, self._moduli)
        at = np.zeros(len(coords), dtype=np.intp)
        for column, weight in zip(coords.T, self._coordinate_basis):
            at += column.astype(np.intp) * weight
        mask = np.zeros(self.card, dtype=bool)
        mask[at] = True
        return mask

    def classes(self, side: str, kernel: bool = False
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The least element of each class of `canonical_classes`,
        ascending, and the key and the mask of the image (or kernel) the
        class shares, one row each; no member's map is computed."""
        least, keys = self.canonical_classes(side, kernel)
        return (np.flatnonzero(least == np.arange(self.card)), keys,
                np.array([self.subgroup_mask(key) for key in keys]))

    def canonical_classes(self, side: str, kernel: bool = False
                          ) -> tuple[np.ndarray, np.ndarray]:
        """For every element x, the least u whose map x -> u*x (side
        "right") or x -> x*u ("left") has the image of x's, or with
        `kernel` its kernel: the least generator of xRG or RGx, or the
        least u with Ann_r(u) = Ann_r(x) or Ann_l(u) = Ann_l(x); so the
        classes' least elements are the x it maps to x. Also the key of
        each class, in the order of the least elements. Computed once per
        (side, kernel), read-only.

        Only the least element of each class of a coarser partition gets
        a key from `canonical_keys`, and each class of equal keys keeps
        its least element, which is the least of its parts. For images
        these are the orbits of the trivial units: a unit t changes
        neither the image of u*t (right) nor of t*u (left); they are
        found from the units' maps. For kernels they are the other
        side's image classes: if v = a*u then u*x = 0 gives v*x = 0, so
        Ann_r(u) depends on RGu alone, and Ann_l(u) on uRG alone.
        """
        got = self._least.get((side, kernel))
        if got is None:
            if kernel:
                least = self.canonical_classes(
                    "left" if side == "right" else "right")[0]
            else:
                least = np.arange(self.card)
                for t in self.trivial_units:
                    np.minimum(least, self.fixed_map(t, side == "left"),
                               out=least)
            reps = np.flatnonzero(least == np.arange(self.card))
            keys = self.canonical_keys(reps, side, kernel)
            # each key's first row, the least of its class
            first: dict[bytes, int] = {}
            by_rep = np.empty(self.card, dtype=np.int64)
            by_rep[reps] = reps[[first.setdefault(key.tobytes(), i)
                                 for i, key in enumerate(keys)]]
            got = self._least[side, kernel] = (
                by_rep[least], keys[list(first.values())])
            got[0].setflags(write=False)
        return got


# ---------------------------------------------------------------------------
# canonical forms of subgroups of Z/m_1 x ... x Z/m_c

# entries of the working matrices per chunk of `canonical_keys`
KEY_CHUNK_ENTRIES = 1 << 18


@cache
def _prime_parts(moduli: tuple[int, ...]) -> list[tuple[int, int, np.ndarray,
                                                       np.ndarray]]:
    """For each prime p dividing a modulus: p; the largest a with p^a
    dividing a modulus; per coordinate of modulus m, with p^b exactly
    dividing m, the scale p^(a - b) that embeds Z/p^b in Z/p^a (0 when
    b = 0); and the idempotent of Z/m that is 1 mod p^b and 0 mod
    m / p^b, which lifts the p-part back to Z/m."""
    exps: dict[int, list[int]] = {}
    for j, m in enumerate(moduli):
        p = 2
        while m > 1:
            while m % p == 0:
                exps.setdefault(p, [0] * len(moduli))[j] += 1
                m //= p
            p += 1
    out = []
    for p, bs in sorted(exps.items()):
        a = max(bs)
        scale = np.array([p ** (a - b) if b else 0 for b in bs], dtype=np.int32)
        lift = np.array([m // p ** b * pow(m // p ** b, -1, p ** b) % m
                         if b else 0 for m, b in zip(moduli, bs)], dtype=np.int32)
        out.append((p, a, scale, lift))
    return out


@cache
def _local_tables(p: int, a: int) -> tuple[np.ndarray, np.ndarray]:
    """The p-adic valuation of every x in Z/p^a (a for 0), and the
    inverse of every unit (0 for the nonunits)."""
    q = p ** a
    x = np.arange(q)
    val = sum((x % p ** k == 0).astype(np.int32) for k in range(1, a + 1))
    inv = np.array([pow(y, -1, q) if y % p else 0 for y in range(q)],
                   dtype=np.int32)
    return val, inv


def _killed_multiple(rows: np.ndarray, pivots: np.ndarray, q: int) -> np.ndarray:
    """(q / pivot) times each pivot row over Z/q: the multiple that is
    zero in the pivot's column, which the rows below the pivot must
    still span for the echelon form to have Howell's property."""
    return (q // pivots)[:, None] * rows % q


def _howell(w: np.ndarray, p: int, a: int) -> np.ndarray:
    """The Howell form over Z/p^a of each matrix of a stack (N, r, c),
    zero rows last, cut to its first c rows (no more are nonzero). That
    is an echelon form whose pivots are powers of p, with the entries
    above each pivot reduced below it, in which the rows with their
    pivot in column k or later span every vector of the row space that
    is zero before column k. It is unique for the row space (Howell 1986;
    Storjohann & Mulders 1998); over a field (a = 1) it is the reduced
    row echelon form.

    Column by column, the pivot is the entry of least valuation among
    the rows not yet used (the pool); every other row is reduced by it,
    and `_killed_multiple` of the pivot row joins the pool.
    """
    q = p ** a
    val, inv = _local_tables(p, a)
    n, r, c = w.shape
    # entries and products below q^2 fit the type
    dtype = np.int16 if q * q < 1 << 15 else np.int32
    # each pivot other than a unit adds one row to the pool, and the
    # form has c rows
    w = np.concatenate([w.astype(dtype), np.zeros(
        (n, c if a > 1 else max(c - r, 0), c), dtype)], axis=1)
    at, rows = np.arange(n), np.arange(w.shape[1])
    done = np.zeros(n, dtype=np.intp)       # the pool is rows done..end - 1
    end = np.full(n, r, dtype=np.intp)
    for j in range(c):
        pool = (rows >= done[:, None]) & (rows < end[:, None])
        v = np.where(pool, val[w[:, :, j]], a)
        piv = v.argmin(axis=1)
        vp = v[at, piv]
        has = vp < a
        if not has.any():
            continue
        # a matrix with no pivot here swaps a row with itself, and its
        # entries divided by q are 0: nothing changes
        d = np.where(has, done, piv)
        top = w[at, piv]
        w[at, piv] = w[at, d]
        pw = (p ** vp).astype(dtype)
        unit = inv[top[:, j] // pw].astype(dtype)
        top = np.where(has[:, None], top * unit[:, None] % q, top)
        f = w[:, :, j] // pw[:, None]
        f[at, d] = 0
        block = w[:, :, j:]
        block -= f[:, :, None] * top[:, None, j:]
        if p == 2:     # the remainder by a power of 2, and faster
            block &= q - 1
        else:
            block %= q
        w[at, d] = top
        grow = has & (vp > 0)
        w[at[grow], end[grow]] = _killed_multiple(top[grow], pw[grow], q)
        end += grow
        done += has
    return w[:, :c]


def _form_rows(key: np.ndarray, moduli: tuple[int, ...]
               ) -> tuple[np.ndarray, np.ndarray]:
    """The nonzero rows of each p-part of the form with this key from
    `_subgroup_keys`, lifted back to coordinates modulo `moduli` through
    the lifts of `_prime_parts`, and the count q / pivot of each. By
    Howell's property each element of the subgroup is the sum of c_i
    times row i, with 0 <= c_i < count_i, in exactly one way."""
    c = len(moduli)
    rows, counts = [], []
    for form, (p, a, scale, lift) in zip(key.reshape(-1, c, c).astype(np.int64),
                                         _prime_parts(moduli)):
        form = form[form.any(axis=1)]
        pivots = form[np.arange(len(form)), (form != 0).argmax(axis=1)]
        rows.append(form // np.maximum(scale, 1) * lift % np.array(moduli))
        counts.append(p ** a // pivots)
    return np.concatenate(rows), np.concatenate(counts)


def _subgroup_elements(key: np.ndarray, moduli: tuple[int, ...]) -> np.ndarray:
    """The coordinates of every element of the subgroup with this key,
    one row each: the sums of the rows of `_form_rows`."""
    c = len(moduli)
    # entries and products stay below max(moduli)^2
    dtype = np.int16 if max(moduli) ** 2 < 1 << 15 else np.int32
    rows, counts = _form_rows(key, moduli)
    out = np.zeros((1, c), dtype=dtype)
    for row, n in zip(rows.astype(dtype), counts.tolist()):
        out = (out[None] + np.arange(n, dtype=dtype)[:, None, None] * row
               ).reshape(-1, c)
        out %= np.array(moduli, dtype=dtype)
    return out


def _subgroup_keys(images: np.ndarray, moduli: tuple[int, ...],
                   kernel: bool) -> np.ndarray:
    """Keys of the subgroups spanned by the rows of each (N, r, c)
    matrix of coordinates, coordinate j taken modulo moduli[j]; or, with
    `kernel` (r = c), of the kernel of the map sending the j-th
    coordinate unit vector to row j.

    A subgroup is the direct sum of its p-parts. A coordinate x of
    modulus m, with p^b exactly dividing m, enters the p-part as
    x * p^(a - b) mod p^a, a the largest such b, so each p-part is a
    Z/p^a-module in (Z/p^a)^c, keyed by its Howell form, c rows of c
    entries. The kernel's p-part is read off the Howell form of the
    graph, the rows [image | domain]: its rows with a zero image part.
    """
    n, _, c = images.shape
    keys = []
    for p, a, scale, _ in _prime_parts(moduli):
        w = images * scale % p ** a
        if kernel:
            domain = np.broadcast_to(np.diag(scale), w.shape)
            w = np.concatenate([w, domain], axis=2)
        h = _howell(w, p, a)
        if kernel:
            image = h[:, :, :c].any(axis=2)
            h = h[:, :, c:] * ~image[:, :, None]
            h = np.take_along_axis(
                h, np.argsort(image, axis=1, kind="stable")[:, :c, None], axis=1)
        keys.append(h.reshape(n, -1))
    return np.concatenate(keys, axis=1).astype(np.uint16)


# ---------------------------------------------------------------------------
# coefficientwise reduction onto the residue field

@record
class ResidueMap(NamedTuple):
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
