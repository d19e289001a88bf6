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
modules work on element indices only; no multiplication map is kept.
The form is <a, b> = sum over g of a_g * b_g, left coefficient first:
biadditive and nondegenerate.

As an additive group RG is a product of cyclic groups, one per
coordinate (group position, ring coordinate), and each subgroup has one
key: per prime p, the Howell form of its p-part (Howell 1986;
Storjohann & Mulders 1998). Every key comes from a matrix, never from
a pass over a subgroup's elements: a span from the coordinates of its
generators (`subgroup_form`), a sum from two forms stacked
(`sum_forms`), the image and the kernel of x -> u*x (or x -> x*u) from
its matrix over the coordinate basis, and the ideal generated by some
elements or their annihilator from their matrices side by side
(`canonical_keys`), a dual from the pairing with the rows of a form
(`dual_keys`), the split of 1 across two subgroups C and D from the
form of {(x + y, x) : x in C, y in D} (`certificates`). The rows of a
form generate the subgroup (`stacked_rows`); its elements are enumerated
from them on demand (`subgroup_mask`). The
class tables (`canonical_classes`) key one least element per orbit of
the trivial units (images) or per class of the other side's images
(kernels).
"""

from __future__ import annotations

from functools import cache, cached_property

import numpy as np

from .config import DEFAULT_OP_BOUND, max_elements
from .errors import ConstructionError, ScaleError
from .finring import Ring, _encode, _mixed_radix, radical_quotient, structure
from .grp import Group
from .records import Record


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
        # `canonical_classes` by (side, kernel)
        self._least: dict[tuple[str, bool], tuple[np.ndarray, np.ndarray]] = {}
        # each side's principal ideals by least generator, kept by
        # glab.ideals.principal_ideals
        self.principal_sets: dict[str, dict] = {}

    # -- codec ---------------------------------------------------------------
    def encode(self, coeff_seq) -> int:
        return _encode(coeff_seq, (self.ring.card,) * self.group.order,
                       self._weights, "coefficient")

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

    def __repr__(self) -> str:
        return f"GroupAlgebra({self.label}, card={self.card})"

    # -- vectorized rows (one entry per element of RG) -------------------------
    @cached_property
    def trivial_units(self) -> list[int]:
        """The units r*g, r a unit of R and g in G, r-major."""
        return [int(r) * int(w) for r in structure(self.ring).units
                for w in self._weights]

    @cached_property
    def hat_all(self) -> np.ndarray:
        """The coefficient-inversion involution, position g taking the
        coefficient from g^-1, as a permutation of the whole index
        space: hat_all[x] is the image of x."""
        return self._index(self.coeffs[:, self.group.inv])

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
            every = np.arange(self.card)
            for a in elems[ok].tolist():
                if not np.array_equal(self.mul(a, every), self.mul(every, a)):
                    raise ConstructionError(
                        f"{self.label}: generating-set centrality disagrees "
                        f"with the full scan at element {a} ({self.text(a)})")
        return ok

    # -- images and kernels of multiplication maps, by canonical forms ----------
    @cached_property
    def _coordinate_basis(self) -> list[int]:
        """The elements b_j of RG with coordinate j equal to 1 and every
        other 0: coordinate j % k (k ring coordinates) of the ring element
        at group position j // k, whose index is the product of weights."""
        return [int(e) * int(w) for w in self._weights for e in self.ring._weights]

    def _basis_images(self, us: np.ndarray, side: str) -> np.ndarray:
        """The coordinates of u*b_j (side "right") or b_j*u ("left") for
        each u and each coordinate basis element b_j, one row per j:
        the map x -> u*x (x -> x*u) as an integer matrix."""
        cu, cb = self.coeffs[us][:, None], self.coeffs[self._coordinate_basis]
        prod = self._product(cu, cb) if side == "right" else self._product(cb, cu)
        return self.ring.coords[prod].reshape(len(us), len(cb), -1)

    def canonical_keys(self, us, side: str, kernel: bool = False) -> np.ndarray:
        """One key row per element u of `us`, canonical for the image of
        x -> u*x (side "right", the ideal uRG) or x -> x*u ("left", RGu),
        or with `kernel` for its kernel (Ann_r(u), Ann_l(u)): two
        elements share a key exactly when the two subgroups are equal.
        For a stack of rows of elements, one key per row: the sum of
        their images (the ideal they generate) or the meet of their
        kernels (their annihilator), the kernel of their maps side by
        side. Batched in chunks; see `_subgroup_keys`."""
        us = np.asarray(us, dtype=np.int64).reshape(len(us), -1)
        r, c = us.shape[1], len(self._moduli)

        def keys(u: np.ndarray) -> np.ndarray:
            maps = self._basis_images(u.ravel(), side).reshape(-1, r, c, c)
            if not kernel:
                return _subgroup_keys(maps.reshape(-1, r * c, c), self._moduli)
            side_by_side = maps.transpose(0, 2, 1, 3).reshape(-1, c, r * c)
            return _subgroup_keys(side_by_side, self._moduli, self._moduli * r)
        return _chunks(keys, 3 * r * c * c * (2 if kernel else 1), us)

    def subgroup_form(self, elems) -> np.ndarray:
        """The key of the subgroup the elements generate, one reduction
        of the matrix of their coordinates; for a stack of rows of
        elements, the key of each row's, in one batched reduction."""
        elems = np.asarray(elems, dtype=np.int64)
        rows = np.atleast_2d(elems)
        coords = self.ring.coords[self.coeffs[rows]].reshape(
            len(rows), rows.shape[1], len(self._moduli))
        keys = _subgroup_keys(coords, self._moduli)
        return keys if elems.ndim > 1 else keys[0]

    def sum_forms(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The key of A + B for each pair of rows of two stacks of keys
        (or of a stack and one key): per p-part, the Howell form of the
        two forms stacked, in chunks as in `canonical_keys`."""
        c = len(self._moduli)

        def keys(a: np.ndarray, b: np.ndarray) -> np.ndarray:
            w = np.concatenate([a.reshape(len(a), -1, c, c),
                                b.reshape(len(b), -1, c, c)], axis=2)
            return np.stack([_howell(w[:, k], p, e) for k, (p, e, _, _)
                             in enumerate(_prime_parts(self._moduli))],
                            axis=1).reshape(len(a), -1).astype(np.uint16)
        return _chunks(keys, 3 * c * c, *np.broadcast_arrays(a, b))

    def subgroup_sizes(self, keys: np.ndarray) -> np.ndarray:
        """The number of elements of the subgroup of each key of a stack:
        the product of the counts of its form's rows."""
        return _row_counts(keys, self._moduli).prod(axis=1)

    def stacked_rows(self, keys: np.ndarray) -> np.ndarray:
        """For each key of a stack, the elements whose coordinates are the
        nonzero rows of its form, lifted back to RG, which generate the
        subgroup; padded with 0 to a common length of at least 1."""
        return (_nonzero_rows(*_form_rows(keys, self._moduli))
                @ self._coordinate_basis)

    def dual_keys(self, rows: np.ndarray, left) -> np.ndarray:
        """For each row of a stack of rows of elements b_t, the key of
        {a : <a, b_t> = 0 for every t}, or where `left` is set of
        {a : <b_t, a> = 0}: the kernel of the pairing, which sends the
        coordinate unit e_j to the coordinates of each <e_j, b_t>
        (<b_t, e_j>). In chunks as in `canonical_keys`."""
        r, c = rows.shape[1], len(self._moduli)
        basis = self.coeffs[self._coordinate_basis][None, :, None]

        def kernel(rows: np.ndarray, left: np.ndarray) -> np.ndarray:
            gens = self.coeffs[rows][:, None]
            pairs = np.where(left[:, None, None], self._form(gens, basis),
                             self._form(basis, gens))
            images = self.ring.coords[pairs].reshape(len(rows), c, -1)
            return _subgroup_keys(images, self._moduli, self.ring.moduli * r)
        return _chunks(kernel, 3 * r * c * c, rows, np.asarray(left))

    def certificates(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """For each pair of rows of two stacks of keys, C and D: the
        element e of C with 1 - e in D when C and D are complementary,
        else -1.

        The nonzero rows of the two forms, [C | C] and [D | 0], over the
        coordinates doubled, span
        S = {(x + y, x) : x in C, y in D}. S maps onto C + D, and what
        it holds with a zero first half is {(0, x) : x in C, -x in D},
        a copy of C & D. So the pair is complementary exactly when no
        nonzero row of the form of S has its pivot in the second half
        and the counts of its rows multiply to |RG|. The first half of
        the form is then the form of all of RG, one row per coordinate
        unit: 1 is the sum of each row times the coordinate of 1 at its
        pivot, and e is the same sum of the rows' second halves. In
        chunks as in `canonical_keys`, each pair counted at a dozen
        copies of its doubled matrix, four entries per key entry."""
        c = len(self._moduli)
        one = self.ring.coords[self.coeffs[self.one]].reshape(-1)

        def split(a: np.ndarray, b: np.ndarray) -> np.ndarray:
            (ra, ca), (rb, cb) = (_form_rows(k, self._moduli) for k in (a, b))
            keys = _subgroup_keys(_nonzero_rows(np.concatenate([
                np.concatenate([ra, ra], axis=2),
                np.concatenate([rb, np.zeros_like(rb)], axis=2)], axis=1),
                np.concatenate([ca, cb], axis=1)), self._moduli * 2)
            rows, counts = _form_rows(keys, self._moduli * 2)
            pivots = (keys.reshape(len(keys), -1, 2 * c) != 0).argmax(axis=2)
            ok = (((pivots < c) | (counts == 1)).all(axis=1)
                  & (counts.prod(axis=1) == self.card))
            times = one[np.minimum(pivots, c - 1)]
            e = (times[..., None] * rows[..., c:]).sum(axis=1) % self._moduli
            return np.where(ok, e @ self._coordinate_basis, -1)
        return _chunks(split, 48 * a.shape[-1], a, b)

    def subgroup_mask(self, keys: np.ndarray) -> np.ndarray:
        """The subgroup with this key as a mask, enumerated from it; for
        a stack of keys, one mask each, enumerated together in chunks of
        KEY_CHUNK_ENTRIES coordinates, each key counted at |RG| elements.
        The indices are summed one coordinate at a time: no (n, c) int64
        copy."""
        stack = np.atleast_2d(keys)
        out = np.zeros((len(stack), self.card), dtype=bool)
        step = max(1, KEY_CHUNK_ENTRIES // (self.card * len(self._moduli)))
        for i in range(0, len(stack), step):
            coords, owner = _subgroup_elements(stack[i:i + step], self._moduli)
            at = (owner + i) * self.card
            for column, weight in zip(coords.T, self._coordinate_basis):
                at += column.astype(np.intp) * weight
            out.reshape(-1)[at] = True
        return out if keys.ndim > 1 else out[0]

    def canonical_classes(self, side: str, kernel: bool = False
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The classes of the elements u whose maps x -> u*x (side
        "right") or x -> x*u ("left") share their image, or with
        `kernel` their kernel: the least element of each class,
        ascending, which for images is the least generator of uRG or
        RGu; the key of the subgroup the class shares, one row each;
        and the row of every element's class. Computed once per (side,
        kernel), read-only.

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
                reps, _, coarse = self.canonical_classes(
                    "left" if side == "right" else "right")
            else:
                every = np.arange(self.card)
                least = every.copy()
                for t in self.trivial_units:
                    np.minimum(least, self.mul(t, every) if side == "left"
                               else self.mul(every, t), out=least)
                reps = np.flatnonzero(least == every)
                coarse = np.searchsorted(reps, least)
            keys = self.canonical_keys(reps, side, kernel)
            # each rep's first rep with its key, the least of its class
            first: dict[bytes, int] = {}
            firsts = [first.setdefault(key.tobytes(), i)
                      for i, key in enumerate(keys)]
            at = np.array(list(first.values()))
            rows = np.searchsorted(at, firsts)[coarse]
            rows.setflags(write=False)
            got = self._least[side, kernel] = (reps[at], keys[at], rows)
        return got


# ---------------------------------------------------------------------------
# canonical forms of subgroups of Z/m_1 x ... x Z/m_c

# entries of the working matrices per chunk of `canonical_keys`
KEY_CHUNK_ENTRIES = 1 << 18


def _chunks(keys, entries: int, *stacks: np.ndarray) -> np.ndarray:
    """keys() of the stacks, sliced alike along their first axis into
    chunks of KEY_CHUNK_ENTRIES / `entries` rows, concatenated."""
    step = max(1, KEY_CHUNK_ENTRIES // entries)
    return np.concatenate([keys(*(s[i:i + step] for s in stacks))
                           for i in range(0, len(stacks[0]), step)])


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
    """(q / pivot) times each pivot row over Z/q, the rows stacked along
    the last axis: the multiple that is zero in the pivot's column,
    which the rows below the pivot must still span for the echelon
    form to have Howell's property."""
    return (q // pivots) * rows % q


def _howell(w: np.ndarray, p: int, a: int) -> np.ndarray:
    """The Howell form over Z/p^a of each matrix of a stack (N, r, c),
    zero rows last, cut to its first c rows (no more are nonzero). That
    is an echelon form whose pivots are powers of p, with the entries
    above each pivot reduced below it, in which the rows with their
    pivot in column k or later span every vector of the row space that
    is zero before column k. It is unique for the row space (Howell 1986;
    Storjohann & Mulders 1998); over a field (a = 1) it is the reduced
    row echelon form.

    The stack is held as one (c, rows, N) array: column j is a
    contiguous (rows, N) slab, and each elimination runs numpy's inner
    loop over the N matrices. Its rows are the pool, which may hold
    pivots (a zero sentinel, the r rows and, when a > 1, one slot per
    column for `_killed_multiple` of its pivot row), then one form slot
    per column. In column j each matrix's pivot is its first pool row
    of least valuation, or the sentinel, which changes nothing; scaled
    to a power of p it goes to form slot j, and reducing every row by
    it, the form slots too, leaves it zero in the pool, so no row is
    swapped or marked used. Over a field the pivot is the first nonzero
    pool entry, and over F2 a step is one xor. The form slots that hold
    a pivot are gathered at the end, in column order.
    """
    q = p ** a
    n, r, c = w.shape
    # entries and products below q^2 fit the type
    dtype = (np.int8 if q * q < 1 << 7 else np.int16 if q * q < 1 << 15
             else np.int32)
    pool = 1 + r + (c if a > 1 else 0)
    work = np.zeros((c, pool + c, n), dtype)
    work[:, 1:r + 1] = w.transpose(2, 1, 0)
    at = np.arange(n)
    val, inv = _local_tables(p, a)
    inv = inv.astype(dtype)
    if a > 1:
        # the least valuation, then the first row, from one minimum
        keyed = val * pool
        rows = np.arange(pool)[:, None]
        powers = (p ** np.arange(a + 1)).astype(dtype)
    for j in range(c):
        col = work[j]
        if a == 1:
            piv = (col[:pool] != 0).argmax(axis=0)
            top = work[j:, piv, at]
            if p == 2:
                work[j:] ^= col & top[:, None]
            else:
                top *= inv.take(top[0])
                top %= q
                work[j:] -= col * top[:, None]
                work[j:] %= q
        else:
            key = keyed.take(col[:pool])
            key += rows
            vp, piv = np.divmod(key.min(axis=0), pool)
            top = work[j:, piv, at]
            pw = powers.take(vp)
            top *= inv.take(top[0] // pw)
            top %= q
            work[j:] -= col // pw * top[:, None]
            if p == 2:     # the remainder by a power of 2, and faster
                work[j:] &= q - 1
            else:
                work[j:] %= q
            work[j + 1:, 1 + r + j] = _killed_multiple(top[1:], pw, q)
        work[j:, pool + j] = top
    form = work[:, pool:]
    order = np.argsort(~form.any(axis=0), axis=0, kind="stable")
    return np.take_along_axis(form, order[None], axis=1).transpose(2, 1, 0)


def _row_counts(keys: np.ndarray, moduli: tuple[int, ...]) -> np.ndarray:
    """The count q / pivot of each row of each p-part of the form of each
    key of a stack from `_subgroup_keys`, 1 for a zero row: the number
    of multiples of the row that the subgroup holds."""
    c = len(moduli)
    forms = keys.reshape(len(keys), -1, c, c)
    counts = []
    for k, (p, a, _, _) in enumerate(_prime_parts(moduli)):
        pivots = np.take_along_axis(
            forms[:, k], (forms[:, k] != 0).argmax(axis=2)[..., None],
            axis=2)[..., 0].astype(np.int64)
        counts.append(p ** a // np.where(pivots, pivots, p ** a))
    return np.concatenate(counts, axis=1)


def _form_rows(keys: np.ndarray, moduli: tuple[int, ...]
               ) -> tuple[np.ndarray, np.ndarray]:
    """The rows of each p-part of the form of each key of a stack from
    `_subgroup_keys`, lifted back to coordinates modulo `moduli` through
    the lifts of `_prime_parts`, and the count of each, `_row_counts`.
    By Howell's property each element of the subgroup is the sum of c_i
    times row i, with 0 <= c_i < count_i, in exactly one way."""
    c = len(moduli)
    forms = keys.reshape(len(keys), -1, c, c).astype(np.int64)
    rows = [forms[:, k] // np.maximum(scale, 1) * lift % np.array(moduli)
            for k, (_, _, scale, lift) in enumerate(_prime_parts(moduli))]
    return np.concatenate(rows, axis=1), _row_counts(keys, moduli)


def _nonzero_rows(rows: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """A stack of rows of forms from `_form_rows` with their counts: the
    nonzero rows (count above 1) of each member first, in order, cut to
    the most that any member has (at least 1)."""
    order = np.argsort(counts == 1, axis=1, kind="stable")
    width = max(1, int(np.count_nonzero(counts > 1, axis=1).max()))
    return np.take_along_axis(rows, order[..., None], axis=1)[:, :width]


def _subgroup_elements(keys: np.ndarray, moduli: tuple[int, ...]
                       ) -> tuple[np.ndarray, np.ndarray]:
    """The coordinates of every element of the subgroup of each key of
    a stack, one row each, and the position of its key: the sums of the
    rows of `_form_rows`, built one row position at a time for all the
    keys, each element repeated once per multiple of the row."""
    # entries and products stay below max(moduli)^2
    dtype = np.int16 if max(moduli) ** 2 < 1 << 15 else np.int32
    rows, counts = _form_rows(keys, moduli)
    rows = rows.astype(dtype)
    out = np.zeros((len(keys), len(moduli)), dtype=dtype)
    owner = np.arange(len(keys))
    for i in np.flatnonzero((counts > 1).any(axis=0)):
        n = counts[owner, i]
        out, owner = np.repeat(out, n, axis=0), np.repeat(owner, n)
        # 0, ..., n - 1 along each element's copies
        k = np.arange(len(out)) - np.repeat(np.cumsum(n) - n, n)
        out += k.astype(dtype)[:, None] * rows[owner, i]
        out %= np.array(moduli, dtype=dtype)
    return out, owner


def _subgroup_keys(images: np.ndarray, moduli: tuple[int, ...],
                   image_moduli: tuple[int, ...] | None = None) -> np.ndarray:
    """Keys of the subgroups spanned by the rows of each (N, r, c)
    matrix of coordinates, coordinate j taken modulo moduli[j]; or,
    given `image_moduli` (with the prime powers of `moduli`), of the
    kernel of the map sending the j-th coordinate unit vector to row j
    of each (N, c, w) matrix, whose column i is taken modulo
    image_moduli[i].

    A subgroup is the direct sum of its p-parts. A coordinate x of
    modulus m, with p^b exactly dividing m, enters the p-part as
    x * p^(a - b) mod p^a, a the largest such b, so each p-part is a
    Z/p^a-module in (Z/p^a)^c, keyed by its Howell form, c rows of c
    entries. The kernel's p-part is read off the Howell form of the
    graph, the rows [image | domain]: its rows with a zero image part.
    The columns of the image are linear forms on the domain, so any
    generating set of the module they span has the same kernel; an
    image wider than c is first cut to the c rows of the Howell form
    of its transpose.
    """
    n, c = len(images), len(moduli)
    keys = []
    for (p, a, scale, _), (_, _, image_scale, _) in zip(
            _prime_parts(moduli), _prime_parts(image_moduli or moduli)):
        if image_moduli is None:
            h = _howell(images * scale % p ** a, p, a)
        else:
            w = images * image_scale % p ** a
            if w.shape[2] > c:
                w = _howell(w.transpose(0, 2, 1), p, a).transpose(0, 2, 1)
            domain = np.broadcast_to(np.diag(scale), (n, c, c))
            h = _howell(np.concatenate([w, domain], axis=2), p, a)
            image = h[:, :, :w.shape[2]].any(axis=2)
            h = h[:, :, w.shape[2]:] * ~image[:, :, None]
            h = np.take_along_axis(
                h, np.argsort(image, axis=1, kind="stable")[:, :c, None], axis=1)
        keys.append(h.reshape(n, -1))
    return np.concatenate(keys, axis=1).astype(np.uint16)


# ---------------------------------------------------------------------------
# coefficientwise reduction onto the residue field

class ResidueMap(Record):
    """Coefficientwise projection RG -> (R/J)G over a local base ring.

    proj maps every base index to its residue index (a surjective ring
    map, coefficientwise); lift maps each residue index to the base
    element whose coefficients are the least coset representatives.
    """
    base: GroupAlgebra
    residue: GroupAlgebra
    proj: np.ndarray
    lift: np.ndarray


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
