"""Oracles that share no code with the group-algebra kernels.

The product and the form are recomputed here from their definitions,
out_g = sum over hk = g of x_h * y_k and <x, y> = sum over g of
x_g * y_g, with the ring's scalar operations on decoded coefficients.
Every map the algebra exposes is compared against them, and so are
the trivial units and the generators; a map asked for again is
computed again, whether or not the image classes, which read the
units' maps once per side, were built first. The
check-element, split-of-1 and sub-idempotent scans and the idempotent
census are compared against brute force over the product table, and
the batched splits of 1 against a scan of masks on drawn algebras. The
canonical keys of images and kernels of multiplication maps must split
RG exactly as the subgroups do, on the desk and lattice instances and
on drawn algebras, each kernel table must reduce one row per class of
the other side's images, and the principal-ideal and check-element
tables must equal the ordered per-element passes over the product
table, and each class's key must be the canonical form of its mask's
elements. Every translation x -> x - b must equal the difference taken
coefficient by coefficient with the ring's addition, and be a
permutation; the subgroup that elements generate, enumerated from its
form, must be their closure under those differences, and adding the
forms of two halves of them must give the form of the whole. The
annihilators of elements and of sets are compared
with the zeros of the product table on the same instances, and
dropping one class from their meet must fail the annihilator laws. Every sum of two members of
the ideal census, formed with the ring's addition, must be a member
again, and the batched sum of forms must give those sums for the
census and for its duals. The principal-ideal tables are compared with a
brute-force principality test, the complementarity matrix with the
definition on element sets, and the element-annihilator law with a
per-element count. Ideal and idempotent counts of semisimple and
Galois-ring group algebras are compared against closed forms from
cyclic-code theory, and those of M2(Z2)C_n against the Morita, Hall
and Wedderburn-Artin counts; the weight distribution of the dual of
every ideal against the MacWilliams transform of the ideal's. The law matrix must report the same statuses and
counts on an algebra whose group and ring elements are relabelled.
Every built ring's table must be rebuilt by its own structure
constants, and the unit, radical, residue-field and generating-character
queries of the coefficient rings must equal element-set references:
nilpotency and the residue field built one element at a time, and a
character search that tries every element as a multiplier.
"""

import functools
import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import glab.galg
import glab.workspace
from glab.chk import check_elements
from glab.config import DEFAULT_CENSUS_BOUND, DEFAULT_OP_BOUND
from glab.errors import ConstructionError
from glab.finring import (MatrixRing, ProductRing, RadicalQuotient, TableRing,
                          Zmod, build_ring, frobenius,
                          radical_quotient, structure)
from glab.finring import _tables as ring_tables
from glab.galg import GroupAlgebra
from glab.grp import (CayleyGroup, CyclicGroup, DihedralGroup, SymmetricGroup,
                      build_group)
from glab.galg import residue_map
from glab.ideals import (CodeSet, ann_right_of_element, annihilators,
                         containment, dual_code, enumerate_ideals, hat_image,
                         meets, pair_sums, principal_ideals, span)
from glab.idem import enumerate_idempotents, idempotent_order
from glab.instance import InstanceDescription, build_instance, load_instance
from glab.lcp import complementarity, lcp_certificate, project_code
from glab.verify import LAW_TABLE, verify_all
from glab.workspace import PASS, Workspace

from desk import (FIXTURE_NAMES, FIXTURES, fixture_algebra, fixture_path,
                  fixture_workspace)
from sets import code_of, elements_of, mask_of
from test_families import _small as _small_ring
from test_families import locals_, matrices, products, rings

ROOT = FIXTURES.parent


class Oracle:
    """Products and forms of RG from the definitions, one element at a time."""

    def __init__(self, alg):
        self.alg = alg
        self.ring = alg.ring
        n = alg.group.order
        self.pairs = [(h, k, int(alg.group.mul[h, k]))
                      for h in range(n) for k in range(n)]
        self.coeffs = alg.coeffs.tolist()

    def product(self, x, y):
        cx, cy = self.coeffs[x], self.coeffs[y]
        out = [0] * self.alg.group.order
        for h, k, g in self.pairs:
            out[g] = int(self.ring.add[out[g], self.ring.mul[cx[h], cy[k]]])
        return self.alg.encode(out)

    def form(self, x, y):
        acc = 0
        for a, b in zip(self.coeffs[x], self.coeffs[y]):
            acc = int(self.ring.add[acc, self.ring.mul[a, b]])
        return acc


_DESK = [name for name in FIXTURE_NAMES
         if "corrupt" not in name and name != "m2f2c3"]


@functools.cache
def _tables(name):
    """The product and form tables of a desk algebra, from the definitions."""
    alg = fixture_algebra(name)
    assert alg.card <= 256
    orc = Oracle(alg)
    every = list(range(alg.card))
    return (np.array([[orc.product(x, y) for y in every] for x in every]),
            np.array([[orc.form(x, y) for y in every] for x in every]))


@pytest.mark.parametrize("name", _DESK)
def test_every_map_matches_the_definition(name):
    alg = fixture_algebra(name)
    every = np.arange(alg.card)
    table, forms = _tables(name)
    assert np.array_equal(alg.mul(every, every), np.diagonal(table))
    assert alg.central(every).tolist() == [
        bool(np.array_equal(table[x], table[:, x])) for x in every]
    rng = np.random.default_rng(61)
    for x in every.tolist():
        assert np.array_equal(alg.mul(x, every), table[x])
        assert np.array_equal(alg.mul(every, x), table[:, x])
        assert np.array_equal(alg._form(alg.coeffs[x], alg.coeffs), forms[x])
        assert np.array_equal(alg._form(alg.coeffs, alg.coeffs[x]), forms[:, x])
        for y in rng.integers(0, alg.card, 4):
            assert alg.mul(x, int(y)) == table[x, y]
            assert alg._form(alg.coeffs[x], alg.coeffs[int(y)]) == forms[x, y]


def test_strided_maps_of_m2f2c3_match_the_definition():
    alg = fixture_algebra("m2f2c3")
    orc = Oracle(alg)
    every = list(range(alg.card))
    square = alg.mul(every, every)
    for a in range(5, alg.card, 409):
        row = [orc.product(a, y) for y in every]
        col = [orc.product(x, a) for x in every]
        assert np.array_equal(alg.mul(a, every), row)
        assert np.array_equal(alg.mul(every, a), col)
        assert np.array_equal(alg._form(alg.coeffs[a], alg.coeffs),
                              [orc.form(a, y) for y in every])
        assert np.array_equal(alg._form(alg.coeffs, alg.coeffs[a]),
                              [orc.form(x, a) for x in every])
        assert alg.central([a])[0] == (row == col)
        assert square[a] == row[a] == alg.mul(a, a)


# ---------------------------------------------------------------------------
# the maps of the trivial units and of the generators

def _units(alg):
    """r*g for r a unit of R and g in G, from the ring's scalar table."""
    ring, n = alg.ring, alg.group.order
    units = [r for r in range(ring.card)
             if any(int(ring.mul[r, s]) == ring.one == int(ring.mul[s, r])
                    for s in range(ring.card))]
    return [alg.encode([r if h == g else 0 for h in range(n)])
            for r in units for g in range(n)]


def _generators(alg):
    """The group elements and the nonzero scalars."""
    n = alg.group.order
    e = alg.group.identity
    return ({alg.encode([alg.ring.one * (h == g) for h in range(n)])
             for g in range(n)}
            | {alg.encode([r * (h == e) for h in range(n)])
               for r in range(1, alg.ring.card)})


def _count_products(monkeypatch):
    """Elements whose row or column is computed by the product kernel."""
    products = Counter()
    kernel = GroupAlgebra._product

    def counting(self, cx, cy):
        side = "row" if cx.ndim == 1 else "col"
        products[side, self.encode(cx if side == "row" else cy)] += 1
        return kernel(self, cx, cy)
    monkeypatch.setattr(GroupAlgebra, "_product", counting)
    return products


@pytest.mark.parametrize("name", _DESK)
def test_fixed_maps_match_the_definition(name, monkeypatch):
    """The trivial units and the generators are the elements their
    definitions give, and the image classes of each side ask for each
    trivial unit's map once, the first time they are built."""
    built = fixture_algebra(name)
    alg = GroupAlgebra(built.ring, built.group)
    table, _ = _tables(name)
    assert sorted(_units(alg)) == sorted(alg.trivial_units)
    assert set(alg.generators) == _generators(alg)
    every = np.arange(alg.card)
    for a in alg.trivial_units:
        assert np.array_equal(alg.mul(a, every), table[a])
        assert np.array_equal(alg.mul(every, a), table[:, a])
    maps = Counter()
    mul = GroupAlgebra.mul

    def counting(self, x, y):
        # a map is one element against the whole index range
        maps[("row", x) if np.ndim(x) == 0 else ("col", y)] += 1
        return mul(self, x, y)
    monkeypatch.setattr(GroupAlgebra, "mul", counting)
    for _ in range(2):
        for side in ("right", "left"):
            alg.canonical_classes(side)
    assert maps == Counter({(side, a): 1 for side in ("row", "col")
                            for a in alg.trivial_units})


@pytest.mark.parametrize("kept", [None, 0])
@pytest.mark.parametrize("name", _DESK)
def test_gathered_maps_match_the_definition(name, kept, monkeypatch):
    """Every row and column is gathered from the coefficients, one product
    per call, whether the image classes of both sides (kept=None) or of
    none (kept=0) were built first; the arrays are the caller's, and
    writing into them leaves the classes as they were."""
    built = fixture_algebra(name)
    alg = GroupAlgebra(built.ring, built.group)
    table, _ = _tables(name)
    sides = ("right", "left")[:kept]
    first = [alg.canonical_classes(side)[0].copy() for side in sides]
    products = _count_products(monkeypatch)
    every = np.arange(alg.card)
    for _ in range(2):
        for a in range(alg.card):
            row, col = alg.mul(a, every), alg.mul(every, a)
            assert np.array_equal(row, table[a])
            assert np.array_equal(col, table[:, a])
            row[:] = col[:] = 0
    assert products == Counter({(side, a): 2 for side in ("row", "col")
                                for a in range(alg.card)})
    for side, leasts in zip(sides, first):
        assert np.array_equal(alg.canonical_classes(side)[0], leasts)
    assert sum(products.values()) == 4 * alg.card


# ---------------------------------------------------------------------------
# scans against their definitions

@pytest.mark.parametrize("name", _DESK)
def test_scans_match_brute_force(name):
    alg = fixture_algebra(name)
    table, _ = _tables(name)
    ring, one = alg.ring, alg.coeffs[alg.one]
    census = enumerate_ideals(alg, "right")
    # the least u over all of RG with Ann_r(u) = C
    annihilators = table == 0
    checks = check_elements(alg, DEFAULT_OP_BOUND)
    masks = [mask_of(c) for c in census]
    for c, mask in zip(census, masks):
        hits = np.flatnonzero((annihilators == mask).all(axis=1))
        assert checks.get(c.key()) == (int(hits[0]) if len(hits) else None)
    # and the pass finds an annihilator key for every element: the key
    # of each distinct zero set, found from its elements
    distinct = {row.tobytes(): row for row in annihilators}.values()
    assert set(checks) == {code_of(alg, row).key() for row in distinct}
    # the split of 1: the e in C with 1 - e in D, when exactly one exists
    for c, cmask in zip(census, masks):
        for d, dmask in zip(census, masks):
            if int((cmask & dmask).sum()) != 1 or (
                    c.cardinality * d.cardinality != alg.card):
                continue
            hits = [int(x) for x in np.flatnonzero(cmask) if dmask[alg.encode(
                ring.add[one, ring.neg[alg.coeffs[x]]])]]
            assert lcp_certificate(c, d) == (hits[0] if len(hits) == 1
                                             else None)
    # each row of the order table: the other nonzero idempotents f with
    # ef = fe = f, in census order; e is primitive when it is nonzero
    # and there is none, central when its row of the table is its column
    idems = enumerate_idempotents(alg)
    assert idems == [e for e in range(alg.card) if table[e, e] == e]
    order = idempotent_order(alg, idems)
    assert order.elements.tolist() == idems
    flags = []
    for e, row in zip(idems, order.below):
        below = [f for f in idems if f not in (0, e)
                 and table[e, f] == f and table[f, e] == f]
        assert order.elements[row].tolist() == below
        flags.append((e, bool((table[e] == table[:, e]).all()),
                      e != 0 and not below))
    assert list(zip(idems, alg.central(order.elements).tolist(),
                    order.primitive.tolist())) == flags


# ---------------------------------------------------------------------------
# principality, complementarity and element annihilators, per element

def is_principal(code, table):
    """The least u whose principal ideal, read off the product table
    (the row of u for a right ideal, its column for a left one), is the
    set; None if no element generates it."""
    images = table if code.side == "right" else table.T
    for u in elements_of(code):
        if np.array_equal(np.unique(images[u]), elements_of(code)):
            return int(u)
    return None


def by_key(alg, found):
    """A table by packed mask as one by key: the form found from each
    mask's elements, in the same order."""
    return {code_of(alg, np.unpackbits(np.frombuffer(mask, dtype=np.uint8),
                                       count=alg.card, bitorder="little")
                    ).key(): u for mask, u in found.items()}


def ordered_principal_pass(table, side):
    """Every principal ideal of one side by packed mask, with its least
    generator: one ordered pass over the product table (rows for right
    ideals, columns for left ones), in the order of generators."""
    images = table if side == "right" else table.T
    found = {}
    for u, image in enumerate(images):
        mask = np.zeros(len(table), dtype=bool)
        mask[image] = True
        found.setdefault(np.packbits(mask, bitorder="little").tobytes(), u)
    return found


def ordered_check_pass(table):
    """The least u with Ann_r(u) = C for every right annihilator C of an
    element, by packed mask: one ordered pass over the rows of the table."""
    found = {}
    for u, row in enumerate(table):
        found.setdefault(np.packbits(row == 0, bitorder="little").tobytes(), u)
    return found


def product_table(alg):
    """x*y for every pair, from the ring's and the group's tables: the
    coefficient at g sums x_h * y_k over hk = g, for all pairs at once."""
    ring, group = alg.ring, alg.group
    coeffs = alg.coeffs
    acc = np.zeros((alg.card, alg.card, group.order), dtype=np.int64)
    for h in range(group.order):
        for k in range(group.order):
            g = group.mul[h, k]
            term = ring.mul[coeffs[:, h, None], coeffs[None, :, k]]
            acc[:, :, g] = ring.add[acc[:, :, g], term]
    weights = np.array([alg.encode([int(i == g) for i in range(group.order)])
                        for g in range(group.order)])
    return acc @ weights


def _partition(keys):
    """Each row's first row with the same key, as a list."""
    first = {}
    return [first.setdefault(bytes(key), i) for i, key in enumerate(keys)]


def _subgroups(table, side, kernel):
    """The image (or kernel) of every element's map, as mask rows: x ->
    u*x for side "right" (table rows), x -> x*u for "left" (columns)."""
    images = table if side == "right" else table.T
    if kernel:
        return images == 0
    masks = np.zeros(table.shape, dtype=bool)
    np.put_along_axis(masks, images, True, axis=1)
    return masks


def assert_keys_partition_like_masks(alg, table):
    """On both sides, for images and kernels: two elements share a key
    exactly when their subgroups are equal, each element's least
    generator is the least element with its subgroup, and the class
    masks are those subgroups."""
    every = np.arange(alg.card)
    for side in ("right", "left"):
        for kernel in (False, True):
            masks = _subgroups(table, side, kernel)
            classes = _partition(np.packbits(masks, axis=1))
            assert _partition(alg.canonical_keys(every, side, kernel)) == classes
            leasts, keys, rows = alg.canonical_classes(side, kernel)
            assert leasts.tolist() == sorted(set(classes))
            assert leasts[rows].tolist() == classes
            got = np.array([alg.subgroup_mask(key) for key in keys])
            assert np.array_equal(got, masks[leasts])


_LATTICE = ["f2c2c2c2", "z4c2c2", "f2x2c2c2"]


def _lattice_workspace(name):
    return Workspace(build_instance(load_instance(
        str(ROOT / "perfbench" / "instances" / f"{name}.glab"))))


@pytest.mark.parametrize("name", _DESK + _LATTICE)
def test_canonical_keys_partition_like_masks(name):
    if name in _LATTICE:
        alg = _lattice_workspace(name).alg
        table = product_table(alg)
    else:
        alg = fixture_algebra(name)
        table, _ = _tables(name)
        assert np.array_equal(product_table(alg), table)
    assert_keys_partition_like_masks(alg, table)


@pytest.mark.parametrize("name", _DESK + _LATTICE + ["m2f2c3"])
def test_class_keys_are_the_forms_of_their_masks(name):
    # one key per subgroup: the key of each image and kernel class, from
    # the matrix of one map, is the form reduced from all the elements
    # of the class's mask
    alg = (_lattice_workspace(name).alg if name in _LATTICE
           else fixture_algebra(name))
    for side in ("right", "left"):
        for kernel in (False, True):
            for key in alg.canonical_classes(side, kernel)[1]:
                mask = alg.subgroup_mask(key)
                form = alg.subgroup_form(np.flatnonzero(mask))
                assert np.array_equal(form, key)
                assert alg.subgroup_sizes(form[None])[0] == mask.sum()


_KEY_RINGS = [Zmod(4), Zmod(8), Zmod(9), Zmod(6), Zmod(12),
              ProductRing((Zmod(2), Zmod(4))), MatrixRing(2, Zmod(4))]
_KEY_GROUPS = [CyclicGroup(1), CyclicGroup(2), CyclicGroup(3), CyclicGroup(4),
               DihedralGroup(2), SymmetricGroup(3)]


@st.composite
def _key_algebras(draw):
    """A small group algebra over a drawn ring: the prime-power and
    composite moduli above, or any ring family of tests/test_families."""
    ring = build_ring(draw(st.one_of(st.sampled_from(_KEY_RINGS), rings)))
    groups = [g for g in map(build_group, _KEY_GROUPS)
              if ring.card ** g.order <= 256]
    return GroupAlgebra(ring, draw(st.sampled_from(groups)))


@pytest.mark.parametrize("spec", _KEY_RINGS, ids=repr)
def test_canonical_keys_over_prime_power_and_composite_moduli(spec):
    ring = build_ring(spec)
    group = max((g for g in map(build_group, _KEY_GROUPS)
                 if ring.card ** g.order <= 256), key=lambda g: g.order)
    alg = GroupAlgebra(ring, group)
    assert_keys_partition_like_masks(alg, product_table(alg))


@settings(max_examples=60, deadline=None, database=None)
@given(alg=_key_algebras())
def test_canonical_keys_of_drawn_algebras(alg):
    assert_keys_partition_like_masks(alg, product_table(alg))


def _naive_span(rows, q: int) -> set:
    """Every vector the rows generate over Z/q, as tuples: the closure
    of {0} under adding a row."""
    span = {(0,) * rows.shape[1]}
    frontier = list(span)
    while frontier:
        frontier = [w for v in frontier for row in rows.tolist()
                    if (w := tuple((x + y) % q for x, y in zip(v, row)))
                    not in span and not span.add(w)]
    return span


@st.composite
def _howell_cases(draw):
    """A prime power q = p^a, p <= 7 and a <= 4, and a stack (N, r, c)
    over Z/q with q^c <= 1000, each entry a drawn multiple of a drawn
    power of p, so that pivots of every valuation occur; and the row
    operations of `_transformed`."""
    p, a = draw(st.sampled_from([2, 3, 5, 7])), draw(st.integers(1, 4))
    q = p ** a
    c = draw(st.integers(1, max([k for k in range(1, 10) if q ** k <= 1000],
                                default=1)))
    n, r = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    size = n * r * c
    units = st.lists(st.integers(0, q - 1), min_size=size, max_size=size)
    powers = st.lists(st.integers(0, a), min_size=size, max_size=size)
    w = (np.array(draw(units)) * p ** np.array(draw(powers)) % q
         ).reshape(n, r, c)
    ops = draw(st.lists(st.tuples(st.integers(0, r - 1), st.integers(0, r - 1),
                                  st.integers(0, q - 1)), max_size=8))
    extra = draw(st.lists(st.integers(0, q - 1), min_size=r, max_size=r))
    return p, a, w, ops, extra


def _transformed(w, q: int, p: int, ops, extra):
    """w after invertible row operations (i, j, k): row j += k * row i;
    for i == j, row i times a unit; for k = 0, rows i and j swapped;
    then one more row, the combination `extra` of the rows."""
    w = w.copy()
    for i, j, k in ops:
        if i == j:
            w[:, i] = w[:, i] * (k if k % p else k + 1) % q
        elif k == 0:
            w[:, [i, j]] = w[:, [j, i]]
        else:
            w[:, j] = (w[:, j] + k * w[:, i]) % q
    return np.concatenate([w, (np.array(extra) @ w % q)[:, None]], axis=1)


def assert_is_the_howell_form(w, p: int, a: int) -> None:
    """`_howell` of the stack against its definition: an echelon form,
    zero rows last, with powers of p as pivots and the entries above
    each pivot below it, whose rows span the naive span of w's rows and
    whose rows with their pivot in column k or later span every vector
    of it that is zero before column k (Howell's property); the same
    form for each matrix alone."""
    q, (n, r, c) = p ** a, w.shape
    forms = glab.galg._howell(w, p, a).astype(np.int64)
    assert forms.shape == (n, c, c)
    for matrix, h in zip(w, forms):
        assert np.array_equal(glab.galg._howell(matrix[None], p, a)[0], h)
        assert ((0 <= h) & (h < q)).all()
        nonzero = h.any(axis=1)
        k = int(nonzero.sum())
        assert not nonzero[k:].any()
        lead = (h[:k] != 0).argmax(axis=1)
        assert (np.diff(lead) > 0).all()
        for i, j in enumerate(lead.tolist()):
            assert h[i, j] in {p ** e for e in range(a)}
            assert (h[:i, j] < h[i, j]).all()
        spanned = _naive_span(matrix, q)
        assert _naive_span(h, q) == spanned
        for col in range(c + 1):
            tail = h[:k][lead >= col]
            assert _naive_span(tail, q) == {v for v in spanned
                                            if not any(v[:col])}


@settings(max_examples=150, deadline=None, database=None)
@given(case=_howell_cases())
@example(case=(2, 1, np.zeros((1, 1, 1), dtype=int), [], [0]))
@example(case=(3, 2, np.zeros((2, 4, 3), dtype=int), [], [1, 2, 0, 1]))
@example(case=(2, 3, np.array([[[4, 2, 6, 1]]]), [], [3]))
@example(case=(5, 1, np.array([[[1], [2], [0]], [[0], [0], [3]]]), [(0, 2, 0)],
               [1, 1, 1]))
@example(case=(2, 2, np.array([[[2, 1], [2, 3], [0, 2], [1, 1], [2, 0]]]),
               [(1, 1, 3), (0, 3, 2)], [1, 0, 2, 3, 1]))
@example(case=(7, 4, np.array([[[49], [14], [343]]]), [(2, 0, 5)], [1, 1, 1]))
def test_howell_forms_against_naive_spans(case):
    # degenerate shapes among the examples: one entry, zero matrices,
    # one row (r < c), one column, r > c, and N = 1
    p, a, w, ops, extra = case
    assert_is_the_howell_form(w, p, a)
    moved = _transformed(w, p ** a, p, ops, extra)
    assert np.array_equal(glab.galg._howell(moved, p, a),
                          glab.galg._howell(w, p, a))


def test_dropping_the_killed_multiple_breaks_the_keys(monkeypatch):
    # without (q / pivot) times each pivot row in the pool, the echelon
    # form is no longer Howell's, and equal subgroups get different keys
    monkeypatch.setattr(glab.galg, "_killed_multiple",
                        lambda rows, pivots, q: np.zeros_like(rows))
    for ring in (Zmod(4), Zmod(8)):
        alg = GroupAlgebra(build_ring(ring), build_group(CyclicGroup(2)))
        with pytest.raises(AssertionError):
            assert_keys_partition_like_masks(alg, product_table(alg))


def test_kernel_keys_reduce_one_row_per_class_of_the_other_sides_images(
        monkeypatch):
    # Ann_r(u) depends on RGu alone and Ann_l(u) on uRG alone, so each
    # kernel table reduces the least element of each of the other side's
    # 35 principal classes on M2(Z2)C3, not each of its 245 orbits of the
    # trivial units
    reduced = []
    howell = glab.galg._howell

    def counting(w, p, a):
        reduced.append(w.shape)
        return howell(w, p, a)
    monkeypatch.setattr(glab.galg, "_howell", counting)
    built = fixture_algebra("m2f2c3")
    alg = GroupAlgebra(built.ring, built.group)
    c = len(alg.ring.moduli) * alg.group.order
    for side in ("right", "left"):
        reduced.clear()
        alg.canonical_classes(side, kernel=True)
        assert reduced[-1] == (35, c, 2 * c)
        assert sum(n for n, _, width in reduced if width == 2 * c) == 35


# ---------------------------------------------------------------------------
# translation maps against the coefficientwise difference

def difference_rows(alg, bs):
    """x - b for every x, one row per b of `bs`: the coefficient at each
    group position is the s with s + b_g = x_g under the ring's own
    addition, read from decoded coefficients."""
    ring, n = alg.ring, alg.group.order
    minus = np.zeros((ring.card, ring.card), dtype=np.int64)
    for s in range(ring.card):
        for d in range(ring.card):
            minus[ring.add[s, d], d] = s
    coeffs = alg.coeffs
    weights = np.array([alg.encode([int(i == g) for i in range(n)])
                        for g in range(n)])
    return minus[coeffs[None], coeffs[list(bs)][:, None]] @ weights


def assert_translations_match_the_definition(alg, bs):
    """x - b from the sum kernel for every x and each b, the subgroup
    the bs generate, enumerated from its form, and the sum of the forms
    of two halves of the bs, each against the closure of {0} under the
    coefficientwise differences."""
    wants = difference_rows(alg, bs)
    for b, want in zip(bs, wants):
        got = alg.sub(np.arange(alg.card), b)
        assert np.array_equal(got, want)
        assert np.array_equal(np.sort(got), np.arange(alg.card))
    closure = np.arange(alg.card) == 0
    while True:
        grown = closure.copy()
        for want in wants:
            grown[want[grown]] = True
        if np.array_equal(grown, closure):
            break
        closure = grown
    form = alg.subgroup_form(bs)
    assert np.array_equal(alg.subgroup_mask(form), closure)
    assert alg.subgroup_sizes(form[None])[0] == closure.sum()
    half = len(bs) // 2
    halves = [alg.subgroup_form(bs[:half] or [0]), alg.subgroup_form(bs[half:])]
    assert np.array_equal(alg.sum_forms(halves[0][None], halves[1][None])[0],
                          form)


@pytest.mark.parametrize("name", _DESK + _LATTICE + ["m2f2c3"])
def test_translations_match_the_definition(name):
    alg = (_lattice_workspace(name) if name in _LATTICE
           else fixture_workspace(name)).alg
    every = range(alg.card) if alg.card <= 256 else range(7, alg.card, 97)
    assert_translations_match_the_definition(alg, list(every))


@pytest.mark.parametrize("spec, group", [
    (ProductRing((Zmod(2), Zmod(4))), CyclicGroup(4)),
    (ProductRing((Zmod(2), Zmod(4))), DihedralGroup(2)),
    (MatrixRing(2, Zmod(4)), CyclicGroup(1)),
    (Zmod(4), SymmetricGroup(3))], ids=repr)
def test_translations_over_composite_and_matrix_coefficients(spec, group):
    alg = GroupAlgebra(build_ring(spec), build_group(group))
    assert_translations_match_the_definition(
        alg, list(range(0, alg.card, max(1, alg.card // 256))))


@st.composite
def _nonabelian_translations(draw):
    """An algebra of at most 4096 elements over a non-abelian group, and
    elements b of it."""
    group = build_group(draw(st.sampled_from(
        [SymmetricGroup(3), DihedralGroup(4), DihedralGroup(5),
         DihedralGroup(6)])))
    ring = build_ring(draw(st.sampled_from(
        [s for s in [Zmod(2), Zmod(3), Zmod(4), ProductRing((Zmod(2), Zmod(2))),
                     MatrixRing(1, Zmod(4)), RadicalQuotient(Zmod(9))]
         if build_ring(s).card ** group.order <= 4096])))
    alg = GroupAlgebra(ring, group)
    return alg, draw(st.lists(st.integers(0, alg.card - 1), min_size=1,
                              max_size=8))


@settings(max_examples=40, deadline=None, database=None)
@given(drawn=_nonabelian_translations())
def test_translations_of_drawn_nonabelian_algebras(drawn):
    assert_translations_match_the_definition(*drawn)


@pytest.mark.parametrize("name", _DESK)
def test_principal_and_check_tables_match_the_ordered_passes(name):
    # the tables, in order, against the ordered per-element passes over
    # the product table that built them before canonical forms
    alg = fixture_algebra(name)
    table, _ = _tables(name)
    for side in ("right", "left"):
        got = principal_ideals(alg, side, DEFAULT_OP_BOUND)
        assert list(got.items()) == list(
            by_key(alg, ordered_principal_pass(table, side)).items())
    assert list(check_elements(alg, DEFAULT_OP_BOUND).items()) == list(
        by_key(alg, ordered_check_pass(table)).items())


def _local(ws):
    st = structure(ws.alg.ring)
    return st.is_local and len(st.radical) > 1


@pytest.mark.parametrize("name", _DESK)
def test_principal_tables_match_brute_force(name):
    # every census member of each side, every annihilator of the other
    # side's members (a side ideal), and every dual that keeps its side
    ws = fixture_workspace(name)
    table, _ = _tables(name)
    other = {"right": "left", "left": "right"}
    for side in ("right", "left"):
        principals = principal_ideals(ws.alg, side, DEFAULT_OP_BOUND)
        codes = (ws.ideals(side)
                 + [ws.ann(side, c) for c in ws.ideals(other[side])]
                 + [d for d in map(ws.dual, ws.ideals(side)) if d.side == side])
        assert {c.side for c in codes} == {side}
        for code in codes:
            assert principals.get(code.key()) == is_principal(code, table)
        # and the table holds nothing else
        assert all(is_principal(span(ws.alg, [u], side), table) == u
                   for u in principals.values())


def _complementary(card, codes):
    sets = [set(elements_of(c).tolist()) for c in codes]
    return [[len(a & b) == 1 and len(a) * len(b) == card for b in sets]
            for a in sets]


@pytest.mark.parametrize("name", _DESK)
def test_complementarity_matrix_matches_the_definition(name):
    # from sizes and sums of forms, summed in one batch, and from one
    # certificate reduction per pair
    ws = fixture_workspace(name)
    for side in ("right", "left"):
        census = ws.ideals(side)
        got = complementarity(census, census).tolist()
        assert got == _complementary(ws.alg.card, census)
        assert got == [[lcp_certificate(c, d) is not None for d in census]
                       for c in census]
    assert ws.complementary.tolist() == _complementary(ws.alg.card,
                                                       ws.right_ideals)
    if _local(ws):
        images = [ws.projection(c) for c in ws.right_ideals]
        got = ws.residue_complementary.tolist()
        assert got == _complementary(ws.residue.residue.card, images)
        assert got == [[lcp_certificate(c, d) is not None for d in images]
                       for c in images]


def test_a_unique_split_is_complementarity():
    # the splits of 1 across two one-sided ideals of one side (e in C
    # with 1 - e in D) are a coset of C & D or none, and exist exactly
    # when C + D = RG: lcp_certificate's reduction finds one exactly
    # when the pair is complementary, and None on every other pair, also
    # where the sizes multiply to |RG| but the members meet beyond 0
    fitting_overlaps = 0
    for name in _DESK:
        ws = fixture_workspace(name)
        alg = ws.alg
        for side in ("right", "left"):
            census = ws.ideals(side)
            matrix = complementarity(census, census)
            for i, c in enumerate(census):
                for j, d in enumerate(census):
                    if matrix[i, j]:
                        e = lcp_certificate(c, d)
                        assert (mask_of(c)[e]
                                and mask_of(d)[alg.one_minus(e)])
                        continue
                    assert lcp_certificate(c, d) is None
                    fitting_overlaps += (
                        c.cardinality * d.cardinality == alg.card)
    assert fitting_overlaps > 0


# Z/p^a and fields, matrix rings and products of them: coordinates of
# one prime power, of several, and of mixed moduli
_SPLIT_RINGS = st.one_of(locals_, matrices, products).filter(_small_ring)


@settings(max_examples=40, deadline=None, database=None)
@given(data=st.data())
def test_certificates_against_naive_splits(data):
    # for every ordered pair of the right-ideal census, the batched split
    # of 1 is the one e in C with 1 - e in D found by a scan of C's
    # elements, and -1 where the scan finds none or several
    ring = build_ring(data.draw(_SPLIT_RINGS))
    n = max(k for k in range(1, 9) if ring.card ** k <= 256)
    group = build_group(data.draw(st.sampled_from(
        [CyclicGroup(k) for k in range(1, n + 1)]
        + [g for g in (DihedralGroup(2), SymmetricGroup(3))
           if build_group(g).order <= n])))
    alg = GroupAlgebra(ring, group)
    census = enumerate_ideals(alg, "right", bound=alg.card)
    forms = np.array([c.form for c in census])
    masks = alg.subgroup_mask(forms)
    minus = alg.sub(alg.one, np.arange(alg.card))     # 1 - x for every x
    i, j = (ij.ravel() for ij in np.indices((len(census),) * 2))
    for a, b, e in zip(i, j, alg.certificates(forms[i], forms[j]).tolist()):
        hits = np.flatnonzero(masks[a] & masks[b][minus])
        assert e == (hits[0] if len(hits) == 1 else -1)


def test_local_desk_fixtures_have_residue_matrices():
    assert sum(_local(fixture_workspace(name)) for name in _DESK) >= 3


@pytest.mark.parametrize("side", ["right", "left"])
def test_stacked_element_annihilators_match_the_definition(side,
                                                           monkeypatch):
    name = "f2s3"
    table, _ = _tables(name)
    card = len(table)
    law = dict((cid, fn) for cid, _, fn in LAW_TABLE)[
        f"ann-identities.{side}-of-element"]
    assert law(fixture_workspace(name)) == (PASS, f"checked {card} elements")

    # per element, from the product table: the annihilator of u, and the
    # other-sided span of u, whose annihilator it is
    zeros = (table == 0) if side == "right" else (table == 0).T
    spans = [np.unique(table[:, u] if side == "right" else table[u])
             for u in range(card)]
    for u in range(card):
        assert np.array_equal(zeros[u], np.logical_and.reduce(
            zeros[spans[u]], axis=0))

    # a wrong annihilator for one span fails exactly the elements with
    # that span, though the law compares each span once; take the
    # largest class of elements sharing a nonzero span
    classes = {}
    alg = fixture_algebra(name)
    for u in range(card):
        key = code_of(alg, np.isin(np.arange(card), spans[u])).key()
        classes.setdefault(key, []).append(u)
    key, victims = max(((k, v) for k, v in classes.items() if v[0] > 0),
                       key=lambda kv: len(kv[1]))
    assert len(victims) > 1
    ann = Workspace.ann

    def broken(self, s, code):
        got = ann(self, s, code)
        if s == side and code.key() == key:
            return code_of(self.alg, np.ones(card, dtype=bool))
        return got
    monkeypatch.setattr(Workspace, "ann", broken)
    assert law(fixture_workspace(name)) == (
        "fail", f"{len(victims)}/{card} elements fail; first at element "
                f"{victims[0]}")


# ---------------------------------------------------------------------------
# annihilators against the zeros of the product table

def assert_annihilators_match_the_definition(alg, table, codes):
    """Ann_r(u) of every element u, and Ann_l(C) and Ann_r(C) of every
    code C, against the zeros of the product table."""
    zero = table == 0
    for u in range(alg.card):
        got = ann_right_of_element(alg, u)
        assert got.side == "right" and np.array_equal(mask_of(got), zero[u])
    for c in codes:
        (left,), (right,) = (annihilators([c], side)
                             for side in ("left", "right"))
        assert (left.side, right.side) == ("left", "right")
        mask = mask_of(c)
        assert np.array_equal(mask_of(left), zero[:, mask].all(axis=1))
        assert np.array_equal(mask_of(right), zero[mask].all(axis=0))


@pytest.mark.parametrize("name", _DESK + _LATTICE)
def test_annihilators_match_the_definition(name):
    # every ideal of both censuses, every dual (some are no ideal) and
    # the zero set; the lattice instances' products come from
    # `product_table`, checked against Oracle.product on strided rows
    if name in _LATTICE:
        ws = _lattice_workspace(name)
        table = product_table(ws.alg)
        orc = Oracle(ws.alg)
        for x in range(3, ws.alg.card, 37):
            assert table[x].tolist() == [orc.product(x, y)
                                         for y in range(ws.alg.card)]
    else:
        ws = fixture_workspace(name)
        table, _ = _tables(name)
    codes = ws.right_ideals + ws.left_ideals
    codes += dual_code(codes)
    codes.append(code_of(ws.alg, np.arange(ws.alg.card) == 0))
    assert_annihilators_match_the_definition(ws.alg, table, codes)


def _principal_codes(alg):
    return [span(alg, [u], side) for side in ("right", "left")
            for u in principal_ideals(alg, side).values()]


@pytest.mark.parametrize("spec", _KEY_RINGS, ids=repr)
def test_annihilators_over_prime_power_and_composite_moduli(spec):
    ring = build_ring(spec)
    group = max((g for g in map(build_group, _KEY_GROUPS)
                 if ring.card ** g.order <= 256), key=lambda g: g.order)
    alg = GroupAlgebra(ring, group)
    assert_annihilators_match_the_definition(alg, product_table(alg),
                                             _principal_codes(alg))


@settings(max_examples=30, deadline=None, database=None)
@given(alg=_key_algebras())
def test_annihilators_of_drawn_algebras(alg):
    assert_annihilators_match_the_definition(alg, product_table(alg),
                                             _principal_codes(alg))


def _failing_laws_of_z4c3():
    return {l.check_id for l in verify_all(fixture_workspace("z4c3")).lines
            if l.status == "fail"}


def _drop_first_row(monkeypatch, owner, producer, kernel):
    """Run `owner.<producer>` with the first row of each matrix that
    `GroupAlgebra.<kernel>` hands it set to zero: the first coordinate
    unit then goes to 0, so it joins every kernel."""
    real, inner = getattr(owner, producer), getattr(GroupAlgebra, kernel)

    def dropped(self, *args):
        out = inner(self, *args).copy()
        out[..., 0, :] = 0
        return out

    def mutated(*args):
        with monkeypatch.context() as m:
            m.setattr(GroupAlgebra, kernel, dropped)
            return real(*args)
    monkeypatch.setattr(owner, producer, mutated)


def test_dropping_a_row_of_the_stacked_map_fails_the_annihilator_laws(
        monkeypatch):
    # Z4C3 is local and Frobenius, so every law runs; unbroken, only the
    # residue biconditional, false as stated, fails. With the first row
    # of each map x -> b*x (x -> x*b) zero, the stacked map of a form's
    # rows loses that row, and each law that reads an annihilator of an
    # ideal fails
    assert _failing_laws_of_z4c3() == {"residue-lcp.biconditional"}
    _drop_first_row(monkeypatch, glab.workspace, "annihilators",
                    "_basis_images")
    assert _failing_laws_of_z4c3() == {
        "residue-lcp.biconditional", "checkable-routes.ann-principal",
        "checkable-routes.dual-hat-ann",
        "checkable-routes.block-intersection",
        "ann-identities.right-of-element",
        "ann-identities.left-of-element", "ann-identities.double-left",
        "ann-identities.double-right", "ann-identities.size-left",
        "ann-identities.size-right"}


def test_dropping_a_row_of_the_pairing_matrix_fails_the_dual_laws(
        monkeypatch):
    # the pairing <e_j, b_t> of the first coordinate unit with every row
    # of the form set to zero: each law that reads a dual fails but
    # sum-meet, which a kernel of any pairing satisfies
    _drop_first_row(monkeypatch, GroupAlgebra, "dual_keys", "_form")
    assert _failing_laws_of_z4c3() == {
        "residue-lcp.biconditional", "dual-lattice.meet-join",
        "dual-lattice.size-product", "split-refine.dual-of-sum",
        "idem-dual.formula", "hat-transfer.central-image",
        "hat-transfer.size", "checkable-routes.dual-principal",
        "checkable-routes.dual-hat-ann"}


# ---------------------------------------------------------------------------
# the form-first producers against element sets

def form_table(alg):
    """<x, y> for every pair, from the ring's tables: the sum over g of
    x_g * y_g, for all pairs at once."""
    ring = alg.ring
    coeffs = alg.coeffs
    acc = np.zeros((alg.card, alg.card), dtype=np.int64)
    for g in range(alg.group.order):
        acc = ring.add[acc, ring.mul[coeffs[:, g, None], coeffs[None, :, g]]]
    return acc


def _image(card, elems):
    mask = np.zeros(card, dtype=bool)
    mask[elems] = True
    return mask


def assert_producers_match_the_definitions(alg, table, stride=1):
    """Each producer that keys a set by its form, on both censuses of a
    fresh copy of the algebra, against element sets from the product
    and form tables: the principal ideal of every `stride`-th element
    before the side's table exists (the row or column of u); the dual of
    each member, and of each dual that is no ideal, in its slot, with
    the side it keeps; both annihilators of each member; the involution
    image and, over a local ring, the residue image of each member,
    element by element; and the meets of each census."""
    alg = GroupAlgebra(alg.ring, alg.group)
    card, forms, zero = alg.card, form_table(alg), table == 0
    coeffs = alg.coeffs
    hat = np.array([alg.encode(cx[alg.group.inv]) for cx in coeffs])
    rm = residue_map(alg) if structure(alg.ring).is_local else None
    for side in ("right", "left"):
        images = table if side == "right" else table.T
        for u in range(0, card, stride):
            got = span(alg, [u], side)
            assert got.side == side
            assert np.array_equal(mask_of(got), _image(card, images[u]))
        assert side not in alg.principal_sets
    for side in ("right", "left"):
        census = enumerate_ideals(alg, side)
        duals = dual_code(census)
        bare = [d for d in duals if d.side is None]
        for c, d in zip(census + bare,
                        duals + (dual_code(bare) if bare else [])):
            pairing = forms.T if c.side == "left" else forms
            want = (pairing[:, mask_of(c)] == 0).all(axis=1)
            assert np.array_equal(mask_of(d), want)
            members = np.flatnonzero(want)
            right = want[table[members]].all()
            left = want[table[:, members]].all()
            assert d.side == (c.side if {"right": right, "left": left}.get(
                c.side) else None)
        for c, l, r, h in zip(census, annihilators(census, "left"),
                              annihilators(census, "right"),
                              hat_image(census)):
            assert (l.side, r.side) == ("left", "right")
            mask = mask_of(c)
            assert np.array_equal(mask_of(l), zero[:, mask].all(axis=1))
            assert np.array_equal(mask_of(r), zero[mask].all(axis=0))
            assert np.array_equal(mask_of(h), _image(card, hat[mask]))
        if rm is not None:
            for c, bar in zip(census, project_code(rm, census)):
                assert bar.side == side
                assert np.array_equal(mask_of(bar), _image(
                    rm.residue.card, rm.proj[mask_of(c)]))
        masks = np.array([mask_of(c) for c in census])
        assert np.array_equal(masks[meets(census, pair_sums(census))],
                              masks[:, None] & masks[None])


@pytest.mark.parametrize("name", _DESK + _LATTICE)
def test_form_first_producers_match_the_definitions(name):
    if name in _LATTICE:
        alg = _lattice_workspace(name).alg
        table = product_table(alg)
    else:
        alg = fixture_algebra(name)
        table, _ = _tables(name)
    assert_producers_match_the_definitions(alg, table)


@pytest.mark.parametrize("spec", _KEY_RINGS, ids=repr)
def test_form_first_producers_over_composite_moduli(spec):
    ring = build_ring(spec)
    group = max((g for g in map(build_group, _KEY_GROUPS)
                 if ring.card ** g.order <= 256), key=lambda g: g.order)
    alg = GroupAlgebra(ring, group)
    assert_producers_match_the_definitions(alg, product_table(alg))


@settings(max_examples=25, deadline=None, database=None)
@given(alg=_key_algebras())
def test_form_first_producers_of_drawn_algebras(alg):
    assert_producers_match_the_definitions(alg, product_table(alg),
                                           stride=max(1, alg.card // 32))


def _meets(codes):
    return meets(codes, pair_sums(codes))


def test_a_meet_outside_the_sets_is_refused():
    # F3C2's census is {0}, C, D and RG with C & D = {0}: without {0}
    # no set lies within both C and D, and the meets say so
    census = enumerate_ideals(fixture_algebra("f3c2"))
    assert [c.cardinality for c in census] == [1, 3, 3, 9]
    assert _meets(census).tolist() == [[0, 0, 0, 0], [0, 1, 0, 1],
                                       [0, 0, 2, 2], [0, 1, 2, 3]]
    with pytest.raises(ConstructionError, match="a meet is not among"):
        _meets(census[1:])
    # drop from Z4C2's census the meet M of some A and B, neither of them
    # and not {0}: {0} still lies within both, and the meets refuse it
    # by its size
    census = enumerate_ideals(fixture_algebra("z4c2"))
    at = _meets(census)
    k = len(census)
    m = next(at[i, j] for i in range(k) for j in range(k)
             if 0 < at[i, j] and at[i, j] not in (i, j))
    with pytest.raises(ConstructionError, match="a meet is not among"):
        _meets(census[:m] + census[m + 1:])


def _subsets(masks):
    """Whether row i of a mask stack lies within row j, for every (i, j)."""
    return ~(masks[:, None] & ~masks[None]).any(axis=-1)


def assert_lattice_reads_match_element_sets(ws):
    """Containment, meets and complementarity of the right census, read
    from its pair sums, and containment and sizes of sums of the duals,
    read from `Workspace.dual_sums`, against element sets; and
    `sum-meet`, which reads both tables, holds. Returns the number of
    duals outside the census, whose sums are reduced."""
    R = ws.right_ideals
    masks = np.array([mask_of(c) for c in R])
    assert np.array_equal(containment(ws.right_sums), _subsets(masks))
    assert np.array_equal(masks[meets(R, ws.right_sums)],
                          masks[:, None] & masks[None])
    assert ws.complementary.tolist() == _complementary(ws.alg.card, R)
    duals = [ws.dual(c) for c in R]
    masks = np.array([mask_of(d) for d in duals])
    sums, k = ws.dual_sums, len(R)
    assert np.array_equal(containment(sums), _subsets(masks))
    sizes = masks.sum(axis=1)
    # |Y + Z| = |Y| |Z| / |Y & Z|
    assert np.array_equal(
        ws.alg.subgroup_sizes(sums.reshape(k * k, -1)).reshape(k, k),
        np.outer(sizes, sizes) // (masks[:, None] & masks[None]).sum(axis=-1))
    law = dict((cid, fn) for cid, _, fn in LAW_TABLE)["dual-lattice.sum-meet"]
    assert law(ws)[0] == PASS
    return int((ws.positions(np.array([d.form for d in duals])) < 0).sum())


@st.composite
def _key_workspaces(draw):
    """The workspace of an algebra drawn as `_key_algebras` draws it."""
    ring = draw(st.one_of(st.sampled_from(_KEY_RINGS), rings))
    card = build_ring(ring).card
    group = draw(st.sampled_from([g for g in _KEY_GROUPS
                                  if card ** build_group(g).order <= 256]))
    return Workspace(build_instance(InstanceDescription(ring, group)))


@settings(max_examples=50, deadline=None, database=None)
@given(ws=_key_workspaces())
@example(ws=Workspace(build_instance(InstanceDescription(
    MatrixRing(2, Zmod(2)), CyclicGroup(2)))))
def test_lattice_reads_of_drawn_algebras(ws):
    # the example has noncommutative coefficients, and 12 of its 15
    # duals lie outside the census
    assert_lattice_reads_match_element_sets(ws)


@pytest.mark.parametrize("name, outside", [("m2f2c2", 12), ("ut2c1", 2),
                                           ("f2s3", 0), ("z4c3", 0)])
def test_sums_of_duals_outside_the_census_are_reduced(name, outside):
    assert assert_lattice_reads_match_element_sets(
        fixture_workspace(name)) == outside


# ---------------------------------------------------------------------------
# the ideal census is a lattice under sums

def _square_zero_algebra():
    """F2[x, y, z]/(x, y, z)^2 on the trivial group: its maximal ideal is
    the sum of three principal ideals and of no two, so the census
    needs a second round of sums."""
    digits = [[k >> i & 1 for i in range(4)] for k in range(16)]

    def mul(a, b):
        prod = [a[0] & b[0]] + [a[0] & b[i] ^ a[i] & b[0] for i in (1, 2, 3)]
        return sum(d << i for i, d in enumerate(prod))
    ring = TableRing((2, 2, 2, 2), tuple(tuple(mul(a, b) for b in digits)
                                         for a in digits), "F2[x,y,z]/m^2")
    return GroupAlgebra(build_ring(ring), build_group(CyclicGroup(1)))


def _census_algebra(name):
    return (_square_zero_algebra() if name == "square-zero"
            else fixture_algebra(name))


@functools.cache
def _naive_addition(name):
    """The full addition table of a desk algebra, coefficientwise with the
    ring's own addition on decoded coefficients."""
    alg = _census_algebra(name)
    coeffs = alg.coeffs
    return np.array([[alg.encode(map(lambda s, t: int(alg.ring.add[s, t]), cx, cy)) for cy in coeffs]
                     for cx in coeffs])


def _naive_sumset(add, a, b):
    total = np.zeros(len(add), dtype=bool)
    total[add[np.ix_(elements_of(a), elements_of(b))]] = True
    return total


@pytest.mark.parametrize("name", _DESK + ["square-zero"])
def test_census_is_closed_under_naive_sums(name):
    # the census found by sums of forms holds each naive sumset of two
    # members, and containment read from its pair sums is that of the
    # element sets
    alg = _census_algebra(name)
    assert alg.card <= DEFAULT_CENSUS_BOUND
    add = _naive_addition(name)
    for side in ("right", "left"):
        census = enumerate_ideals(alg, side)
        masks = [mask_of(c) for c in census]
        keys = {mask.tobytes() for mask in masks}
        inside = containment(pair_sums(census))
        for i, a in enumerate(census):
            for j, b in enumerate(census):
                total = _naive_sumset(add, a, b)
                assert total.tobytes() in keys
                # |A + B| |A & B| = |A| |B| for additive subgroups
                assert (int(total.sum()) * int((masks[i] & masks[j]).sum())
                        == a.cardinality * b.cardinality)
                assert inside[i, j] == (masks[i] <= masks[j]).all()


@pytest.mark.parametrize("name", _DESK)
def test_stacked_sumset_matches_naive_sums(name):
    # every ordered pair of right-ideal census members, and of their
    # duals as bare sets (over M2(Z2) a dual need not be an ideal), in
    # one batched sum of forms each; each sum enumerated from its form,
    # and the rows of its form, lifted back to RG, generate it
    alg = fixture_algebra(name)
    add = _naive_addition(name)
    census = enumerate_ideals(alg, "right")
    duals = [CodeSet(alg, d.form) for d in dual_code(census)]
    for stack in (census, duals):
        for a, row in zip(stack, pair_sums(stack)):
            for b, form in zip(stack, row):
                naive = _naive_sumset(add, a, b)
                assert np.array_equal(alg.subgroup_mask(form), naive)
                assert np.array_equal(_naive_closure(
                    add, alg.stacked_rows(form[None])[0]), naive)


def _naive_closure(add, gens):
    """The additive closure of gens, as a mask, by the addition table."""
    mask = np.arange(len(add)) == 0
    while True:
        grown = mask.copy()
        grown[add[np.flatnonzero(mask)][:, gens].ravel()] = True
        if np.array_equal(grown, mask):
            return mask
        mask = grown


# ---------------------------------------------------------------------------
# closed-form counts

def _cyclotomic_cosets(q, n):
    """The size of each orbit of k -> q*k on Z/n."""
    seen, sizes = set(), []
    for k in range(n):
        if k in seen:
            continue
        sizes.append(0)
        while k not in seen:
            seen.add(k)
            sizes[-1] += 1
            k = k * q % n
    return sizes


def _cyclicfixture_algebra(m, n):
    return GroupAlgebra(build_ring(Zmod(m)), build_group(CyclicGroup(n)))


@pytest.mark.parametrize("q, n", [(2, 5), (2, 7), (3, 4), (5, 3)])
def test_semisimple_cyclic_counts(q, n):
    # gcd(n, q) = 1: F_q C_n is a product of s fields, one per
    # q-cyclotomic coset mod n, so it has 2^s ideals and 2^s idempotents
    s = len(_cyclotomic_cosets(q, n))
    alg = _cyclicfixture_algebra(q, n)
    assert len(enumerate_ideals(alg, "right")) == 2 ** s
    assert len(enumerate_ideals(alg, "left")) == 2 ** s
    assert len(enumerate_idempotents(alg)) == 2 ** s


@pytest.mark.parametrize("n, ideals, idempotents", [(3, 9, 4), (5, 9, 4)])
def test_z4_cyclic_counts(n, ideals, idempotents):
    # n odd: Z4 C_n is a product of s Galois rings, each with the three
    # ideals 0, 2R, R, so 3^s ideals; idempotents lift from F2 C_n
    s = len(_cyclotomic_cosets(2, n))
    assert (3 ** s, 2 ** s) == (ideals, idempotents)
    alg = _cyclicfixture_algebra(4, n)
    assert len(enumerate_ideals(alg, "right", bound=alg.card)) == ideals
    assert len(enumerate_idempotents(alg)) == idempotents


def _gaussian(n, r, q):
    """The q-binomial [n choose r]_q, the number of r-dimensional
    subspaces of F_q^n."""
    return (math.prod(q ** n - q ** i for i in range(r))
            // math.prod(q ** r - q ** i for i in range(r)))


def _matrix_idempotents(n, q, radical):
    """Idempotents of M_n(A), A local with residue field F_q and a radical
    of `radical` elements: sum over the rank r of the image, a free
    summand of A^n, of q^(r(n-r)) [n choose r]_q |m|^(2r(n-r))."""
    return sum(q ** (r * (n - r)) * _gaussian(n, r, q)
               * radical ** (2 * r * (n - r)) for r in range(n + 1))


def _assert_census_counts(alg, ideals, idempotents):
    for side in ("right", "left"):
        assert len(enumerate_ideals(alg, side, bound=alg.card)) == ideals
    assert len(enumerate_idempotents(alg, bound=alg.card)) == idempotents


@pytest.mark.parametrize("k, frozen", [(1, (15, 26)), (2, (83, 386))])
def test_modular_matrix_block_counts(k, frozen):
    # M2(Z2)C_{2^k} = M2(A), A = F2 C_{2^k} = F2[t]/(t^m), m = 2^k, local
    # with residue field F2 and a radical of 2^(m-1) elements. By Morita
    # equivalence its right ideals are the A-submodules of A^2, which the
    # Hall polynomials count as the subgroups of (Z/2^m)^2: the sum of
    # gcd(a, b) over the divisors a, b of 2^m (Toth 2014). A is
    # commutative, so the left ideals are as many
    m = 2 ** k
    divisors = [2 ** i for i in range(m + 1)]
    ideals = sum(math.gcd(a, b) for a in divisors for b in divisors)
    idempotents = _matrix_idempotents(2, 2, 2 ** (m - 1))
    assert (ideals, idempotents) == frozen
    _assert_census_counts(GroupAlgebra(build_ring(MatrixRing(2, Zmod(2))),
                                       build_group(CyclicGroup(m))),
                          ideals, idempotents)


def test_semisimple_matrix_block_counts():
    # M2(Z2)C3 = M2(F2 C3) is the product of the blocks M2(F_Q), one per
    # 2-cyclotomic coset mod 3 of size d, Q = 2^d: M2(F2) x M2(F4). M_n(F_Q)
    # has sum_r [n choose r]_Q right ideals and sum_r Q^(r(n-r))
    # [n choose r]_Q idempotents, and the counts multiply over the blocks
    blocks = [2 ** d for d in _cyclotomic_cosets(2, 3)]
    ideals = math.prod(sum(_gaussian(2, r, q) for r in range(3))
                       for q in blocks)
    idempotents = math.prod(_matrix_idempotents(2, q, 1) for q in blocks)
    assert (ideals, idempotents) == (5 * 7, 8 * 22)
    _assert_census_counts(fixture_algebra("m2f2c3"), ideals, idempotents)


# ---------------------------------------------------------------------------
# the MacWilliams identity

def _weights(code):
    """The Hamming weight distribution of a set: how many of its elements
    have each number of nonzero group coefficients."""
    alg = code.alg
    weight = np.count_nonzero(alg.coeffs[elements_of(code)], axis=1)
    return np.bincount(weight, minlength=alg.group.order + 1).tolist()


def _macwilliams(a, s):
    """|C| times the weight distribution of dual(C) that the MacWilliams
    identity gives from the distribution a of C, over an alphabet of s
    symbols: the Krawtchouk transform of a."""
    n = len(a) - 1
    return [sum(a_i * sum((-1) ** l * (s - 1) ** (j - l) * math.comb(i, l)
                          * math.comb(n - i, j - l) for l in range(j + 1))
                for i, a_i in enumerate(a)) for j in range(n + 1)]


@pytest.mark.parametrize("name", _DESK + ["m2f2c3"] + _LATTICE)
def test_dual_weights_obey_macwilliams(name):
    # over a Frobenius ring the weight distribution of the dual of every
    # right and left ideal is the MacWilliams transform of the ideal's
    # (Wood 1999); over UT2(Z2), which is not Frobenius, 8 of its 14
    # ideals fail
    alg = (_lattice_workspace(name).alg if name in _LATTICE
           else fixture_algebra(name))
    codes = [c for side in ("right", "left")
             for c in enumerate_ideals(alg, side, bound=alg.card)]
    fails = sum(_macwilliams(_weights(c), alg.ring.card)
                != [c.cardinality * b for b in _weights(d)]
                for c, d in zip(codes, dual_code(codes)))
    if frobenius(alg.ring).status == "frobenius":
        assert fails == 0
    else:
        assert (name, fails, len(codes)) == ("ut2c1", 8, 14)


# ---------------------------------------------------------------------------
# relabelling invariance

def _relabelled_group(spec, perm):
    """The group as a Cayley table whose element a is renamed perm[a]."""
    g = build_group(spec)
    table = np.empty_like(g.mul)
    table[np.ix_(perm, perm)] = perm[g.mul]
    return CayleyGroup(tuple(map(tuple, table.tolist())), label=g.label)


def _relabelled_ring(spec, matrix):
    """The table ring with its elements moved by the additive automorphism
    c -> matrix @ c of their coordinate vectors (one modulus throughout)."""
    moduli, card = spec.moduli, len(spec.mul)
    m = moduli[0]
    weights = np.cumprod((1,) + moduli[:-1])
    coords = (np.arange(card)[:, None] // weights) % m
    phi = ((coords @ np.array(matrix).T) % m) @ weights
    assert sorted(phi) == list(range(card))
    mul = np.empty((card, card), dtype=np.int64)
    mul[np.ix_(phi, phi)] = phi[np.array(spec.mul)]
    return TableRing(moduli, tuple(map(tuple, mul.tolist())), spec.label)


def _statuses_and_counts(desc):
    """Each verify-all line with the place of its first failure dropped:
    indices of elements and ideals move under relabelling, counts do not."""
    report = verify_all(Workspace(build_instance(desc)))
    return [(l.check_id, l.status, re.sub(r"; first at .*", "", l.witness))
            for l in report.lines]


_AUTOMORPHISMS = {
    "f2x2c2": [[0, 1], [1, 1]],
    "ut2c1": [[0, 1, 1], [1, 0, 0], [0, 0, 1]],
}


@pytest.mark.parametrize("name", ["f2s3", "m2f2c2", "z4c3", "f2x2c2", "ut2c1"])
def test_verify_all_is_invariant_under_relabelling(name):
    desc = load_instance(fixture_path(name))
    desc = InstanceDescription(ring=desc.ring, group=desc.group)
    perm = np.arange(build_group(desc.group).order)[::-1]
    moved = desc._replace(group=_relabelled_group(desc.group, perm))
    if name in _AUTOMORPHISMS:
        moved = moved._replace(
            ring=_relabelled_ring(desc.ring, _AUTOMORPHISMS[name]))
    # the identity moves, so every element index changes meaning
    alg, other = (build_instance(d).algebra for d in (desc, moved))
    assert alg.one != other.one
    assert _statuses_and_counts(moved) == _statuses_and_counts(desc)


# ---------------------------------------------------------------------------
# coefficient rings: constants and element-set references

@settings(max_examples=60, deadline=None, database=None)
@given(spec=rings)
def test_constants_rebuild_every_drawn_table(spec):
    ring = build_ring(spec)
    assert np.array_equal(ring_tables(ring.moduli, ring.constants)[1], ring.mul)


def _reference_nilpotency(ring, radical):
    """The least f with J^f = 0, each J^f a Python set: the products
    J^(f-1) * J closed under addition one element at a time."""
    f, power = 1, set(radical)
    while power != {0}:
        span, work = {0}, [int(ring.mul[x, y]) for x in power for y in radical]
        while work:
            x = work.pop()
            if x not in span:
                work.extend([int(ring.add[x, s]) for s in span])
                span.add(x)
        power = span
        f += 1
        assert f <= ring.card
    return f


def _reference_quotient(ring, radical):
    """The residue field of a local ring one element at a time: cosets
    by an ascending scan, a greedy additive basis of Python sets, and
    each coordinate tuple summed out by repeated addition. Returns the
    moduli, table, identity, projection and lift."""
    rep_of = [-1] * ring.card
    reps = []
    for x in range(ring.card):
        if rep_of[x] < 0:
            for j in radical:
                rep_of[ring.add[x, j]] = x
            reps.append(x)
    p, acc = 1, rep_of[ring.one]
    while acc != 0:
        acc = rep_of[ring.add[acc, ring.one]]
        p += 1
    k = round(math.log(len(reps), p))
    assert p ** k == len(reps)
    basis, span = [], {0}
    for r in reps:
        if r not in span:
            basis.append(r)
            multiples, t = [], r
            while t != 0:
                multiples.append(t)
                t = rep_of[ring.add[t, r]]
            span |= {rep_of[ring.add[s, m]] for s in span for m in multiples}
    assert len(basis) == k
    index = {}
    for t in range(p ** k):
        elem, digits = 0, t
        for b in basis:
            for _ in range(digits % p):
                elem = rep_of[ring.add[elem, b]]
            digits //= p
        assert elem not in index
        index[elem] = t
    lift = sorted(index, key=index.get)
    table = [[index[rep_of[ring.mul[x, y]]] for y in lift] for x in lift]
    return ((p,) * k, table, index[rep_of[ring.one]],
            [index[rep_of[x]] for x in range(ring.card)], lift)


def _reference_frobenius(ring):
    """The first character in index order whose kernel holds no nonzero
    one-sided ideal, every element of R tried as a multiplier."""
    lcm = math.lcm(*ring.moduli)
    coords = np.array([ring.decode(x) for x in range(ring.card)], dtype=np.int64)
    steps = np.array([lcm // m for m in ring.moduli])
    for knum in map(ring.decode, range(ring.card)):
        hit = ((coords @ (np.array(knum) * steps)) % lcm != 0)[ring.mul]
        if hit.any(axis=0)[1:].all() and hit.any(axis=1)[1:].all():
            return "frobenius", knum
    return "not-frobenius", None


def assert_structure_matches_the_references(ring):
    st = structure(ring)
    radical = st.radical.tolist()
    assert st.nilpotency_index == _reference_nilpotency(ring, radical)
    assert tuple(frobenius(ring)) == _reference_frobenius(ring)
    if st.is_local:
        q = radical_quotient(ring)
        assert (q.ring.moduli, q.ring.mul.tolist(), q.ring.one,
                q.proj.tolist(), q.lift.tolist()) == _reference_quotient(
                    ring, radical)


@pytest.mark.parametrize("name", [n for n in FIXTURE_NAMES if "corrupt" not in n])
def test_structure_of_desk_rings_matches_the_references(name):
    assert_structure_matches_the_references(fixture_algebra(name).ring)


def test_structure_of_ut2_times_z32_matches_the_references():
    ut2 = fixture_algebra("ut2c1").ring.spec
    ring = build_ring(ProductRing((ut2, Zmod(32))))
    assert ring.card == 256 and frobenius(ring).status == "not-frobenius"
    assert_structure_matches_the_references(ring)


@settings(max_examples=40, deadline=None, database=None)
@given(spec=rings)
def test_structure_of_drawn_rings_matches_the_references(spec):
    assert_structure_matches_the_references(build_ring(spec))
