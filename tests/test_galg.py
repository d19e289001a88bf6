"""Group algebra arithmetic: convolution, involution, bilinear form.

Hand-convolved expected values are frozen as oracles; structural
identities are property-tested with seeded randomness, and the
commutative-only identities are asserted only on commutative base
rings.
"""

from collections import Counter

import numpy as np
import pytest

from glab.errors import ConstructionError, ScaleError
from glab.finring import MatrixRing, PolyQuot, Zmod, build_ring
from glab.cli import main
from glab.galg import GroupAlgebra, residue_map
from glab.grp import CyclicGroup, SymmetricGroup, build_group
from glab.verify import verify_all

from desk import fixture_path, fixture_workspace


def _pair(alg, x, y):
    """<x, y> = sum over g of x_g * y_g, from the algebra's form kernel."""
    return int(alg._form(alg.coeffs[x], alg.coeffs[y]))


def make(ring_spec, group_spec):
    return GroupAlgebra(build_ring(ring_spec), build_group(group_spec))


@pytest.fixture(scope="module")
def f2c2():
    return make(Zmod(2), CyclicGroup(2))


@pytest.fixture(scope="module")
def f3c2():
    return make(Zmod(3), CyclicGroup(2))


@pytest.fixture(scope="module")
def z4c3():
    return make(Zmod(4), CyclicGroup(3))


@pytest.fixture(scope="module")
def f2s3():
    return make(Zmod(2), SymmetricGroup(3))


@pytest.fixture(scope="module")
def m2c2():
    return make(MatrixRing(2, Zmod(2)), CyclicGroup(2))


# ---------------------------------------------------------------------------
# construction and codec

def test_cardinality_and_codec(z4c3):
    assert z4c3.card == 64
    assert z4c3.one == z4c3.encode((1, 0, 0))
    for x in (0, 1, 17, 63):
        assert z4c3.encode(z4c3.decode(x)) == x


def test_encode_validation(f2c2):
    with pytest.raises(ValueError):
        f2c2.encode((1,))
    with pytest.raises(ValueError):
        f2c2.encode((2, 0))


def test_scale_cap():
    with pytest.raises(ScaleError):
        make(PolyQuot(2, (1, 1, 1)), SymmetricGroup(4))  # 4^24 elements


def test_monomials(f2s3):
    g = f2s3.basis_elem(2)
    assert f2s3.decode(g)[2] == 1
    assert sum(f2s3.decode(g)) == 1
    s = f2s3.scalar_elem(1)
    assert s == f2s3.one


def test_text(z4c3):
    assert z4c3.text(z4c3.encode((2, 1, 1))) == "2 + g + g^2"
    assert z4c3.text(0) == "0"
    assert z4c3.text(z4c3.one) == "1"


# ---------------------------------------------------------------------------
# convolution oracles

def test_char2_square(f2c2):
    x = f2c2.encode((1, 1))
    assert f2c2.mul(x, x) == 0


def test_z4c3_square(z4c3):
    y = z4c3.encode((0, 1, 1))
    assert z4c3.mul(y, y) == z4c3.encode((2, 1, 1))


def test_identity_acts_trivially(z4c3):
    rng = np.random.default_rng(41)
    for x in rng.integers(0, z4c3.card, 20):
        x = int(x)
        assert z4c3.mul(z4c3.one, x) == x
        assert z4c3.mul(x, z4c3.one) == x


def test_convolution_associative(f2s3, m2c2):
    rng = np.random.default_rng(42)
    for alg in (f2s3, m2c2):
        for _ in range(60):
            a, b, c = (int(v) for v in rng.integers(0, alg.card, 3))
            assert alg.mul(alg.mul(a, b), c) == alg.mul(a, alg.mul(b, c))


def test_noncommutative_order_matters(m2c2):
    r = m2c2.ring
    a = m2c2.scalar_elem(r.encode((0, 1, 0, 0)))  # E12
    b = m2c2.scalar_elem(r.encode((0, 0, 1, 0)))  # E21
    assert m2c2.mul(a, b) != m2c2.mul(b, a)


def test_distributes(f2s3):
    rng = np.random.default_rng(43)
    for _ in range(40):
        a, b, c = (int(v) for v in rng.integers(0, f2s3.card, 3))
        assert f2s3.mul(a, f2s3.add(b, c)) == f2s3.add(f2s3.mul(a, b),
                                                       f2s3.mul(a, c))
        assert f2s3.mul(f2s3.add(a, b), c) == f2s3.add(f2s3.mul(a, c),
                                                       f2s3.mul(b, c))


def test_sub_and_one_minus(z4c3):
    x = z4c3.encode((2, 1, 1))
    assert z4c3.add(z4c3.sub(z4c3.one, x), x) == z4c3.one
    assert z4c3.one_minus(x) == z4c3.encode((3, 3, 3))


# ---------------------------------------------------------------------------
# vectorized rows agree with scalar ops

def test_rows_match_scalar_ops(z4c3, f2s3):
    rng = np.random.default_rng(44)
    for alg in (z4c3, f2s3):
        for a in rng.integers(0, alg.card, 4):
            a = int(a)
            mr, mc = alg.mul_row(a), alg.mul_col(a)
            ar, sc = alg.add(a, np.arange(alg.card)), alg.sub(np.arange(alg.card), a)
            for x in rng.integers(0, alg.card, 25):
                x = int(x)
                assert mr[x] == alg.mul(a, x)
                assert mc[x] == alg.mul(x, a)
                assert ar[x] == alg.add(a, x)
                assert sc[x] == alg.sub(x, a)


def test_rows_are_the_transposed_columns(f2s3, m2c2):
    rng = np.random.default_rng(46)
    for alg in (f2s3, m2c2):
        rows = np.stack([alg.mul_row(a) for a in range(alg.card)])
        cols = np.stack([alg.mul_col(b) for b in range(alg.card)])
        assert np.array_equal(rows, cols.T)
        for a, x in rng.integers(0, alg.card, (40, 2)):
            assert rows[a, x] == cols[x, a] == alg.mul(int(a), int(x))


def _count_products(monkeypatch):
    """The rows (a*x for every x) and columns (x*a) the product kernel
    computes, by (algebra, "row" or "col", a)."""
    products = Counter()
    product = GroupAlgebra._product

    def counting(self, cx, cy):
        # a map is the product of one element with the whole index space
        if cx.ndim == 1 and cy is self.coeffs:
            products[(self.label, "row", self.encode(cx))] += 1
        elif cy.ndim == 1 and cx is self.coeffs:
            products[(self.label, "col", self.encode(cy))] += 1
        return product(self, cx, cy)
    monkeypatch.setattr(GroupAlgebra, "_product", counting)
    return products


def test_each_map_is_computed_once_per_run(monkeypatch):
    # the units' maps are kept, so each is one product per side and
    # run; every other map is one product per call. On Z4C3 the others
    # are the full-map audits of `central`: 0 and 1 once, and the two
    # central parts of 1, 22 and 63, at each centrality check of the
    # certificates and once for the blocks, which the block-intersection
    # law decides for all right ideals; `principal` keys a span by its
    # form, and a side check keys the ideal the rows of a form
    # generate, so neither computes a map
    misses = _count_products(monkeypatch)
    ws = fixture_workspace("z4c3")
    verify_all(ws)
    alg = ws.alg
    # both sides of the algebra are reached; no law spans an ideal of the
    # residue algebra, so none of its maps is computed
    assert {(label, side) for label, side, _ in misses} == {
        ("Z4C3", "row"), ("Z4C3", "col")}
    fixed = set(alg.trivial_units)
    assert sorted((side, a, n) for (_, side, a), n in misses.items()
                  if a not in fixed or n > 1) == [
        ("col", 0, 1), ("col", 1, 2), ("col", 22, 2), ("col", 63, 2),
        ("row", 0, 1), ("row", 1, 2), ("row", 22, 2), ("row", 63, 2)]
    # one product of 1 is its kept map; every kept map is computed, and
    # the map of the scalar 2, the one generator that is no unit, is not
    assert {(side, a) for (_, side, a) in misses if a in fixed} == {
        (side, a) for side in ("row", "col") for a in fixed}
    assert not {a for _, _, a in misses} & (set(alg.generators) - fixed)


def test_checkable_census_computes_one_map_per_orbit(monkeypatch, capsys):
    # M2(Z2)C3 has 18 trivial units and 54 orbits T*u*T, one of them the
    # units; without gathered maps the command computed 1,789 maps, and
    # with one ordered principal pass per side 18 + 53 per side. The
    # principal ideals, the check elements and the annihilators now come
    # from canonical forms, with no map of their own, and so does the
    # side check of the duals (the ideal the rows of a form generate):
    # what is left are the kept maps, once each, the units' rows and
    # columns, which find the orbits' least elements
    products = _count_products(monkeypatch)
    assert main(["checkable", "census", fixture_path("m2f2c3"),
                 "--census-bound", "5000"]) == 1
    assert "checkable-census.code-checkable  true" in capsys.readouterr().out
    rows = sum(side == "row" for _, side, _ in products)
    assert (rows, len(products) - rows) == (18, 18)
    assert set(products.values()) == {1}


def test_maps_hold_indices_past_uint16(monkeypatch):
    monkeypatch.setenv("GLAB_MAX_ELEMS", "131072")
    alg = make(Zmod(2), CyclicGroup(17))
    top = alg.card - 1
    assert alg.mul_row(top)[1] == alg.mul(top, 1) == 131071
    g = alg.basis_elem(1)
    row, col = alg.mul_row(g), alg.mul_col(g)
    # translation by a group element permutes all 2^17 indices
    assert np.array_equal(np.sort(row), np.arange(alg.card))
    for x in (65536, 65537, 99999, 131070):
        assert row[x] == alg.mul(g, x) and col[x] == alg.mul(x, g)


def test_square_all(f3c2):
    sq = f3c2.square_all()
    for x in range(f3c2.card):
        assert sq[x] == f3c2.mul(x, x)


def test_translate_right(f2s3):
    # x * g moves the coefficient at h to position h*g
    rng = np.random.default_rng(45)
    for _ in range(25):
        x = int(rng.integers(f2s3.card))
        g = int(rng.integers(f2s3.group.order))
        perm = f2s3.group.mul[:, f2s3.group.inv[g]]
        moved = f2s3.encode(np.array(f2s3.decode(x))[perm])
        assert f2s3.mul(x, f2s3.basis_elem(g)) == moved


# ---------------------------------------------------------------------------
# involution

def test_hat_on_self_inverse_group(f3c2):
    for x in range(f3c2.card):
        assert f3c2.hat(x) == x


def test_hat_swaps_c3_generators():
    f2c3 = make(Zmod(2), CyclicGroup(3))
    g, g2 = f2c3.basis_elem(1), f2c3.basis_elem(2)
    assert f2c3.hat(g) == g2
    assert f2c3.hat(g2) == g


def test_hat_involution_and_table(f2s3):
    ha = f2s3.hat_all()
    assert np.array_equal(ha[ha], np.arange(f2s3.card))
    rng = np.random.default_rng(46)
    for x in rng.integers(0, f2s3.card, 30):
        assert ha[int(x)] == f2s3.hat(int(x))


def test_hat_antimultiplicative_over_commutative_ring(f2s3):
    # requires commuting coefficients; the base ring here is a field
    rng = np.random.default_rng(47)
    for _ in range(60):
        a, b = (int(v) for v in rng.integers(0, f2s3.card, 2))
        assert f2s3.hat(f2s3.mul(a, b)) == f2s3.mul(f2s3.hat(b), f2s3.hat(a))


# ---------------------------------------------------------------------------
# bilinear form

def test_form_oracle(f3c2):
    assert _pair(f3c2, f3c2.encode((1, 1)), f3c2.encode((2, 1))) == 0
    assert _pair(f3c2, f3c2.encode((1, 0)), f3c2.encode((1, 0))) == 1


def test_form_on_basis(f2s3):
    for g in range(f2s3.group.order):
        for h in range(f2s3.group.order):
            v = _pair(f2s3, f2s3.basis_elem(g), f2s3.basis_elem(h))
            assert v == (f2s3.ring.one if g == h else 0)


def test_form_biadditive(z4c3):
    rng = np.random.default_rng(48)
    for _ in range(40):
        a, b, c = (int(v) for v in rng.integers(0, z4c3.card, 3))
        lhs = _pair(z4c3, z4c3.add(a, b), c)
        rhs = int(z4c3.ring.add[_pair(z4c3, a, c), _pair(z4c3, b, c)])
        assert lhs == rhs


def test_form_g_invariant(f2s3, m2c2):
    rng = np.random.default_rng(49)
    for alg in (f2s3, m2c2):
        for _ in range(20):
            a, b = (int(v) for v in rng.integers(0, alg.card, 2))
            for g in range(alg.group.order):
                g_elem = alg.basis_elem(g)
                assert _pair(alg, alg.mul(a, g_elem),
                                alg.mul(b, g_elem)) == _pair(alg, a, b)


def test_form_nondegenerate(f3c2, f2s3):
    for alg in (f3c2, f2s3):
        for a in range(alg.card):
            if a == 0:
                continue
            hits = [b for g in range(alg.group.order)
                    for b in (alg.basis_elem(g),)
                    if _pair(alg, a, b) != 0]
            assert hits, f"{alg.label}: {alg.text(a)} orthogonal to everything"


def test_adjoint_identity_commutative_ring(f2s3, z4c3):
    # <ab, c> = <b, hat(a) c>; needs commuting coefficients
    rng = np.random.default_rng(50)
    for alg in (f2s3, z4c3):
        for _ in range(40):
            a, b, c = (int(v) for v in rng.integers(0, alg.card, 3))
            lhs = _pair(alg, alg.mul(a, b), c)
            rhs = _pair(alg, b, alg.mul(alg.hat(a), c))
            assert lhs == rhs


def test_hat_row_identity_any_ring(m2c2, f2s3):
    # (hat(a) c)_g = <a, c g^-1> holds with no commutativity assumption
    rng = np.random.default_rng(51)
    for alg in (m2c2, f2s3):
        for _ in range(25):
            a, c = (int(v) for v in rng.integers(0, alg.card, 2))
            prod = alg.mul(alg.hat(a), c)
            for g in range(alg.group.order):
                cg = alg.mul(c, alg.basis_elem(int(alg.group.inv[g])))
                assert alg.decode(prod)[g] == _pair(alg, a, cg)


def test_form_rows_match(f2s3):
    # the form kernel broadcasts one element against the whole index
    # space in either slot, as the duals' pairing matrices read it
    rng = np.random.default_rng(52)
    for a in rng.integers(0, f2s3.card, 3):
        a = int(a)
        fr = f2s3._form(f2s3.coeffs[a], f2s3.coeffs)
        fc = f2s3._form(f2s3.coeffs, f2s3.coeffs[a])
        for x in rng.integers(0, f2s3.card, 25):
            x = int(x)
            assert fr[x] == _pair(f2s3, a, x)
            assert fc[x] == _pair(f2s3, x, a)


# ---------------------------------------------------------------------------
# centrality

def test_center_members(f3c2, m2c2):
    assert f3c2.is_central(f3c2.encode((1, 2)))  # commutative algebra
    assert m2c2.is_central(m2c2.one)
    assert m2c2.is_central(0)


def test_non_central_matrix_scalar(m2c2):
    e11 = m2c2.scalar_elem(m2c2.ring.encode((1, 0, 0, 0)))
    assert not m2c2.is_central(e11)


def test_central_sum_of_group_orbit():
    f2s3 = make(Zmod(2), SymmetricGroup(3))
    # sum over a full conjugacy class is central: the three transpositions
    orders = [f2s3.group.names[k] for k in range(6)]
    transpositions = [k for k, n in enumerate(orders) if len(n) == 5]
    x = 0
    for k in transpositions:
        x = f2s3.add(x, f2s3.basis_elem(k))
    assert f2s3.is_central(x)


# ---------------------------------------------------------------------------
# residue reduction

def test_residue_map_z4c3(z4c3):
    rm = residue_map(z4c3)
    assert rm.residue.card == 8
    assert int(rm.proj[z4c3.encode((2, 1, 1))]) == rm.residue.encode((0, 1, 1))
    assert int(rm.proj[z4c3.encode((2, 2, 0))]) == 0
    assert int(rm.lift[rm.residue.encode((0, 1, 1))]) == z4c3.encode((0, 1, 1))


def test_residue_map_is_ring_hom(z4c3):
    rm = residue_map(z4c3)
    rng = np.random.default_rng(53)
    for _ in range(100):
        a, b = (int(v) for v in rng.integers(0, z4c3.card, 2))
        assert int(rm.proj[z4c3.mul(a, b)]) == rm.residue.mul(int(rm.proj[a]),
                                                           int(rm.proj[b]))
        assert int(rm.proj[z4c3.add(a, b)]) == rm.residue.add(int(rm.proj[a]),
                                                           int(rm.proj[b]))


def test_residue_requires_local(m2c2):
    with pytest.raises(ConstructionError):
        residue_map(m2c2)
