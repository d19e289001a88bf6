"""Group algebra arithmetic: convolution, involution, bilinear form.

Hand-convolved expected values are frozen as oracles; structural
identities are property-tested with seeded randomness, and the
commutative-only identities are asserted only on commutative base
rings.
"""

from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import glab.galg
from glab.errors import ConstructionError, ScaleError
from glab.finring import MatrixRing, PolyQuot, Zmod, build_ring
from glab.galg import GroupAlgebra, residue_map
from glab.grp import CyclicGroup, SymmetricGroup, build_group
from glab.instance import build_instance, load_instance
from glab.verify import Workspace, verify_all

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


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
            ar = alg.add(a, np.arange(alg.card))
            for x in rng.integers(0, alg.card, 25):
                x = int(x)
                assert mr[x] == alg.mul(a, x)
                assert mc[x] == alg.mul(x, a)
                assert ar[x] == alg.add(a, x)


def test_rows_are_the_transposed_columns(f2s3, m2c2):
    rng = np.random.default_rng(46)
    for alg in (f2s3, m2c2):
        rows = np.stack([alg.mul_row(a) for a in alg.elements])
        cols = np.stack([alg.mul_col(b) for b in alg.elements])
        assert np.array_equal(rows, cols.T)
        for a, x in rng.integers(0, alg.card, (40, 2)):
            assert rows[a, x] == cols[x, a] == alg.mul(int(a), int(x))


def test_maps_are_stored_read_only(z4c3):
    for get in (z4c3.mul_row, z4c3.mul_col):
        m = get(17)
        assert get(17) is m
        assert not m.flags.writeable
        with pytest.raises(ValueError):
            m[0] = 1


def _verify_all_on(name):
    ws = Workspace(build_instance(load_instance(str(FIXTURES / f"{name}.glab"))))
    return [(l.check_id, l.status, l.witness) for l in verify_all(ws).lines]


def test_each_map_is_computed_once_per_run(monkeypatch):
    misses = Counter()
    product = GroupAlgebra._product

    def counting(self, cx, cy):
        # a map is the product of one element with the whole index space
        if cx.ndim == 1 and cy is self.coeffs:
            misses[(self.label, "row", self.encode(cx))] += 1
        elif cy.ndim == 1 and cx is self.coeffs:
            misses[(self.label, "col", self.encode(cy))] += 1
        return product(self, cx, cy)
    monkeypatch.setattr(GroupAlgebra, "_product", counting)
    _verify_all_on("z4c3")
    # both sides of the algebra are reached, and rows of its residue algebra
    assert {(label, side) for label, side, _ in misses} == {
        ("Z4C3", "row"), ("Z4C3", "col"), ("Z4/radC3", "row")}
    assert set(misses.values()) == {1}


def test_zero_budget_stores_nothing(monkeypatch):
    expected = _verify_all_on("m2f2c2")
    kept = make(MatrixRing(2, Zmod(2)), CyclicGroup(2))
    monkeypatch.setattr(glab.galg, "MAP_MEMO_BYTES", 0)
    assert _verify_all_on("m2f2c2") == expected
    alg = make(MatrixRing(2, Zmod(2)), CyclicGroup(2))
    for a in alg.elements:
        assert np.array_equal(alg.mul_row(a), kept.mul_row(a))
        assert np.array_equal(alg.mul_col(a), kept.mul_col(a))
    assert alg.mul_row(5) is not alg.mul_row(5)
    assert not alg.mul_row(5).flags.writeable
    assert alg._rows == {} and alg._cols == {} and alg._memo_bytes == 0


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
    for x in f3c2.elements:
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
    for x in f3c2.elements:
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
    assert f3c2.form(f3c2.encode((1, 1)), f3c2.encode((2, 1))) == 0
    assert f3c2.form(f3c2.encode((1, 0)), f3c2.encode((1, 0))) == 1


def test_form_on_basis(f2s3):
    for g in range(f2s3.group.order):
        for h in range(f2s3.group.order):
            v = f2s3.form(f2s3.basis_elem(g), f2s3.basis_elem(h))
            assert v == (f2s3.ring.one if g == h else 0)


def test_form_biadditive(z4c3):
    rng = np.random.default_rng(48)
    for _ in range(40):
        a, b, c = (int(v) for v in rng.integers(0, z4c3.card, 3))
        lhs = z4c3.form(z4c3.add(a, b), c)
        rhs = z4c3.ring.a(z4c3.form(a, c), z4c3.form(b, c))
        assert lhs == rhs


def test_form_g_invariant(f2s3, m2c2):
    rng = np.random.default_rng(49)
    for alg in (f2s3, m2c2):
        for _ in range(20):
            a, b = (int(v) for v in rng.integers(0, alg.card, 2))
            for g in range(alg.group.order):
                g_elem = alg.basis_elem(g)
                assert alg.form(alg.mul(a, g_elem),
                                alg.mul(b, g_elem)) == alg.form(a, b)


def test_form_nondegenerate(f3c2, f2s3):
    for alg in (f3c2, f2s3):
        for a in alg.elements:
            if a == 0:
                continue
            hits = [b for g in range(alg.group.order)
                    for b in (alg.basis_elem(g),)
                    if alg.form(a, b) != 0]
            assert hits, f"{alg.label}: {alg.text(a)} orthogonal to everything"


def test_adjoint_identity_commutative_ring(f2s3, z4c3):
    # <ab, c> = <b, hat(a) c>; needs commuting coefficients
    rng = np.random.default_rng(50)
    for alg in (f2s3, z4c3):
        for _ in range(40):
            a, b, c = (int(v) for v in rng.integers(0, alg.card, 3))
            lhs = alg.form(alg.mul(a, b), c)
            rhs = alg.form(b, alg.mul(alg.hat(a), c))
            assert lhs == rhs


def test_hat_row_identity_any_ring(m2c2, f2s3):
    # (hat(a) c)_g = <a, c g^-1> holds with no commutativity assumption
    rng = np.random.default_rng(51)
    for alg in (m2c2, f2s3):
        for _ in range(25):
            a, c = (int(v) for v in rng.integers(0, alg.card, 2))
            prod = alg.mul(alg.hat(a), c)
            for g in range(alg.group.order):
                cg = alg.mul(c, alg.basis_elem(alg.group.i(g)))
                assert alg.decode(prod)[g] == alg.form(a, cg)


def test_form_rows_match(f2s3):
    rng = np.random.default_rng(52)
    for a in rng.integers(0, f2s3.card, 3):
        a = int(a)
        fr, fc = f2s3.form_row(a), f2s3.form_col(a)
        for x in rng.integers(0, f2s3.card, 25):
            x = int(x)
            assert fr[x] == f2s3.form(a, x)
            assert fc[x] == f2s3.form(x, a)


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
    assert rm.reduce(z4c3.encode((2, 1, 1))) == rm.residue.encode((0, 1, 1))
    assert rm.reduce(z4c3.encode((2, 2, 0))) == 0
    assert rm.raise_least(rm.residue.encode((0, 1, 1))) == z4c3.encode((0, 1, 1))


def test_residue_map_is_ring_hom(z4c3):
    rm = residue_map(z4c3)
    rng = np.random.default_rng(53)
    for _ in range(100):
        a, b = (int(v) for v in rng.integers(0, z4c3.card, 2))
        assert rm.reduce(z4c3.mul(a, b)) == rm.residue.mul(rm.reduce(a),
                                                           rm.reduce(b))
        assert rm.reduce(z4c3.add(a, b)) == rm.residue.add(rm.reduce(a),
                                                           rm.reduce(b))


def test_residue_requires_local(m2c2):
    with pytest.raises(ConstructionError):
        residue_map(m2c2)
