"""Ring construction, axiom audits, and structure queries.

Expected values below (unit sets, radicals, nilpotency indices,
character witnesses, specific products) were derived by hand from the
definitions and are frozen as oracles.
"""

import time

import numpy as np
import pytest

from glab.errors import ConstructionError, ScaleError
from glab.finring import (
    MatrixRing,
    PolyQuot,
    ProductRing,
    RadicalQuotient,
    TableRing,
    Zmod,
    _table,
    audit_ring,
    build_ring,
    frobenius,
    radical_quotient,
    spec_label,
    structure,
)

from desk import fixture_algebra


@pytest.fixture(scope="module")
def z4():
    return build_ring(Zmod(4))


@pytest.fixture(scope="module")
def f4():
    return build_ring(PolyQuot(2, (1, 1, 1)))


@pytest.fixture(scope="module")
def m2f2():
    return build_ring(MatrixRing(2, Zmod(2)))


# ---------------------------------------------------------------------------
# construction and codec

def test_zmod_rejects_small_modulus():
    with pytest.raises(ConstructionError):
        build_ring(Zmod(1))


def test_zmod_arithmetic(z4):
    assert z4.card == 4
    assert z4.one == 1
    assert int(z4.add[3, 2]) == 1
    assert int(z4.mul[3, 3]) == 1
    assert z4.add[1, z4.neg[3]] == 2
    assert list(z4.neg) == [0, 3, 2, 1]


def test_codec_roundtrip(m2f2):
    for x in range(m2f2.card):
        assert m2f2.encode(m2f2.decode(x)) == x


def test_encode_validates(z4):
    with pytest.raises(ValueError):
        z4.encode((4,))
    with pytest.raises(ValueError):
        z4.encode((1, 0))


def test_labels():
    assert spec_label(Zmod(4)) == "Z4"
    assert spec_label(PolyQuot(2, (1, 1, 1))) == "GF(4)"
    # past the table limit a field prints as a power
    assert spec_label(PolyQuot(2, (1,) * 13)) == "GF(4096)"
    assert spec_label(PolyQuot(2, (1,) * 14)) == "GF(2^13)"
    assert spec_label(PolyQuot(2, (1,) * 15001)) == "GF(2^15000)"
    assert spec_label(MatrixRing(2, Zmod(2))) == "M2(Z2)"
    assert spec_label(ProductRing((Zmod(2), Zmod(3)))) == "Z2xZ3"
    assert spec_label(RadicalQuotient(Zmod(4))) == "Z4/rad"


# ---------------------------------------------------------------------------
# polynomial quotient rings

def test_gf4_multiplication(f4):
    # basis order (1, x): x has index 2, x + 1 has index 3
    assert f4.card == 4
    assert int(f4.mul[2, 2]) == 3      # x^2 = x + 1
    assert int(f4.mul[2, 3]) == 1      # x(x + 1) = x^2 + x = 1
    audit_ring(f4)


def test_gf9_is_a_field():
    f9 = build_ring(PolyQuot(3, (1, 0, 1)))
    assert f9.card == 9
    assert len(structure(f9).units) == 8
    audit_ring(f9)


def _poly_times(a, b, mod, p):
    """a*b mod the monic modulus over Z/p, coefficients constant term
    first: schoolbook product, then x^k replaced by x^k - x^(k-deg)*mod
    from the top degree down."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = (prod[i + j] + x * y) % p
    deg = len(mod) - 1
    for k in range(len(prod) - 1, deg - 1, -1):
        for i, m in enumerate(mod):
            prod[k - deg + i] = (prod[k - deg + i] - prod[k] * m) % p
    return tuple(prod[:deg])


@pytest.mark.parametrize("p, mod, stride", [
    (2, (1, 1, 1), 1), (2, (1, 1, 0, 1), 1), (3, (1, 0, 1), 1),
    (5, (3, 0, 1), 1), (3, (1, 2, 0, 1), 1), (7, (1, 0, 1), 1),
    (13, (0, 1), 1), (2, (1, 1, 0, 1, 1, 0, 0, 0, 1), 7),
], ids=lambda v: repr(v) if isinstance(v, tuple) else str(v))
def test_polyquot_table_matches_polynomial_multiplication(p, mod, stride):
    # every row of GF(p^deg) up to GF(49), every 7th of GF(256)
    ring = build_ring(PolyQuot(p, mod))
    assert ring.card == p ** (len(mod) - 1)
    for x in range(0, ring.card, stride):
        row = [ring.decode(int(z)) for z in ring.mul[x]]
        assert row == [_poly_times(ring.decode(x), ring.decode(y), mod, p)
                       for y in range(ring.card)]


def test_polyquot_rejects_reducible():
    with pytest.raises(ConstructionError, match="reducible.*x \\+ 1"):
        build_ring(PolyQuot(2, (1, 0, 1)))  # x^2 + 1 = (x + 1)^2 over Z/2


def test_polyquot_rejects_composite_base():
    with pytest.raises(ConstructionError, match="not prime"):
        build_ring(PolyQuot(4, (1, 1, 1)))


def test_polyquot_rejects_constant_modulus_before_primality():
    # trial division would run to 10^15
    start = time.perf_counter()
    with pytest.raises(ConstructionError, match="degree at least 1"):
        build_ring(PolyQuot(10 ** 30 + 57, (1,)))
    assert time.perf_counter() - start < 1.0


def test_polyquot_rejects_non_monic():
    with pytest.raises(ConstructionError, match="monic"):
        build_ring(PolyQuot(3, (1, 1, 2)))


# ---------------------------------------------------------------------------
# matrix and product rings

def test_matrix_ring_product(m2f2):
    # [[1,1],[0,1]] * [[0,1],[1,0]] = [[1,1],[1,0]], row-major encoding
    assert m2f2.card == 16
    assert int(m2f2.mul[11, 6]) == 7
    assert int(m2f2.mul[6, 11]) == 14  # and the product is order dependent
    audit_ring(m2f2)


def _schoolbook_matrix(base, n):
    """The table of M_n(base) entry by entry: (xy)_il is the sum over j
    of x_ij * y_jl in the base ring's own tables. The entries of an
    index are its base-card digits, row-major, entry (0, 0) least
    significant."""
    card = base.card ** (n * n)
    idx = np.arange(card)
    ent = np.stack([idx // base.card ** e % base.card for e in range(n * n)],
                   axis=1)
    mul = np.zeros((card, card), dtype=np.int64)
    for i in range(n):
        for l in range(n):
            acc = np.zeros((card, card), dtype=np.int64)
            for j in range(n):
                acc = base.add[acc, base.mul[ent[:, None, i * n + j],
                                             ent[None, :, j * n + l]]]
            mul += acc * base.card ** (i * n + l)
    return mul


def _spec(name):
    if name == "f2x2c2":     # the chain ring Z2[t]/(t^2), a table ring
        return fixture_algebra(name).ring.spec
    return {"Z2": Zmod(2), "Z3": Zmod(3), "Z4": Zmod(4),
            "GF4": PolyQuot(2, (1, 1, 1)), "Z4/rad": RadicalQuotient(Zmod(4)),
            "Z9/rad": RadicalQuotient(Zmod(9)), "M2(Z2)": MatrixRing(2, Zmod(2)),
            "ut2c1": fixture_algebra("ut2c1").ring.spec}[name]


@pytest.mark.parametrize("n, base", [
    (2, "Z4"), (3, "Z2"), (2, "GF4"), (2, "f2x2c2"), (2, "Z4/rad"), (1, "Z3"),
])
def test_matrix_table_matches_the_schoolbook_product(n, base):
    ring = build_ring(MatrixRing(n, _spec(base)))
    assert np.array_equal(ring.mul, _schoolbook_matrix(build_ring(_spec(base)), n))


@pytest.mark.parametrize("factors", [
    ("Z2", "Z3"), ("Z4", "GF4"), ("M2(Z2)", "Z3"), ("f2x2c2", "Z3", "Z2"),
    ("Z9/rad", "Z4"), ("ut2c1", "Z4/rad"), ("M2(Z2)", "f2x2c2"),
])
def test_product_table_multiplies_factor_by_factor(factors):
    ring = build_ring(ProductRing(tuple(map(_spec, factors))))
    idx = np.arange(ring.card)
    place = 1
    for part in (build_ring(_spec(f)) for f in factors):
        digit = idx // place % part.card
        assert np.array_equal(ring.mul // place % part.card,
                              part.mul[digit[:, None], digit[None, :]])
        place *= part.card
    assert place == ring.card


@pytest.mark.parametrize("m", [2, 6, 12, 97, 1000])
def test_zmod_table_is_integer_multiplication(m):
    idx = np.arange(m)
    assert np.array_equal(build_ring(Zmod(m)).mul, np.outer(idx, idx) % m)


@pytest.mark.parametrize("name", ["f2x2c2", "ut2c1", "Z4/rad", "Z9/rad"])
def test_given_tables_are_their_constants(name):
    # table rings and radical quotients keep their tables; the constants
    # read off them rebuild the same table
    ring = build_ring(_spec(name))
    assert np.array_equal(_table(ring.moduli, ring.constants), ring.mul)


def test_product_ring_componentwise():
    pr = build_ring(ProductRing((Zmod(2), Zmod(3))))
    assert pr.card == 6
    assert pr.one == pr.encode((1, 1))
    x = pr.encode((1, 2))
    assert int(pr.mul[x, x]) == pr.encode((1, 1))
    audit_ring(pr)


# ---------------------------------------------------------------------------
# explicit tables and the axiom audit

def test_table_ring_chain():
    ch = fixture_algebra("f2x2c2").ring
    assert ch.one == 1
    assert int(ch.mul[2, 2]) == 0
    st = structure(ch)
    assert list(st.units) == [1, 3]
    assert list(st.radical) == [0, 2]
    assert st.nilpotency_index == 2
    assert st.is_local


def test_table_ring_rejects_bad_shape():
    with pytest.raises(ConstructionError, match="must be 4x4"):
        build_ring(TableRing((2, 2), ((0, 0), (0, 1))))


def test_table_ring_rejects_out_of_range():
    mul = tuple(tuple(9 for _ in range(4)) for _ in range(4))
    with pytest.raises(ConstructionError, match="out of range"):
        build_ring(TableRing((2, 2), mul))


def test_table_ring_rejects_missing_identity():
    mul = tuple(tuple(0 for _ in range(4)) for _ in range(4))
    with pytest.raises(ConstructionError, match="no identity"):
        build_ring(TableRing((2, 2), mul))


def test_audit_catches_broken_distributivity():
    bad = [list(r) for r in ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 0, 2), (0, 3, 2, 1))]
    bad[3][3] = 2
    with pytest.raises(ConstructionError, match="distributivity"):
        build_ring(TableRing((2, 2), tuple(tuple(r) for r in bad)))


def test_audit_catches_broken_associativity():
    # commutative f(x,y) with identity that fails associativity:
    # 3*3 = 3 while (3*3)*2 would need consistency across the table
    bad = [
        [0, 0, 0, 0],
        [0, 1, 2, 3],
        [0, 2, 0, 2],
        [0, 3, 2, 2],
    ]
    with pytest.raises(ConstructionError):
        build_ring(TableRing((2, 2), tuple(tuple(r) for r in bad)))


def test_audit_scale_gate(m2f2):
    with pytest.raises(ScaleError):
        build_ring(TableRing((2,) * 9, tuple(tuple(0 for _ in range(512))
                                             for _ in range(512))))


# ---------------------------------------------------------------------------
# units, radical, locality

def test_z4_structure(z4):
    st = structure(z4)
    assert list(st.units) == [1, 3]
    assert list(st.radical) == [0, 2]
    assert st.nilpotency_index == 2
    assert st.is_local
    assert structure(z4) is st  # cached


def test_z8_structure():
    st = structure(build_ring(Zmod(8)))
    assert list(st.units) == [1, 3, 5, 7]
    assert list(st.radical) == [0, 2, 4, 6]
    assert st.nilpotency_index == 3
    assert st.is_local


def test_z6_not_local():
    z6 = build_ring(Zmod(6))
    st = structure(z6)
    assert list(st.units) == [1, 5]
    assert list(st.radical) == [0]
    assert not st.is_local


def test_matrix_ring_structure(m2f2):
    st = structure(m2f2)
    assert len(st.units) == 6
    assert list(st.radical) == [0]
    assert st.nilpotency_index == 1
    assert not st.is_local


def test_upper_triangular_structure():
    ut = fixture_algebra("ut2c1").ring
    st = structure(ut)
    assert ut.one == 5
    assert list(st.units) == [5, 7]
    assert list(st.radical) == [0, 2]
    assert not st.is_local


# ---------------------------------------------------------------------------
# generating characters

def test_z4_character(z4):
    v = frobenius(z4)
    assert v.status == "frobenius"
    assert v.character == (1,)


def test_field_and_matrix_characters(f4, m2f2):
    assert frobenius(f4).status == "frobenius"
    assert frobenius(m2f2).status == "frobenius"
    assert frobenius(build_ring(ProductRing((Zmod(2), Zmod(2))))).status == "frobenius"


def test_upper_triangular_has_no_generating_character():
    v = frobenius(fixture_algebra("ut2c1").ring)
    assert v.status == "not-frobenius"
    assert v.character is None
    assert v.status != "undecided"


def test_frobenius_bound_gives_undecided(m2f2):
    v = frobenius(m2f2, bound=8)
    assert v.status == "undecided"


# ---------------------------------------------------------------------------
# radical quotients

def test_z4_residue_field(z4):
    q = radical_quotient(z4)
    assert q.ring is not z4
    assert q.ring.card == 2
    assert list(q.proj) == [0, 1, 0, 1]
    assert list(q.lift) == [0, 1]
    assert q.ring.one == 1


@pytest.mark.parametrize("spec", [Zmod(2), Zmod(3), Zmod(5), Zmod(4093),
                                  PolyQuot(2, (1, 1, 1)),
                                  PolyQuot(3, (2, 2, 1))])
def test_field_is_its_own_residue_field(spec):
    field = build_ring(spec)
    q = radical_quotient(field)
    assert q.ring is field
    same = np.arange(field.card)
    assert np.array_equal(q.proj, same) and np.array_equal(q.lift, same)


def test_chain_residue_field():
    q = radical_quotient(fixture_algebra("f2x2c2").ring)
    assert q.ring.card == 2
    assert list(q.proj) == [0, 1, 0, 1]


def test_z9_residue_field():
    q = radical_quotient(build_ring(Zmod(9)))
    assert q.ring.card == 3
    # projection must be a ring map onto Z/3
    base = build_ring(Zmod(9))
    for x in range(base.card):
        for y in range(base.card):
            assert q.proj[base.mul[x, y]] == int(q.ring.mul[q.proj[x], q.proj[y]])


def test_residue_requires_local(m2f2):
    with pytest.raises(ConstructionError, match="local"):
        radical_quotient(m2f2)


def test_residue_spec_buildable():
    r = build_ring(RadicalQuotient(Zmod(4)))
    assert r.card == 2
    assert r.label == "Z4/rad"


# ---------------------------------------------------------------------------
# randomized cross-checks

def test_random_products_audit():
    rng = np.random.default_rng(9173)
    pool = [Zmod(2), Zmod(3), Zmod(4), PolyQuot(2, (1, 1, 1))]
    for _ in range(6):
        pair = rng.choice(len(pool), size=2, replace=True)
        ring = build_ring(ProductRing((pool[pair[0]], pool[pair[1]])))
        audit_ring(ring)
        st = structure(ring)
        # units of a product are the componentwise unit pairs
        n_units = 1
        for k in pair:
            n_units *= len(structure(build_ring(pool[k])).units)
        assert len(st.units) == n_units


def test_unit_product_closed(z4, m2f2):
    for ring in (z4, m2f2, fixture_algebra("ut2c1").ring):
        st = structure(ring)
        um = st.unit_mask
        prods = ring.mul[np.ix_(st.units, st.units)]
        assert um[prods].all()
