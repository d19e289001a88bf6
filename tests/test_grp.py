"""Group construction and audits."""

import numpy as np
import pytest

from glab.errors import ConstructionError, ScaleError
from glab.grp import (
    CayleyGroup,
    CyclicGroup,
    DihedralGroup,
    ProductGroup,
    SymmetricGroup,
    audit_group,
    build_group,
    group_label,
)


def _orders(group):
    """Multiplicative order of every element, by repeated products."""
    out = []
    for x in range(group.order):
        k, acc = 1, x
        while acc != group.identity:
            acc, k = int(group.mul[acc, x]), k + 1
        out.append(k)
    return sorted(out)


def test_cyclic_basics():
    c4 = build_group(CyclicGroup(4))
    audit_group(c4)
    assert c4.order == 4
    assert c4.identity == 0
    assert int(c4.mul[3, 2]) == 1
    assert int(c4.inv[1]) == 3
    assert c4.names == ["e", "g", "g^2", "g^3"]
    assert np.array_equal(c4.mul, c4.mul.T)


def test_cyclic_rejects_nonpositive():
    with pytest.raises(ConstructionError):
        build_group(CyclicGroup(0))


def test_dihedral_relations():
    d4 = build_group(DihedralGroup(4))
    audit_group(d4)
    assert d4.order == 8
    r, s = 1, 4
    assert int(d4.mul[s, s]) == d4.identity
    # s r s = r^(-1)
    assert int(d4.mul[d4.mul[s, r], s]) == int(d4.inv[r])
    assert not np.array_equal(d4.mul, d4.mul.T)


def test_symmetric_composition():
    s3 = build_group(SymmetricGroup(3))
    audit_group(s3)
    assert s3.order == 6
    # right factor applies first: (1 2) after (1 2 3) fixes point 1
    swap12 = s3.names.index("(1 2)")
    rot = s3.names.index("(1 2 3)")
    assert s3.names[s3.mul[swap12, rot]] == "(2 3)"
    assert s3.names[s3.mul[rot, swap12]] == "(1 3)"
    assert _orders(s3) == [1, 2, 2, 2, 3, 3]


def test_symmetric_degree_gate():
    with pytest.raises(ConstructionError):
        build_group(SymmetricGroup(5))
    s4 = build_group(SymmetricGroup(4))
    audit_group(s4)
    assert s4.order == 24


def test_product_group():
    g = build_group(ProductGroup((CyclicGroup(2), CyclicGroup(3))))
    audit_group(g)
    assert g.order == 6
    assert np.array_equal(g.mul, g.mul.T)
    assert _orders(g) == [1, 2, 3, 3, 6, 6]


def test_cayley_roundtrip_and_audit():
    s3 = build_group(SymmetricGroup(3))
    table = tuple(tuple(int(v) for v in row) for row in s3.mul)
    g = build_group(CayleyGroup(table, label="tbl"))
    assert g.identity == 0
    assert np.array_equal(g.mul, s3.mul)


def test_cayley_rejects_broken_tables():
    with pytest.raises(ConstructionError, match="square"):
        build_group(CayleyGroup(((0, 1),)))
    with pytest.raises(ConstructionError, match="out of range"):
        build_group(CayleyGroup(((0, 1), (1, 5))))
    with pytest.raises(ConstructionError, match="no identity"):
        build_group(CayleyGroup(((0, 0), (0, 0))))
    # identity and inverses exist but (1*1)*2 differs from 1*(1*2)
    bad = (
        (0, 1, 2),
        (1, 0, 0),
        (2, 0, 0),
    )
    with pytest.raises(ConstructionError, match="associative"):
        build_group(CayleyGroup(bad))


def test_cayley_scale_gate():
    n = 300
    table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    with pytest.raises(ScaleError):
        build_group(CayleyGroup(table))


def test_labels():
    assert group_label(CyclicGroup(6)) == "C6"
    assert group_label(DihedralGroup(4)) == "D4"
    assert group_label(SymmetricGroup(3)) == "S3"
    assert group_label(ProductGroup((CyclicGroup(2), CyclicGroup(2)))) == "C2xC2"


def test_inversion_table():
    for spec in (CyclicGroup(5), DihedralGroup(4), SymmetricGroup(4)):
        g = build_group(spec)
        e = g.identity
        for x in range(g.order):
            assert int(g.mul[x, g.inv[x]]) == e
            assert int(g.mul[g.inv[x], x]) == e
