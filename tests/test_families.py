"""Property tests over the built-in ring and group families.

Only explicit `table(...)` and `cayley(...)` input is audited when it
is built; the families below are built by construction code. Here
hypothesis draws small instances of every family, at most 256
elements each, and audits them in full: the ring axioms, addition as
the coordinatewise sum of the decoded coordinates, negation, the
element codec and the size worked out from the spec; for groups the
group axioms.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from glab.finring import (MatrixRing, PolyQuot, ProductRing, RadicalQuotient,
                          Zmod, _size, audit_ring, build_ring)
from glab.grp import (CyclicGroup, DihedralGroup, ProductGroup, SymmetricGroup,
                      audit_group, build_group)

LIMIT = 256

# monic irreducible moduli, constant term first
_IRREDUCIBLE = [
    (2, (1, 1)), (2, (1, 1, 1)), (2, (1, 1, 0, 1)), (2, (1, 0, 1, 1)),
    (2, (1, 1, 0, 0, 1)), (3, (2, 1)), (3, (1, 0, 1)), (3, (2, 1, 1)),
    (3, (1, 2, 0, 1)), (5, (3, 1)), (5, (2, 0, 1)), (7, (1, 0, 1)),
    (11, (0, 1)), (13, (5, 1)),
]


def _card(spec) -> int:
    """|R| from the spec, for the specs whose size is exact."""
    size, exact = _size(spec)
    assert exact
    return math.prod(b ** e for b, e in size.items())


zmods = st.integers(2, 64).map(Zmod)
fields = st.sampled_from(_IRREDUCIBLE).map(lambda pm: PolyQuot(*pm))
# local rings: Z/p^k and the fields
locals_ = st.one_of(st.sampled_from([4, 8, 9, 16, 25, 27, 32, 49]).map(Zmod),
                    fields)
matrices = st.one_of(
    st.builds(MatrixRing, st.just(1), st.one_of(zmods, fields)),
    st.builds(MatrixRing, st.just(2),
              st.sampled_from([Zmod(2), Zmod(3), Zmod(4), PolyQuot(2, (1, 1, 1))])))
radical_quotients = st.builds(RadicalQuotient, locals_)
atoms = st.one_of(zmods, fields, matrices)
products = st.lists(st.one_of(atoms, radical_quotients), min_size=1, max_size=3).map(
    lambda fs: ProductRing(tuple(fs)))


def _small(spec) -> bool:
    if isinstance(spec, RadicalQuotient):
        return _card(spec.base) <= LIMIT
    if isinstance(spec, ProductRing):
        return math.prod(build_ring(f).card for f in spec.factors) <= LIMIT
    return _card(spec) <= LIMIT


rings = st.one_of(zmods, fields, matrices, radical_quotients, products).filter(_small)


@settings(max_examples=60, deadline=None, database=None)
@given(spec=rings)
def test_every_ring_family_satisfies_the_axioms(spec):
    ring = build_ring(spec)
    audit_ring(ring)
    coords, moduli = ring.coords.astype(np.int64), np.array(ring.moduli)
    # addition is the coordinatewise sum of the decoded coordinates
    total = (coords[:, None, :] + coords[None, :, :]) % moduli
    assert np.array_equal(coords[ring.add], total)
    assert (ring.add[np.arange(ring.card), ring.neg] == 0).all()
    assert all(ring.encode(ring.decode(x)) == x for x in range(ring.card))
    if _size(spec)[1]:
        assert ring.card == _card(spec)


cyclics = st.integers(1, 64).map(CyclicGroup)
dihedrals = st.integers(1, 32).map(DihedralGroup)
symmetrics = st.integers(1, 4).map(SymmetricGroup)
group_atoms = st.one_of(cyclics, dihedrals, symmetrics)
product_groups = st.lists(group_atoms, min_size=1, max_size=3).map(
    lambda fs: ProductGroup(tuple(fs))).filter(
    lambda g: math.prod(build_group(f).order for f in g.factors) <= LIMIT)


@settings(max_examples=100, deadline=None, database=None)
@given(spec=st.one_of(group_atoms, product_groups))
def test_every_group_family_satisfies_the_axioms(spec):
    audit_group(build_group(spec))
