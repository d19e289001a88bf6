"""Oracles that share no code with the group-algebra kernels.

The product and the form are recomputed here from their definitions,
out_g = sum over hk = g of x_h * y_k and <x, y> = sum over g of
x_g * y_g, with the ring's scalar operations on decoded coefficients.
Every map the algebra exposes is compared against them. Ideal and
idempotent counts of semisimple and Galois-ring group algebras are
compared against closed forms from cyclic-code theory.
"""

from pathlib import Path

import numpy as np
import pytest

from glab.finring import Zmod, build_ring
from glab.galg import GroupAlgebra
from glab.grp import CyclicGroup, build_group
from glab.ideals import enumerate_ideals
from glab.idem import enumerate_idempotents
from glab.instance import build_instance, load_instance

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _algebra(name):
    return build_instance(load_instance(str(FIXTURES / f"{name}.glab"))).algebra


class Oracle:
    """Products and forms of RG from the definitions, one element at a time."""

    def __init__(self, alg):
        self.alg = alg
        self.ring = alg.ring
        n = alg.group.order
        self.pairs = [(h, k, alg.group.m(h, k)) for h in range(n) for k in range(n)]
        self.coeffs = [alg.decode(x) for x in alg.elements]

    def product(self, x, y):
        cx, cy = self.coeffs[x], self.coeffs[y]
        out = [0] * self.alg.group.order
        for h, k, g in self.pairs:
            out[g] = self.ring.a(out[g], self.ring.m(cx[h], cy[k]))
        return self.alg.encode(out)

    def form(self, x, y):
        acc = 0
        for a, b in zip(self.coeffs[x], self.coeffs[y]):
            acc = self.ring.a(acc, self.ring.m(a, b))
        return acc


_DESK = [p.stem for p in sorted(FIXTURES.glob("*.glab"))
         if "corrupt" not in p.name and p.stem != "m2f2c3"]


@pytest.mark.parametrize("name", _DESK)
def test_every_map_matches_the_definition(name):
    alg = _algebra(name)
    assert alg.card <= 256
    orc = Oracle(alg)
    every = list(alg.elements)
    table = np.array([[orc.product(x, y) for y in every] for x in every])
    forms = np.array([[orc.form(x, y) for y in every] for x in every])
    assert np.array_equal(alg.square_all(), np.diagonal(table))
    rng = np.random.default_rng(61)
    for x in every:
        assert np.array_equal(alg.mul_row(x), table[x])
        assert np.array_equal(alg.mul_col(x), table[:, x])
        assert np.array_equal(alg.form_row(x), forms[x])
        assert np.array_equal(alg.form_col(x), forms[:, x])
        assert alg.is_central(x) == bool(np.array_equal(table[x], table[:, x]))
        for y in rng.integers(0, alg.card, 4):
            assert alg.mul(x, int(y)) == table[x, y]
            assert alg.form(x, int(y)) == forms[x, y]


def test_strided_maps_of_m2f2c3_match_the_definition():
    alg = _algebra("m2f2c3")
    orc = Oracle(alg)
    every = list(alg.elements)
    square = alg.square_all()
    for a in range(5, alg.card, 409):
        row = [orc.product(a, y) for y in every]
        col = [orc.product(x, a) for x in every]
        assert np.array_equal(alg.mul_row(a), row)
        assert np.array_equal(alg.mul_col(a), col)
        assert np.array_equal(alg.form_row(a), [orc.form(a, y) for y in every])
        assert np.array_equal(alg.form_col(a), [orc.form(x, a) for x in every])
        assert alg.is_central(a) == (row == col)
        assert square[a] == row[a] == alg.mul(a, a)


# ---------------------------------------------------------------------------
# closed-form counts

def _cyclotomic_cosets(q, n):
    """Number of orbits of k -> q*k on Z/n."""
    seen, count = set(), 0
    for k in range(n):
        if k in seen:
            continue
        count += 1
        while k not in seen:
            seen.add(k)
            k = k * q % n
    return count


def _cyclic_algebra(m, n):
    return GroupAlgebra(build_ring(Zmod(m)), build_group(CyclicGroup(n)))


@pytest.mark.parametrize("q, n", [(2, 5), (2, 7), (3, 4), (5, 3)])
def test_semisimple_cyclic_counts(q, n):
    # gcd(n, q) = 1: F_q C_n is a product of s fields, one per
    # q-cyclotomic coset mod n, so it has 2^s ideals and 2^s idempotents
    s = _cyclotomic_cosets(q, n)
    alg = _cyclic_algebra(q, n)
    assert len(enumerate_ideals(alg, "right")) == 2 ** s
    assert len(enumerate_ideals(alg, "left")) == 2 ** s
    assert len(enumerate_idempotents(alg)) == 2 ** s


@pytest.mark.parametrize("n, ideals, idempotents", [(3, 9, 4), (5, 9, 4)])
def test_z4_cyclic_counts(n, ideals, idempotents):
    # n odd: Z4 C_n is a product of s Galois rings, each with the three
    # ideals 0, 2R, R, so 3^s ideals; idempotents lift from F2 C_n
    s = _cyclotomic_cosets(2, n)
    assert (3 ** s, 2 ** s) == (ideals, idempotents)
    alg = _cyclic_algebra(4, n)
    assert len(enumerate_ideals(alg, "right", bound=alg.card)) == ideals
    assert len(enumerate_idempotents(alg)) == idempotents
