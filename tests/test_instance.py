"""Instance file parsing, canonical serialization, digests, building."""

import re
import time
from pathlib import Path

import pytest

from glab.errors import ConstructionError, ParseError, ScaleError
from glab.finring import MatrixRing, TableRing, Zmod
from glab.grp import CayleyGroup, CyclicGroup, SymmetricGroup
from glab.instance import (ElemDef, IdealDef, InstanceDescription,
                           build_instance, format_instance, instance_digest,
                           load_instance, parse_instance)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

BASIC = """
# a comment
ring = zmod(4)
group = cyclic(2)

elem e = [3, 1]
ideal C = span_right(e)
bound = 4096
"""


def test_parse_basic():
    d = parse_instance(BASIC)
    assert d.ring == Zmod(4)
    assert d.group == CyclicGroup(2)
    assert d.elems == (ElemDef("e", (3, 1)),)
    assert d.ideals == (IdealDef("C", "right", ("e",)),)
    assert d.bound == 4096 and d.census_bound is None


def test_round_trip():
    d = parse_instance(BASIC)
    assert parse_instance(format_instance(d)) == d


def test_build_basic():
    b = build_instance(parse_instance(BASIC))
    assert b.algebra.label == "Z4C2"
    assert b.elems["e"] == 7
    assert b.ideals["C"].cardinality == 4
    assert b.ideals["C"].side == "right"
    assert b.bound == 4096


def test_bound_precedence():
    b = build_instance(parse_instance(BASIC), bound=99, census_bound=17)
    assert b.bound == 99 and b.census_bound == 17


def test_compound_coefficients():
    text = ("ring = matrix(2, zmod(2))\ngroup = cyclic(2)\n"
            "elem p = [(1, 0, 0, 0), (0, 0, 0, 0)]\n"
            "ideal C = span_right(p)\n")
    d = parse_instance(text)
    assert d.ring == MatrixRing(2, Zmod(2))
    b = build_instance(d)
    assert b.elems["p"] == 1 and b.ideals["C"].cardinality == 16
    assert parse_instance(format_instance(d)) == d


def test_table_ring_and_cayley_round_trip():
    text = ('ring = table([2, 2], [[0, 0, 0, 0], [0, 1, 2, 3], '
            '[0, 2, 0, 2], [0, 3, 2, 1]], "Z2[t]/(t^2)")\n'
            'group = cayley([[0, 1], [1, 0]], "C2")\n')
    d = parse_instance(text)
    assert isinstance(d.ring, TableRing) and d.ring.label == "Z2[t]/(t^2)"
    assert isinstance(d.group, CayleyGroup)
    assert parse_instance(format_instance(d)) == d
    assert build_instance(d).algebra.label == "Z2[t]/(t^2)C2"


def test_nested_specs_round_trip():
    text = ("ring = product(zmod(2), matrix(2, zmod(3)))\n"
            "group = product(cyclic(2), symmetric(3))\n")
    d = parse_instance(text)
    assert parse_instance(format_instance(d)) == d


def test_radical_quotient_spec():
    d = parse_instance("ring = radical_quotient(zmod(4))\ngroup = cyclic(3)\n")
    b = build_instance(d)
    assert b.algebra.ring.card == 2


@pytest.mark.parametrize("text,message", [
    ("group = cyclic(2)\n", "no ring line"),
    ("ring = zmod(4)\n", "no group line"),
    ("ring = zmod(4)\ngroup = cyclic(2)\nring = zmod(2)\n", "defined twice"),
    ("ring = zmod(4)\ngroup = cyclic(2)\nfoo = 3\n", "unknown key"),
    ("ring = zmod(4)\ngroup = cyclic(2)\nelem e = [1, 1]\nelem e = [1, 1]\n",
     "defined twice"),
    ("ring = zmod(4)\ngroup = cyclic(2)\nideal C = span_right(x)\n",
     "undefined element"),
    ("ring = zmod(4)\ngroup = cyclic(2)\nelem e = [1, 1]\n"
     "ideal C = span_up(e)\n", "span_right"),
    ("ring = quaternion(8)\ngroup = cyclic(2)\n", "unknown ring kind"),
    ("ring = zmod(4)\ngroup = braid(3)\n", "unknown group kind"),
    ("ring = zmod(4)\ngroup = cyclic(2)\nbound = 0\n", "must be positive"),
    ("ring = zmod(4) zmod(2)\ngroup = cyclic(2)\n", "trailing"),
    ("ring = zmod(4)\ngroup = cyclic(2)\nelem e = [1 1]\n", "expected"),
    ("just words\n", "expected 'key = value'"),
])
def test_parse_errors(text, message):
    with pytest.raises(ParseError, match=message):
        parse_instance(text)


@pytest.mark.parametrize("text,message", [
    ("ring = zmod(4)\ngroup = cyclic(2)\nelem e = [1, 1, 1]\n",
     "group order"),
    ("ring = zmod(4)\ngroup = cyclic(2)\nelem e = [9, 0]\n", "out of range"),
    ("ring = matrix(2, zmod(2))\ngroup = cyclic(2)\nelem e = [1, 0]\n",
     "tuples"),
    ("ring = zmod(4)\ngroup = cyclic(2)\nelem e = [(1, 2), (0, 0)]\n",
     "coordinates"),
])
def test_build_errors(text, message):
    with pytest.raises(ParseError, match=message):
        build_instance(parse_instance(text))


def test_digest_frozen_and_canonical():
    d = load_instance(str(FIXTURES / "f2c2.glab"))
    assert instance_digest(d) == (
        "d56a5777c7bbf9b20593223f8cf8fba5ed0dcfab9700c7b49cfaa8032578037d")
    assert instance_digest(load_instance(str(FIXTURES / "m2f2c2.glab"))) == (
        "ea7a3b9f4590ce998a9ea058217ed01a9db7d8cb9c596d70de17908db3943551")
    # comments and spacing do not change the digest; content does
    stripped = parse_instance(format_instance(d))
    assert instance_digest(stripped) == instance_digest(d)
    other = InstanceDescription(ring=d.ring, group=d.group, bound=7)
    assert instance_digest(other) != instance_digest(d)


def test_every_fixture_file_round_trips():
    paths = sorted(FIXTURES.glob("*.glab"))
    assert len(paths) == 11
    for path in paths:
        d = load_instance(str(path))
        assert parse_instance(format_instance(d)) == d
        if "corrupt" in path.name:
            with pytest.raises(ConstructionError, match="not associative"):
                build_instance(d)
        else:
            build_instance(d)


def test_fixture_files_name_expected_objects():
    b = build_instance(load_instance(str(FIXTURES / "z4c3.glab")))
    assert b.algebra.label == "Z4C3"
    assert b.elems == {"c": 22, "d": 63}
    assert b.ideals["C"].cardinality == 16 and b.ideals["D"].cardinality == 4
    ut = build_instance(load_instance(str(FIXTURES / "ut2c1.glab")))
    assert ut.algebra.ring.label == "UT2(Z2)" and ut.algebra.group.order == 1


@pytest.mark.parametrize("ring, group", [
    ("zmod(2)", "cyclic(1000000)"),     # a 10^12-entry Cayley table
    ("zmod(2)", "dihedral(3000)"),      # an O(n^2) Python loop
    # 101^8 elements; x^8 + 3 is irreducible over Z/101, so a factor
    # search run first would try all 10^8 monic quartics
    ("polyquot(101, [3, 0, 0, 0, 0, 0, 0, 0, 1])", "cyclic(1)"),
    # three 4096^2 factor tables before the product's size was known
    ("product(zmod(4096), zmod(4096), zmod(4096))", "cyclic(1)"),
    ("matrix(12, zmod(2))", "cyclic(1)"),     # a 44-digit size
])
def test_oversized_specs_rejected_before_allocation(ring, group):
    d = parse_instance(f"ring = {ring}\ngroup = {group}\n")
    start = time.perf_counter()
    with pytest.raises(ScaleError, match="exceeds the"):
        build_instance(d)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("ring, size", [
    ("product(zmod(4096), zmod(4096), zmod(4096))", "4096^3"),
    ("matrix(12, zmod(2))", "2^144"),
    ("product(zmod(3), matrix(12, zmod(2)), zmod(2))", "3 * 2^145"),
    ("polyquot(101, [3, 0, 0, 0, 0, 0, 0, 0, 1])", "101^8"),
    ("zmod(5000)", "5000"),
])
def test_ring_size_errors_print_powers(ring, size):
    d = parse_instance(f"ring = {ring}\ngroup = cyclic(1)\n")
    with pytest.raises(ScaleError, match=re.escape(f": {size} elements exceeds")):
        build_instance(d)
