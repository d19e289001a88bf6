"""Instance file parsing, canonical serialization, digests, building."""

import hashlib
import importlib
import re
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import glab
from glab.errors import ConstructionError, ParseError, ScaleError
from glab.finring import MatrixRing, RadicalQuotient, TableRing, Zmod
from glab.grp import (CayleyGroup, CyclicGroup, DihedralGroup,
                      SymmetricGroup)
from glab.instance import (ElemDef, IdealDef, InstanceDescription,
                           build_instance, format_instance, instance_digest,
                           load_instance, parse_instance)

from desk import FIXTURE_NAMES, FIXTURES, fixture_instance, fixture_path
from test_families import group_atoms, product_groups, rings

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


def test_specs_of_different_kinds_are_unequal():
    assert Zmod(4) != CyclicGroup(4) and not Zmod(4) == CyclicGroup(4)
    assert DihedralGroup(3) != CyclicGroup(3) != SymmetricGroup(3)
    assert Zmod(4) != (4,) and (4,) != Zmod(4)
    assert Zmod(4) == Zmod(4) and hash(Zmod(4)) == hash(Zmod(4))
    assert len({Zmod(4), CyclicGroup(4), (4,)}) == 3
    d = parse_instance(BASIC)
    assert d != d._replace(ring=CyclicGroup(4))


def test_round_trip_keeps_each_spec_kind():
    text = ("ring = product(zmod(2), matrix(2, zmod(3)), "
            "radical_quotient(zmod(4)))\n"
            "group = product(cyclic(2), dihedral(3), symmetric(3))\n")
    d = parse_instance(text)
    back = parse_instance(format_instance(d))
    assert back == d
    assert [type(f) for f in back.ring.factors] == [
        Zmod, MatrixRing, RadicalQuotient]
    assert [type(f) for f in back.group.factors] == [
        CyclicGroup, DihedralGroup, SymmetricGroup]


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
    d = load_instance(fixture_path("f2c2"))
    assert instance_digest(d) == (
        "d56a5777c7bbf9b20593223f8cf8fba5ed0dcfab9700c7b49cfaa8032578037d")
    assert instance_digest(load_instance(fixture_path("m2f2c2"))) == (
        "ea7a3b9f4590ce998a9ea058217ed01a9db7d8cb9c596d70de17908db3943551")
    # comments and spacing do not change the digest; content does
    stripped = parse_instance(format_instance(d))
    assert instance_digest(stripped) == instance_digest(d)
    other = InstanceDescription(ring=d.ring, group=d.group, bound=7)
    assert instance_digest(other) != instance_digest(d)


# ---------------------------------------------------------------------------
# the digest against hashlib's SHA-256, which glab does not load

INSTANCE_FILES = [fixture_path(name) for name in FIXTURE_NAMES] + sorted(
    str(p) for p in (FIXTURES.parent / "perfbench" / "instances").glob("*.glab"))


def _hashlib_digest(desc):
    return hashlib.sha256(format_instance(desc).encode()).hexdigest()


def test_digest_matches_hashlib_on_every_instance_file():
    assert len(INSTANCE_FILES) == 15
    for path in INSTANCE_FILES:
        d = load_instance(path)
        assert instance_digest(d) == _hashlib_digest(d)


# a description need not build: the digest reads only its text
_labels = st.text(max_size=12)
_rows = st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99)),
                 max_size=4).map(tuple)
_names = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,5}", fullmatch=True)
_coeffs = st.one_of(st.integers(0, 999),
                    st.tuples(st.integers(0, 9), st.integers(0, 9)))
descriptions = st.builds(
    InstanceDescription,
    ring=st.one_of(rings, st.builds(TableRing, st.lists(
        st.integers(2, 9), min_size=1, max_size=3).map(tuple), _rows, _labels)),
    group=st.one_of(group_atoms, product_groups,
                    st.builds(CayleyGroup, _rows, _labels)),
    elems=st.lists(st.builds(ElemDef, _names, st.lists(_coeffs, max_size=4).map(
        tuple)), max_size=3).map(tuple),
    ideals=st.lists(st.builds(IdealDef, _names, st.sampled_from(["right", "left"]),
                              st.lists(_names, max_size=3).map(tuple)),
                    max_size=2).map(tuple),
    bound=st.none() | st.integers(0, 10 ** 9),
    census_bound=st.none() | st.integers(0, 10 ** 9))


# what a string token of the syntax cannot hold, from the grammar:
# quotes and backslashes, '#' (a comment) and the line breaks of
# str.splitlines
_UNCARRIED = set('"\\#\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029')


def _labels_of(desc):
    return [spec.label for spec in (desc.ring, desc.group)
            if isinstance(spec, (TableRing, CayleyGroup))]


def _carried(desc):
    return not any(set(label) & _UNCARRIED for label in _labels_of(desc))


@settings(max_examples=60, deadline=None, database=None)
@given(desc=descriptions)
def test_digest_matches_hashlib_on_drawn_descriptions(desc):
    # a label the instance syntax cannot carry is refused, by name
    if not _carried(desc):
        with pytest.raises(ParseError, match="label .* cannot be written"):
            instance_digest(desc)
        return
    assert instance_digest(desc) == _hashlib_digest(desc)


_round_trips = st.builds(
    InstanceDescription,
    ring=st.builds(TableRing, st.lists(st.integers(2, 9), min_size=1,
                                       max_size=3).map(tuple), _rows, _labels),
    group=st.builds(CayleyGroup, _rows, _labels),
    elems=st.just(()), ideals=st.just(()),
    bound=st.none() | st.integers(1, 10 ** 9),
    census_bound=st.none() | st.integers(1, 10 ** 9))


@settings(max_examples=60, deadline=None, database=None)
@given(desc=_round_trips, bad=st.sampled_from(sorted(_UNCARRIED)))
def test_labels_round_trip_or_are_refused(desc, bad):
    # parse(format(d)) == d, or the text is refused naming a label; one
    # label is spliced with a character the syntax cannot carry
    for d in (desc, desc._replace(group=desc.group._replace(
            label=desc.group.label + bad))):
        try:
            text = format_instance(d)
        except ParseError as exc:
            assert not _carried(d)
            assert any(repr(label) in str(exc) for label in _labels_of(d))
            continue
        assert _carried(d) and parse_instance(text) == d


def test_labels_that_would_collide_are_refused():
    # two different descriptions whose labels, written verbatim, gave
    # one text and so one digest: a quote and a line break in a label
    # moved text from the group's label into the ring's
    table, cayley = ((2,), ((0, 0), (0, 1))), ((0,),)
    first = InstanceDescription(
        ring=TableRing(*table, label="a"),
        group=CayleyGroup(cayley, label='x")\ngroup = cayley([[0]], "y'))
    second = InstanceDescription(
        ring=TableRing(*table, label='a")\ngroup = cayley([[0]], "x'),
        group=CayleyGroup(cayley, label="y"))
    assert first != second
    for desc in (first, second):
        with pytest.raises(ParseError, match="label .* cannot be written"):
            instance_digest(desc)


def test_digest_falls_back_to_hashlib(monkeypatch):
    # with CPython's built-in SHA-256 modules made unimportable, a fresh
    # import of glab.instance takes hashlib's, and the digests stay the
    # same; monkeypatch puts the module imported before back afterwards
    for name in ("_sha2", "_sha256"):
        monkeypatch.setitem(sys.modules, name, None)
    before = glab.instance
    monkeypatch.delitem(sys.modules, "glab.instance")
    monkeypatch.setattr(glab, "instance", before)
    fresh = importlib.import_module("glab.instance")
    assert fresh is not before and fresh.sha256 is hashlib.sha256
    table = parse_instance(
        'ring = table([2, 2], [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 0, 2], '
        '[0, 3, 2, 1]], "Z2[t]/(t^2)")\ngroup = cayley([[0, 1], [1, 0]], "C2")\n')
    for d in [table] + [load_instance(path) for path in INSTANCE_FILES]:
        assert fresh.instance_digest(d) == instance_digest(d) == _hashlib_digest(d)


def test_every_fixture_file_round_trips():
    assert len(FIXTURE_NAMES) == 11
    for name in FIXTURE_NAMES:
        d = load_instance(fixture_path(name))
        assert parse_instance(format_instance(d)) == d
        if "corrupt" in name:
            with pytest.raises(ConstructionError, match="not associative"):
                build_instance(d)
        else:
            build_instance(d)


def test_fixture_files_name_expected_objects():
    b = fixture_instance("z4c3")
    assert b.algebra.label == "Z4C3"
    assert b.elems == {"c": 22, "d": 63}
    assert b.ideals["C"].cardinality == 16 and b.ideals["D"].cardinality == 4
    ut = fixture_instance("ut2c1")
    assert ut.algebra.ring.label == "UT2(Z2)" and ut.algebra.group.order == 1


_HUGE_FIELD = f"polyquot(2, [{', '.join(['1'] * 15001)}])"
# order 2^15000, more digits than Python prints
_HUGE_PRODUCT = f"product({', '.join(['cyclic(2)'] * 15000)})"


@pytest.mark.parametrize("ring, group", [
    ("zmod(2)", "cyclic(1000000)"),     # a 10^12-entry Cayley table
    ("zmod(2)", "dihedral(3000)"),      # an O(n^2) Python loop
    # 101^8 elements; x^8 + 3 is irreducible over Z/101, so a factor
    # search run first would try all 10^8 monic quartics
    ("polyquot(101, [3, 0, 0, 0, 0, 0, 0, 0, 1])", "cyclic(1)"),
    # three 4096^2 factor tables before the product's size was known
    ("product(zmod(4096), zmod(4096), zmod(4096))", "cyclic(1)"),
    ("matrix(12, zmod(2))", "cyclic(1)"),     # a 44-digit size
    # 2^15000 has more digits than Python prints
    pytest.param(_HUGE_FIELD, "cyclic(1)", id="polyquot-degree-15000"),
    # a radical quotient counts as at least 2 before its base is built
    ("product(radical_quotient(zmod(4096)), zmod(4096), zmod(4))", "cyclic(1)"),
    ("matrix(4, radical_quotient(zmod(4096)))", "cyclic(1)"),
    # every factor was built before the product's order was known
    pytest.param("zmod(2)", _HUGE_PRODUCT, id="product-of-15000-factors"),
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
    pytest.param(_HUGE_FIELD, "2^15000", id="polyquot-degree-15000"),
    ("product(radical_quotient(zmod(4096)), zmod(4096), zmod(4))",
     "at least 2 * 4096 * 4"),
])
def test_ring_size_errors_print_powers(ring, size):
    d = parse_instance(f"ring = {ring}\ngroup = cyclic(1)\n")
    with pytest.raises(ScaleError, match=re.escape(f": {size} elements exceeds")):
        build_instance(d)
