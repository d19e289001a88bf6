"""The record types: tuples with named fields, equal only within a type."""

import copy
import pickle

import pytest

from glab.finring import TableRing, Zmod
from glab.grp import CayleyGroup, CyclicGroup
from glab.instance import InstanceDescription
from glab.lcp import ResidueTransfer
from glab.records import Record
from glab.workspace import CheckLine


def test_equality_and_hash_by_type_and_fields():
    assert Zmod(4) == Zmod(4) and hash(Zmod(4)) == hash(Zmod(4))
    assert Zmod(4) != CyclicGroup(4) and not Zmod(4) == CyclicGroup(4)
    assert Zmod(4) != (4,) and Zmod(4) != Zmod(5)
    assert len({Zmod(4), CyclicGroup(4), Zmod(4)}) == 2
    # a tuple still, for unpacking and indexing
    check_id, law, status, witness, micros = CheckLine("a", "b", "pass")
    assert (check_id, law, status, witness, micros) == ("a", "b", "pass",
                                                        "-", None)
    assert CheckLine("a", "b", "pass")[1] == "b" and isinstance(Zmod(2), tuple)


def test_defaults_and_keyword_construction():
    assert CheckLine._fields == ("check_id", "law", "status", "witness",
                                 "micros")
    line = CheckLine("a", "b", "pass")
    assert line == CheckLine("a", "b", "pass", "-", None)
    assert line == CheckLine(status="pass", law="b", check_id="a")
    assert tuple(CheckLine("a", "b", "pass", micros=3)) == ("a", "b", "pass",
                                                            "-", 3)
    assert CayleyGroup(((0,),)).label == "cayley"
    assert TableRing((2,), ((0, 0), (0, 1))).label == "table"
    r = ResidueTransfer(True, False, False)
    assert r.certificate is None and r.lift_splits is None
    desc = InstanceDescription(ring=Zmod(2), group=CyclicGroup(2), bound=7)
    assert (desc.elems, desc.ideals, desc.bound, desc.census_bound) == (
        (), (), 7, None)


@pytest.mark.parametrize("build", [
    lambda: CheckLine("a"),                              # missing fields
    lambda: CheckLine("a", "b", "c", "d", None, "f"),    # one too many
    lambda: CheckLine("a", "b", "c", check_id="x"),      # given twice
    lambda: CheckLine("a", "b", "c", bogus=1),           # no such field
    lambda: CheckLine("a", "b", "c")._replace(bogus=1),
])
def test_bad_construction_raises(build):
    with pytest.raises(TypeError, match="CheckLine"):
        build()


def test_a_field_without_default_may_not_follow_one_with_a_default():
    with pytest.raises(TypeError, match="without default"):
        class Bad(Record):
            a: int = 1
            b: int


def test_replace_and_repr():
    line = CheckLine("a", "b", "pass")
    moved = line._replace(witness="w", micros=5)
    assert moved == CheckLine("a", "b", "pass", "w", 5) and type(moved) is CheckLine
    assert line == CheckLine("a", "b", "pass")
    assert repr(line) == ("CheckLine(check_id='a', law='b', status='pass', "
                          "witness='-', micros=None)")
    assert repr(CyclicGroup(3)) == "CyclicGroup(n=3)"


def test_immutable_and_without_dict():
    line = CheckLine("a", "b", "pass")
    with pytest.raises(AttributeError):
        line.law = "c"
    with pytest.raises(AttributeError):
        line.extra = 1
    assert not hasattr(line, "__dict__")


@pytest.mark.parametrize("rec", [
    CheckLine("a", "b", "pass", "w", 3), Zmod(4),
    InstanceDescription(ring=Zmod(2), group=CayleyGroup(((0,),), "x")),
])
def test_copy_and_pickle_round_trip(rec):
    for twin in (copy.copy(rec), copy.deepcopy(rec),
                 pickle.loads(pickle.dumps(rec))):
        assert twin == rec and type(twin) is type(rec)
