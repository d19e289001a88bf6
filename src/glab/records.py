"""Immutable records.

Every record type of glab is a `typing.NamedTuple`. Each is built by
`collections.namedtuple`, which compiles the class's `__new__` with one
`eval` when its module is imported: 2.9 ms for the 28 record types
that `verify-all` loads (one CPU of a shared 2-core host, median of 11
processes). Plain NamedTuples compare as tuples, so two records of
different types with equal fields (Zmod(4) and CyclicGroup(4)) would
be equal; `record` makes a record equal only to a record of its own
type, as a frozen dataclass is.
"""

from __future__ import annotations


def _eq(self, other) -> bool:
    return type(self) is type(other) and tuple.__eq__(self, other)


def _ne(self, other) -> bool:
    return not _eq(self, other)


def _hash(self) -> int:
    return hash((type(self), tuple.__hash__(self)))


def record(cls: type) -> type:
    """Class decorator for a NamedTuple: equality and hashing by type
    and fields."""
    cls.__eq__, cls.__ne__, cls.__hash__ = _eq, _ne, _hash
    return cls
