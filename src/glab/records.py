"""Immutable records.

Every record type of glab derives from `Record`, a tuple whose fields
are the class's annotated names, in order, with the class-level values
as defaults. The metaclass reads them once, when the class is made,
and gives each field a read-only `operator.itemgetter` property; no
source is compiled, where each `typing.NamedTuple` costs one `eval` at
import (2.6 ms for the 28 record types that `verify-all` loads). A
record unpacks and indexes as a tuple, is built positionally or by
keyword, and has `_fields`, `_replace` and a `Name(a=1, ...)` repr. It
is equal only to a record of its own type with equal fields, as a
frozen dataclass is, so Zmod(4) != CyclicGroup(4). Instances have no
`__dict__`, and copy and pickle round-trip.
"""

from __future__ import annotations

from operator import itemgetter


class _RecordType(type):
    def __new__(mcls, name, bases, ns):
        fields = tuple(ns.get("__annotations__", ()))
        defaults = {f: ns.pop(f) for f in fields if f in ns}
        if tuple(defaults) != fields[len(fields) - len(defaults):]:
            raise TypeError(f"{name}: a field without default follows one "
                            "with a default")
        for i, f in enumerate(fields):
            ns[f] = property(itemgetter(i), doc=f"field {i}")
        ns.update(__slots__=(), _fields=fields, _defaults=defaults,
                  _tail=tuple(defaults.values()))
        return super().__new__(mcls, name, bases, ns)


class Record(tuple, metaclass=_RecordType):
    def __new__(cls, *args, **kwargs):
        if kwargs or len(args) != len(cls._fields):
            args = cls._bind(args, kwargs)
        return tuple.__new__(cls, args)

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> tuple:
        fields, tail = cls._fields, cls._tail
        if not kwargs and len(fields) - len(tail) <= len(args) < len(fields):
            return args + tail[len(args) - len(fields):]
        given = {**cls._defaults, **kwargs, **dict(zip(fields, args))}
        if (len(args) > len(fields) or given.keys() != set(fields)
                or kwargs.keys() & set(fields[:len(args)])):
            raise TypeError(f"{cls.__name__}() takes each of the fields "
                            f"({', '.join(fields)}) at most once, and needs "
                            "those without a default")
        return tuple(given[f] for f in fields)

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    def _replace(self, **changes):
        return type(self)(**{**dict(zip(self._fields, self)), **changes})

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self))
        return f"{type(self).__name__}({fields})"

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and tuple.__eq__(self, other)

    def __ne__(self, other) -> bool:
        return not self == other

    def __hash__(self) -> int:
        return hash((type(self), tuple.__hash__(self)))
