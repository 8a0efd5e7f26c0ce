"""Records: the base of the package's input and result types.

A record class lists its fields as annotations, with optional defaults, and
gets positional and keyword construction, equality, repr and ``replace`` by
value; a frozen record is hashed by value and refuses assignment.  This
module sits below every module that defines one.
"""

from __future__ import annotations

from operator import attrgetter

_MISSING = object()


class _RecordType(type):
    """A record class's annotated names become its ``__slots__`` and fields, their class values its defaults."""

    def __new__(mcs, name, bases, ns):
        fields = tuple(ns.get("__annotations__", ()))
        defaults = [ns.pop(f, _MISSING) for f in fields]
        ns.update(__slots__=fields, _fields=fields, _values=attrgetter(*fields) if fields else None)
        cls = super().__new__(mcs, name, bases, ns)
        # (slot setter, name, default) per field; a setter writes past a frozen record's __setattr__
        cls._init = tuple(zip([vars(cls)[f].__set__ for f in fields], fields, defaults))
        return cls


class Record(metaclass=_RecordType):
    """Fields by position or keyword, trailing ones defaulted; ``==``, repr and ``replace`` by value."""

    def __init__(self, *args, **kw):
        init = self._init
        for (setter, _, _), value in zip(init, args):
            setter(self, value)
        for setter, name, default in init[len(args) :]:
            value = kw.pop(name, default)
            if value is _MISSING:
                raise TypeError(f"{type(self).__name__} is missing field {name!r}")
            setter(self, value)
        if kw or len(args) > len(init):
            extra = list(args[len(init) :]) + sorted(kw)
            raise TypeError(f"{type(self).__name__} takes the fields {self._fields}; extra or repeated: {extra}")

    def __eq__(self, other):
        return self._values(self) == other._values(other) if type(other) is type(self) else NotImplemented

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self._fields)})"

    def replace(self, **changes):
        """A new record with ``changes`` applied, built (and so validated) by ``__init__``."""
        return type(self)(**{**{n: getattr(self, n) for n in self._fields}, **changes})


class FrozenRecord(Record):
    """A record hashed by value that refuses assignment."""

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")

    __delattr__ = __setattr__
