"""Immutable records: the base class of the syntax-tree nodes and of the
other records that starting the CLI loads.

A subclass lists its fields, at most four, as annotations in order, and
gives trailing defaults as class attributes, as a frozen dataclass does.
When the class is created, `Frozen.__init_subclass__` gives it

- ``__init__``, which takes the fields by position or keyword and then
  calls ``__post_init__`` if the class defines one;
- ``__eq__`` and ``__hash__`` over the field values, equal only within one
  class, with the hash of the tuple of values;
- ``_fields``, the field names in order.

``__repr__`` names each field.  Assigning or deleting an attribute raises
`AttributeError`; `replace` copies a record with some fields changed.

``__init__`` is one of the closures below, chosen by field count, with its
parameters renamed after the fields, so defining a record compiles nothing.
A frozen dataclass execs generated source instead, 0.5-0.9 ms per class
against 15-20 us here (3 fields, Python 3.11), and importing `dataclasses`
takes 7-10 ms, most of it in `inspect`.
"""
from __future__ import annotations

from operator import attrgetter

_set = object.__setattr__


def _inits(a, b, c, d, post: bool):
    """Initialisers that set 0 to 4 fields named ``a`` to ``d`` in order,
    then call ``__post_init__`` if ``post``."""

    def init0(self):
        if post:
            self.__post_init__()

    def init1(self, v0):
        _set(self, a, v0)
        if post:
            self.__post_init__()

    def init2(self, v0, v1):
        _set(self, a, v0)
        _set(self, b, v1)
        if post:
            self.__post_init__()

    def init3(self, v0, v1, v2):
        _set(self, a, v0)
        _set(self, b, v1)
        _set(self, c, v2)
        if post:
            self.__post_init__()

    def init4(self, v0, v1, v2, v3):
        _set(self, a, v0)
        _set(self, b, v1)
        _set(self, c, v2)
        _set(self, d, v3)
        if post:
            self.__post_init__()

    return init0, init1, init2, init3, init4


def _eq_hash(fields: tuple):
    """``__eq__`` and ``__hash__`` over ``fields``."""
    if not fields:
        return (lambda self, other: True if other.__class__ is self.__class__ else NotImplemented,
                lambda self: hash(()))
    key = attrgetter(*fields)

    def eq(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    if len(fields) == 1:  # attrgetter of one name gives the value, not a tuple
        return eq, lambda self: hash((key(self),))
    return eq, lambda self: hash(key(self))


class Frozen:
    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = tuple(cls.__dict__.get("__annotations__", ()))
        if len(fields) > 4:
            raise TypeError(f"{cls.__name__}: a record has at most 4 fields")
        defaults = tuple(cls.__dict__[f] for f in fields if f in cls.__dict__)
        if any(f not in cls.__dict__ for f in fields[len(fields) - len(defaults):]):
            raise TypeError(f"{cls.__name__}: a field without a default follows one with")
        post = "__post_init__" in cls.__dict__
        init = _inits(*fields, *(None,) * (4 - len(fields)), post)[len(fields)]
        init.__code__ = init.__code__.replace(co_varnames=("self", *fields))
        init.__defaults__ = defaults or None
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__ = init
        cls.__eq__, cls.__hash__ = _eq_hash(fields)
        cls._fields = fields

    def __repr__(self):
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def replace(record: Frozen, **changes) -> Frozen:
    """A copy of ``record`` with the named fields changed."""
    for f in record._fields:
        changes.setdefault(f, getattr(record, f))
    return type(record)(**changes)
