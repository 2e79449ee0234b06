"""The record contract of `nullvl.frozen.Frozen`, for every syntax-tree node
and for `RelSig`: construction by position and keyword, trailing defaults,
structural equality and hashing within one class, the field-naming repr,
immutability and `replace`."""
import itertools
import typing

import pytest

from nullvl import ast
from nullvl.errors import TypeCheckError
from nullvl.frozen import Frozen, replace
from nullvl.typecheck import RelSig

NODES = typing.get_args(ast.Expression) + typing.get_args(ast.Condition) + typing.get_args(ast.Term)
RECORDS = NODES + (RelSig,)


def _values(cls, tag: str) -> dict:
    """A value per field of ``cls``, each distinct and marked by ``tag``."""
    if cls is RelSig:
        return {"labels": (f"a{tag}",), "types": (f"t{tag}",), "nullable": (f"a{tag}",),
                "free": frozenset({f"x{tag}"})}
    return {name: f"{name}-{tag}" for name in cls._fields}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_fields_are_the_annotations_in_order(cls):
    assert type(cls) is type  # no metaclass
    assert issubclass(cls, Frozen)
    assert cls._fields == tuple(typing.get_type_hints(cls))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_construction_by_position_and_keyword(cls):
    values = _values(cls, "1")
    node = cls(*values.values())
    assert tuple(getattr(node, f) for f in cls._fields) == tuple(values.values())
    assert cls(**values) == node
    with pytest.raises(TypeError):
        cls(*values.values(), "one too many")
    with pytest.raises(TypeError):
        cls(**values, not_a_field=1)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_trailing_defaults(cls):
    required = [f for f in cls._fields if f not in cls.__dict__]
    values = _values(cls, "1")
    node = cls(*(values[f] for f in required))
    for f in cls._fields[len(required):]:
        assert getattr(node, f) == cls.__dict__[f]
    if not required:
        return
    with pytest.raises(TypeError, match=f"missing 1 required positional argument: '{required[-1]}'"):
        cls(*(values[f] for f in required[:-1]))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_equality_and_hash_are_structural(cls):
    values = _values(cls, "1")
    node, twin = cls(**values), cls(**values)
    assert node is not twin and node == twin and hash(node) == hash(twin)
    assert hash(node) == hash(tuple(values.values()))
    assert not node != twin
    for f, other in _values(cls, "2").items():
        changed = replace(node, **{f: other})
        assert changed != node and getattr(changed, f) == other
        assert all(getattr(changed, g) == getattr(node, g) for g in cls._fields if g != f)
    assert node != tuple(values.values()) and node != object()


def test_classes_with_the_same_fields_are_never_equal():
    groups = itertools.groupby(sorted(NODES, key=lambda c: c._fields), key=lambda c: c._fields)
    pairs = [pair for _, group in groups for pair in itertools.combinations(group, 2)]
    assert (ast.And, ast.Or) in pairs or (ast.Or, ast.And) in pairs
    a, b = ast.CTrue(), ast.IsNull(ast.NameRef("x"))
    assert ast.And(a, b) != ast.Or(a, b)
    assert ast.CTrue() != ast.CFalse() and ast.CTrue() == ast.CTrue()
    for left, right in pairs:
        values = _values(left, "1").values()
        assert left(*values) != right(*values)
        assert len({left(*values), right(*values)}) == 2


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_repr_names_each_field(cls):
    values = _values(cls, "1")
    body = ", ".join(f"{f}={v!r}" for f, v in values.items())
    assert repr(cls(**values)) == f"{cls.__name__}({body})"


def test_repr_of_a_nested_node():
    assert repr(ast.ProjItem(ast.NameRef("x"))) == "ProjItem(term=NameRef(name='x'), rename=None)"
    assert repr(ast.CTrue()) == "CTrue()"


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_fields_cannot_be_assigned_or_deleted(cls):
    node = cls(**_values(cls, "1"))
    for f in cls._fields + ("not_a_field",):
        with pytest.raises(AttributeError):
            setattr(node, f, "other")
        with pytest.raises(AttributeError):
            delattr(node, f)
    assert node == cls(**_values(cls, "1"))


def test_replace_checks_again_and_rejects_unknown_fields():
    sig = RelSig(("a",), ("num",))
    assert replace(sig, labels=("b",)) == RelSig(("b",), ("num",))
    assert replace(sig) == sig and replace(sig) is not sig
    with pytest.raises(TypeCheckError, match="labels/types length mismatch"):
        replace(sig, labels=("a", "b"))
    with pytest.raises(TypeError):
        replace(sig, arity=1)


def test_a_record_states_its_fields_within_the_rules():
    with pytest.raises(TypeError, match="at most 4 fields"):
        type("Wide", (Frozen,), {"__annotations__": dict.fromkeys("abcde", "int")})
    with pytest.raises(TypeError, match="without a default follows"):
        type("Gap", (Frozen,), {"__annotations__": {"a": "int", "b": "int"}, "a": 0})
