"""The record contract of `nullvl.frozen.Frozen`, for every record class in
the package: construction by position and keyword, trailing defaults,
structural equality and hashing within one class, the field-naming repr,
immutability and `replace`."""
import importlib
import itertools
import pkgutil
import typing

import pytest

import nullvl
from nullvl import ast
from nullvl.errors import TypeCheckError
from nullvl.evaluator import EvalConfig
from nullvl.frozen import Frozen, replace
from nullvl.fuzz import FuzzConfig
from nullvl.logic import kernel_2vl, kernel_3vl
from nullvl.typecheck import RelSig
from nullvl.values import NUM, ORD, Column, Relation

NODES = typing.get_args(ast.Expression) + typing.get_args(ast.Condition) + typing.get_args(ast.Term)


def _package_records() -> tuple:
    """Every subclass of `Frozen` that a module of the package defines."""
    for module in pkgutil.iter_modules(nullvl.__path__):
        importlib.import_module(f"nullvl.{module.name}")
    found, todo = [], [Frozen]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("nullvl."):
                found.append(sub)
    return tuple(sorted(found, key=lambda c: (c.__module__, c.__qualname__)))


RECORDS = _package_records()


def _values(cls, tag: str) -> dict:
    """A value per field of ``cls``, each distinct and marked by ``tag``, and
    valid for a record whose ``__post_init__`` checks them."""
    first = tag == "1"
    if cls is RelSig:
        return {"labels": (f"a{tag}",), "types": (f"t{tag}",), "nullable": (f"a{tag}",),
                "free": frozenset({f"x{tag}"})}
    if cls is Column:
        # a nullable key is made NOT NULL, so tag 1's column is neither, and
        # replacing one of its flags by tag 2's never makes a nullable key
        return {"name": f"c{tag}", "type": NUM if first else ORD, "nullable": not first, "key": not first}
    if cls is Relation:
        return {"name": f"r{tag}", "columns": (Column(f"c{tag}", NUM),)}
    if cls is FuzzConfig:
        return {"seed": int(tag), "max_depth": int(tag), "null_rate": int(tag) / 10,
                "rows_per_relation": int(tag), "cases": int(tag)}
    if cls is EvalConfig:
        return {"kernel": kernel_3vl() if first else kernel_2vl(), "recursion_cap": int(tag),
                "plan": first}
    return {name: f"{name}-{tag}" for name in cls._fields}


def test_every_record_of_the_package_is_checked():
    names = {cls.__name__ for cls in RECORDS}
    assert set(NODES) < set(RECORDS)
    assert {"RelSig", "Checked", "Column", "EvalConfig", "TranslationResult", "SelectCore",
            "WithRecursive", "NullabilityReport", "FuzzConfig", "FamilySummary", "Case"} <= names


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
    # the same as passing each default: EvalConfig's __post_init__ reads its
    # default kernel None as kernel_3vl()
    defaults = {f: cls.__dict__[f] for f in cls._fields[len(required):]}
    assert node == cls(*(values[f] for f in required), **defaults)
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
    wide = type("Wide", (Frozen,), {"__annotations__": dict.fromkeys("abcdef", "int"), "e": 5, "f": 6})
    assert wide._fields == tuple("abcdef")
    record = wide(1, 2, 3, 4)
    assert tuple(getattr(record, f) for f in wide._fields) == (1, 2, 3, 4, 5, 6)
    assert wide(f=0, e=9, d=4, c=3, b=2, a=1) == wide(1, 2, 3, 4, 9, 0) != record
    with pytest.raises(TypeError, match=r"missing 1 required positional argument: 'd'"):
        wide(1, 2, 3)
    with pytest.raises(TypeError, match="without a default follows"):
        type("Gap", (Frozen,), {"__annotations__": {"a": "int", "b": "int"}, "a": 0})


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_defaults_are_hashable(cls):
    # a default is a class attribute that every instance shares, so a
    # mutable one such as {} or [] would leak between records
    for f in cls._fields:
        if f in cls.__dict__:
            hash(cls.__dict__[f])
