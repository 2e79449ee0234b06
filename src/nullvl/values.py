"""Values, records, bags, schemas and databases.

Cells are either NULL (``None``), exact rationals (type ``n``), held as
`int` when integral and `fractions.Fraction` otherwise, or text atoms
(`str`, type ``o``).  Rationals keep every comparison and aggregate
bit-deterministic; AVG is exact.  Every layer that makes a number keeps it
canonical (`exact_number`); `int` and `Fraction` of one value are equal and
hash alike, so the representation never changes a bag.
"""
from __future__ import annotations

import gc
import json
import re
import sys
from collections import Counter
from collections.abc import Mapping
from contextlib import contextmanager
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Union

from .errors import NullvlError, SchemaError
from .frozen import Frozen

NULL = None
# exact rationals: int when integral, Fraction otherwise
Number = Union[int, Fraction]
Value = Optional[Union[Number, str]]
Record = tuple  # tuple[Value, ...]

NUM = "n"
ORD = "o"


def is_null(v: Value) -> bool:
    return v is None


def exact_number(q: Number) -> Number:
    """The canonical form of an exact rational: an int when integral."""
    return q.numerator if q.denominator == 1 else q


# an optional sign, then ASCII digits with an optional decimal part, or p/q;
# the other forms `Fraction` reads (other decimal digits, exponents, spaces,
# underscores) are not literals, and an exponent such as 1e10000000 would
# take seconds to expand; group 1 holds the decimal part or the denominator
_NUMBER = re.compile(r"[-+]?[0-9]+(\.[0-9]+|/[0-9]+)?")


def _shown(text: str) -> str:
    """A literal for an error line: whole if short, else a prefix and the length."""
    return repr(text) if len(text) <= 40 else f"{text[:20]!r}... ({len(text):,} characters)"


def _past_digit_limit(what: str) -> str:
    return f"{what} is past the {sys.get_int_max_str_digits():,}-digit limit"


def parse_number(text: str) -> Number:
    """Parse an exact decimal or rational literal ("7", "-0.25", "1/3")."""
    try:
        m = _NUMBER.fullmatch(text)
        if m:
            # `int` reads an integer many times faster than `Fraction` does
            return exact_number(Fraction(text)) if m.lastindex else int(text)
    except ZeroDivisionError:
        pass
    except ValueError:  # a part past Python's limit on the digits of an int's text
        raise ValueError(_past_digit_limit(f"numeric literal {_shown(text)}")) from None
    raise ValueError(f"not an exact numeric literal: {_shown(text)}")


def format_number(v: Number) -> str:
    try:
        if v.denominator == 1:
            return str(v.numerator)
        return f"{v.numerator}/{v.denominator}"
    except ValueError:
        raise NullvlError(_past_digit_limit("a number to be printed")) from None


def value_sort_key(v: Value):
    """Canonical ordering: nulls first, numbers before text atoms."""
    if v is None:
        return (0, 0)
    if isinstance(v, str):
        return (2, v)
    return (1, v)


def record_sort_key(record: Record):
    return tuple(value_sort_key(v) for v in record)


_BELOW_NUMBERS = float("-inf")  # no cell is a float


def _nulls_first(item: tuple[Record, int]) -> list:
    """The canonical key where no position holds both numbers and text."""
    return [_BELOW_NUMBERS if v is None else v for v in item[0]]


class Bag:
    """A multiset of same-arity records.

    NULL compares syntactically inside a bag: two records are the same
    record iff they agree position-wise, with NULL equal only to NULL.
    """

    __slots__ = ("_counts",)

    def __init__(self, items: Iterable = ()):
        counts: dict[Record, int] = {}
        for item in items:
            if isinstance(item, tuple) and len(item) == 2 and isinstance(item[1], int) and (
                isinstance(item[0], tuple)
            ):
                record, k = item
            else:
                record, k = tuple(item), 1
            if k <= 0:
                raise ValueError("multiplicities must be positive")
            record = tuple(record)
            counts[record] = counts.get(record, 0) + k
        self._counts = counts

    @classmethod
    def from_counts(cls, counts: Mapping[Record, int]) -> "Bag":
        bag = cls()
        bag._counts = dict(counts)  # copying a dict reuses its stored hashes
        if bag._counts and min(bag._counts.values()) <= 0:
            bag._counts = {r: k for r, k in bag._counts.items() if k > 0}
        return bag

    @classmethod
    def adopt(cls, counts: dict[Record, int]) -> "Bag":
        """The bag of ``counts``, taken as it is: with no copy and no check,
        so every count must be positive, and the caller must not change the
        dict afterwards."""
        bag = cls.__new__(cls)
        bag._counts = counts
        return bag

    def counts(self) -> dict[Record, int]:
        return dict(self._counts)

    def items(self) -> Iterator[tuple[Record, int]]:
        return iter(self._counts.items())

    def records(self) -> Iterator[Record]:
        """Distinct records, one each."""
        return iter(self._counts)

    def occurrences(self) -> Iterator[Record]:
        """Every record repeated by its multiplicity."""
        for record, k in self._counts.items():
            for _ in range(k):
                yield record

    def multiplicity(self, record: Record) -> int:
        return self._counts.get(tuple(record), 0)

    def is_empty(self) -> bool:
        return not self._counts

    def total(self) -> int:
        return sum(self._counts.values())

    def distinct_count(self) -> int:
        return len(self._counts)

    def __eq__(self, other) -> bool:
        return isinstance(other, Bag) and self._counts == other._counts

    def __hash__(self):
        raise TypeError("bags are unhashable")

    def __len__(self) -> int:
        return self.total()

    def __repr__(self) -> str:
        return f"Bag({self._counts!r})"

    def union(self, other: "Bag") -> "Bag":
        merged = dict(self._counts)
        for r, k in other._counts.items():
            merged[r] = merged.get(r, 0) + k
        return Bag.adopt(merged)

    def intersect(self, other: "Bag") -> "Bag":
        out = {}
        for r, k in self._counts.items():
            m = min(k, other._counts.get(r, 0))
            if m > 0:
                out[r] = m
        return Bag.adopt(out)

    def difference(self, other: "Bag") -> "Bag":
        out = {}
        for r, k in self._counts.items():
            m = k - other._counts.get(r, 0)
            if m > 0:
                out[r] = m
        return Bag.adopt(out)

    def distinct(self) -> "Bag":
        return Bag.adopt(dict.fromkeys(self._counts, 1))

    def sorted_items(self) -> list[tuple[Record, int]]:
        """The records and their multiplicities in canonical order.  Native
        tuple order is that order wherever it does not raise: at the first
        position where two distinct records differ it then meets two numbers
        or two texts."""
        items = list(self._counts.items())
        try:
            items.sort()
        except TypeError:  # a NULL met a value, or a number met text
            try:
                items.sort(key=_nulls_first)
            except TypeError:  # a number met text
                items.sort(key=lambda it: record_sort_key(it[0]))
        return items

    def canonical_text(self) -> str:
        """Deterministic text form: nulls first, numbers before text atoms."""
        lines = []
        for record, k in self.sorted_items():
            cells = ", ".join(format_value(v) for v in record)
            lines.append(f"({cells}) x{format_number(k)}")
        return "\n".join(lines)


def format_value(v: Value) -> str:
    if v is None:
        return "null"
    if isinstance(v, str):
        return repr(v)
    return format_number(v)


class Column(Frozen):
    name: str
    type: str  # NUM or ORD
    nullable: bool = True
    key: bool = False

    def __post_init__(self):
        if self.type not in (NUM, ORD):
            raise SchemaError(f"column {self.name}: unknown type {self.type!r}")
        # key columns are implicitly NOT NULL
        if self.key and self.nullable:
            object.__setattr__(self, "nullable", False)


class Relation(Frozen):
    name: str
    columns: tuple[Column, ...]

    def __post_init__(self):
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"relation {self.name}: duplicate column names {names}")

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    @property
    def types(self) -> tuple[str, ...]:
        return tuple(c.type for c in self.columns)

    @property
    def nullable_labels(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns if c.nullable)


class Schema:
    """Named relations with per-column type, nullability and key flags."""

    def __init__(self, relations: Iterable[Relation]):
        self.relations: dict[str, Relation] = {}
        for rel in relations:
            if rel.name in self.relations:
                raise SchemaError(f"duplicate relation {rel.name}")
            self.relations[rel.name] = rel

    def __contains__(self, name: str) -> bool:
        return name in self.relations

    def __getitem__(self, name: str) -> Relation:
        return self.relations[name]

    def names(self) -> list[str]:
        return list(self.relations)


class Database(Frozen):
    schema: Schema
    tables: dict[str, Bag]

    def table(self, name: str) -> Bag:
        return self.tables[name]


def parse_cell(raw, col_type: str) -> Value:
    if raw is None:
        return None
    if col_type == NUM:
        if isinstance(raw, bool):
            raise SchemaError(f"boolean cell {raw!r} in numeric column")
        if isinstance(raw, int):
            return raw
        if isinstance(raw, str):
            try:
                return parse_number(raw)
            except ValueError as exc:
                raise SchemaError(str(exc)) from None
        raise SchemaError(f"bad numeric cell {raw!r}")
    if isinstance(raw, str):
        return raw
    raise SchemaError(f"bad text cell {raw!r} (text columns hold JSON strings)")


def dump_cell(v: Value):
    if v is None or isinstance(v, str):
        return v
    return format_number(v)


def required(obj, key: str, what: str, error=SchemaError):
    """``obj[key]`` of a JSON object, or ``error`` naming the missing field
    (or saying that ``obj`` is no object)."""
    if not isinstance(obj, Mapping):
        raise error(f"{what} must be a JSON object")
    if key not in obj:
        raise error(f'{what}: missing required field "{key}"')
    return obj[key]


_ARRAYS = (list, tuple)
_ARRAY_TYPES = frozenset(_ARRAYS)


def json_array(obj, what: str, error=SchemaError):
    """``obj`` if it is a JSON array (a list or tuple), else ``error``."""
    if type(obj) not in _ARRAYS:
        raise error(f"{what} must be a JSON array")
    return obj


def schema_from_json(obj: Mapping) -> Schema:
    if not isinstance(obj, Mapping):
        raise SchemaError("a schema must be a JSON object")
    relations = []
    for rel_name, rel_obj in obj.items():
        cols = []
        columns = required(rel_obj, "columns", f"relation {rel_name}")
        for col in json_array(columns, f'relation {rel_name}: "columns"'):
            name = required(col, "name", f"a column of relation {rel_name}")
            type_name = col.get("type", "ord")
            nullable, key = col.get("nullable", True), col.get("key", False)
            if not isinstance(name, str):
                raise SchemaError(f'relation {rel_name}: column "name" {name!r} is no string')
            if type_name not in ("num", "ord"):
                raise SchemaError(
                    f'relation {rel_name}, column {name!r}: "type" must be "num" or "ord"'
                )
            if not isinstance(nullable, bool) or not isinstance(key, bool):
                raise SchemaError(
                    f'relation {rel_name}, column {name!r}: "nullable" and "key" are booleans'
                )
            cols.append(Column(name, NUM if type_name == "num" else ORD, nullable, key))
        relations.append(Relation(rel_name, tuple(cols)))
    return Schema(relations)


def schema_to_json(schema: Schema) -> dict:
    out = {}
    for rel in schema.relations.values():
        out[rel.name] = {
            "columns": [
                {
                    "name": c.name,
                    "type": "num" if c.type == NUM else "ord",
                    "nullable": c.nullable,
                    "key": c.key,
                }
                for c in rel.columns
            ]
        }
    return out


def database_from_json(obj: Mapping) -> Database:
    """Load and validate a {"schema": ..., "data": ...} document.

    Work follows distinct records.  Each table is first checked column by
    column: when every row is an array of the relation's arity and every
    cell is already its value (JSON integers in numeric columns, strings in
    text columns, NULLs only where allowed), the rows are counted as they
    stand and no cell is parsed.  Otherwise identical rows of plain cells
    are counted, each distinct row is parsed and validated once, and equal
    cells are parsed once per call.  Rows are visited in order of first
    occurrence, so the first faulty row in the file is the one reported.
    `load_database` calls this with the cyclic collector paused.
    """
    if not isinstance(obj, Mapping) or "schema" not in obj:
        raise SchemaError('a database document is an object with a "schema" key')
    schema = schema_from_json(obj["schema"])
    data = obj.get("data", {})
    if not isinstance(data, Mapping):
        raise SchemaError('a database document: "data" must be a JSON object')
    for rel_name in data:
        if rel_name not in schema:
            raise SchemaError(f"data for undeclared relation {rel_name}")
    memo: dict = {}  # (column type, JSON type, raw cell) -> value
    tables = {
        rel.name: _table_from_rows(rel, data.get(rel.name, []), memo)
        for rel in schema.relations.values()
    }
    return Database(schema, tables)


_NEW = object()  # a cell the memo has not seen


# the cell types parse_cell accepts; bool and float cells, which may equal
# int ones (True == 1 == 1.0), it rejects
_PLAIN_CELLS = frozenset({int, str, type(None)})
# the raw cell types a column holds when every cell is already its value
_CANONICAL = {
    (NUM, True): frozenset({int, type(None)}),
    (NUM, False): frozenset({int}),
    (ORD, True): frozenset({str, type(None)}),
    (ORD, False): frozenset({str}),
}


def _table_from_rows(rel: Relation, rows, memo: dict) -> Bag:
    json_array(rows, f'relation {rel.name}: "data"')
    columns = rel.columns
    arrays = set(map(type, rows)) <= _ARRAY_TYPES
    # a table whose rows are arrays of the relation's arity and whose cells
    # are already their values is counted as it stands; the types are
    # checked column by column before counting, since True and 1.0 would
    # count as 1
    if arrays and set(map(len, rows)) <= {len(columns)} and all(
        set(map(type, map(itemgetter(i), rows))) <= _CANONICAL[(col.type, col.nullable)]
        for i, col in enumerate(columns)
    ):
        if len(columns) == 1:
            return Bag.from_counts({(v,): k for v, k in Counter(map(itemgetter(0), rows)).items()})
        return Bag.from_counts(Counter(map(tuple, rows)))
    # equal rows count under one key when every row is an array of plain
    # cells; otherwise each row counts apart, so a faulty one is reported
    # in place
    if arrays and set(map(type, chain.from_iterable(rows))) <= _PLAIN_CELLS:
        distinct = Counter(map(tuple, rows)).items()
    else:
        distinct = ((row, 1) for row in rows)

    arity = len(columns)
    types = [col.type for col in columns]
    not_null = [i for i, col in enumerate(columns) if not col.nullable]
    records: dict[Record, int] = {}
    for row, k in distinct:
        if type(row) not in _ARRAYS:
            raise SchemaError(f'relation {rel.name}: "data" row {row!r} must be a JSON array')
        if len(row) != arity:
            raise SchemaError(f"{rel.name}: row of arity {len(row)}, expected {arity}")
        record = []
        for raw, col_type in zip(row, types):
            cell = (col_type, type(raw), raw)
            try:
                v = memo.get(cell, _NEW)
            except TypeError:  # an array or object, which parse_cell rejects
                v = _NEW
            if v is _NEW:
                try:
                    v = memo[cell] = parse_cell(raw, col_type)
                except SchemaError as exc:
                    col = columns[len(record)]
                    raise SchemaError(f"relation {rel.name}, column {col.name}: {exc}") from None
            record.append(v)
        record = tuple(record)
        for i in not_null:
            if record[i] is None:
                raise SchemaError(f"{rel.name}.{columns[i].name}: NULL in non-nullable column")
        # spellings of one value ("1", 1, "2/2") merge here; setdefault
        # hashes a new record once
        size = len(records)
        known = records.setdefault(record, k)
        if len(records) == size:
            records[record] = known + k
    return Bag.from_counts(records)


def database_to_json(db: Database) -> dict:
    data = {}
    for name, bag in db.tables.items():
        rows = []
        for record, k in bag.sorted_items():
            for _ in range(k):
                rows.append([dump_cell(v) for v in record])
        data[name] = rows
    return {"schema": schema_to_json(db.schema), "data": data}


def read_json(path: str):
    """Parse a JSON file; malformed text is a NullvlError naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise NullvlError(f"{path}: malformed JSON: {exc}") from None
        except ValueError:  # an integer past the digit limit
            raise NullvlError(_past_digit_limit(f"{path}: a JSON integer")) from None


@contextmanager
def _collector_paused():
    """Keep the cyclic collector off for the block, then restore the caller's
    state.  A decoded JSON document holds no cycles, only thousands of small
    lists that die with it; a pass while they live walks them for nothing."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def load_database(path: str) -> Database:
    # the decoded document is freed by reference counting when
    # database_from_json returns, before the collector is back on
    with _collector_paused():
        return database_from_json(read_json(path))


def bag_to_json(bag: Bag, labels: tuple[str, ...]) -> dict:
    """Result emission: rows with an explicit multiplicity field."""
    try:
        rows = [{"values": [
            v if v is None or v.__class__ is str else str(v) if v.__class__ is int else format_number(v)
            for v in record
        ], "multiplicity": k} for record, k in bag.sorted_items()]
    except ValueError:  # `str` of an int past the digit limit
        raise NullvlError(_past_digit_limit("a number to be printed")) from None
    return {"columns": list(labels), "rows": rows}


def bag_json_text(doc: dict) -> str:
    """``json.dumps(doc, indent=1)`` of a `bag_to_json` document, assembled
    from the C string encoder instead of the pure-Python indenting one.
    Every row has as many values as there are columns, and each row is one
    f-string."""
    encode, columns = encode_basestring_ascii, doc["columns"]
    if columns:
        head = '{\n   "values": [\n    '
        sep = ",\n    "
        tail = '\n   ],\n   "multiplicity": '
        names = "[\n  " + ",\n  ".join(map(encode, columns)) + "\n ]"
    else:
        head, sep, tail, names = '{\n   "values": [', "", '],\n   "multiplicity": ', "[]"
    try:
        rows = ",\n  ".join([
            f'{head}{sep.join(["null" if c is None else encode(c) for c in row["values"]])}'
            f'{tail}{row["multiplicity"]}\n  }}'
            for row in doc["rows"]
        ])
    except ValueError:  # `str` of a multiplicity past the digit limit
        raise NullvlError(_past_digit_limit("a number to be printed")) from None
    rows = f"[\n  {rows}\n ]" if rows else "[]"
    return f'{{\n "columns": {names},\n "rows": {rows}\n}}'
