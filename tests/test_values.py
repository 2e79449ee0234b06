import gc
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nullvl import fuzz, values
from nullvl.errors import NullvlError, SchemaError
from nullvl.values import (
    Bag,
    Column,
    Database,
    Relation,
    Schema,
    database_from_json,
    database_to_json,
    format_number,
    parse_number,
)

from sample_queries import bag, row


def test_exact_number_parsing_and_formatting():
    assert parse_number("0.5") == Fraction(1, 2)
    assert parse_number("-7") == Fraction(-7)
    assert parse_number("2/6") == Fraction(1, 3)
    assert format_number(Fraction(3, 2)) == "3/2"
    assert format_number(Fraction(4)) == "4"
    with pytest.raises(ValueError):
        parse_number("abc")
    with pytest.raises(ValueError):
        parse_number("1/0")


def test_bag_operations_and_equality():
    a = Bag([(row(1), 2), (row(None), 1)])
    b = Bag([row(1), row(1), row(None)])
    assert a == b
    assert a.union(b).multiplicity(row(1)) == 4
    assert a.intersect(Bag([row(1)])).counts() == {row(1): 1}
    assert a.difference(Bag([row(1)])).counts() == {row(1): 1, row(None): 1}
    assert a.distinct().counts() == {row(1): 1, row(None): 1}
    assert a.total() == 3 and a.distinct_count() == 2
    with pytest.raises(ValueError):
        Bag([(row(1), 0)])


def test_key_columns_are_forced_not_null():
    col = Column("k", "n", nullable=True, key=True)
    assert not col.nullable


def test_database_json_round_trip():
    doc = {
        "schema": {
            "R": {
                "columns": [
                    {"name": "a", "type": "num", "nullable": True},
                    {"name": "b", "type": "ord", "nullable": False},
                ]
            }
        },
        "data": {"R": [["1/2", "x"], [None, "y"], [None, "y"]]},
    }
    db = database_from_json(doc)
    assert db.table("R").multiplicity(row(Fraction(1, 2), "x")) == 1
    assert db.table("R").multiplicity(row(None, "y")) == 2
    again = database_from_json(json.loads(json.dumps(database_to_json(db))))
    assert again.table("R") == db.table("R")


def test_database_validation_errors():
    base = {
        "schema": {"R": {"columns": [{"name": "a", "type": "num", "nullable": False}]}},
        "data": {"R": [[None]]},
    }
    with pytest.raises(SchemaError, match="non-nullable"):
        database_from_json(base)
    with pytest.raises(SchemaError, match="arity"):
        database_from_json(
            {
                "schema": {"R": {"columns": [{"name": "a", "type": "num"}]}},
                "data": {"R": [["1", "2"]]},
            }
        )
    with pytest.raises(SchemaError, match="undeclared"):
        database_from_json({"schema": {}, "data": {"X": []}})
    with pytest.raises(SchemaError, match="text columns"):
        database_from_json(
            {
                "schema": {"R": {"columns": [{"name": "a", "type": "ord"}]}},
                "data": {"R": [[3]]},
            }
        )


def test_duplicate_relation_and_column_names_rejected():
    with pytest.raises(SchemaError, match="duplicate column"):
        Relation("R", (Column("a", "n"), Column("a", "n")))
    with pytest.raises(SchemaError, match="duplicate relation"):
        Schema([Relation("R", (Column("a", "n"),)), Relation("R", (Column("b", "n"),))])


def test_null_free_predicate():
    schema = Schema([Relation("R", (Column("a", "n"),))])
    assert Database(schema, {"R": bag(1, 2)}).is_null_free()
    assert not Database(schema, {"R": bag(1, None)}).is_null_free()


# -- count-first loading -------------------------------------------------------

NUM_COL = {"schema": {"R": {"columns": [{"name": "a", "type": "num"}]}}}


def _load(rows, doc=NUM_COL):
    return database_from_json(dict(doc, data={"R": rows})).table("R")


def test_equal_rows_merge_whatever_their_spelling():
    rows = [[1], ["1/2"], ["1"], [None], ["2/2"], ["2/4"], ["1.0"], [None]]
    assert _load(rows).counts() == {
        row(1): 4, row(Fraction(1, 2)): 2, row(None): 2,
    }


@pytest.mark.parametrize(
    "rows, bad",
    [
        ([[1], [1], [True]], "boolean cell True"),
        ([[1], [1.0]], "bad numeric cell 1.0"),
        ([[0], [0], [False]], "boolean cell False"),
        ([["1"], [1.5]], "bad numeric cell 1.5"),
    ],
)
def test_equal_python_values_of_other_json_types_are_still_rejected(rows, bad):
    # 1 == 1.0 == True in Python, so a row count keyed on the cells alone
    # would fold the later rows into the valid first one
    with pytest.raises(SchemaError, match=bad):
        _load(rows)


def test_null_in_a_non_nullable_column_is_caught_in_a_repeated_row():
    doc = {"schema": {"R": {"columns": [
        {"name": "a", "type": "num", "nullable": False},
        {"name": "b", "type": "ord"},
    ]}}}
    with pytest.raises(SchemaError, match="R.a: NULL in non-nullable column"):
        _load([["1", "x"], ["1", "x"], [None, "x"], [None, "x"]], doc)


def test_the_first_faulty_row_in_file_order_is_reported():
    with pytest.raises(SchemaError, match="row of arity 2, expected 1"):
        _load([["1"], ["1"], ["1", "2"], ["1", "2", "3"], ["1", "2"]])
    doc = {"schema": {"R": {"columns": [{"name": "a", "type": "num", "nullable": False}]}}}
    # a cell fault, a NULL and two unkeyable rows, each first in its turn
    with pytest.raises(SchemaError, match="bad numeric cell"):
        _load([["1"], [[1]], [None], "5"], doc)
    with pytest.raises(SchemaError, match="NULL in non-nullable"):
        _load([["1"], [None], [[1]], "5"], doc)
    with pytest.raises(SchemaError, match="row '5' must be a JSON array"):
        _load([["1"], "5", [None], [[1]]], doc)


def test_duplicated_and_shuffled_rows_load_with_doubled_counts():
    schema = fuzz.default_schema()
    rng = random.Random(4)
    for seed in range(200):
        db = fuzz.gen_database(schema, fuzz.FuzzConfig(seed=seed, rows_per_relation=8))
        doc = database_to_json(db)
        for rows in doc["data"].values():
            rows.extend([list(r) for r in rows])
            rng.shuffle(rows)
        again = database_from_json(json.loads(json.dumps(doc)))
        for name, table in db.tables.items():
            assert again.table(name).counts() == {r: 2 * k for r, k in table.items()}, seed


def test_loading_parses_each_distinct_cell_once(monkeypatch):
    rng = random.Random(7)
    pool = [str(v) for v in range(13)] + [None]
    doc = {"schema": {"R": {"columns": [
        {"name": "a", "type": "num"},
        {"name": "b", "type": "num"},
        {"name": "c", "type": "ord"},
    ]}}}
    rows = [[rng.choice(pool), rng.choice(pool), rng.choice(pool)] for _ in range(1500)]
    calls = []
    real = values.parse_cell

    def counting(raw, col_type):
        calls.append((col_type, raw))
        return real(raw, col_type)

    monkeypatch.setattr(values, "parse_cell", counting)
    table = _load(rows, doc)
    # the numeric columns share one memo entry per spelling
    assert len(calls) == len(set(calls)) <= 2 * len(pool)
    expected = Bag(
        tuple(real(raw, t) for raw, t in zip(r, ("n", "n", "o"))) for r in rows
    )
    assert table == expected


@pytest.mark.parametrize(
    "rows, bad",
    [
        ([[1], [Fraction(1)]], "bad numeric cell Fraction"),
        ([[1], 5], "row 5 must be a JSON array"),
        ([["1"], "1"], "row '1' must be a JSON array"),
        ([[1], [(1,)]], r"bad numeric cell \(1,\)"),
        ([[1], [[1]]], r"bad numeric cell \[1\]"),
    ],
)
def test_rows_outside_plain_cells_count_apart(rows, bad):
    # rows count under one key only when every cell is an int, a string or
    # a NULL; anything else is parsed row by row and rejected in place
    with pytest.raises(SchemaError, match=bad):
        _load(rows)


def _row_by_row(mp) -> list:
    """Switch off both counted paths, the columnar one for canonical tables
    and the keyed one for plain cells, so that every row is parsed apart;
    the returned list collects the cells parse_cell is called on."""
    mp.setattr(values, "_PLAIN_CELLS", frozenset())
    mp.setattr(values, "_CANONICAL", dict.fromkeys(values._CANONICAL, frozenset()))
    parsed = []
    real = values.parse_cell

    def counting(raw, col_type):
        parsed.append(raw)
        return real(raw, col_type)

    mp.setattr(values, "parse_cell", counting)
    return parsed


def test_keyed_and_row_by_row_counting_agree(monkeypatch):
    rows = [[1], ["1"], [None], [2], [1], ["2/2"], [None]]
    plain = _load(rows).counts()
    parsed = _row_by_row(monkeypatch)
    assert _load(rows).counts() == plain == {row(1): 4, row(2): 1, row(None): 2}
    assert parsed


def test_bag_json_text_matches_the_json_module():
    rng = random.Random(8)
    cells = [None, 0, -3, 12, Fraction(1, 3), Fraction(-7, 4), "", "a", 'say "hi"', "back\\slash",
             "tab\tnew\nline", "café", "☃ snow", "\U0001f600", "ctl\x01"]
    cases = [(Bag([]), ()), (Bag([]), ("A",)), (Bag([(), ()]), ()), (Bag([()]), ())]
    for _ in range(60):
        arity = rng.randrange(0, 4)
        records = [tuple(rng.choice(cells) for _ in range(arity)) for _ in range(rng.randrange(0, 8))]
        labels = tuple(rng.choice(["A", "R.A", 'q"uote', "été"]) for _ in range(arity))
        cases.append((Bag(records), labels))
    for bag_, labels in cases:
        doc = values.bag_to_json(bag_, labels)
        assert values.bag_json_text(doc) == json.dumps(doc, indent=1)


def test_loaded_numbers_are_canonical():
    doc = {
        "schema": {"R": {"columns": [{"name": "R.A", "type": "num"}]}},
        "data": {"R": [[1], ["1"], ["2/2"], ["1.0"], ["-0.25"], ["4/6"], [-5]]},
    }
    cells = {record[0]: k for record, k in database_from_json(doc).table("R").items()}
    assert cells == {1: 4, Fraction(-1, 4): 1, Fraction(2, 3): 1, -5: 1}
    assert {type(v) for v in cells} == {int, Fraction}
    assert all(type(v) is int or v.denominator != 1 for v in cells)


_NUM_CELLS = [0, 1, 2, -3, None, "1", "2/2", "1/3"]
_ORD_CELLS = ["a", "b", "1", "", None]


@st.composite
def _tables(draw, faults=()):
    """A one-relation document whose cells mix canonical values with other
    spellings and NULLs, over nullable and NOT NULL columns; ``faults`` are
    cells or rows one of which may be put in."""
    kinds = draw(st.lists(st.tuples(st.sampled_from(["num", "ord"]), st.booleans()), max_size=3))
    canonical = draw(st.booleans())

    def cells(kind, nullable):
        pool = _NUM_CELLS if kind == "num" else _ORD_CELLS
        if canonical:
            value_type = int if kind == "num" else str
            pool = [c for c in pool if type(c) is value_type or (c is None and nullable)]
        return st.sampled_from(pool or [None])

    row = st.tuples(*(cells(k, n) for k, n in kinds)).map(list)
    rows = draw(st.lists(row, max_size=12))
    if faults and draw(st.booleans()):
        fault = draw(st.sampled_from(faults))
        if rows and fault != "ragged":
            victim = draw(st.sampled_from(rows))
            if victim:
                victim[draw(st.integers(0, len(victim) - 1))] = fault
        else:
            rows.insert(draw(st.integers(0, len(rows))), [None] * (len(kinds) + 1))
    columns = [{"name": f"c{i}", "type": k, "nullable": n} for i, (k, n) in enumerate(kinds)]
    return {"schema": {"R": {"columns": columns}}, "data": {"R": rows}}


def _outcome(doc):
    try:
        return database_from_json(doc).table("R").counts()
    except SchemaError as exc:
        return str(exc)


def _agrees_with_row_by_row_loading(doc):
    loaded = _outcome(doc)
    with pytest.MonkeyPatch.context() as mp:
        parsed = _row_by_row(mp)
        assert _outcome(doc) == loaded
    # a loaded table with a cell had each of its cells parsed on the row path
    if isinstance(loaded, dict) and any(doc["data"]["R"]):
        assert parsed


@settings(max_examples=300, deadline=None)
@given(doc=_tables())
def test_counted_and_parsed_loads_agree(doc):
    _agrees_with_row_by_row_loading(doc)


@settings(max_examples=300, deadline=None)
@given(doc=_tables(faults=(True, 1.0, "ragged")))
def test_counted_and_parsed_loads_raise_the_same_first_error(doc):
    _agrees_with_row_by_row_loading(doc)


def test_canonical_tables_are_counted_without_parsing_a_cell(monkeypatch):
    def unused(raw, col_type):
        raise AssertionError("parse_cell called on a canonical table")

    monkeypatch.setattr(values, "parse_cell", unused)
    doc = {
        "schema": {"R": {"columns": [
            {"name": "a", "type": "num"},
            {"name": "b", "type": "ord", "nullable": False},
        ]}},
        "data": {"R": [[1, "x"], [None, "y"], [1, "x"], [-7, ""]]},
    }
    assert database_from_json(doc).table("R").counts() == {(1, "x"): 2, (None, "y"): 1, (-7, ""): 1}


_CANONICAL_DOC = {"schema": {"R": {"columns": [
    {"name": "a", "type": "num", "nullable": False},
    {"name": "b", "type": "ord"},
]}}}


@pytest.mark.parametrize(
    "doc, rows, expected",
    [
        (_CANONICAL_DOC, [], {}),
        ({"schema": {"R": {"columns": []}}}, [[], []], {(): 2}),
        (_CANONICAL_DOC, [[1, "x"], [2, "y", None], [1, "x"]], "R: row of arity 3, expected 2"),
        (_CANONICAL_DOC, [[1, "x"], [2], [1, "x"]], "R: row of arity 1, expected 2"),
        (NUM_COL, [[1], [True], [1]], "relation R, column a: boolean cell True in numeric column"),
        (NUM_COL, [[True], [1], [1]],
         "relation R, column a: boolean cell True in numeric column"),
        (NUM_COL, [[1], [1.0], [2]], "relation R, column a: bad numeric cell 1.0"),
        (_CANONICAL_DOC, [[1, "x"], [None, "x"], [2, None]], "R.a: NULL in non-nullable column"),
        (_CANONICAL_DOC, [[1, None], [2, "y"], [1, None]], {(1, None): 2, (2, "y"): 1}),
    ],
    ids=["empty", "no-columns", "ragged-long", "ragged-short", "true-after-1", "true-first",
         "float", "null-in-not-null", "canonical"],
)
def test_columnar_and_row_paths_give_the_same_table_or_first_error(doc, rows, expected):
    doc = dict(doc, data={"R": rows})
    assert _outcome(doc) == expected
    with pytest.MonkeyPatch.context() as mp:
        _row_by_row(mp)
        assert _outcome(doc) == expected


@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def collector(request):
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


@pytest.mark.parametrize(
    "text, error, match",
    [
        ('{"schema": {"R": {"columns": [{"name": "a"}]}}, "data": {"R": [["x"], ["x"]]}}',
         None, None),
        ('{"schema": {"R": {"columns": [{"name": "a"}]}}, "data": {"R": [["x", "y"]]}}',
         SchemaError, "row of arity 2"),
        ('{"schema": {"R": ', NullvlError, "malformed JSON"),
        ("[" * 100_000 + "]" * 100_000, RecursionError, None),
    ],
    ids=["loaded", "schema-error", "malformed", "deep"],
)
def test_loading_restores_the_collector_state(tmp_path, collector, text, error, match):
    path = tmp_path / "db.json"
    path.write_text(text)
    if error is None:
        assert values.load_database(str(path)).table("R").counts() == {("x",): 2}
    else:
        with pytest.raises(error, match=match):
            values.load_database(str(path))
    assert gc.isenabled() is collector
