import hashlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import nullvl
from nullvl import ast
from nullvl.cli import main

import sample_queries as sq

DB = {
    "schema": {
        "R": {"columns": [{"name": "R.A", "type": "num", "nullable": True}]},
        "S": {"columns": [{"name": "S.A", "type": "num", "nullable": True}]},
    },
    "data": {"R": [["1"], [None]], "S": [[None]]},
}

Q1_EXPR = "(select (not (in (col R.A) (base S))) (base R))"
Q1_SQL = "SELECT R.A FROM R WHERE R.A NOT IN (SELECT S.A FROM S)"


def _write(tmp_path, name, content):
    path = tmp_path / name
    path.write_text(content if isinstance(content, str) else json.dumps(content))
    return str(path)


def test_eval_subcommand(tmp_path, capsys):
    db = _write(tmp_path, "db.json", DB)
    expr = _write(tmp_path, "q.ra", Q1_EXPR)
    assert main(["eval", "--semantics", "3vl", expr, db]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["columns"] == ["R.A"] and out["rows"] == []
    assert main(["eval", "--semantics", "2vl", "--canonical", expr, db]) == 0
    assert capsys.readouterr().out.strip().splitlines() == ["(null) x1", "(1) x1"]


def test_eval_with_custom_kernel_file(tmp_path, capsys):
    kernel = {
        "values": ["t", "f"],
        "true": "t",
        "false": "f",
        "and": [["t", "f"], ["f", "f"]],
        "or": [["t", "t"], ["t", "f"]],
        "not": ["f", "t"],
        "null_comparison": {
            op: {"1": "f", "2": "f", "12": "f"}
            for op in ("=", "!=", "<", ">", "<=", ">=")
        },
    }
    db = _write(tmp_path, "db.json", DB)
    expr = _write(tmp_path, "q.ra", Q1_EXPR)
    kpath = _write(tmp_path, "kernel.json", kernel)
    assert main(["eval", "--semantics", f"mvl:{kpath}", expr, db]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["rows"]) == 2  # behaves like the conflating two-valued kernel


def test_translate_and_rewrite(tmp_path, capsys, monkeypatch):
    from nullvl import typecheck as typecheck_module

    # each request typechecks its input once
    typecheckers = []
    init = typecheck_module.Typechecker.__init__
    monkeypatch.setattr(typecheck_module.Typechecker, "__init__",
                        lambda self, *a: typecheckers.append(1) or init(self, *a))
    db = _write(tmp_path, "db.json", DB)
    expr = _write(tmp_path, "q.ra", Q1_EXPR)
    assert main(["translate", "--direction", "2to3", "--schema", db, expr]) == 0
    out = capsys.readouterr().out
    assert "(isnull (col R.A))" in out and len(typecheckers) == 1
    sql = _write(tmp_path, "q.sql", Q1_SQL)
    assert main(["rewrite", "--from", "2vl", "--to", "3vl", "--schema", db, sql]) == 0
    out = capsys.readouterr().out
    assert "IS NULL" in out and "IS NOT NULL" in out and len(typecheckers) == 2


# NOT IN, a negated ALL and a correlated NOT EXISTS
REWRITE_SQL = (
    Q1_SQL,
    "SELECT R.A FROM R WHERE NOT (R.A > ALL (SELECT S.A FROM S))",
    "SELECT R.A FROM R WHERE NOT EXISTS (SELECT S.A FROM S WHERE S.A = R.A)",
)


def test_rewrite_from_every_built_in_semantics_keeps_its_answers(tmp_path, capsys):
    from nullvl import sqlfront
    from nullvl.evaluator import EvalConfig, evaluate
    from nullvl.logic import kernel_3vl, kernel_by_name
    from nullvl.values import database_from_json

    db = _write(tmp_path, "db.json", DB)
    schema = database_from_json(DB).schema
    databases = [database_from_json(dict(DB, data=data)) for data in (
        DB["data"],
        {"R": [["-1"], ["0"], ["2"], ["2"], [None]], "S": [["0"], [None], ["1"]]},
        {"R": [["1"], ["3"], [None]], "S": [["1"], ["2"]]},
        {"R": [["1"], [None]], "S": []},
    )]
    answers = set()
    for source in ("2vl", "2vl-syn", "4vl", "grounded:leq-sign", "3vl"):
        for i, text in enumerate(REWRITE_SQL):
            sql = _write(tmp_path, f"q{i}.sql", text)
            assert main(["rewrite", "--from", source, "--to", "3vl", "--schema", db, sql]) == 0, source
            out = capsys.readouterr().out
            assert out.count("\n") == 1, out
            query = sqlfront.lower_to_algebra(sqlfront.parse_sql(text), schema)
            rewritten = sqlfront.lower_to_algebra(sqlfront.parse_sql(out), schema)
            for database in databases:
                want = evaluate(query, database, cfg=EvalConfig(kernel=kernel_by_name(source)))
                got = evaluate(rewritten, database, cfg=EvalConfig(kernel=kernel_3vl()))
                assert got == want, (source, text, out)
                answers.add((text, str(database.tables), want.canonical_text()))
    # the sources disagree on some query and database, so a rewrite that
    # ignored --from would fail above
    assert len(answers) > len(REWRITE_SQL) * len(databases)
    sql = _write(tmp_path, "q.sql", Q1_SQL)
    for flags in (["--from", "2vl", "--to", "2vl"], ["--from", "nope", "--to", "3vl"]):
        assert main(["rewrite", *flags, "--schema", db, sql]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_sql2ra_and_analyze(tmp_path, capsys):
    db = _write(tmp_path, "db.json", DB)
    sql = _write(tmp_path, "q.sql", Q1_SQL)
    assert main(["sql2ra", "--schema", db, sql]) == 0
    assert capsys.readouterr().out.strip() == Q1_EXPR
    expr = _write(tmp_path, "q.ra", Q1_EXPR)
    assert main(["analyze", "--json", expr, db]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["certified"] is False


def test_fuzz_and_replay(tmp_path, capsys):
    assert main(["fuzz", "--family", "capture-2vl-to-3vl", "--cases", "10", "--seed", "5"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["failed"] == 0 and summary["cases"] == 10

    bundle = {
        "family": "prop-4.1",
        "expression": "(base R)",
        "db": DB,
        "checks": [
            {"kind": "bags-equal", "left": "(base R)", "right": "(select (false) (base R))"}
        ],
    }
    bpath = _write(tmp_path, "bundle.json", bundle)
    assert main(["replay", bpath]) == 1
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["status"] == "fail"


def test_sql2ra_names_distinct_inside_an_aggregate(tmp_path, capsys):
    db = _write(tmp_path, "db.json", DB)
    sql = _write(tmp_path, "q.sql", "SELECT count(DISTINCT R.A) FROM R")
    assert main(["sql2ra", "--schema", db, sql]) == 2
    err = capsys.readouterr().err
    assert err == "error: unsupported feature: DISTINCT inside an aggregate\n"


def test_parse_errors_exit_two(tmp_path, capsys):
    db = _write(tmp_path, "db.json", DB)
    expr = _write(tmp_path, "broken.ra", "(select (empt")
    assert main(["eval", expr, db]) == 2
    assert "error:" in capsys.readouterr().err
    missing = str(tmp_path / "missing.ra")
    assert main(["eval", missing, db]) == 2
    capsys.readouterr()


def test_a_directory_as_an_input_file_exits_two(tmp_path, capsys):
    # any OSError on an input path ends the same way; a PermissionError
    # cannot be provoked when the tests run as root, so a directory stands in
    db = _write(tmp_path, "db.json", DB)
    expr = _write(tmp_path, "q.ra", Q1_EXPR)
    sql = _write(tmp_path, "q.sql", Q1_SQL)
    folder = str(tmp_path)
    rewrite = ["rewrite", "--from", "2vl", "--to", "3vl"]
    runs = [
        ["eval", folder, db],
        ["eval", expr, folder],
        ["translate", "--direction", "2to3", folder],
        ["translate", "--direction", "2to3", "--schema", folder, expr],
        ["analyze", folder, db],
        ["analyze", expr, folder],
        ["sql2ra", "--schema", db, folder],
        ["sql2ra", "--schema", folder, sql],
        rewrite + ["--schema", db, folder],
        rewrite + ["--schema", folder, sql],
        ["replay", folder],
    ]
    for argv in runs:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err, (argv, err)


def test_a_template_that_comes_out_unknown_exits_two(tmp_path, capsys):
    db = _write(tmp_path, "db.json", DB)
    expr = _write(tmp_path, "q.ra", "(select (cmp <= (col R.A) (num 0)) (base R))")
    grounding = {"templates": {"<=": {"1": "(cmp >= (fn div (num 1) (arg 2)) (num 0))"}}}
    gpath = _write(tmp_path, "grounding.json", grounding)
    assert main(["eval", "--semantics", f"grounded:{gpath}", expr, db]) == 2
    err = capsys.readouterr().err
    assert err == "error: template evaluated to unknown; it must be two-valued\n"


def test_translate_trace_emission(tmp_path, capsys):
    db = _write(tmp_path, "db.json", DB)
    expr = _write(tmp_path, "q.ra", Q1_EXPR)
    assert main(["translate", "--direction", "2to3", "--schema", db, "--trace", expr]) == 0
    captured = capsys.readouterr()
    trace = json.loads(captured.err)
    assert trace["size_ratio"] > 1
    assert any(entry["rule"] == "in-null-filtered" for entry in trace["trace"])


def test_translate_of_an_ill_typed_expression_exits_two(tmp_path, capsys):
    db = _write(tmp_path, "db.json", DB)
    expr = _write(tmp_path, "q.ra", "(select (not (isnull (col A))) (base R))")
    for direction in (["2to3"], ["3to2"], ["3-to-gr"], ["gr-to-3", "--grounding", "syntactic"],
                      ["mvl-to-3", "--kernel", "4vl"]):
        assert main(["translate", "--direction", *direction, "--schema", db, expr]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: unknown name 'A'\n", direction


def test_translate_3vl_to_grounded_needs_no_grounding(tmp_path, capsys):
    db = _write(tmp_path, "db.json", DB)
    expr = _write(tmp_path, "q.ra", Q1_EXPR)
    assert main(["translate", "--direction", "3-to-gr", "--schema", db, expr]) == 0
    out = capsys.readouterr().out
    assert "(isnull (col R.A))" in out and "(empty" in out


def test_translate_rejects_a_flag_its_direction_does_not_read(tmp_path, capsys):
    db = _write(tmp_path, "db.json", DB)
    expr = _write(tmp_path, "q.ra", Q1_EXPR)
    for direction, flags, flag in (
        ("2to3", ["--kernel", "4vl"], "--kernel"),
        ("3to2", ["--grounding", "leq-sign"], "--grounding"),
        ("gr-to-3", ["--grounding", "leq-sign", "--kernel", "4vl"], "--kernel"),
        ("mvl-to-3", ["--kernel", "4vl", "--grounding", "leq-sign"], "--grounding"),
    ):
        assert main(["translate", "--direction", direction, *flags, "--schema", db, expr]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {direction} does not read {flag}\n"
    # 3-to-gr's output holds under every grounding, but a grounding it is
    # given must still be one
    for direction in ("3-to-gr", "gr-to-3"):
        argv = ["translate", "--direction", direction, "--grounding", "nope", "--schema", db, expr]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {direction} --grounding: unknown grounding 'nope'")


def test_the_parser_loads_no_command_module_and_lists_every_family():
    from nullvl import harness

    code = ("import json, sys, nullvl.cli\n"
            "nullvl.cli.build_parser()\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith('nullvl.'))))\n"
            "nullvl.cli.main(sys.argv[1:])\n")
    # a wide terminal keeps argparse from breaking family names at hyphens
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(nullvl.__file__)),
               COLUMNS="1000")

    def spawn(*argv):
        return subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                              text=True, timeout=60)

    shown = spawn("fuzz", "--help")
    assert shown.returncode == 0, shown.stderr
    loaded, help_text = shown.stdout.split("\n", 1)
    loaded = set(json.loads(loaded))
    assert "nullvl.cli" in loaded
    assert not {"nullvl.sqlfront", "nullvl.harness", "nullvl.fuzz", "nullvl.analyze"} & loaded
    assert "--family FAMILY" in help_text
    assert all(family in help_text for family in harness.FAMILIES)
    bad = spawn("fuzz", "--family", "bogus")
    assert bad.returncode == 2
    listed = ", ".join(map(repr, sorted(harness.FAMILIES)))
    assert f"invalid choice: 'bogus' (choose from {listed})" in bad.stderr


def test_every_capture_family_direction_is_a_translate_choice():
    from nullvl import harness
    from nullvl.cli import build_parser

    parser = build_parser()
    for direction, _, _ in harness.CAPTURE_FAMILIES.values():
        args = parser.parse_args(["translate", "--direction", direction, "q.ra"])
        assert args.direction == direction


def test_bad_json_inputs_exit_two(tmp_path, capsys):
    db = _write(tmp_path, "db.json", DB)
    expr = _write(tmp_path, "q.ra", Q1_EXPR)
    broken = _write(tmp_path, "broken.json", '{"schema": {')
    no_schema = _write(tmp_path, "noschema.json", {"data": {}})
    runs = [
        ["eval", expr, broken],
        ["eval", expr, no_schema],
        ["translate", "--direction", "2to3", "--schema", no_schema, expr],
        ["analyze", expr, broken],
        ["eval", "--semantics", f"mvl:{broken}", expr, db],
        ["eval", "--semantics", f"grounded:{broken}", expr, db],
        ["translate", "--direction", "gr-to-3", "--grounding", broken, expr],
        ["translate", "--direction", "mvl-to-3", "--kernel", broken, expr],
        ["replay", broken],
    ]
    for argv in runs:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err, argv


_READ_COMMANDS = {
    "eval": lambda db, path: ["eval", path, db],
    "translate": lambda db, path: ["translate", "--direction", "2to3", path],
    "analyze": lambda db, path: ["analyze", path, db],
    "sql2ra": lambda db, path: ["sql2ra", "--schema", db, path],
    "rewrite": lambda db, path: ["rewrite", "--from", "2vl", "--to", "3vl", "--schema", db, path],
}


@pytest.mark.parametrize("command", sorted(_READ_COMMANDS))
def test_input_text_that_is_not_utf8_exits_two(tmp_path, capsys, monkeypatch, command):
    db = _write(tmp_path, "db.json", DB)
    text = (Q1_SQL if command in ("sql2ra", "rewrite") else Q1_EXPR).encode() + b" \xff\n"
    path = tmp_path / "latin1.txt"
    path.write_bytes(text)
    assert main(_READ_COMMANDS[command](db, str(path))) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: not UTF-8 text") and "Traceback" not in err, err
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(text)))
    assert main(_READ_COMMANDS[command](db, "-")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: standard input: not UTF-8 text") and "Traceback" not in err, err


def test_standard_input_reads_like_a_file(tmp_path, capsys, monkeypatch):
    db = _write(tmp_path, "db.json", DB)
    assert main(["eval", _write(tmp_path, "q.ra", Q1_EXPR), db]) == 0
    from_file = capsys.readouterr().out
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(Q1_EXPR.encode())))
    assert main(["eval", "-", db]) == 0
    assert capsys.readouterr().out == from_file
    # CR LF and a lone CR end a line on standard input as in a file, so a
    # fault is reported at the same position
    faults = [
        ("sql2ra", "SELECT R.A\r\nFROM R\r\nWHERE $"),
        ("sql2ra", "SELECT R.A\rFROM R\rWHERE R.A = = 1"),
        ("translate", "(select ; c\r\n(true)\r\n(base R)) (base R)"),
        ("translate", "(select\r(true)\r(base R)) (base R)"),
    ]
    for command, text in faults:
        path = tmp_path / "fault.txt"
        path.write_bytes(text.encode())
        args = ["sql2ra", "--schema", db] if command == "sql2ra" else ["translate", "--direction", "2to3"]
        assert main([*args, str(path)]) == 2
        from_file = capsys.readouterr().err
        assert "line 3" in from_file, from_file
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(text.encode())))
        assert main([*args, "-"]) == 2
        assert capsys.readouterr().err == from_file


KERNEL_2VL = {
    "values": ["t", "f"],
    "true": "t",
    "false": "f",
    "and": [["t", "f"], ["f", "f"]],
    "or": [["t", "t"], ["t", "f"]],
    "not": ["f", "t"],
    "null_comparison": {
        op: {"1": "f", "2": "f", "12": "f"} for op in ("=", "!=", "<", ">", "<=", ">=")
    },
}


def _kernel_doc(kernel) -> dict:
    """A kernel in the Kernel JSON format: its tables and its NULL table."""
    vals = kernel.values
    patterns = {"1": frozenset({1}), "2": frozenset({2}), "12": frozenset({1, 2})}
    return {
        "name": f"{kernel.name}-file",
        "values": list(vals), "true": kernel.true, "false": kernel.false,
        "and": [[kernel.and_table[(a, b)] for b in vals] for a in vals],
        "or": [[kernel.or_table[(a, b)] for b in vals] for a in vals],
        "not": [kernel.not_table[a] for a in vals],
        "null_comparison": {
            op: {key: kernel.nulls[(op, p)] for key, p in patterns.items()}
            for op in ast.COMPARISONS
        },
    }


def test_mvl_to_3_translates_a_kernel_file_without_expressibility(tmp_path, capsys):
    # the comparison templates come from the NULL table, so a kernel file
    # needs no `expressibility` map; the translation must capture the kernel
    from nullvl import fuzz
    from nullvl.logic import kernel_4vl_example
    from nullvl.values import database_to_json

    kernel = _write(tmp_path, "4vl.json", _kernel_doc(kernel_4vl_example()))
    schema = fuzz.default_schema()
    rows = 0
    for seed in range(8):
        cfg = fuzz.FuzzConfig(seed=seed, max_depth=3)
        data = database_to_json(fuzz.gen_database(schema, cfg, random.Random(seed)))
        db = _write(tmp_path, f"db-{seed}.json", data)
        query = fuzz.gen_expression(schema, cfg, random.Random(seed))
        expr = _write(tmp_path, f"q-{seed}.ra", ast.render_expression(query))
        translate = ["translate", "--direction", "mvl-to-3", "--kernel", kernel, "--schema", db]
        assert main(translate + [expr]) == 0
        translated = _write(tmp_path, f"t-{seed}.ra", capsys.readouterr().out)
        assert main(["eval", "--semantics", f"mvl:{kernel}", "--canonical", expr, db]) == 0
        want = capsys.readouterr().out
        assert main(["eval", "--semantics", "3vl", "--canonical", translated, db]) == 0
        assert capsys.readouterr().out == want, seed
        rows += len(want.splitlines())
    assert rows > 0


def test_a_kernel_files_expressibility_is_ignored(tmp_path, capsys):
    # `expressibility` is read by nothing, so even a malformed one loads
    from nullvl.logic import kernel_4vl_example

    db = _write(tmp_path, "db.json", DB)
    expr = _write(tmp_path, "q.ra", Q1_EXPR)
    doc = _kernel_doc(kernel_4vl_example())
    for i, expressibility in enumerate(({"=|t": "(cmp = (arg 1)", "?": 5}, 5)):
        kernel = _write(tmp_path, f"k-{i}.json", dict(doc, expressibility=expressibility))
        assert main(["eval", "--semantics", f"mvl:{kernel}", expr, db]) == 0
        translate = ["translate", "--direction", "mvl-to-3", "--kernel", kernel, "--schema", db]
        assert main(translate + [expr]) == 0
        assert capsys.readouterr().err == ""


def test_json_missing_required_fields_exit_two(tmp_path, capsys):
    db = _write(tmp_path, "db.json", DB)
    expr = _write(tmp_path, "q.ra", Q1_EXPR)
    runs = [
        (["eval", expr, _write(tmp_path, "nocols.json", {"schema": {"R": {"cols": []}}})],
         '"columns"'),
        (["eval", expr, _write(tmp_path, "noname.json", {"schema": {"R": {"columns": [{}]}}})],
         '"name"'),
    ]
    for key in ("values", "true", "false", "and", "or", "not"):
        kernel = {k: v for k, v in KERNEL_2VL.items() if k != key}
        kpath = _write(tmp_path, f"kernel-no-{key}.json", kernel)
        runs.append((["eval", "--semantics", f"mvl:{kpath}", expr, db], f'"{key}"'))
    bundle = {"family": "coincidence", "expression": Q1_EXPR, "db": DB}
    for key in ("db", "family"):
        partial = {k: v for k, v in bundle.items() if k != key}
        runs.append((["replay", _write(tmp_path, f"bundle-no-{key}.json", partial)], f'"{key}"'))
    runs.append((["replay", _write(tmp_path, "bundle-list.json", [])], "JSON object"))
    unknown = dict(bundle, family="plan-equivalence", kernel="5vl")
    runs.append((["replay", _write(tmp_path, "bundle-kernel.json", unknown)], "5vl"))
    not_strings = [
        dict(bundle, family="plan-equivalence", kernel=["…"]),
        dict(bundle, family="grounded-leq", direction="gr-to-3", grounding=["…"]),
        dict(bundle, family="capture-2vl-to-3vl", direction=["…"]),
    ]
    for key, listed in zip(("kernel", "grounding", "direction"), not_strings):
        runs.append((["replay", _write(tmp_path, f"bundle-{key}-list.json", listed)], key))
    for argv, field in runs:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err and "Traceback" not in err, (argv, err)


def test_json_fields_of_the_wrong_type_exit_two(tmp_path, capsys):
    expr = _write(tmp_path, "q.ra", Q1_EXPR)
    db = _write(tmp_path, "db.json", DB)
    schema = DB["schema"]
    databases = [
        ({"schema": {"R": {"columns": 5}}}, ["relation R", '"columns"']),
        ({"schema": {"R": {"columns": [{"name": "a", "type": "numeric"}]}}},
         ["relation R", "'a'", '"type"']),
        ({"schema": {"R": {"columns": [{"name": "a", "nullable": "false"}]}}},
         ["relation R", "'a'", '"nullable"']),
        ({"schema": {"R": {"columns": [{"name": ["a"]}]}}}, ["relation R", '"name"']),
        ({"schema": schema, "data": ["R"]}, ['"data"']),
        ({"schema": schema, "data": {"R": 5}}, ["relation R", '"data"']),
        ({"schema": schema, "data": {"R": [5]}}, ["relation R", '"data"']),
        ({"schema": schema, "data": {"R": ["5"]}}, ["relation R", '"data"']),
        ({"schema": schema, "data": {"R": [["1"], ["abc"]]}}, ["relation R", "R.A", "'abc'"]),
        ({"schema": schema, "data": {"R": [["1/0"]]}}, ["relation R", "R.A", "'1/0'"]),
    ]
    runs = [
        (["eval", expr, _write(tmp_path, f"db-{i}.json", doc)], fields)
        for i, (doc, fields) in enumerate(databases)
    ]
    def null_comparison(**spelled):
        # KERNEL_2VL's `=` row with extra or respelled null-pattern keys
        row = {**KERNEL_2VL["null_comparison"]["="], **spelled}
        return dict(KERNEL_2VL, null_comparison={**KERNEL_2VL["null_comparison"], "=": row})

    kernels = [
        (dict(KERNEL_2VL, values=5), ['"values"']),
        (dict(KERNEL_2VL, **{"not": "ft"}), ['"not"']),
        (dict(KERNEL_2VL, null_comparison=["="]), ['"null_comparison"']),
        (null_comparison(**{"11": "t"}), ["null_comparison", "'11'"]),
        (null_comparison(**{"21": "t"}), ["null_comparison", "'21'"]),
        (null_comparison(**{"": "t"}), ["null_comparison", "''"]),
    ]
    for i, (kernel, fields) in enumerate(kernels):
        kpath = _write(tmp_path, f"kernel-{i}.json", kernel)
        runs.append((["eval", "--semantics", f"mvl:{kpath}", expr, db], fields))
    groundings = [
        ({"templates": []}, ['"templates"']),
        ({"templates": {"=": {"x": "(true)"}}}, ["templates", "'x'"]),
        ({"templates": {"=": {"1": "(false)", "11": "(true)"}}}, ["templates", "'11'"]),
        ({"templates": {"=": {"21": "(true)"}}}, ["templates", "'21'"]),
        ({"name": ["leq"], "templates": {}}, ['"name"']),
    ]
    for i, (grounding, fields) in enumerate(groundings):
        gpath = _write(tmp_path, f"grounding-{i}.json", grounding)
        runs.append((["eval", "--semantics", f"grounded:{gpath}", expr, db], fields))
        translate = ["translate", "--direction", "gr-to-3", "--grounding", gpath, "--schema", db]
        runs.append((translate + [expr], fields))
    for argv, fields in runs:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err, (argv, err)
        assert all(f in err for f in fields), (argv, err)


def test_out_of_range_numbers_exit_two(tmp_path, capsys):
    db = _write(tmp_path, "db.json", DB)
    expr = _write(tmp_path, "q.ra", Q1_EXPR)
    fuzz = ["fuzz", "--family", "plan-equivalence"]
    runs = [
        (fuzz + ["--depth", "0"], "--depth"),
        (fuzz + ["--null-rate", "2"], "--null-rate"),
        (fuzz + ["--null-rate", "nan"], "--null-rate"),
        (fuzz + ["--rows", "-1"], "--rows"),
        (fuzz + ["--cases", "-1"], "--cases"),
        (fuzz + ["--cases", "many"], "--cases"),
        (["eval", "--recursion-cap", "0", expr, db], "--recursion-cap"),
    ]
    for argv, flag in runs:
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse ends a usage error this way
            code = exc.code
        err = capsys.readouterr().err
        assert code == 2, argv
        assert f"error: argument {flag}" in err and "Traceback" not in err, (argv, err)
    # the bounds themselves are accepted
    assert main(fuzz + ["--depth", "1", "--null-rate", "1", "--rows", "0", "--cases", "0"]) == 0
    assert main(["eval", "--recursion-cap", "1", expr, db]) == 0
    capsys.readouterr()


def test_numbers_that_cannot_be_read_or_printed_exit_two(tmp_path, capsys):
    db = _write(tmp_path, "db.json", DB)
    expr = _write(tmp_path, "q.ra", Q1_EXPR)
    # exponents are no literal form; Fraction would expand 1e10000000 for seconds
    exponent = _write(tmp_path, "exponent.ra", "(select (cmp = (col R.A) (num 1e5)) (base R))")
    exponent_cells = [
        _write(tmp_path, f"cell{i}.json", {**DB, "data": {"R": [[text]], "S": []}})
        for i, text in enumerate(["1e5", "1e10000000", " 7", "1_000"])
    ]
    # json.load raises a ValueError that is no JSONDecodeError past 4,300 digits
    long_int = _write(tmp_path, "long.json", json.dumps(DB).replace('["1"]', f"[{'9' * 5001}]"))
    # a result of 6,000 digits: Python's int-to-text limit stays in place
    nines = "(num " + "9" * 3000 + ")"
    wide = _write(tmp_path, "wide.ra", f"(project ((as X (fn mult {nines} {nines}))) (base R))")
    # multiplicities square on each of 14 rounds: 2 ** 16384 has 4,933 digits
    squares = _write(tmp_path, "squares.ra", """
        (mu W union-all (project ((as W.n (num 0))) (base R))
          (project ((as W.n (fn add (col X.n) (num 1))))
            (select (cmp < (col X.n) (num 14))
              (product (project ((as X.n (col W.n))) (base W))
                       (project ((as Y.n (col W.n))) (base W))))))""")
    runs = [["eval", exponent, db], ["eval", expr, long_int]]
    runs += [["eval", *flag, big, db] for big in (wide, squares) for flag in ([], ["--canonical"])]
    runs += [["eval", expr, cells] for cells in exponent_cells]
    for argv in runs:
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "Traceback" not in captured.err, argv
        assert captured.out == "", argv
    # the documented forms still load
    assert main(["eval", "--canonical", expr, _write(tmp_path, "forms.json", {
        **DB, "data": {"R": [["-0.25"], ["+7"], ["1/3"], [12]], "S": []}
    })]) == 0
    assert capsys.readouterr().out.split("\n") == ["(-1/4) x1", "(1/3) x1", "(7) x1", "(12) x1", ""]


def test_digits_and_layout_outside_ascii_exit_two(tmp_path, capsys):
    db = _write(tmp_path, "db.json", DB)
    expr = _write(tmp_path, "q.ra", Q1_EXPR)
    runs = []
    # an Arabic-Indic three, alone and after a decimal point, and a fullwidth one
    for i, digits in enumerate(["\u0663", "1.\u0663", "\uff11"]):
        literal = _write(tmp_path, f"literal{i}.ra", f"(select (cmp = (col R.A) (num {digits})) (base R))")
        cell = _write(tmp_path, f"cell{i}.json", {**DB, "data": {"R": [[digits]], "S": []}})
        sql = _write(tmp_path, f"q{i}.sql", f"SELECT R.A FROM R WHERE R.A = {digits}")
        runs += [["eval", literal, db], ["eval", expr, cell], ["sql2ra", "--schema", db, sql]]
    # a no-break space between SQL tokens is no layout
    sql = _write(tmp_path, "nbsp.sql", "SELECT\u00a0R.A FROM R")
    runs += [["sql2ra", "--schema", db, sql], ["rewrite", "--from", "2vl", "--to", "3vl", "--schema", db, sql]]
    for argv in runs:
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:"), argv
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err, argv


def _oversized_number_runs(tmp_path):
    """Commands that read a 5,000-digit number: a literal, a cell, a JSON
    integer and, last, an SQL literal through `sql2ra` and `rewrite`."""
    nines = "9" * 5000
    db = _write(tmp_path, "db.json", DB)
    literal = _write(tmp_path, "literal.ra", f"(select (cmp = (col R.A) (num {nines})) (base R))")
    cell = _write(tmp_path, "cell.json", {**DB, "data": {"R": [[nines]], "S": []}})
    long_int = _write(tmp_path, "long.json", json.dumps(DB).replace('["1"]', f"[{nines}1]"))
    sql = _write(tmp_path, "q.sql", f"SELECT A FROM R WHERE A = {nines}")
    return [
        ["eval", literal, db],
        ["eval", _write(tmp_path, "q.ra", "(base R)"), cell],
        ["eval", _write(tmp_path, "q1.ra", Q1_EXPR), long_int],
        ["sql2ra", "--schema", db, sql],
        ["rewrite", "--from", "2vl", "--to", "3vl", "--schema", db, sql],
    ]


def test_an_oversized_sql_number_literal_is_a_parse_error(tmp_path, capsys):
    for argv in _oversized_number_runs(tmp_path)[-2:]:
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err.startswith("error:") and "(line 1, column 27)" in captured.err, argv


def test_oversized_number_error_lines_are_short_and_name_the_limit(tmp_path, capsys):
    for argv in _oversized_number_runs(tmp_path):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1, argv
        assert len(captured.err.encode()) < 200 and "4,300-digit limit" in captured.err, argv


def test_one_parser_serves_a_sequence_of_commands(tmp_path, capsys, monkeypatch):
    from nullvl import cli

    db = _write(tmp_path, "db.json", DB)
    expr = _write(tmp_path, "q.ra", Q1_EXPR)
    runs = [
        ["eval", "--semantics", "2vl", expr, db],
        ["translate", "--direction", "2to3", "--schema", db, expr],
        ["eval", "--semantics"],
        ["fuzz", "--family", "plan-equivalence", "--cases", "3"],
    ]

    def run(argv):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse ends a usage error this way
            code = exc.code
        out = capsys.readouterr()
        return code, out.out, out.err

    builds = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or real())
    cli._parser.cache_clear()
    shared = [run(argv) for argv in runs]
    assert len(builds) == 1
    fresh = []
    for argv in runs:
        cli._parser.cache_clear()
        fresh.append(run(argv))
    cli._parser.cache_clear()
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 2, 0]
    assert shared[2][2].startswith("usage: nullvl eval")


def _not_nest(depth):
    """A selection whose parentheses nest ``depth`` deep through `not`."""
    n = depth - 3
    return "(select " + "(not " * n + "(cmp = (col R.A) (num 1))" + ")" * n + " (base R))"


def _distinct_nest(depth):
    n = depth - 1
    return "(distinct " * n + "(base R)" + ")" * n


def _nest_commands(db, expr):
    return [
        ["eval", "--semantics", "3vl", expr, db],
        ["eval", "--semantics", "2vl-syn", expr, db],
        ["analyze", "--json", expr, db],
        *(["translate", "--direction", d, "--schema", db, expr] for d in ("2to3", "3to2", "3-to-gr")),
    ]


def test_nests_at_the_limit_complete(tmp_path, capsys):
    from nullvl.parser import MAX_NESTING

    db = _write(tmp_path, "db.json", DB)
    for nest in (_not_nest, _distinct_nest):
        expr = _write(tmp_path, "q.ra", nest(MAX_NESTING))
        for argv in _nest_commands(db, expr):
            assert main(argv) == 0, (nest.__name__, argv[:3])
    capsys.readouterr()


def test_deeper_nests_exit_two_with_a_position(tmp_path, capsys):
    from nullvl.parser import MAX_NESTING

    db = _write(tmp_path, "db.json", DB)
    for nest in (_not_nest, _distinct_nest):
        for depth in (MAX_NESTING + 1, 3000):
            expr = _write(tmp_path, "q.ra", nest(depth))
            for argv in _nest_commands(db, expr):
                assert main(argv) == 2, (nest.__name__, depth, argv[:3])
                err = capsys.readouterr().err
                assert err.startswith(f"error: nesting deeper than {MAX_NESTING} parentheses (offset ")
                assert "line 1, column" in err


def test_deep_input_the_parser_admits_still_exits_two(tmp_path, capsys):
    # a flat `and` of 3,000 conditions parses to a 3,000-deep tree
    db = _write(tmp_path, "db.json", DB)
    cond = "(and " + " ".join(["(cmp = (col R.A) (num 1))"] * 3000) + ")"
    expr = _write(tmp_path, "q.ra", f"(select {cond} (base R))")
    assert main(["eval", expr, db]) == 2
    assert capsys.readouterr().err == "error: input nests too deeply to process\n"


@pytest.mark.parametrize("plan", [True, False])
@pytest.mark.parametrize("conn", ["and", "or"])
def test_flat_connective_of_400_conditions_evaluates(tmp_path, capsys, monkeypatch, conn, plan):
    # the parser builds a 400-deep left chain; neither evaluator may recurse
    # past what the rest of the pipeline admits
    import functools

    from nullvl import cli
    from nullvl.evaluator import EvalConfig, evaluate
    from nullvl.parser import parse_expression
    from nullvl.values import database_from_json

    op = "!=" if conn == "and" else "="
    cond = f"({conn} " + " ".join(f"(cmp {op} (col R.A) (num {i}))" for i in range(1, 401)) + ")"
    text = f"(select {cond} (base R))"
    data = {**DB, "data": {"R": [["1"], ["400"], ["401"], [None]], "S": []}}
    want = [["401"]] if conn == "and" else [["1"], ["400"]]
    bag = evaluate(parse_expression(text), database_from_json(data), EvalConfig(plan=plan))
    assert sorted(bag.records()) == sorted((int(v),) for (v,) in want)
    monkeypatch.setattr(cli, "EvalConfig", functools.partial(EvalConfig, plan=plan))
    db, expr = _write(tmp_path, "db.json", data), _write(tmp_path, "q.ra", text)
    assert main(["eval", expr, db]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert sorted(r["values"] for r in rows) == want


def test_memory_error_exits_two(tmp_path, capsys, monkeypatch):
    from nullvl import cli

    def exhausted(*_args, **_kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "evaluate", exhausted)
    db = _write(tmp_path, "db.json", DB)
    expr = _write(tmp_path, "q.ra", Q1_EXPR)
    assert main(["eval", expr, db]) == 2
    assert capsys.readouterr().err == "error: out of memory\n"


# -- pinned eval output ---------------------------------------------------------

# one value in several spellings, fractions, and values that cancel in sums
_DIGEST_CELLS = [1, "1", "2/2", "1.0", "1/3", "-0.25", "-2", 0, "3/2", "5", "-7/3", None]


def _digest_database(seed: int) -> dict:
    rng = random.Random(seed)

    def col(name, key=False):
        return {"name": name, "type": "num", "nullable": not key, "key": key}

    def cells(n):
        return [[rng.choice(_DIGEST_CELLS)] for _ in range(n)]

    keys = rng.sample(range(1, 30), 10)
    return {
        "schema": {
            "R": {"columns": [col("R.A")]},
            "S": {"columns": [col("S.A")]},
            "G": {"columns": [col("G.k"), col("G.v")]},
            "customer": {"columns": [col("c_custkey", key=True), col("c_nationkey"), col("c_acctbal")]},
            "orders": {"columns": [col("o_custkey")]},
        },
        "data": {
            "R": cells(14),
            "S": cells(6),
            "G": [[rng.choice([0, "1", "2/2", 2, None]), rng.choice(_DIGEST_CELLS)] for _ in range(24)],
            "customer": [
                [rng.choice([k, str(k), f"{2 * k}/2"]), rng.choice([0, 1, "1.0", None]),
                 rng.choice(_DIGEST_CELLS)]
                for k in keys
            ],
            "orders": [[rng.choice(keys + [None])] for _ in range(6)],
        },
    }


def _digest_queries() -> list:
    """The worked queries, then aggregates and arithmetic whose avg, div and
    mod cells on _digest_database(31) are both integral and not."""
    g = ast.BaseRelation("G")
    k, v = ast.col("G.k"), ast.col("G.v")
    aggs = tuple(ast.AggItem(fn, "G.v", f"{fn}_v") for fn in ("avg", "sum", "count", "min", "max"))
    arith = ast.Projection(
        (
            ast.ProjItem(k, None),
            ast.ProjItem(ast.FnApply("div", (v, k)), "D"),
            ast.ProjItem(ast.FnApply("mod", (v, k)), "M"),
            ast.ProjItem(ast.FnApply("div", (v, ast.num(Fraction(-3, 2)))), "D2"),
            ast.ProjItem(ast.FnApply("mod", (ast.FnApply("neg", (v,)), ast.num(Fraction(2, 3)))), "M2"),
            ast.ProjItem(ast.FnApply("mult", (v, ast.num(3))), "T"),
        ),
        g,
    )
    queries = [sq.q1(), sq.q2(), sq.q3(), sq.q4(), sq.q5(), sq.q5_translated(), sq.q1_translated(),
               ast.Group(("G.k",), aggs, g), arith,
               ast.Group(("D",), (ast.AggItem("avg", "M", "avg_m"), ast.AggItem("count_star", None, "n")), arith)]
    return [ast.render_expression(q) for q in queries]


# SHA-256 of the concatenated `eval` outputs of _digest_queries() on
# _digest_database(31), JSON and --canonical, per semantics
EVAL_DIGESTS = {
    "3vl": ("e61712bfd0b5368694d1da92b6fb92d301b8e6aab4f67c421fa0bf2d4c322b7b",
            "1d18a67f28d9be92dae67abc9f8401dbfb4b28d4d3c30c7f245969b76a54b1c8"),
    "2vl": ("2404fac64a7b3bfd2e7f9eca5535924b72b1e8cd88b5320b7daebe2113cb231c",
            "185d844a44f954a606f88e1547f448a77653817e955d23cee1f5144cdac4c061"),
    "2vl-syn": ("2e3d65de48fff4874028b572cded6989bb292d275c5ac015fd9c90ddc2983e35",
                "14975424d63a49dc7b2a724221461c2d777e4638fb4ef5c9a1804da73f6a9324"),
    "grounded": ("152ecf9ab31dec7e9b28bcf5268acabb3fe8e31957164141ec7279acf090e9b7",
                 "84a2a94449b4de842adcff2191733034d8a5fda23d4f133f1a769c08edcc6626"),
}


def test_eval_output_bytes_are_pinned(tmp_path, capsys):
    db = _write(tmp_path, "db.json", _digest_database(31))
    grounding = _write(tmp_path, "grounding.json", {"name": "leq-sign-syn", "templates": {
        "<=": {"1": "(cmp >= (arg 2) (num 0))", "2": "(cmp < (arg 1) (num 0))", "12": "(true)"},
        "=": {"1": "(cmp = (arg 2) (num 1))", "2": "(cmp = (arg 1) (num 1))", "12": "(true)"},
        ">": {"1": "(cmp < (arg 2) (num 0))", "2": "(cmp > (arg 1) (num 1/2))", "12": "(false)"},
    }})
    exprs = [_write(tmp_path, f"q{i}.ra", text) for i, text in enumerate(_digest_queries())]
    got = {}
    for semantics in ("3vl", "2vl", "2vl-syn", f"grounded:{grounding}"):
        digests = []
        for flags in ([], ["--canonical"]):
            out = []
            for expr in exprs:
                assert main(["eval", "--semantics", semantics, *flags, expr, db]) == 0
                out.append(capsys.readouterr().out)
            digests.append(hashlib.sha256("".join(out).encode()).hexdigest())
        got[semantics.split(":")[0]] = tuple(digests)
    assert got == EVAL_DIGESTS


def _bundle_names():
    """Every kernel and grounding name a harness bundle can carry, by the
    CLI flag of its kind."""
    from nullvl import harness, translate

    names = {"kernel": set(harness.PLAN_KERNELS) | {"grounded:empty"}, "grounding": set()}
    for direction, param, _ in harness.CAPTURE_FAMILIES.values():
        if param is not None:
            names[translate.flag_of(direction)].add(param)
    return names


def test_every_bundle_kernel_name_evaluates_as_the_harness_kernel(tmp_path, capsys):
    from nullvl.evaluator import EvalConfig, evaluate
    from nullvl.logic import kernel_by_name
    from nullvl.parser import parse_expression
    from nullvl.typecheck import typecheck
    from nullvl.values import bag_to_json, database_from_json

    data = dict(DB, data={"R": [["-1"], ["0"], ["2"], [None]], "S": [[None], ["0"]]})
    db = _write(tmp_path, "db.json", data)
    database = database_from_json(data)
    texts = [Q1_EXPR, "(select (cmp <= (col R.A) (num 0)) (base R))",
             "(select (not (cmp = (col R.A) (col R.A))) (base R))"]
    names = _bundle_names()["kernel"]
    assert {"3vl", "2vl", "2vl-syn", "4vl", "grounded:leq-sign", "grounded:empty"} <= names
    for text in texts:
        expr = _write(tmp_path, "q.ra", text)
        checked = typecheck(parse_expression(text), database.schema)
        for name in sorted(names):
            assert main(["eval", "--semantics", name, expr, db]) == 0, name
            bag = evaluate(checked, database, cfg=EvalConfig(kernel=kernel_by_name(name)))
            assert json.loads(capsys.readouterr().out) == bag_to_json(bag, checked.sig.labels)


def test_every_bundle_parameter_name_is_a_translate_flag_value(tmp_path, capsys):
    from nullvl import harness, translate
    from nullvl.parser import parse_expression
    from nullvl.typecheck import typecheck
    from nullvl.values import database_from_json

    db = _write(tmp_path, "db.json", DB)
    text = "(select (cmp <= (col R.A) (num 0)) (base R))"
    expr = _write(tmp_path, "q.ra", text)
    schema = database_from_json(DB).schema
    checked = typecheck(parse_expression(text), schema).expr
    seen = set()
    for direction_name, name, _ in harness.CAPTURE_FAMILIES.values():
        flag = translate.flag_of(direction_name)
        if name is None:
            continue
        argv = ["translate", "--direction", direction_name, f"--{flag}", name, "--schema", db, expr]
        assert main(argv) == 0, argv
        run, _, _ = translate.direction(direction_name, name)
        want = ast.render_expression(run(checked, schema).output)
        assert capsys.readouterr().out == want + "\n"
        seen.add((flag, name))
    assert {kind for kind, _ in seen} == {"grounding", "kernel"}
