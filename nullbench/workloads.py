"""The four workloads: their requests and the answer check of each request.

A request is one `nullvl` command line, run in-process through
`nullvl.cli.main`.  Each request carries a check that judges its standard
output against a reference computed outside the timed interval.
"""
from __future__ import annotations

import json
import os
import re
import sqlite3
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import gen
from nullvl import ast, fuzz, harness, logic, translate
from nullvl.errors import NullvlError
from nullvl.evaluator import EvalConfig, evaluate
from nullvl.parser import parse_expression
from nullvl.typecheck import typecheck
from nullvl.values import database_from_json, database_to_json

WIDE_ROWS = (50, 100)
DUP_ROWS = 1500
CHAIN_DEPTHS = (4, 7, 10)  # depth 11 takes 8 s through mvl-to-3 with the 4vl kernel
GEN_EXPRESSIONS = 60
GEN_DEPTH = 6
GEN_SQL = 30
FUZZ_SEEDS = 32
FUZZ_CASES = 5


@dataclass
class Request:
    kind: str  # eval | translate | analyze | rewrite | fuzz
    label: str
    argv: list
    check: Callable[[str], Optional[str]]  # stdout -> None when correct, else why not
    info: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    size: str  # the stated input size
    requests: list
    props: dict  # input.* properties
    premise: Optional[str]  # why the generated input misses the workload's premise, if it does
    summarize: Callable[[dict], dict] = lambda outputs: {}  # first stdout per label -> extra figures


# ---------------------------------------------------------------------------
# Bags as multisets of normalised records


def _num(v):
    if isinstance(v, float):
        # SQLite averages are floats; the exact averages here have small
        # denominators, which limit_denominator recovers exactly
        return Fraction(v).limit_denominator(10**6)
    if isinstance(v, int):
        return Fraction(v)
    return v


def cli_bag(stdout: str) -> Counter:
    """Multiset of the records of `nullvl eval` JSON output."""
    out = Counter()
    for row in json.loads(stdout)["rows"]:
        values = tuple(None if v is None else Fraction(v) for v in row["values"])
        out[values] += row["multiplicity"]
    return out


def sqlite_bag(conn, sql: str) -> Counter:
    return Counter(tuple(_num(v) for v in row) for row in conn.execute(sql))


def library_bag(bag) -> Counter:
    return Counter({tuple(record): k for record, k in bag.items()})


def bag_diff(got: Counter, want: Counter, what: str) -> Optional[str]:
    if got == want:
        return None
    extra = got - want
    missing = want - got
    return (f"differs from {what}: {sum(extra.values())} extra and "
            f"{sum(missing.values())} missing records")


def sqlite_database(db: dict):
    """In-memory SQLite copy of a database JSON document; column names lose
    their relation prefix (R.A becomes A)."""
    conn = sqlite3.connect(":memory:")
    for rel, spec in db["schema"].items():
        cols = [c["name"].split(".")[-1] for c in spec["columns"]]
        conn.execute(f'CREATE TABLE "{rel}" ({", ".join(cols)})')
        rows = db["data"].get(rel, [])
        if rows:
            marks = ", ".join("?" * len(cols))
            conn.executemany(f'INSERT INTO "{rel}" VALUES ({marks})', [
                [int(v) if isinstance(v, str) and re.fullmatch(r"-?\d+", v) else v for v in r]
                for r in rows
            ])
    return conn


def _guard(fn):
    """Run a check; an exception inside it is a failed check, not a crash."""

    def checked(stdout):
        try:
            return fn(stdout)
        except (NullvlError, ValueError, KeyError, sqlite3.Error) as exc:
            return f"check raised {type(exc).__name__}: {exc}"

    return checked


# ---------------------------------------------------------------------------
# eval-wide and eval-dup


def _semantics_files(work: str) -> dict:
    k4 = gen.write_json(os.path.join(work, "kernel-4vl.json"), gen.kernel_4vl_json())
    leq = gen.write_json(os.path.join(work, "grounding-leq.json"), gen.grounding_leq_json())
    return {"3vl": "3vl", "2vl": "2vl", "2vl-syn": "2vl-syn",
            "grounded:leq-sign": f"grounded:{leq}", "mvl:4vl": f"mvl:{k4}"}


def _eval_requests(work, tag, db_json, queries, spec) -> list:
    """One request per query and semantics, plus the query's 2to3
    translation under 3vl.

    References: 3vl and mvl:4vl answers against SQLite running the
    hand-written 3vl SQL (the 4vl kernel maps onto 3vl by s -> u, which
    preserves its tables and NULL comparisons, so it keeps the same rows; the
    3vl evaluation of its translation is exponential, 9 s for q5 at 12
    customers); the translation under 3vl against SQLite running the
    hand-written two-valued reading; 2vl, 2vl-syn and grounded against the 3vl
    evaluation of the query's translation into 3vl.
    """
    db_path = gen.write_json(os.path.join(work, f"db-{tag}.json"), db_json)
    db = database_from_json(db_json)
    cache = {}

    def conn():
        if "sqlite" not in cache:
            cache["sqlite"] = sqlite_database(db_json)
        return cache["sqlite"]

    three = EvalConfig(kernel=logic.kernel_3vl())
    grounding = {
        "2vl-syn": logic.grounding_from_json(gen.grounding_syntactic_json()),
        "grounded:leq-sign": logic.grounding_from_json(gen.grounding_leq_json()),
    }
    requests = []
    for name, text, sql3, sql2 in queries:
        expr = typecheck(parse_expression(text), db.schema).expr
        q_path = gen.write_text(os.path.join(work, f"{name}.txt"), text)
        tr_text = ast.render_expression(translate.tr_to_3vl(expr, db.schema).output)
        tr_path = gen.write_text(os.path.join(work, f"{name}.2to3.txt"), tr_text)
        info = {"query": name, "rows": tag}

        def by_sqlite(sql):
            return lambda out: bag_diff(cli_bag(out), sqlite_bag(conn(), sql), "SQLite")

        def by_translation(expr=expr, sem=None):
            def check(out):
                if sem == "2vl":
                    target = translate.tr_to_3vl(expr, db.schema).output
                else:
                    target = translate.tr_grounded_to_3vl(expr, db.schema, grounding[sem]).output
                want = library_bag(evaluate(target, db, cfg=three))
                return bag_diff(cli_bag(out), want, "the 3vl evaluation of the translation")
            return check

        for sem, arg in spec.items():
            if sem in ("3vl", "mvl:4vl"):
                check = by_sqlite(sql3)
            else:
                check = by_translation(sem=sem)
            requests.append(Request("eval", f"{name} {sem} n={tag}",
                                    ["eval", "--semantics", arg, q_path, db_path],
                                    _guard(check), dict(info, semantics=sem)))
        requests.append(Request("eval", f"{name} 2to3->3vl n={tag}",
                                ["eval", "--semantics", "3vl", tr_path, db_path],
                                _guard(by_sqlite(sql2)), dict(info, semantics="2to3->3vl")))
    return requests


def _expr_nodes(texts) -> float:
    sizes = [ast.expression_size(parse_expression(t)) for t in texts]
    return sum(sizes) / len(sizes)


def eval_wide(seed: int, work: str) -> Workload:
    spec = _semantics_files(work)
    requests, props = [], Counter()
    for n in WIDE_ROWS:
        db_json = gen.wide_database(gen.rng_for(seed, f"wide{n}"), n)
        requests += _eval_requests(work, str(n), db_json, gen.WIDE_QUERIES, spec)
        props.update(gen.input_properties(db_json, ("R", "S", "customer", "orders", "E")))
    props = {k: v / len(WIDE_ROWS) for k, v in props.items()}
    props["input.expr_nodes"] = _expr_nodes(q[1] for q in gen.WIDE_QUERIES)
    premise = None
    if props["input.distinct_share"] < 0.8:
        premise = f"distinct share {props['input.distinct_share']:.2f} is below 0.8"
    return Workload("eval-wide", f"R, S at {' and '.join(map(str, WIDE_ROWS))} rows",
                    requests, props, premise)


def eval_dup(seed: int, work: str) -> Workload:
    spec = _semantics_files(work)
    db_json = gen.narrow_database(gen.rng_for(seed, "dup"), DUP_ROWS)
    requests = _eval_requests(work, str(DUP_ROWS), db_json, gen.DUP_QUERIES, spec)
    props = gen.input_properties(db_json, ("R", "S"))  # what the quantifiers fold over
    props["input.expr_nodes"] = _expr_nodes(q[1] for q in gen.DUP_QUERIES)
    premise = None
    if props["input.mean_multiplicity"] < 50:
        premise = f"mean multiplicity {props['input.mean_multiplicity']:.1f} is below 50"
    return Workload("eval-dup", f"R, S, G at {DUP_ROWS} rows", requests, props, premise)


# ---------------------------------------------------------------------------
# compile


def _small_db(seed: int, label: str):
    cfg = fuzz.FuzzConfig(rows_per_relation=8, null_rate=0.3)
    return fuzz.gen_database(fuzz.default_schema(), cfg, gen.rng_for(seed, label))


def _translate_check(seed, label, text, source_kernel, target_kernel, sizes):
    """Capture check on a small seeded database: the input under its source
    semantics and the output under the target semantics give equal bags."""

    def check(out):
        db = _small_db(seed, label)
        src = typecheck(parse_expression(text), db.schema).expr
        dst = typecheck(parse_expression(out), db.schema).expr
        sizes[label] = Fraction(ast.expression_size(dst), ast.expression_size(src))
        left = evaluate(src, db, cfg=EvalConfig(kernel=source_kernel))
        right = evaluate(dst, db, cfg=EvalConfig(kernel=target_kernel))
        return bag_diff(library_bag(right), library_bag(left), "the source-semantics answer")

    return check


def _analyze_check(seed, label, text):
    """A certified expression must give equal 2vl and 3vl answers, and every
    NULL in an answer column must be predicted nullable."""

    def check(out):
        report = json.loads(out)
        db = _small_db(seed, label)
        checked = typecheck(parse_expression(text), db.schema)
        answers = [evaluate(checked.expr, db, cfg=EvalConfig(kernel=k))
                   for k in (logic.kernel_2vl(), logic.kernel_3vl())]
        if report["certified"] and answers[0] != answers[1]:
            return "certified, but the 2vl and 3vl answers differ"
        nullable = set(report["nullable"])
        for bag in answers:
            for record in bag.records():
                for name, v in zip(checked.sig.labels, record):
                    if v is None and name not in nullable:
                        return f"NULL in {name!r} not reported nullable"
        return None

    return check


# SQLite has no ANY; a subquery computing one global aggregate returns exactly
# one row, where `x op ANY (q)` and `x op (q)` agree
_ANY_AGGREGATE = re.compile(r"\bANY (\(SELECT (?:AVG|SUM|MIN|MAX|COUNT)\()")


def _rewrite_check(seed, label, sql2):
    """The rewritten SQL, run by SQLite under 3vl, must give the two-valued
    reading of the input query."""

    def check(out):
        conn = sqlite_database(database_to_json(_small_db(seed, label)))
        got = sqlite_bag(conn, _ANY_AGGREGATE.sub(r"\1", out.strip()))
        return bag_diff(got, sqlite_bag(conn, sql2), "the two-valued reading in SQLite")

    return check


def compile_workload(seed: int, work: str) -> Workload:
    rng = gen.rng_for(seed, "compile")
    schema_path = gen.write_json(os.path.join(work, "schema.json"),
                                 {"schema": gen.COMPILE_SCHEMA, "data": {}})
    k3 = gen.write_json(os.path.join(work, "kernel-3vl.json"), gen.kernel_3vl_json())
    k4 = gen.write_json(os.path.join(work, "kernel-4vl.json"), gen.kernel_4vl_json())
    leq = gen.write_json(os.path.join(work, "grounding-leq.json"), gen.grounding_leq_json())
    kernel_2vl, kernel_3vl = logic.kernel_2vl(), logic.kernel_3vl()
    directions = (
        ("2to3", ["--direction", "2to3"], kernel_2vl, kernel_3vl),
        ("3to2", ["--direction", "3to2"], kernel_3vl, kernel_2vl),
        ("gr-to-3", ["--direction", "gr-to-3", "--grounding", leq],
         logic.kernel_grounded(logic.grounding_from_json(gen.grounding_leq_json())), kernel_3vl),
        ("mvl-to-3.3vl", ["--direction", "mvl-to-3", "--kernel", k3],
         logic.kernel_from_json(gen.kernel_3vl_json()), kernel_3vl),
        ("mvl-to-3.4vl", ["--direction", "mvl-to-3", "--kernel", k4],
         logic.kernel_from_json(gen.kernel_4vl_json()), kernel_3vl),
    )
    inputs = [(f"chain{d}", gen.chain(rng, d)) for d in CHAIN_DEPTHS]
    inputs += [(f"expr{i}", t) for i, t in
               enumerate(gen.generated_expressions(seed, GEN_EXPRESSIONS, GEN_DEPTH))]
    sizes: dict = {}
    requests = []
    for name, text in inputs:
        path = gen.write_text(os.path.join(work, f"{name}.txt"), text)
        for dname, flags, source, target in directions:
            # mvl-to-3 grows exponentially with nesting; on random expressions
            # one draw can cost more than the rest of the cycle, so it runs
            # on the chains, whose shape and cost the seed does not change
            if dname.startswith("mvl-to-3") and not name.startswith("chain"):
                continue
            label = f"translate {dname} {name}"
            requests.append(Request(
                "translate", label, ["translate", *flags, path],
                _guard(_translate_check(seed, label, text, source, target, sizes)),
                {"direction": dname, "input": name}))
        label = f"analyze {name}"
        requests.append(Request("analyze", label, ["analyze", "--json", path, schema_path],
                                _guard(_analyze_check(seed, label, text)), {"input": name}))
    sql_texts = list(gen.SQL_QUERIES) + gen.generated_sql(rng, GEN_SQL, 3)
    for name, sql, sql2 in sql_texts:
        path = gen.write_text(os.path.join(work, f"{name}.sql"), sql)
        label = f"rewrite {name}"
        requests.append(Request("rewrite", label,
                                ["rewrite", "--from", "2vl", "--to", "3vl", "--schema", schema_path, path],
                                _guard(_rewrite_check(seed, label, sql2)), {"input": name}))

    def summarize(outputs):
        ratios = [sizes[r.label] for r in requests if r.label in sizes]
        if not ratios:
            return {}
        out = {"size_ratio.max": float(max(ratios)), "size_ratio.mean": float(sum(ratios) / len(ratios))}
        for dname, *_ in directions:
            mine = [sizes[r.label] for r in requests
                    if r.info.get("direction") == dname and r.label in sizes]
            out[f"size_ratio.{dname}.max"] = float(max(mine))
        return out

    props = {"input.expr_nodes": _expr_nodes(t for _, t in inputs)}
    return Workload("compile", f"{len(inputs)} expressions (chains of depth "
                    f"{', '.join(map(str, CHAIN_DEPTHS))}), {len(sql_texts)} SQL texts",
                    requests, props, None, summarize)


# ---------------------------------------------------------------------------
# fuzz


def _fuzz_check(out):
    summary = json.loads(out)
    if summary["failed"]:
        return f"{summary['failed']} failing cases"
    if summary["cases"] < 1:
        return "no cases ran"
    return None


def fuzz_workload(seed: int, work: str) -> Workload:
    seeds = [seed * 1000 + i for i in range(FUZZ_SEEDS)]
    requests = [
        Request("fuzz", f"fuzz {family} seed={s}",
                ["fuzz", "--family", family, "--seed", str(s), "--cases", str(FUZZ_CASES)],
                _guard(_fuzz_check), {"family": family})
        for s in seeds for family in harness.FAMILIES
    ]

    def summarize(outputs):
        out, ratios = {}, []
        cases = 0
        for family in harness.FAMILIES:
            runs = [json.loads(outputs[r.label]) for r in requests
                    if r.info["family"] == family and r.label in outputs]
            cases += sum(s["cases"] for s in runs)
            if any("max_size_ratio" in s for s in runs):
                means = [s["notes"]["mean_size_ratio"] for s in runs if "mean_size_ratio" in s["notes"]]
                out[f"size_ratio.{family}.max"] = max(s.get("max_size_ratio", 0) for s in runs)
                out[f"size_ratio.{family}.mean"] = sum(means) / len(means)
                ratios.append(out[f"size_ratio.{family}.max"])
        if ratios:
            out["size_ratio.max"] = max(ratios)
            means = [v for k, v in out.items() if k.endswith(".mean")]
            out["size_ratio.mean"] = sum(means) / len(means)
        out["fuzz.cases_per_request"] = cases / max(1, len(outputs))
        return out

    # the corpus the capture families draw: an expression, then a database,
    # from each case's generator
    schema, cfg = fuzz.default_schema(), fuzz.FuzzConfig()
    texts, tables = [], {}
    for s in seeds:
        case_cfg = fuzz.FuzzConfig(seed=s)
        for i in range(FUZZ_CASES):
            rng = fuzz.case_rng(s, i)
            texts.append(ast.render_expression(fuzz.gen_expression(schema, case_cfg, rng)))
            db = database_to_json(fuzz.gen_database(schema, case_cfg, rng))
            for name, rows in db["data"].items():
                tables.setdefault(name, []).extend(rows)
    props = gen.input_properties({"data": tables}, sorted(tables))
    props["input.expr_nodes"] = _expr_nodes(texts)
    return Workload("fuzz", f"{len(harness.FAMILIES)} families x {FUZZ_SEEDS} seeds x "
                    f"{FUZZ_CASES} cases, {cfg.rows_per_relation} rows, depth {cfg.max_depth}",
                    requests, props, None, summarize)


WORKLOADS = {
    "eval-wide": eval_wide,
    "eval-dup": eval_dup,
    "compile": compile_workload,
    "fuzz": fuzz_workload,
}
