"""Command-line interface.

Exit codes: 0 success, 1 property failure, 2 usage or parse error.

The module imports what building the parser and `eval` need; each other
command imports its own module (`analyze`, `sqlfront`, `harness`) when it
runs, so a process that starts for one command compiles little else.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

from . import ast, translate
from .errors import NullvlError
from .evaluator import EvalConfig, evaluate
from .logic import GROUNDINGS, KERNELS, kernel_3vl, kernel_by_name
from .parser import parse_expression
from .typecheck import typecheck
from .values import bag_json_text, bag_to_json, load_database, read_json


def _read(path: str) -> str:
    """The text of a UTF-8 file, or of standard input for ``-``.  Both read
    a CR LF pair and a lone CR as one newline, as text-mode files do."""
    try:
        if path == "-":
            return sys.stdin.buffer.read().decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        name = "standard input" if path == "-" else path
        raise NullvlError(f"{name}: not UTF-8 text: {exc}") from None


def _cmd_eval(args) -> int:
    db = load_database(args.db)
    expr = parse_expression(_read(args.expr))
    checked = typecheck(expr, db.schema)
    cfg = EvalConfig(kernel=kernel_by_name(args.semantics), recursion_cap=args.recursion_cap)
    bag = evaluate(checked, db, cfg=cfg)
    if args.canonical:
        print(bag.canonical_text())
    else:
        print(bag_json_text(bag_to_json(bag, checked.sig.labels)))
    return 0


def _cmd_translate(args) -> int:
    flag = translate.flag_of(args.direction)
    for other in ("grounding", "kernel"):
        if getattr(args, other) is not None and other != flag:
            raise NullvlError(f"{args.direction} does not read --{other}")
    text = _read(args.expr)
    expr = parse_expression(text)
    if args.schema:
        schema = load_database(args.schema).schema
    else:
        from . import fuzz

        schema = fuzz.default_schema()
    spec = getattr(args, flag) if flag else None
    try:
        # resolved even where the translation holds for every value, so
        # that a bad name is an error and not ignored
        run, _, _ = translate.direction(args.direction, spec)
    except (NullvlError, OSError) as exc:
        if spec is None:  # the direction needs a value
            raise
        raise NullvlError(f"{args.direction} --{flag}: {exc}") from None
    result = run(expr, schema)
    print(ast.render_expression(result.output))
    if args.trace:
        print(json.dumps({"size_ratio": float(result.size_ratio), "trace": result.trace_json()}, indent=1), file=sys.stderr)
    return 0


def _cmd_analyze(args) -> int:
    from . import analyze

    db = load_database(args.db)
    report = analyze.coincidence_certificate(parse_expression(_read(args.expr)), db.schema)
    if args.json:
        print(json.dumps(report.to_json(), indent=1))
    else:
        print(report.to_table())
    return 0


def _cmd_sql2ra(args) -> int:
    from . import sqlfront

    db = load_database(args.schema)
    query = sqlfront.parse_sql(_read(args.sql))
    lowered = sqlfront.lower_to_algebra(query, db.schema)
    lowered = typecheck(lowered, db.schema).expr
    print(ast.render_expression(lowered))
    return 0


def _cmd_rewrite(args) -> int:
    if args.target != "3vl":
        raise NullvlError("rewrite supports --to 3vl only, the semantics SQL engines run")
    try:
        source = kernel_by_name(args.source)
    except (NullvlError, OSError) as exc:
        raise NullvlError(f"rewrite --from: {exc}") from None
    from . import sqlfront

    db = load_database(args.schema)
    query = sqlfront.parse_sql(_read(args.sql))
    lowered = sqlfront.lower_to_algebra(query, db.schema)
    result = translate.translate(lowered, db.schema, source, kernel_3vl())
    print(sqlfront.emit_sql(result.output))
    return 0


def _cmd_fuzz(args) -> int:
    from . import fuzz, harness

    cfg = fuzz.FuzzConfig(
        seed=args.seed,
        max_depth=args.depth,
        null_rate=args.null_rate,
        rows_per_relation=args.rows,
        cases=args.cases,
    )
    summary = harness.run_differential(args.family, cfg, bundle_dir=args.bundles)
    out = summary.to_json()
    print(json.dumps(out, indent=1))
    for bundle in summary.bundles:
        print(f"counterexample: {json.dumps(bundle)[:400]}", file=sys.stderr)
    return 1 if summary.failed else 0


def _cmd_replay(args) -> int:
    from . import harness

    outcome = harness.replay(read_json(args.bundle))
    print(json.dumps({"status": outcome.status, "detail": outcome.detail}))
    return 0 if outcome.status == "pass" else 1


def _bounded(convert, low, high=None):
    """An argparse type: ``convert`` the text, then require low <= value <= high."""

    def parse(text: str):
        value = convert(text)
        if not (low <= value and (high is None or value <= high)):
            bound = f"at least {low}" if high is None else f"between {low} and {high}"
            raise argparse.ArgumentTypeError(f"must be {bound}, not {text}")
        return value

    parse.__name__ = convert.__name__  # argparse names the type in its messages
    return parse


class _Families:
    """`harness.FAMILIES` as argparse `choices`: the harness is imported
    only when a `--family` value is checked or the fuzz help is printed."""

    def __iter__(self):
        from . import harness

        return iter(sorted(harness.FAMILIES))

    def __contains__(self, name) -> bool:
        from . import harness

        return name in harness.FAMILIES


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="nullvl",
        description="Evaluate, translate and analyze queries over data with nulls "
        "under pluggable condition semantics.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    semantics = f"{' | '.join(KERNELS)} | grounded:<grounding> | [mvl:]<kernel file>"

    pe = sub.add_parser("eval", help="evaluate an expression on a database")
    pe.add_argument("--semantics", default="3vl", help=semantics)
    pe.add_argument("--canonical", action="store_true", help="print the sorted text form")
    pe.add_argument("--recursion-cap", type=_bounded(int, 1), default=10_000)
    pe.add_argument("expr", help="expression file ('-' for stdin)")
    pe.add_argument("db", help="database JSON file")
    pe.set_defaults(fn=_cmd_eval)

    pt = sub.add_parser("translate", help="translate an expression between semantics")
    pt.add_argument("--direction", required=True, choices=list(translate.DIRECTIONS))
    for flag, built_ins in (("grounding", GROUNDINGS), ("kernel", KERNELS)):
        users = [name for name in translate.DIRECTIONS if translate.flag_of(name) == flag]
        pt.add_argument(f"--{flag}",
                        help=f"{' | '.join(built_ins)} | <{flag} file> ({', '.join(users)})")
    pt.add_argument("--schema", help="database JSON supplying the schema")
    pt.add_argument("--trace", action="store_true", help="emit the per-node rule trace")
    pt.add_argument("expr", help="expression file ('-' for stdin)")
    pt.set_defaults(fn=_cmd_translate)

    pa = sub.add_parser("analyze", help="nullability report and coincidence certificate")
    pa.add_argument("--json", action="store_true", help="JSON instead of the table")
    pa.add_argument("expr", help="expression file ('-' for stdin)")
    pa.add_argument("db", help="database JSON file supplying the schema")
    pa.set_defaults(fn=_cmd_analyze)

    ps = sub.add_parser("sql2ra", help="parse SQL and print the algebra expression")
    ps.add_argument("--schema", required=True, help="database JSON supplying the schema")
    ps.add_argument("sql", help="SQL file ('-' for stdin)")
    ps.set_defaults(fn=_cmd_sql2ra)

    pr = sub.add_parser("rewrite", help="rewrite SQL from one semantics into another")
    pr.add_argument("--from", dest="source", required=True, help=semantics)
    pr.add_argument("--to", dest="target", required=True, help="3vl")
    pr.add_argument("--schema", required=True, help="database JSON supplying the schema")
    pr.add_argument("sql", help="SQL file ('-' for stdin)")
    pr.set_defaults(fn=_cmd_rewrite)

    pf = sub.add_parser("fuzz", help="run a differential property family")
    # a metavar keeps `add_argument` from iterating the choices
    pf.add_argument("--family", required=True, choices=_Families(), metavar="FAMILY",
                    help="one of %(choices)s")
    pf.add_argument("--seed", type=int, default=0)
    pf.add_argument("--cases", type=_bounded(int, 0), default=500)
    pf.add_argument("--depth", type=_bounded(int, 1), default=4)
    pf.add_argument("--null-rate", type=_bounded(float, 0.0, 1.0), default=0.3)
    pf.add_argument("--rows", type=_bounded(int, 0), default=6)
    pf.add_argument("--bundles", help="directory for counterexample bundles")
    pf.set_defaults(fn=_cmd_fuzz)

    pp = sub.add_parser("replay", help="re-check a counterexample bundle")
    pp.add_argument("bundle")
    pp.set_defaults(fn=_cmd_replay)
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built on its first call and then reused."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except NullvlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # an input path that is missing, a directory, unreadable, ...
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # input nested more deeply than the parser's limit catches, such as
        # a long flat `and` or SQL text
        print("error: input nests too deeply to process", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
