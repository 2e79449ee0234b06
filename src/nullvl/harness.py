"""Differential and property test driver.

Each family turns one of the equivalence results into an executable oracle
over a reproducible random corpus.  Cases are checked in memory; only
failures are emitted as self-contained bundles (expression text, database,
family) that `replay` re-checks to the same verdict; cap-exceeded fixpoints
are skipped, never failed.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Optional

from . import analyze, ast, frozen, fuzz, sqlfront, translate
from .errors import KernelError, NullvlError, RecursionLimitError, SqlEmitError
from .evaluator import EvalConfig, eval_condition, evaluate
from .logic import kernel_2vl, kernel_3vl, kernel_by_name
from .parser import parse_condition, parse_expression
from .typecheck import Checked, typecheck
from .values import (
    NUM, Bag, Database, Schema, bag_to_json, database_from_json, database_to_json, required,
)


@dataclass
class CaseOutcome:
    status: str  # "pass" | "fail" | "skip"
    detail: str = ""
    size_ratio: Optional[Fraction] = None


@dataclass
class FamilySummary:
    family: str
    cases: int
    passed: int
    failed: int
    skipped: int
    max_size_ratio: Optional[Fraction] = None
    notes: dict = field(default_factory=dict)
    bundles: list = field(default_factory=list)  # failing case bundles

    def to_json(self) -> dict:
        out = {
            "family": self.family,
            "cases": self.cases,
            "passed": self.passed,
            "failed": self.failed,
            "skipped": self.skipped,
            "notes": dict(self.notes),
        }
        if self.max_size_ratio is not None:
            out["max_size_ratio"] = float(self.max_size_ratio)
        return out


def _bags_equal_detail(left: Bag, right: Bag, labels) -> str:
    return json.dumps(
        {"left": bag_to_json(left, labels), "right": bag_to_json(right, labels)}
    )


@dataclass
class Case:
    """One harness case in memory: the `Checked` of the generator's one
    typecheck, the database, the family's parameters by bundle key
    (direction, grounding, kernel) and, for prop-4.1, its checks as trees."""

    family: str
    checked: Checked
    db: Database
    params: dict = field(default_factory=dict)
    checks: tuple = ()  # (kind, first, second), the fields as in `_CHECK_FIELDS`


# ---------------------------------------------------------------------------
# Case checkers (pure functions of a `Case`)


def _check_capture_case(case: Case) -> CaseOutcome:
    db, checked = case.db, case.checked
    name = required(case.params, "direction", "bundle")
    flag = translate.flag_of(name)
    spec = required(case.params, flag, "bundle") if flag else None
    if flag and not isinstance(spec, str):
        raise KernelError(f"a {flag} name must be a string, not {spec!r}")
    run, source, target = translate.direction(name, spec)
    tr = run(checked.expr, db.schema, checked)
    verdict = translate.check_capture(checked, db, EvalConfig(kernel=source), EvalConfig(kernel=target), tr)
    if verdict.status == "inconclusive":
        return CaseOutcome("skip", verdict.detail)
    if verdict.equal:
        return CaseOutcome("pass", size_ratio=tr.size_ratio)
    return CaseOutcome("fail", _bags_equal_detail(verdict.left, verdict.right, checked.sig.labels))


def _check_invariance_case(case: Case) -> CaseOutcome:
    outs = []
    try:
        for name in ("3vl", "2vl", "2vl-syn", "grounded:empty"):
            outs.append(evaluate(case.checked, case.db, cfg=EvalConfig(kernel=kernel_by_name(name))))
    except RecursionLimitError as exc:
        return CaseOutcome("skip", str(exc))
    if all(o == outs[0] for o in outs):
        return CaseOutcome("pass")
    return CaseOutcome("fail", "kernels disagree on a null-free database")


def _check_prop41_case(case: Case) -> CaseOutcome:
    db = case.db
    cfg = EvalConfig(kernel=kernel_2vl())
    try:
        for kind, a, b in case.checks:
            if kind == "bags-equal":
                if evaluate(a, db, cfg=cfg) != evaluate(b, db, cfg=cfg):
                    return CaseOutcome("fail", f"{kind}: bags differ")
            else:
                value = eval_condition(a, db, cfg=cfg)
                bag = evaluate(b, db, cfg=cfg)
                wanted = "f" if kind == "cond-false-iff-empty" else "t"
                if (value == wanted) != bag.is_empty():
                    return CaseOutcome(
                        "fail", f"{kind}: condition {value}, selection empty={bag.is_empty()}"
                    )
    except RecursionLimitError as exc:
        return CaseOutcome("skip", str(exc))
    return CaseOutcome("pass")


def _check_coincidence_case(case: Case) -> CaseOutcome:
    db, checked = case.db, case.checked
    report = analyze.coincidence_certificate(checked, db.schema)
    try:
        two = evaluate(checked, db, cfg=EvalConfig(kernel=kernel_2vl()))
        three = evaluate(checked, db, cfg=EvalConfig(kernel=kernel_3vl()))
    except RecursionLimitError as exc:
        return CaseOutcome("skip", str(exc))
    if report.certified:
        if two == three:
            return CaseOutcome("pass", "certified")
        return CaseOutcome("fail", "certified expression with divergent semantics")
    # sufficiency only: uncertified cases may coincide, record without failing
    return CaseOutcome("pass", "uncertified-equal" if two == three else "uncertified-divergent")


def _check_nullable_case(case: Case) -> CaseOutcome:
    checked = case.checked
    labels = checked.sig.labels
    nul = set(checked.sig.nullable)
    for kernel in (kernel_2vl(), kernel_3vl()):
        try:
            out = evaluate(checked, case.db, cfg=EvalConfig(kernel=kernel))
        except RecursionLimitError as exc:
            return CaseOutcome("skip", str(exc))
        for record in out.records():
            for name, v in zip(labels, record):
                if v is None and name not in nul:
                    return CaseOutcome(
                        "fail", f"NULL in {name!r} not predicted by the analysis"
                    )
    return CaseOutcome("pass")


def _check_roundtrip_case(case: Case) -> CaseOutcome:
    db, checked = case.db, case.checked
    try:
        sql = sqlfront.emit_sql(checked.expr)
    except SqlEmitError as exc:
        return CaseOutcome("skip", str(exc))
    lowered = sqlfront.lower_to_algebra(sqlfront.parse_sql(sql), db.schema)
    lowered = typecheck(lowered, db.schema)
    cfg = EvalConfig(kernel=kernel_3vl())
    try:
        a = evaluate(checked, db, cfg=cfg)
        b = evaluate(lowered, db, cfg=cfg)
    except RecursionLimitError as exc:
        return CaseOutcome("skip", str(exc))
    if a == b:
        return CaseOutcome("pass")
    return CaseOutcome("fail", f"round-trip changed the result; sql: {sql}")


# the kernels a plan-equivalence case draws from, one per case
PLAN_KERNELS = ("3vl", "2vl", "2vl-syn", "grounded:leq-sign", "4vl")


def _check_plan_case(case: Case) -> CaseOutcome:
    """The planned evaluator against the plain tree-walker."""
    db, checked = case.db, case.checked
    kernel = kernel_by_name(required(case.params, "kernel", "bundle"))
    try:
        reference = evaluate(checked, db, cfg=EvalConfig(kernel=kernel, plan=False))
    except RecursionLimitError as exc:
        # the planned run does a subset of the reference's work, so it may
        # finish where the reference hits the cap; there is nothing to compare
        return CaseOutcome("skip", str(exc))
    try:
        planned = evaluate(checked, db, cfg=EvalConfig(kernel=kernel, plan=True))
    except RecursionLimitError as exc:
        return CaseOutcome("fail", f"planned evaluation only: {exc}")
    if planned == reference:
        return CaseOutcome("pass")
    return CaseOutcome("fail", _bags_equal_detail(planned, reference, checked.sig.labels))


# capture family -> (direction, grounding or kernel name, expression depth cap)
CAPTURE_FAMILIES = {
    "capture-2vl-to-3vl": ("2to3", None, None),
    "capture-3vl-to-2vl": ("3to2", None, None),
    "grounded-syntactic": ("gr-to-3", "syntactic", None),
    "grounded-leq": ("gr-to-3", "leq-sign", None),
    "capture-3vl-to-grounded": ("3-to-gr", "leq-sign", None),
    "mvl-4vl": ("mvl-to-3", "4vl", 3),
    "mvl-self": ("mvl-to-3", "3vl", 3),
}

_CHECKERS: dict[str, Callable[[Case], CaseOutcome]] = {
    **{family: _check_capture_case for family in CAPTURE_FAMILIES},
    "null-free-invariance": _check_invariance_case,
    "prop-4.1": _check_prop41_case,
    "coincidence": _check_coincidence_case,
    "nullable-soundness": _check_nullable_case,
    "sql-roundtrip": _check_roundtrip_case,
    "plan-equivalence": _check_plan_case,
}


# ---------------------------------------------------------------------------
# Case generators


def _case(family: str, schema: Schema, cfg: fuzz.FuzzConfig, rng, expr: ast.Expression) -> Case:
    """A case of `expr`, typechecked once, over a database drawn next."""
    return Case(family, typecheck(expr, schema), fuzz.gen_database(schema, cfg, rng))


def _base_case(schema: Schema, cfg: fuzz.FuzzConfig, rng, family: str) -> Case:
    return _case(family, schema, cfg, rng, fuzz.gen_expression(schema, cfg, rng))


def _gen_case(family: str, schema: Schema, cfg: fuzz.FuzzConfig, rng) -> Case:
    if family in CAPTURE_FAMILIES:
        direction, param, depth_cap = CAPTURE_FAMILIES[family]
        if depth_cap is not None:
            cfg = replace(cfg, max_depth=min(cfg.max_depth, depth_cap))
        case = _base_case(schema, cfg, rng, family)
        case.params["direction"] = direction
        if param is not None:
            case.params[translate.flag_of(direction)] = param
        return case
    if family == "null-free-invariance":
        return _base_case(schema, replace(cfg, null_rate=0.0), rng, family)
    if family in ("coincidence", "nullable-soundness", "sql-roundtrip"):
        return _base_case(schema, cfg, rng, family)
    if family == "plan-equivalence":
        roll = rng.random()
        if roll < 1 / 3:
            case = _base_case(schema, cfg, rng, family)
        elif roll < 2 / 3:
            case = _join_case(schema, cfg, rng)
        else:
            case = _correlated_case(schema, cfg, rng)
        case.params["kernel"] = rng.choice(PLAN_KERNELS)
        return case
    if family == "prop-4.1":
        return _gen_prop41_case(schema, cfg, rng)
    raise NullvlError(f"unknown family {family!r}")


def _renamed(gen: fuzz.ExpressionGenerator, expr: ast.Expression, sig):
    """An expression with its columns renamed apart, and its signature."""
    renamed = tuple(gen.fresh("j") for _ in sig.labels)
    expr = ast.Projection(
        tuple(ast.ProjItem(ast.NameRef(old), new) for old, new in zip(sig.labels, renamed)),
        expr,
    )
    return expr, frozen.replace(sig, labels=renamed)


def _equated(gen: fuzz.ExpressionGenerator, cfg: fuzz.FuzzConfig, rng, lsig, rsig) -> ast.Condition:
    """One or two `=` between same-typed columns of two signatures with
    disjoint labels, and a drawn condition over both half of the time."""
    scope = dict(zip(lsig.labels + rsig.labels, lsig.types + rsig.types))
    pairs = [
        (a, b) for a, at in zip(lsig.labels, lsig.types)
        for b, bt in zip(rsig.labels, rsig.types) if at == bt
    ]
    conds = [gen.condition(cfg.max_depth - 1, scope)] if rng.random() < 0.5 else []
    for a, b in rng.sample(pairs, min(len(pairs), rng.randint(1, 2))):
        conds.insert(rng.randint(0, len(conds)), ast.Compare((ast.NameRef(a),), "=", (ast.NameRef(b),)))
    return ast.and_all(conds)


def _join_case(schema: Schema, cfg: fuzz.FuzzConfig, rng) -> Case:
    """sigma(l = r and theta)(L x R) over two drawn expressions: the shape a
    hash join serves, which the expression generator seldom draws."""
    gen = fuzz.ExpressionGenerator(schema, cfg, rng)
    top = max(1, cfg.max_depth - 1)
    left, lsig = gen.expr(rng.randint(1, top), {})
    right, rsig = _renamed(gen, *gen.expr(rng.randint(1, top), {}))
    cond = _equated(gen, cfg, rng, lsig, rsig)
    return _case("plan-equivalence", schema, cfg, rng, ast.Selection(cond, ast.Product(left, right)))


def _correlated_case(schema: Schema, cfg: fuzz.FuzzConfig, rng) -> Case:
    """sigma(C)(L) where C is empty / in / any over pi(sigma(l = s and
    theta)(S)), L is a drawn expression, S a base relation and l a column of
    L: the correlated lookup a probe index serves, which the expression
    generator seldom draws."""
    gen = fuzz.ExpressionGenerator(schema, cfg, rng)
    outer, osig = _renamed(gen, *gen.expr(rng.randint(1, max(1, cfg.max_depth - 1)), {}))
    rel = rng.choice(list(schema.relations.values()))
    pick = rng.randrange(len(rel.labels))
    query = ast.Projection(
        (ast.ProjItem(ast.NameRef(rel.labels[pick]), gen.fresh("q")),),
        ast.Selection(_equated(gen, cfg, rng, osig, rel), ast.BaseRelation(rel.name)),
    )
    item = (gen.term(rel.types[pick], dict(zip(osig.labels, osig.types))),)
    kind = rng.choice(("empty", "in", "any"))
    if kind == "empty":
        cond = ast.Empty(query)
    elif kind == "in":
        cond = ast.In(item, query)
    else:
        ops = ast.COMPARISONS if rel.types[pick] == NUM else ("=", "!=")
        cond = ast.Quant(item, rng.choice(ops), "any", query)
    if rng.random() < 0.5:
        cond = ast.Not(cond)
    return _case("plan-equivalence", schema, cfg, rng, ast.Selection(cond, outer))


def _gen_prop41_case(schema: Schema, cfg: fuzz.FuzzConfig, rng) -> Case:
    gen = fuzz.ExpressionGenerator(schema, cfg, rng)
    expr, sig = gen.expr(cfg.max_depth - 1, {})
    checked = typecheck(expr, schema)
    expr = checked.expr
    scope = dict(zip(sig.labels, sig.types))
    theta = gen.condition(2, scope)
    # constant tuples compared against the subquery result
    items = tuple(gen.term(t, {}) for t in sig.types)
    labels = tuple(ast.NameRef(n) for n in sig.labels)
    numeric = all(t == "n" for t in sig.types)
    op = rng.choice(ast.COMPARISONS if numeric else ("=", "!="))
    items2 = tuple(gen.term(t, {}) for t in sig.types)
    checks = (
        ("bags-equal", ast.Selection(theta, expr),
         ast.SetOp("except", expr, ast.Selection(ast.Not(theta), expr))),
        ("cond-false-iff-empty", ast.In(items, expr),
         ast.Selection(ast.Compare(items, "=", labels), expr)),
        ("cond-false-iff-empty", ast.Quant(items2, op, "any", expr),
         ast.Selection(ast.Compare(items2, op, labels), expr)),
        ("cond-true-iff-empty", ast.Quant(items2, op, "all", expr),
         ast.Selection(ast.Not(ast.Compare(items2, op, labels)), expr)),
    )
    db = fuzz.gen_database(schema, cfg, rng)
    return Case("prop-4.1", checked, db, checks=checks)


FAMILIES = tuple(_CHECKERS)


# ---------------------------------------------------------------------------
# Bundles: the text form of a case, built only for a failing case and read
# only by `replay`

# the JSON fields of each check kind after "kind"; a "bags-equal" check
# compares two expressions, the others a condition with an expression
_CHECK_FIELDS = {
    "bags-equal": ("left", "right"),
    "cond-false-iff-empty": ("cond", "expr"),
    "cond-true-iff-empty": ("cond", "expr"),
}


def _case_to_bundle(case: Case) -> dict:
    bundle = {
        "family": case.family,
        "expression": ast.render_expression(case.checked.expr),
        "db": database_to_json(case.db),
    }
    bundle.update(case.params)
    if case.family == "prop-4.1":
        bundle["checks"] = [_check_to_json(*chk) for chk in case.checks]
    return bundle


def _check_to_json(kind: str, first, second: ast.Expression) -> dict:
    render = ast.render_expression if kind == "bags-equal" else ast.render_condition
    first_key, second_key = _CHECK_FIELDS[kind]
    return {"kind": kind, first_key: render(first), second_key: ast.render_expression(second)}


def _case_from_bundle(bundle: dict) -> Case:
    family = required(bundle, "family", "bundle")
    if not isinstance(family, str) or family not in _CHECKERS:
        raise NullvlError(f"bundle names unknown family {family!r}")
    db = database_from_json(required(bundle, "db", "bundle"))
    expr = parse_expression(required(bundle, "expression", "bundle"))
    params = {key: bundle[key] for key in ("direction", "grounding", "kernel") if key in bundle}
    checks = ()
    if family == "prop-4.1":
        checks = tuple(_check_from_json(chk) for chk in required(bundle, "checks", "bundle"))
    return Case(family, typecheck(expr, db.schema), db, params, checks)


def _check_from_json(chk: dict) -> tuple:
    kind = required(chk, "kind", "check")
    if not isinstance(kind, str) or kind not in _CHECK_FIELDS:
        raise NullvlError(f"unknown check {kind!r}")
    first, second = (required(chk, key, kind) for key in _CHECK_FIELDS[kind])
    parse = parse_expression if kind == "bags-equal" else parse_condition
    return kind, parse(first), parse_expression(second)


def run_differential(
    family: str,
    cfg: Optional[fuzz.FuzzConfig] = None,
    schema: Optional[Schema] = None,
    bundle_dir: Optional[str] = None,
) -> FamilySummary:
    """Run one property family over a fresh corpus; failures become bundles."""
    if family not in _CHECKERS:
        raise NullvlError(f"unknown family {family!r}; choose from {', '.join(FAMILIES)}")
    cfg = cfg or fuzz.FuzzConfig()
    schema = schema or fuzz.default_schema()
    checker = _CHECKERS[family]
    summary = FamilySummary(family, 0, 0, 0, 0)
    ratios: list[Fraction] = []
    notes: dict[str, int] = {}
    produced = 0
    attempts = 0
    target = cfg.cases
    needs_certified = family == "coincidence"
    while produced < target and attempts < 40 * max(target, 1):
        rng = fuzz.case_rng(cfg.seed, attempts)
        attempts += 1
        case = _gen_case(family, schema, cfg, rng)
        if needs_certified and not analyze.coincidence_certificate(case.checked, schema).certified:
            notes["uncertified-generated"] = notes.get("uncertified-generated", 0) + 1
            continue
        produced += 1
        outcome = checker(case)
        summary.cases += 1
        if outcome.status == "pass":
            summary.passed += 1
            if outcome.detail.startswith("uncertified"):
                notes[outcome.detail] = notes.get(outcome.detail, 0) + 1
            if outcome.size_ratio is not None:
                ratios.append(outcome.size_ratio)
        elif outcome.status == "skip":
            summary.skipped += 1
        else:
            summary.failed += 1
            bundle = _case_to_bundle(case)
            bundle.update(index=attempts - 1, seed=cfg.seed, failure=outcome.detail)
            summary.bundles.append(bundle)
            if bundle_dir:
                os.makedirs(bundle_dir, exist_ok=True)
                path = os.path.join(bundle_dir, f"{family}-{bundle['index']}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(bundle, fh, indent=1)
                notes.setdefault("bundle_files", 0)
                notes["bundle_files"] += 1
    if ratios:
        summary.max_size_ratio = max(ratios)
        summary.notes["mean_size_ratio"] = float(sum(ratios) / len(ratios))
    summary.notes.update(notes)
    return summary


def replay(bundle: dict) -> CaseOutcome:
    """Re-run a counterexample bundle; deterministic, no randomness involved."""
    case = _case_from_bundle(bundle)
    return _CHECKERS[case.family](case)
