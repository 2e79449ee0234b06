"""Differential and property test driver.

Each family turns one of the equivalence results into an executable oracle
over a reproducible random corpus.  Failures are emitted as self-contained
bundles (expression text, database, family) that `replay` re-checks to the
same verdict; cap-exceeded fixpoints are skipped, never failed.
"""
from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Optional

from . import analyze, ast, fuzz, translate
from .errors import KernelError, NullvlError, RecursionLimitError, SqlEmitError
from .evaluator import EvalConfig, eval_condition, evaluate
from .logic import (
    LogicKernel,
    empty_grounding,
    kernel_2vl,
    kernel_2vl_syntactic,
    kernel_3vl,
    kernel_4vl_example,
    kernel_grounded,
    nonnegative_leq_grounding,
    syntactic_equality_grounding,
)
from .parser import parse_condition, parse_expression
from .typecheck import Checked, typecheck
from .values import (
    NUM, Bag, Database, Schema, bag_to_json, database_from_json, database_to_json, required,
)

_GROUNDINGS = {
    "empty": empty_grounding,
    "syntactic": syntactic_equality_grounding,
    "leq-sign": nonnegative_leq_grounding,
}

_KERNELS = {
    "3vl": kernel_3vl,
    "2vl": kernel_2vl,
    "2vl-syn": kernel_2vl_syntactic,
    "4vl": kernel_4vl_example,
}


def _grounding_by_name(name: str):
    if name not in _GROUNDINGS:
        raise KernelError(f"unknown grounding {name!r}; choose from {', '.join(_GROUNDINGS)}")
    return _GROUNDINGS[name]()


@functools.cache
def kernel_by_name(name: str) -> LogicKernel:
    """A built-in kernel, built once per process; kernels are not changed
    after construction."""
    if name.startswith("grounded:"):
        return kernel_grounded(_grounding_by_name(name.split(":", 1)[1]))
    if name not in _KERNELS:
        raise KernelError(f"unknown kernel {name!r}; choose from {', '.join(_KERNELS)}")
    return _KERNELS[name]()


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


# ---------------------------------------------------------------------------
# Case checkers (pure functions of a self-contained case dict)


def _field(case: dict, key: str):
    return required(case, key, "bundle")


def _load_case_db(case: dict) -> Database:
    return database_from_json(_field(case, "db"))


def _checked_expr(case: dict, db: Database) -> Checked:
    return typecheck(parse_expression(_field(case, "expression")), db.schema)


def _check_capture_case(case: dict) -> CaseOutcome:
    db = _load_case_db(case)
    checked = _checked_expr(case, db)
    expr = checked.expr
    direction = translate.DIRECTIONS.get(_field(case, "direction"))
    if direction is None:
        raise NullvlError(f"unknown direction {case['direction']!r}")
    param = None
    if direction.param == "grounding":
        param = _grounding_by_name(_field(case, "grounding"))
    elif direction.param == "kernel":
        param = kernel_by_name(_field(case, "kernel"))
    tr = direction.translate(expr, db.schema, param)
    verdict = translate.check_capture(
        expr, db, EvalConfig(kernel=direction.source(param)),
        EvalConfig(kernel=direction.target(param)), tr,
    )
    if verdict.status == "inconclusive":
        return CaseOutcome("skip", verdict.detail)
    if verdict.equal:
        return CaseOutcome("pass", size_ratio=tr.size_ratio)
    return CaseOutcome("fail", _bags_equal_detail(verdict.left, verdict.right, checked.sig.labels))


def _check_invariance_case(case: dict) -> CaseOutcome:
    db = _load_case_db(case)
    checked = _checked_expr(case, db)
    kernels = [kernel_3vl(), kernel_2vl(), kernel_2vl_syntactic(), kernel_grounded(empty_grounding())]
    outs = []
    try:
        for k in kernels:
            outs.append(evaluate(checked, db, cfg=EvalConfig(kernel=k)))
    except RecursionLimitError as exc:
        return CaseOutcome("skip", str(exc))
    if all(o == outs[0] for o in outs):
        return CaseOutcome("pass")
    return CaseOutcome("fail", "kernels disagree on a null-free database")


def _check_prop41_case(case: dict) -> CaseOutcome:
    db = _load_case_db(case)
    cfg = EvalConfig(kernel=kernel_2vl())
    try:
        for chk in _field(case, "checks"):
            kind = required(chk, "kind", "check")
            if kind == "bags-equal":
                left = evaluate(_typed(required(chk, "left", kind), db), db, cfg=cfg)
                right = evaluate(_typed(required(chk, "right", kind), db), db, cfg=cfg)
                if left != right:
                    return CaseOutcome("fail", f"{kind}: bags differ")
            elif kind in ("cond-false-iff-empty", "cond-true-iff-empty"):
                value = eval_condition(parse_condition(required(chk, "cond", kind)), db, cfg=cfg)
                bag = evaluate(_typed(required(chk, "expr", kind), db), db, cfg=cfg)
                wanted = "f" if kind == "cond-false-iff-empty" else "t"
                if (value == wanted) != bag.is_empty():
                    return CaseOutcome(
                        "fail", f"{kind}: condition {value}, selection empty={bag.is_empty()}"
                    )
            else:
                raise NullvlError(f"unknown check {kind!r}")
    except RecursionLimitError as exc:
        return CaseOutcome("skip", str(exc))
    return CaseOutcome("pass")


def _typed(text: str, db: Database) -> Checked:
    return typecheck(parse_expression(text), db.schema)


def _check_coincidence_case(case: dict) -> CaseOutcome:
    db = _load_case_db(case)
    checked = _checked_expr(case, db)
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


def _check_nullable_case(case: dict) -> CaseOutcome:
    db = _load_case_db(case)
    checked = _checked_expr(case, db)
    labels = checked.sig.labels
    nul = set(analyze.nullable(checked.expr, db.schema))
    for kname in ("2vl", "3vl"):
        try:
            out = evaluate(checked, db, cfg=EvalConfig(kernel=kernel_by_name(kname)))
        except RecursionLimitError as exc:
            return CaseOutcome("skip", str(exc))
        for record in out.records():
            for name, v in zip(labels, record):
                if v is None and name not in nul:
                    return CaseOutcome(
                        "fail", f"NULL in {name!r} not predicted by the analysis"
                    )
    return CaseOutcome("pass")


def _check_roundtrip_case(case: dict) -> CaseOutcome:
    from . import sqlfront

    db = _load_case_db(case)
    checked = _checked_expr(case, db)
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


def _check_plan_case(case: dict) -> CaseOutcome:
    """The planned evaluator against the plain tree-walker."""
    db = _load_case_db(case)
    checked = _checked_expr(case, db)
    kernel = kernel_by_name(_field(case, "kernel"))
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

_CHECKERS: dict[str, Callable[[dict], CaseOutcome]] = {
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


def _base_case(schema: Schema, cfg: fuzz.FuzzConfig, rng, family: str, depth=None) -> dict:
    fcfg = cfg if depth is None else replace(cfg, max_depth=depth)
    expr = fuzz.gen_expression(schema, fcfg, rng)
    expr = typecheck(expr, schema).expr
    db = fuzz.gen_database(schema, fcfg, rng)
    return {
        "family": family,
        "expression": ast.render_expression(expr),
        "db": database_to_json(db),
    }


def _gen_case(family: str, schema: Schema, cfg: fuzz.FuzzConfig, rng) -> dict:
    if family in CAPTURE_FAMILIES:
        direction, param, depth_cap = CAPTURE_FAMILIES[family]
        depth = None if depth_cap is None else min(cfg.max_depth, depth_cap)
        case = _base_case(schema, cfg, rng, family, depth=depth)
        case["direction"] = direction
        if param is not None:
            case[translate.DIRECTIONS[direction].param] = param
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
        case["kernel"] = rng.choice(PLAN_KERNELS)
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
    return expr, replace(sig, labels=renamed)


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


def _plan_case(schema: Schema, cfg: fuzz.FuzzConfig, rng, expr: ast.Expression) -> dict:
    return {
        "family": "plan-equivalence",
        "expression": ast.render_expression(typecheck(expr, schema).expr),
        "db": database_to_json(fuzz.gen_database(schema, cfg, rng)),
    }


def _join_case(schema: Schema, cfg: fuzz.FuzzConfig, rng) -> dict:
    """sigma(l = r and theta)(L x R) over two drawn expressions: the shape a
    hash join serves, which the expression generator seldom draws."""
    gen = fuzz.ExpressionGenerator(schema, cfg, rng)
    top = max(1, cfg.max_depth - 1)
    left, lsig = gen.expr(rng.randint(1, top), {})
    right, rsig = _renamed(gen, *gen.expr(rng.randint(1, top), {}))
    cond = _equated(gen, cfg, rng, lsig, rsig)
    return _plan_case(schema, cfg, rng, ast.Selection(cond, ast.Product(left, right)))


def _correlated_case(schema: Schema, cfg: fuzz.FuzzConfig, rng) -> dict:
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
    return _plan_case(schema, cfg, rng, ast.Selection(cond, outer))


def _gen_prop41_case(schema: Schema, cfg: fuzz.FuzzConfig, rng) -> dict:
    gen = fuzz.ExpressionGenerator(schema, cfg, rng)
    expr, sig = gen.expr(cfg.max_depth - 1, {})
    expr = typecheck(expr, schema).expr
    scope = dict(zip(sig.labels, sig.types))
    theta = gen.condition(2, scope)
    expr_text = ast.render_expression(expr)
    checks = [
        {
            "kind": "bags-equal",
            "left": ast.render_expression(ast.Selection(theta, expr)),
            "right": ast.render_expression(
                ast.SetOp("except", expr, ast.Selection(ast.Not(theta), expr))
            ),
        }
    ]
    # constant tuples compared against the subquery result
    items = tuple(gen.term(t, {}) for t in sig.types)
    labels = tuple(ast.NameRef(n) for n in sig.labels)
    checks.append(
        {
            "kind": "cond-false-iff-empty",
            "cond": ast.render_condition(ast.In(items, expr)),
            "expr": ast.render_expression(
                ast.Selection(ast.Compare(items, "=", labels), expr)
            ),
        }
    )
    numeric = all(t == "n" for t in sig.types)
    op = rng.choice(ast.COMPARISONS if numeric else ("=", "!="))
    items2 = tuple(gen.term(t, {}) for t in sig.types)
    checks.append(
        {
            "kind": "cond-false-iff-empty",
            "cond": ast.render_condition(ast.Quant(items2, op, "any", expr)),
            "expr": ast.render_expression(
                ast.Selection(ast.Compare(items2, op, labels), expr)
            ),
        }
    )
    checks.append(
        {
            "kind": "cond-true-iff-empty",
            "cond": ast.render_condition(ast.Quant(items2, op, "all", expr)),
            "expr": ast.render_expression(
                ast.Selection(ast.Not(ast.Compare(items2, op, labels)), expr)
            ),
        }
    )
    db = fuzz.gen_database(schema, cfg, rng)
    return {
        "family": "prop-4.1",
        "expression": expr_text,
        "db": database_to_json(db),
        "checks": checks,
    }


FAMILIES = tuple(_CHECKERS)


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
        if needs_certified:
            db = database_from_json(case["db"])
            if not analyze.coincidence_certificate(_checked_expr(case, db), db.schema).certified:
                notes["uncertified-generated"] = notes.get("uncertified-generated", 0) + 1
                continue
        produced += 1
        case["index"] = attempts - 1
        case["seed"] = cfg.seed
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
            bundle = dict(case)
            bundle["failure"] = outcome.detail
            summary.bundles.append(bundle)
            if bundle_dir:
                os.makedirs(bundle_dir, exist_ok=True)
                path = os.path.join(bundle_dir, f"{family}-{case['index']}.json")
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
    family = required(bundle, "family", "bundle")
    if not isinstance(family, str) or family not in _CHECKERS:
        raise NullvlError(f"bundle names unknown family {family!r}")
    return _CHECKERS[family](bundle)
