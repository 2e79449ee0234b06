"""Denotational interpreter for expressions and conditions.

Everything is parameterized by a LogicKernel: the same walker implements the
three-valued semantics, the conflating two-valued one, syntactic equality,
groundings and arbitrary finite many-valued logics.  Selections keep exactly
the records whose condition comes out as the kernel's designated true value.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from . import ast
from .errors import EvalError, RecursionLimitError
from .funcs import apply_aggregate, apply_function
from .logic import AND, OR, LogicKernel, TruthValue, kernel_3vl
from .typecheck import _labels
from .values import Bag, Database, Value, is_null

Env = Mapping[str, Value]


@dataclass
class EvalConfig:
    kernel: LogicKernel = field(default_factory=kernel_3vl)
    recursion_cap: int = 10_000

    def __post_init__(self):
        if self.recursion_cap < 1:
            raise ValueError("recursion_cap must be at least 1")


# runtime catalog: relation name -> (labels, bag)
Rt = dict


def eval_term(term: ast.Term, env: Env) -> Value:
    if isinstance(term, ast.NumConst):
        return term.value
    if isinstance(term, ast.OrdConst):
        return term.value
    if isinstance(term, ast.NullConst):
        return None
    if isinstance(term, ast.NameRef):
        try:
            return env[term.name]
        except KeyError:
            raise EvalError(f"unbound name {term.name!r} (translator or evaluator bug)")
    if isinstance(term, ast.FnApply):
        args = [eval_term(a, env) for a in term.args]
        if any(is_null(a) for a in args):
            return None
        return apply_function(term.fn, args)
    if isinstance(term, ast.ArgHole):
        raise EvalError("template hole escaped into evaluation")
    raise EvalError(f"not a term: {term!r}")


def _compare_value_tuples(kernel: LogicKernel, lvals, op: str, rvals) -> TruthValue:
    """Tuple comparison on evaluated values, mirroring the static expansion of
    tuple comparisons into Boolean combinations of atomic ones."""
    n = len(lvals)
    if n == 1:
        return kernel.compare(op, lvals[0], rvals[0])
    if op == "=":
        return kernel.fold(AND, (kernel.compare("=", a, b) for a, b in zip(lvals, rvals)))
    if op == "!=":
        return kernel.fold(OR, (kernel.compare("!=", a, b) for a, b in zip(lvals, rvals)))
    disjuncts = []
    for i in range(n):
        parts = [kernel.compare("=", lvals[j], rvals[j]) for j in range(i)]
        parts.append(kernel.compare(op, lvals[i], rvals[i]))
        disjuncts.append(kernel.fold(AND, parts))
    return kernel.fold(OR, disjuncts)


def eval_condition_rt(cond: ast.Condition, rt: Rt, env: Env, cfg: EvalConfig) -> TruthValue:
    kernel = cfg.kernel
    if isinstance(cond, ast.CTrue):
        return kernel.true
    if isinstance(cond, ast.CFalse):
        return kernel.false
    if isinstance(cond, ast.IsNull):
        return kernel.true if is_null(eval_term(cond.term, env)) else kernel.false
    if isinstance(cond, ast.Compare):
        lvals = [eval_term(t, env) for t in cond.lhs]
        rvals = [eval_term(t, env) for t in cond.rhs]
        return _compare_value_tuples(kernel, lvals, cond.op, rvals)
    if isinstance(cond, ast.In):
        return eval_condition_rt(
            ast.Quant(cond.items, "=", "any", cond.query), rt, env, cfg
        )
    if isinstance(cond, ast.Empty):
        bag = eval_rt(cond.query, rt, env, cfg)
        return kernel.true if bag.is_empty() else kernel.false
    if isinstance(cond, ast.Quant):
        bag = eval_rt(cond.query, rt, env, cfg)
        items = [eval_term(t, env) for t in cond.items]
        conn = OR if cond.quant == "any" else AND
        return kernel.fold(
            conn,
            (
                _compare_value_tuples(kernel, items, cond.op, list(record))
                for record in bag.occurrences()
            ),
        )
    if isinstance(cond, ast.And):
        return kernel.conj(
            eval_condition_rt(cond.left, rt, env, cfg),
            eval_condition_rt(cond.right, rt, env, cfg),
        )
    if isinstance(cond, ast.Or):
        return kernel.disj(
            eval_condition_rt(cond.left, rt, env, cfg),
            eval_condition_rt(cond.right, rt, env, cfg),
        )
    if isinstance(cond, ast.Not):
        return kernel.neg(eval_condition_rt(cond.cond, rt, env, cfg))
    raise EvalError(f"not a condition: {cond!r}")


def _bind(env: Env, labels: tuple[str, ...], record) -> dict:
    merged = dict(env)
    for name, value in zip(labels, record):
        merged[name] = value
    return merged


def eval_rt(e: ast.Expression, rt: Rt, env: Env, cfg: EvalConfig) -> Bag:
    if isinstance(e, ast.BaseRelation):
        try:
            return rt[e.name][1]
        except KeyError:
            raise EvalError(f"unknown relation {e.name!r} at runtime")

    if isinstance(e, ast.Projection):
        src_labels = _labels(e.source, {n: l for n, (l, _) in rt.items()})
        src = eval_rt(e.source, rt, env, cfg)
        counts: dict = {}
        for record, k in src.items():
            row_env = _bind(env, src_labels, record)
            out = tuple(eval_term(item.term, row_env) for item in e.items)
            counts[out] = counts.get(out, 0) + k
        return Bag.from_counts(counts)

    if isinstance(e, ast.Selection):
        src_labels = _labels(e.source, {n: l for n, (l, _) in rt.items()})
        src = eval_rt(e.source, rt, env, cfg)
        counts: dict = {}
        for record, k in src.items():
            row_env = _bind(env, src_labels, record)
            if eval_condition_rt(e.cond, rt, row_env, cfg) == cfg.kernel.true:
                counts[record] = counts.get(record, 0) + k
        return Bag.from_counts(counts)

    if isinstance(e, ast.Product):
        left = eval_rt(e.left, rt, env, cfg)
        right = eval_rt(e.right, rt, env, cfg)
        counts: dict = {}
        for lrec, lk in left.items():
            for rrec, rk in right.items():
                rec = lrec + rrec
                counts[rec] = counts.get(rec, 0) + lk * rk
        return Bag.from_counts(counts)

    if isinstance(e, ast.SetOp):
        left = eval_rt(e.left, rt, env, cfg)
        right = eval_rt(e.right, rt, env, cfg)
        if e.op == "union":
            return left.union(right)
        if e.op == "intersect":
            return left.intersect(right)
        return left.difference(right)

    if isinstance(e, ast.Distinct):
        return eval_rt(e.source, rt, env, cfg).distinct()

    if isinstance(e, ast.Group):
        return _eval_group(e, rt, env, cfg)

    if isinstance(e, ast.Mu):
        return _eval_mu(e, rt, env, cfg)

    raise EvalError(f"not an expression: {e!r}")


def _eval_group(e: ast.Group, rt: Rt, env: Env, cfg: EvalConfig) -> Bag:
    src_labels = _labels(e.source, {n: l for n, (l, _) in rt.items()})
    src = eval_rt(e.source, rt, env, cfg)
    key_pos = [src_labels.index(n) for n in e.names]
    agg_pos = [src_labels.index(a.column) if a.column is not None else None for a in e.aggs]

    # groups form under syntactic equality: one group per distinct key,
    # NULL grouping with NULL
    groups: dict[tuple, list] = {}
    for record, k in src.items():
        key = tuple(record[i] for i in key_pos)
        groups.setdefault(key, []).append((record, k))

    out: dict = {}
    for key, rows in groups.items():
        total = sum(k for _, k in rows)
        agg_values = []
        for agg, pos in zip(e.aggs, agg_pos):
            if agg.fn == "count_star":
                agg_values.append(apply_aggregate("count_star", [], total))
                continue
            cells = []
            for record, k in rows:
                v = record[pos]
                if not is_null(v):
                    cells.extend([v] * k)
            agg_values.append(apply_aggregate(agg.fn, cells, total))
        rec = key + tuple(agg_values)
        out[rec] = out.get(rec, 0) + 1
    return Bag.from_counts(out)


def _eval_mu(e: ast.Mu, rt: Rt, env: Env, cfg: EvalConfig) -> Bag:
    seed = eval_rt(e.seed, rt, env, cfg)
    if e.distinct:
        seed = seed.distinct()
    seed_labels = _labels(e.seed, {n: l for n, (l, _) in rt.items()})
    result = seed
    frontier = seed
    iterations = 0
    while True:
        if frontier.is_empty():
            return result
        iterations += 1
        if iterations > cfg.recursion_cap:
            raise RecursionLimitError(
                f"fixpoint over {e.rel!r} exceeded {cfg.recursion_cap} iterations; "
                "the query may not terminate"
            )
        extended = dict(rt)
        extended[e.rel] = (seed_labels, frontier)
        step = eval_rt(e.step, extended, env, cfg)
        if e.distinct:
            step = step.distinct().difference(result)
        result = result.union(step)
        frontier = step


def _db_rt(db: Database) -> Rt:
    rt: Rt = {}
    for rel in db.schema.relations.values():
        rt[rel.name] = (rel.labels, db.tables.get(rel.name, Bag()))
    return rt


def evaluate(
    e: ast.Expression,
    db: Database,
    env: Optional[Env] = None,
    cfg: Optional[EvalConfig] = None,
) -> Bag:
    """Evaluate a typechecked expression on a database.

    The environment supplies parameter values for correlated fragments; the
    top-level call uses the empty environment.
    """
    return eval_rt(e, _db_rt(db), dict(env or {}), cfg or EvalConfig())


def eval_condition(
    cond: ast.Condition,
    db: Database,
    env: Optional[Env] = None,
    cfg: Optional[EvalConfig] = None,
) -> TruthValue:
    return eval_condition_rt(cond, _db_rt(db), dict(env or {}), cfg or EvalConfig())


def eval_group(
    names: tuple[str, ...],
    aggs: tuple[ast.AggItem, ...],
    source: ast.Expression,
    db: Database,
    env: Optional[Env] = None,
    cfg: Optional[EvalConfig] = None,
) -> Bag:
    """Group the source rows and aggregate; one record per group."""
    return evaluate(ast.Group(tuple(names), tuple(aggs), source), db, env, cfg)


def eval_mu(
    rel: str,
    distinct: bool,
    seed: ast.Expression,
    step: ast.Expression,
    db: Database,
    env: Optional[Env] = None,
    cfg: Optional[EvalConfig] = None,
) -> Bag:
    """Run the fixpoint iteration for a fresh relation name."""
    return evaluate(ast.Mu(rel, distinct, seed, step), db, env, cfg)
