"""Output labels, type words and static validation of expressions.

`typecheck` walks an expression against a schema, confirms comparison and
aggregate typing, checks set-operation type words and fixpoint well-formedness,
and resolves every name.  Where the canonical names of two outputs of one
projection or grouping clash it renames the later ones with numeric suffixes
and reports the renaming; clashes across a product must be resolved by the
caller with an explicit rename.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Mapping, Optional

from . import ast
from .errors import TypeCheckError
from .values import NUM, ORD, Schema

ANY = "?"  # type of the NULL constant: member of both type universes


@dataclass(frozen=True)
class RelSig:
    """Output signature of a relation or expression: labels plus type word."""

    labels: tuple[str, ...]
    types: tuple[str, ...]

    def __post_init__(self):
        if len(self.labels) != len(self.types):
            raise TypeCheckError("labels/types length mismatch")

    @property
    def arity(self) -> int:
        return len(self.labels)

    def type_of(self, name: str) -> str:
        return self.types[self.labels.index(name)]


Catalog = Mapping[str, RelSig]


def catalog_from_schema(schema: Schema) -> dict[str, RelSig]:
    return {rel.name: RelSig(rel.labels, rel.types) for rel in schema.relations.values()}


@dataclass(frozen=True)
class Checked:
    expr: ast.Expression
    sig: RelSig
    renames: tuple[str, ...]  # human-readable notes about applied renamings


def _merge_scope(outer: Mapping[str, str], sig: RelSig) -> dict[str, str]:
    """Row names extend the parameter scope; inner bindings shadow outer ones."""
    scope = dict(outer)
    for name, typ in zip(sig.labels, sig.types):
        scope[name] = typ
    return scope


def term_type(term: ast.Term, scope: Mapping[str, str]) -> str:
    if isinstance(term, ast.NumConst):
        return NUM
    if isinstance(term, ast.OrdConst):
        return ORD
    if isinstance(term, ast.NullConst):
        return ANY
    if isinstance(term, ast.NameRef):
        if term.name not in scope:
            raise TypeCheckError(f"unknown name {term.name!r}")
        return scope[term.name]
    if isinstance(term, ast.FnApply):
        if term.fn not in ast.NUMERIC_FUNCTIONS:
            raise TypeCheckError(f"unknown function {term.fn!r}")
        arity = 1 if term.fn == "neg" else 2
        if len(term.args) != arity:
            raise TypeCheckError(f"{term.fn} takes {arity} argument(s), got {len(term.args)}")
        for a in term.args:
            at = term_type(a, scope)
            if at not in (NUM, ANY):
                raise TypeCheckError(f"function {term.fn} applied to non-numerical argument")
        return NUM
    if isinstance(term, ast.ArgHole):
        raise TypeCheckError("template hole outside a condition template")
    raise TypeCheckError(f"not a term: {term!r}")


def _compatible(a: str, b: str) -> bool:
    return a == ANY or b == ANY or a == b


def _check_tuple_comparison(lhs, op, rhs, scope, what: str):
    if len(lhs) != len(rhs):
        raise TypeCheckError(f"{what}: tuple arity mismatch ({len(lhs)} vs {len(rhs)})")
    if op not in ast.COMPARISONS:
        raise TypeCheckError(f"{what}: unknown comparison {op!r}")
    for lt, rt in zip(lhs, rhs):
        a, b = term_type(lt, scope), term_type(rt, scope)
        if not _compatible(a, b):
            raise TypeCheckError(f"{what}: comparing numerical with ordinary type")
        if op in ast.ORDER_COMPARISONS and (a == ORD or b == ORD):
            raise TypeCheckError(f"{what}: order comparison on ordinary type")


class Typechecker:
    def __init__(self, catalog: Catalog):
        self.catalog = dict(catalog)
        self.renames: list[str] = []

    # -- expressions --------------------------------------------------------

    def check_expr(self, e: ast.Expression, scope: Mapping[str, str]) -> tuple[ast.Expression, RelSig]:
        if isinstance(e, ast.BaseRelation):
            if e.name not in self.catalog:
                raise TypeCheckError(f"unknown relation {e.name!r}")
            return e, self.catalog[e.name]

        if isinstance(e, ast.Projection):
            src, src_sig = self.check_expr(e.source, scope)
            inner = _merge_scope(scope, src_sig)
            types = []
            for item in e.items:
                t = term_type(item.term, inner)
                types.append(ORD if t == ANY else t)  # bare NULL defaults to ordinary
            items, labels = self._unique_proj_names(e.items)
            return ast.Projection(items, src), RelSig(tuple(labels), tuple(types))

        if isinstance(e, ast.Selection):
            src, src_sig = self.check_expr(e.source, scope)
            cond = self.check_cond(e.cond, _merge_scope(scope, src_sig))
            return ast.Selection(cond, src), src_sig

        if isinstance(e, ast.Product):
            left, lsig = self.check_expr(e.left, scope)
            right, rsig = self.check_expr(e.right, scope)
            labels = lsig.labels + rsig.labels
            if len(set(labels)) != len(labels):
                dup = sorted({n for n in labels if labels.count(n) > 1})
                raise TypeCheckError(
                    f"product output repeats names {dup}; rename one side with a projection"
                )
            return ast.Product(left, right), RelSig(labels, lsig.types + rsig.types)

        if isinstance(e, ast.SetOp):
            left, lsig = self.check_expr(e.left, scope)
            right, rsig = self.check_expr(e.right, scope)
            if lsig.types != rsig.types:
                raise TypeCheckError(
                    f"{e.op}: type words differ ({''.join(lsig.types)} vs {''.join(rsig.types)})"
                )
            return ast.SetOp(e.op, left, right), lsig

        if isinstance(e, ast.Distinct):
            src, sig = self.check_expr(e.source, scope)
            return ast.Distinct(src), sig

        if isinstance(e, ast.Group):
            src, src_sig = self.check_expr(e.source, scope)
            for n in e.names:
                if n not in src_sig.labels:
                    raise TypeCheckError(f"grouping name {n!r} not among input labels")
            for agg in e.aggs:
                if agg.fn not in ast.AGGREGATES:
                    raise TypeCheckError(f"unknown aggregate {agg.fn!r}")
                if agg.fn == "count_star":
                    if agg.column is not None:
                        raise TypeCheckError("count_star takes no column")
                    continue
                if agg.column is None:
                    raise TypeCheckError(f"aggregate {agg.fn} needs a column")
                if agg.column not in src_sig.labels:
                    raise TypeCheckError(f"aggregate column {agg.column!r} not among input labels")
                if src_sig.type_of(agg.column) != NUM:
                    raise TypeCheckError(
                        f"aggregate {agg.fn} over non-numerical column {agg.column!r}"
                    )
            aggs, labels = self._unique_group_names(e.names, e.aggs)
            types = tuple(src_sig.type_of(n) for n in e.names) + tuple(NUM for _ in aggs)
            return ast.Group(e.names, aggs, src), RelSig(tuple(labels), types)

        if isinstance(e, ast.Mu):
            if e.rel in self.catalog:
                raise TypeCheckError(f"mu relation {e.rel!r} is not fresh")
            if ast.expression_references(e.seed, e.rel):
                raise TypeCheckError(f"mu seed must not reference {e.rel!r}")
            seed, seed_sig = self.check_expr(e.seed, scope)
            self.catalog[e.rel] = seed_sig
            try:
                step, step_sig = self.check_expr(e.step, scope)
            finally:
                del self.catalog[e.rel]
            if seed_sig.types != step_sig.types:
                raise TypeCheckError(
                    f"mu {e.rel}: branch type words differ "
                    f"({''.join(seed_sig.types)} vs {''.join(step_sig.types)})"
                )
            return ast.Mu(e.rel, e.distinct, seed, step), seed_sig

        raise TypeCheckError(f"not an expression: {e!r}")

    # -- conditions ---------------------------------------------------------

    def check_cond(self, c: ast.Condition, scope: Mapping[str, str]) -> ast.Condition:
        if isinstance(c, (ast.CTrue, ast.CFalse)):
            return c
        if isinstance(c, ast.IsNull):
            term_type(c.term, scope)
            return c
        if isinstance(c, ast.Compare):
            _check_tuple_comparison(list(c.lhs), c.op, list(c.rhs), scope, "comparison")
            return c
        if isinstance(c, ast.In):
            query, qsig = self.check_expr(c.query, scope)
            if len(c.items) != qsig.arity:
                raise TypeCheckError(
                    f"in: tuple arity {len(c.items)} vs subquery arity {qsig.arity}"
                )
            for t, qt in zip(c.items, qsig.types):
                if not _compatible(term_type(t, scope), qt):
                    raise TypeCheckError("in: tuple/subquery type mismatch")
            return ast.In(c.items, query)
        if isinstance(c, ast.Empty):
            query, _ = self.check_expr(c.query, scope)
            return ast.Empty(query)
        if isinstance(c, ast.Quant):
            query, qsig = self.check_expr(c.query, scope)
            if len(c.items) != qsig.arity:
                raise TypeCheckError(
                    f"{c.quant}: tuple arity {len(c.items)} vs subquery arity {qsig.arity}"
                )
            for t, qt in zip(c.items, qsig.types):
                a = term_type(t, scope)
                if not _compatible(a, qt):
                    raise TypeCheckError(f"{c.quant}: tuple/subquery type mismatch")
                if c.op in ast.ORDER_COMPARISONS and (a == ORD or qt == ORD):
                    raise TypeCheckError(f"{c.quant}: order comparison on ordinary type")
            return ast.Quant(c.items, c.op, c.quant, query)
        if isinstance(c, ast.And):
            return ast.And(self.check_cond(c.left, scope), self.check_cond(c.right, scope))
        if isinstance(c, ast.Or):
            return ast.Or(self.check_cond(c.left, scope), self.check_cond(c.right, scope))
        if isinstance(c, ast.Not):
            return ast.Not(self.check_cond(c.cond, scope))
        raise TypeCheckError(f"not a condition: {c!r}")

    # -- naming -------------------------------------------------------------

    def _unique_proj_names(self, items):
        seen: dict[str, int] = {}
        out_items, labels = [], []
        for item in items:
            name = ast.proj_item_name(item)
            if name in seen:
                seen[name] += 1
                fresh = f"{name}_{seen[name]}"
                while fresh in seen:
                    seen[name] += 1
                    fresh = f"{name}_{seen[name]}"
                self.renames.append(f"projection output {name!r} renamed to {fresh!r}")
                item = dataclasses.replace(item, rename=fresh)
                name = fresh
            seen.setdefault(name, 1)
            out_items.append(item)
            labels.append(name)
        return tuple(out_items), labels

    def _unique_group_names(self, names, aggs):
        seen: dict[str, int] = {n: 1 for n in names}
        if len(seen) != len(names):
            raise TypeCheckError(f"grouping names repeat: {names}")
        out_aggs, labels = [], list(names)
        for agg in aggs:
            name = ast.agg_name(agg)
            if name in seen:
                seen[name] += 1
                fresh = f"{name}_{seen[name]}"
                while fresh in seen:
                    seen[name] += 1
                    fresh = f"{name}_{seen[name]}"
                self.renames.append(f"aggregate output {name!r} renamed to {fresh!r}")
                agg = dataclasses.replace(agg, rename=fresh)
                name = fresh
            seen.setdefault(name, 1)
            out_aggs.append(agg)
            labels.append(name)
        return tuple(out_aggs), labels


def typecheck(expr: ast.Expression, schema: Schema, params: Optional[Mapping[str, str]] = None) -> Checked:
    checker = Typechecker(catalog_from_schema(schema))
    checked, sig = checker.check_expr(expr, dict(params or {}))
    return Checked(checked, sig, tuple(checker.renames))


def labels(expr: ast.Expression, schema_or_catalog) -> tuple[str, ...]:
    """The output label sequence of an expression.

    Computed structurally: projections and groupings use renames or canonical
    term names, products concatenate, set operations take the left side.
    Rejects duplicate names; run `typecheck` first to auto-rename.
    """
    if isinstance(schema_or_catalog, Schema):
        catalog = {rel.name: rel.labels for rel in schema_or_catalog.relations.values()}
    else:
        catalog = {name: sig.labels for name, sig in schema_or_catalog.items()}
    return _labels(expr, catalog)


def _labels(e: ast.Expression, catalog: Mapping[str, tuple[str, ...]]) -> tuple[str, ...]:
    """`labels` over a catalog mapping each relation name to its labels."""
    if isinstance(e, ast.BaseRelation):
        if e.name not in catalog:
            raise TypeCheckError(f"unknown relation {e.name!r}")
        return catalog[e.name]
    if isinstance(e, ast.Projection):
        out = tuple(ast.proj_item_name(i) for i in e.items)
        _require_distinct(out, "projection")
        return out
    if isinstance(e, (ast.Selection, ast.Distinct)):
        return _labels(e.source, catalog)
    if isinstance(e, ast.Product):
        out = _labels(e.left, catalog) + _labels(e.right, catalog)
        _require_distinct(out, "product")
        return out
    if isinstance(e, ast.SetOp):
        return _labels(e.left, catalog)
    if isinstance(e, ast.Group):
        out = e.names + tuple(ast.agg_name(a) for a in e.aggs)
        _require_distinct(out, "group")
        return out
    if isinstance(e, ast.Mu):
        seed_labels = _labels(e.seed, catalog)
        return seed_labels
    raise TypeCheckError(f"not an expression: {e!r}")


def _require_distinct(names: tuple[str, ...], what: str):
    if len(set(names)) != len(names):
        dup = sorted({n for n in names if names.count(n) > 1})
        raise TypeCheckError(f"{what} output repeats names {dup}; rename with a projection")
