"""Output labels, type words, nullability and static validation of expressions.

`typecheck` walks an expression against a schema, confirms comparison and
aggregate typing, checks set-operation type words and fixpoint well-formedness,
and resolves every name.  A fixpoint's relation must be fresh, and its seed
may read that relation nowhere, condition subqueries included, except inside
an inner fixpoint that rebinds the name.  Where the canonical names of two
outputs of one projection or grouping clash it renames the later ones with
numeric suffixes and reports the renaming; clashes across a product must be
resolved by the caller with an explicit rename.

It is the one place that derives facts about expression nodes.  The checked
tree shares no node, so each expression node has its own `RelSig` in
`Checked.notes`, keyed by identity: the node's labels, types, the labels that
may carry NULL and the names it reads from enclosing rows.  Nullability
follows the structural rules: selections and duplicate elimination keep
their input's set, products concatenate, bag union lists a position nullable
on either side and intersection on both, difference takes the left side,
fixpoints take the union of both branches (iterated to a fixed point),
projections list terms that can evaluate to NULL, and grouping keeps nullable
grouping names and aggregates over nullable columns.  Every name in scope
carries its nullability, so a correlated subquery sees which of the enclosing
rows' names may be NULL.

`labels` and `_labels` derive output labels alone, without checking.  They
name repeated outputs apart by the rule the typechecker renames them by
(`_apart`), so they give the labels that `typecheck` will.  In the library
`_labels` serves only the SQL lowerer, which labels derived tables and the
seeds of WITH RECURSIVE while it builds the expression, before any
typecheck; the evaluator, the analyzer and the translators read the notes.
"""
from __future__ import annotations

from typing import Mapping

from . import ast
from .errors import TypeCheckError
from .frozen import Frozen, replace
from .values import NUM, ORD, Schema

ANY = "?"  # type of the NULL constant: member of both type universes


class RelSig(Frozen):
    """What is known of a relation or expression node: output labels and type
    word, the labels that may carry NULL, and the names read from enclosing
    rows."""

    labels: tuple[str, ...]
    types: tuple[str, ...]
    nullable: tuple[str, ...] = ()
    free: frozenset = frozenset()

    def __post_init__(self):
        if len(self.labels) != len(self.types):
            raise TypeCheckError("labels/types length mismatch")

    @property
    def arity(self) -> int:
        return len(self.labels)

    def type_of(self, name: str) -> str:
        return self.types[self.labels.index(name)]


Catalog = Mapping[str, RelSig]
# name -> (type, whether it may be NULL), for the names a term can read
Scope = Mapping[str, tuple[str, bool]]


def catalog_from_schema(schema: Schema) -> dict[str, RelSig]:
    return {
        rel.name: RelSig(rel.labels, rel.types, rel.nullable_labels)
        for rel in schema.relations.values()
    }


class Checked(Frozen):
    expr: ast.Expression
    sig: RelSig
    renames: tuple[str, ...]  # human-readable notes about applied renamings
    notes: Mapping[int, RelSig]  # id of each expression node of `expr` -> its RelSig

    def of(self, node: ast.Expression) -> RelSig:
        return self.notes[id(node)]


def _merge_scope(outer: Scope, sig: RelSig) -> dict:
    """Row names extend the enclosing scope; inner bindings shadow outer ones."""
    scope = dict(outer)
    for name, typ in zip(sig.labels, sig.types):
        scope[name] = (typ, name in sig.nullable)
    return scope


def _nullable_names(scope: Scope) -> set:
    return {name for name, (_, nullable) in scope.items() if nullable}


def term_type(term: ast.Term, scope: Scope) -> str:
    if isinstance(term, ast.NumConst):
        return NUM
    if isinstance(term, ast.OrdConst):
        return ORD
    if isinstance(term, ast.NullConst):
        return ANY
    if isinstance(term, ast.NameRef):
        if term.name not in scope:
            raise TypeCheckError(f"unknown name {term.name!r}")
        return scope[term.name][0]
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
        self.notes: dict[int, RelSig] = {}

    # -- expressions --------------------------------------------------------

    def check_expr(self, e: ast.Expression, scope: Scope) -> tuple[ast.Expression, RelSig]:
        out, sig = self._check_expr(e, scope)
        self.notes[id(out)] = sig
        return out, sig

    def _check_expr(self, e: ast.Expression, scope: Scope) -> tuple[ast.Expression, RelSig]:
        if isinstance(e, ast.BaseRelation):
            if e.name not in self.catalog:
                raise TypeCheckError(f"unknown relation {e.name!r}")
            return ast.BaseRelation(e.name), self.catalog[e.name]

        if isinstance(e, ast.Projection):
            src, src_sig = self.check_expr(e.source, scope)
            inner = _merge_scope(scope, src_sig)
            nullable = _nullable_names(inner)
            types, names, may_be_null = [], set(), []
            for item in e.items:
                t = term_type(item.term, inner)
                types.append(ORD if t == ANY else t)  # bare NULL defaults to ordinary
                names |= ast.term_names(item.term)
                may_be_null.append(ast.term_can_yield_null(item.term, nullable))
            items, labels = self._rename_apart(e.items, ast.proj_item_name, (), "projection")
            sig = RelSig(
                labels, tuple(types),
                tuple(n for n, null in zip(labels, may_be_null) if null),
                src_sig.free | (names - set(src_sig.labels)),
            )
            return ast.Projection(items, src), sig

        if isinstance(e, ast.Selection):
            src, src_sig = self.check_expr(e.source, scope)
            cond, names = self.check_cond(e.cond, _merge_scope(scope, src_sig))
            names.difference_update(src_sig.labels)
            if not names <= src_sig.free:
                src_sig = RelSig(src_sig.labels, src_sig.types, src_sig.nullable, src_sig.free | names)
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
            sig = RelSig(labels, lsig.types + rsig.types, lsig.nullable + rsig.nullable,
                         lsig.free | rsig.free)
            return ast.Product(left, right), sig

        if isinstance(e, ast.SetOp):
            left, lsig = self.check_expr(e.left, scope)
            right, rsig = self.check_expr(e.right, scope)
            if lsig.types != rsig.types:
                raise TypeCheckError(
                    f"{e.op}: type words differ ({''.join(lsig.types)} vs {''.join(rsig.types)})"
                )
            lnul, rnul = set(lsig.nullable), set(rsig.nullable)
            if e.op == "union":
                nullable = [a for a, b in zip(lsig.labels, rsig.labels) if a in lnul or b in rnul]
            elif e.op == "intersect":
                nullable = [a for a, b in zip(lsig.labels, rsig.labels) if a in lnul and b in rnul]
            else:
                nullable = list(lsig.nullable)
            sig = RelSig(lsig.labels, lsig.types, tuple(nullable), lsig.free | rsig.free)
            return ast.SetOp(e.op, left, right), sig

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
            if len(set(e.names)) != len(e.names):
                raise TypeCheckError(f"grouping names repeat: {e.names}")
            aggs, agg_labels = self._rename_apart(e.aggs, ast.agg_name, e.names, "aggregate")
            types = tuple(src_sig.type_of(n) for n in e.names) + tuple(NUM for _ in aggs)
            src_nul = set(src_sig.nullable)
            nullable = [n for n in e.names if n in src_nul] + [
                ast.agg_name(agg) for agg in aggs if agg.column in src_nul
            ]
            sig = RelSig(tuple(e.names) + agg_labels, types, tuple(nullable), src_sig.free)
            return ast.Group(e.names, aggs, src), sig

        if isinstance(e, ast.Mu):
            return self._check_mu(e, scope)

        raise TypeCheckError(f"not an expression: {e!r}")

    def _check_mu(self, e: ast.Mu, scope: Scope) -> tuple[ast.Mu, RelSig]:
        """The step is checked with the iterated relation's nullable labels
        grown to a fixed point; only the final pass's notes and renames are
        kept."""
        if e.rel in self.catalog:
            raise TypeCheckError(f"mu relation {e.rel!r} is not fresh")
        if ast.expression_references(e.seed, e.rel):
            raise TypeCheckError(f"mu seed must not reference {e.rel!r}")
        seed, seed_sig = self.check_expr(e.seed, scope)
        notes, renames = self.notes, self.renames
        current = set(seed_sig.nullable)
        try:
            while True:
                self.notes, self.renames = {}, []
                nullable = tuple(n for n in seed_sig.labels if n in current)
                self.catalog[e.rel] = RelSig(seed_sig.labels, seed_sig.types, nullable)
                step, step_sig = self.check_expr(e.step, scope)
                step_nul = set(step_sig.nullable)
                grown = current | {
                    a for a, b in zip(seed_sig.labels, step_sig.labels) if b in step_nul
                }
                if grown == current:
                    break
                current = grown
        finally:
            del self.catalog[e.rel]
            notes.update(self.notes)
            renames.extend(self.renames)
            self.notes, self.renames = notes, renames
        if seed_sig.types != step_sig.types:
            raise TypeCheckError(
                f"mu {e.rel}: branch type words differ "
                f"({''.join(seed_sig.types)} vs {''.join(step_sig.types)})"
            )
        sig = RelSig(seed_sig.labels, seed_sig.types, nullable, seed_sig.free | step_sig.free)
        return ast.Mu(e.rel, e.distinct, seed, step), sig

    # -- conditions ---------------------------------------------------------

    def check_cond(self, c: ast.Condition, scope: Scope) -> tuple[ast.Condition, set]:
        """The checked condition and the names it reads from ``scope``."""
        if isinstance(c, (ast.CTrue, ast.CFalse)):
            return c, set()
        if isinstance(c, ast.IsNull):
            term_type(c.term, scope)
            return c, ast.term_names(c.term)
        if isinstance(c, ast.Compare):
            _check_tuple_comparison(list(c.lhs), c.op, list(c.rhs), scope, "comparison")
            return c, _names(c.lhs + c.rhs)
        if isinstance(c, ast.In):
            query, qsig = self.check_expr(c.query, scope)
            if len(c.items) != qsig.arity:
                raise TypeCheckError(
                    f"in: tuple arity {len(c.items)} vs subquery arity {qsig.arity}"
                )
            for t, qt in zip(c.items, qsig.types):
                if not _compatible(term_type(t, scope), qt):
                    raise TypeCheckError("in: tuple/subquery type mismatch")
            return ast.In(c.items, query), _names(c.items) | qsig.free
        if isinstance(c, ast.Empty):
            query, qsig = self.check_expr(c.query, scope)
            return ast.Empty(query), set(qsig.free)
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
            return ast.Quant(c.items, c.op, c.quant, query), _names(c.items) | qsig.free
        if isinstance(c, (ast.And, ast.Or)):
            left, lnames = self.check_cond(c.left, scope)
            right, rnames = self.check_cond(c.right, scope)
            return type(c)(left, right), lnames | rnames
        if isinstance(c, ast.Not):
            cond, names = self.check_cond(c.cond, scope)
            return ast.Not(cond), names
        raise TypeCheckError(f"not a condition: {c!r}")

    # -- naming -------------------------------------------------------------

    def _rename_apart(self, parts, name_of, taken, what: str):
        """The items or aggregates with each output named apart as
        `_apart` names it, and their output names; every rename is
        recorded."""
        names = tuple([name_of(part) for part in parts])
        labels = _apart(names, taken)
        if labels == names:
            return tuple(parts), labels
        out = []
        for part, name, label in zip(parts, names, labels):
            if label != name:
                self.renames.append(f"{what} output {name!r} renamed to {label!r}")
                part = replace(part, rename=label)
            out.append(part)
        return tuple(out), labels


def _apart(names: tuple[str, ...], taken: tuple[str, ...] = ()) -> tuple[str, ...]:
    """``names`` with each named apart from the distinct ``taken`` and from
    the earlier ones by the first free numeric suffix: the output labels of
    a projection's items, or of a grouping's aggregates after its names."""
    if len({*taken, *names}) == len(taken) + len(names):
        return names
    seen: dict[str, int] = dict.fromkeys(taken, 1)
    out = []
    for name in names:
        if name in seen:
            seen[name] += 1
            fresh = f"{name}_{seen[name]}"
            while fresh in seen:
                seen[name] += 1
                fresh = f"{name}_{seen[name]}"
            name = fresh
        seen.setdefault(name, 1)
        out.append(name)
    return tuple(out)


def _names(terms) -> set:
    return set().union(*(ast.term_names(t) for t in terms))


def typecheck(expr: ast.Expression, schema: Schema) -> Checked:
    checker = Typechecker(catalog_from_schema(schema))
    checked, sig = checker.check_expr(expr, {})
    return Checked(checked, sig, tuple(checker.renames), checker.notes)


def labels(expr: ast.Expression, schema: Schema) -> tuple[str, ...]:
    """The output label sequence of an expression, as `typecheck` derives it.

    Computed structurally: projections and groupings use renames or canonical
    term names, named apart as `typecheck` names them; products concatenate,
    set operations take the left side.  A product whose sides share a label,
    and repeated grouping names, are rejected.
    """
    return _labels(expr, {rel.name: rel.labels for rel in schema.relations.values()})


def _labels(e: ast.Expression, catalog: Mapping[str, tuple[str, ...]]) -> tuple[str, ...]:
    """`labels` over a catalog mapping each relation name to its labels."""
    if isinstance(e, ast.BaseRelation):
        if e.name not in catalog:
            raise TypeCheckError(f"unknown relation {e.name!r}")
        return catalog[e.name]
    if isinstance(e, ast.Projection):
        return _apart(tuple([ast.proj_item_name(i) for i in e.items]))
    if isinstance(e, (ast.Selection, ast.Distinct)):
        return _labels(e.source, catalog)
    if isinstance(e, ast.Product):
        out = _labels(e.left, catalog) + _labels(e.right, catalog)
        _require_distinct(out, "product")
        return out
    if isinstance(e, ast.SetOp):
        return _labels(e.left, catalog)
    if isinstance(e, ast.Group):
        _require_distinct(e.names, "group")
        return e.names + _apart(tuple([ast.agg_name(a) for a in e.aggs]), e.names)
    if isinstance(e, ast.Mu):
        return _labels(e.seed, catalog)
    raise TypeCheckError(f"not an expression: {e!r}")


def _require_distinct(names: tuple[str, ...], what: str):
    if len(set(names)) != len(names):
        dup = sorted({n for n in names if names.count(n) > 1})
        raise TypeCheckError(f"{what} output repeats names {dup}; rename with a projection")
