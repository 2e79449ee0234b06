"""Static analysis: nullable-attribute tracking and coincidence certificates.

`nullable` over-approximates which output attributes can carry NULL.
`null_free` checks that a selection never lets a negation observe a
possibly-null comparison, and `coincidence_certificate` extends the check to
every selection in an expression; certified expressions evaluate identically
under the conflating two-valued semantics and the three-valued one.  The
condition is sufficient, not necessary: uncertified expressions may still
coincide.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from . import ast
from .errors import TypeCheckError
from .typecheck import _labels
from .values import Schema

# analysis catalog: relation name -> (labels, frozenset of nullable labels)
NullCatalog = dict


def _null_catalog(schema_or_catalog) -> NullCatalog:
    if isinstance(schema_or_catalog, Schema):
        return {
            rel.name: (rel.labels, frozenset(rel.nullable_labels))
            for rel in schema_or_catalog.relations.values()
        }
    return dict(schema_or_catalog)


def nullable(e: ast.Expression, schema_or_catalog) -> tuple[str, ...]:
    """The subsequence of labels(e) that may carry NULL in some result.

    Follows the structural rules: selections and duplicate elimination keep
    their input's set, products concatenate, bag union lists a position
    nullable on either side and intersection on both, difference takes the
    left side, fixpoints take the union of both branches (iterated to a
    fixed point), projections list terms that can evaluate to NULL, and
    grouping keeps nullable grouping names and aggregates over nullable
    columns.
    """
    return _nullable(e, _null_catalog(schema_or_catalog))


def _label_map(cat: NullCatalog) -> dict:
    """Relation name -> labels, the catalog `typecheck._labels` reads."""
    return {name: labels for name, (labels, _) in cat.items()}


def _nullable(e: ast.Expression, cat: NullCatalog, outer: frozenset = frozenset()) -> tuple[str, ...]:
    """`nullable` under a catalog; `outer` lists the possibly-null names a
    correlated subquery sees from the enclosing rows."""
    if isinstance(e, ast.BaseRelation):
        if e.name not in cat:
            raise TypeCheckError(f"unknown relation {e.name!r}")
        labels, nul = cat[e.name]
        return tuple(n for n in labels if n in nul)
    if isinstance(e, (ast.Selection, ast.Distinct)):
        return _nullable(e.source, cat, outer)
    if isinstance(e, ast.Product):
        return _nullable(e.left, cat, outer) + _nullable(e.right, cat, outer)
    if isinstance(e, ast.SetOp):
        left_labels = _labels(e.left, _label_map(cat))
        right_labels = _labels(e.right, _label_map(cat))
        lnul = set(_nullable(e.left, cat, outer))
        rnul = set(_nullable(e.right, cat, outer))
        out = []
        for a, b in zip(left_labels, right_labels):
            if e.op == "union" and (a in lnul or b in rnul):
                out.append(a)
            elif e.op == "intersect" and (a in lnul and b in rnul):
                out.append(a)
            elif e.op == "except" and a in lnul:
                out.append(a)
        return tuple(out)
    if isinstance(e, ast.Projection):
        src_nul = set(_nullable(e.source, cat, outer))
        if outer:  # enclosing rows' names, unless the source row shadows them
            src_nul |= outer - set(_labels(e.source, _label_map(cat)))
        out = []
        for item in e.items:
            if ast.term_can_yield_null(item.term, src_nul):
                out.append(ast.proj_item_name(item))
        return tuple(out)
    if isinstance(e, ast.Group):
        src_nul = set(_nullable(e.source, cat, outer))
        out = [n for n in e.names if n in src_nul]
        for agg in e.aggs:
            if agg.column is not None and agg.column in src_nul:
                out.append(ast.agg_name(agg))
        return tuple(out)
    if isinstance(e, ast.Mu):
        return _nullable_mu(e, cat, outer)
    raise TypeCheckError(f"not an expression: {e!r}")


def _nullable_mu(e: ast.Mu, cat: NullCatalog, outer: frozenset) -> tuple[str, ...]:
    seed_labels = _labels(e.seed, _label_map(cat))
    current = frozenset(_nullable(e.seed, cat, outer))
    # the iterated relation feeds itself; grow the set until stable
    while True:
        step_cat = dict(cat)
        step_cat[e.rel] = (seed_labels, current)
        step_labels = _labels(e.step, _label_map(step_cat))
        step_nul = set(_nullable(e.step, step_cat, outer))
        merged = set(current)
        for a, b in zip(seed_labels, step_labels):
            if b in step_nul:
                merged.add(a)
        merged = frozenset(merged)
        if merged == current:
            return tuple(n for n in seed_labels if n in current)
        current = merged


# ---------------------------------------------------------------------------
# The null-free condition


@dataclass(frozen=True)
class Violation:
    path: str
    rule: str  # "null-literal" | "nullable-comparison" | "nullable-subquery"
    detail: str


def _atoms_under(cond: ast.Condition, path: str) -> Iterable[tuple[str, ast.Condition]]:
    """Atoms reachable through connectives, without entering subqueries."""
    if isinstance(cond, (ast.And, ast.Or)):
        yield from _atoms_under(cond.left, path + ".l")
        yield from _atoms_under(cond.right, path + ".r")
    elif isinstance(cond, ast.Not):
        yield from _atoms_under(cond.cond, path + ".n")
    else:
        yield path, cond


def _negated_subconditions(cond: ast.Condition, path: str):
    if isinstance(cond, ast.Not):
        yield path, cond.cond
        yield from _negated_subconditions(cond.cond, path + ".n")
    elif isinstance(cond, (ast.And, ast.Or)):
        yield from _negated_subconditions(cond.left, path + ".l")
        yield from _negated_subconditions(cond.right, path + ".r")


def _check_negated(
    theta: ast.Condition,
    path: str,
    effective_nullable: frozenset,
    cat: NullCatalog,
) -> list[Violation]:
    violations = []
    for apath, atom in _atoms_under(theta, path):
        if isinstance(atom, ast.Compare):
            terms, what = atom.lhs + atom.rhs, "comparison"
        elif isinstance(atom, (ast.In, ast.Quant)):
            terms, what = atom.items, "membership tuple"
        else:
            continue
        literal = any(ast.term_contains_null(t) for t in terms)
        if literal:
            violations.append(Violation(apath, "null-literal", "NULL constant under negation"))
        if not isinstance(atom, ast.Compare):
            sub_nul = _nullable(atom.query, cat, effective_nullable)
            if sub_nul:
                violations.append(
                    Violation(
                        apath,
                        "nullable-subquery",
                        f"subquery under negation has nullable output(s) {list(sub_nul)}",
                    )
                )
        bad = set().union(*(ast.term_names(t) for t in terms)) & effective_nullable
        if bad:
            violations.append(
                Violation(
                    apath,
                    "nullable-comparison",
                    f"{what} under negation mentions nullable name(s) {sorted(bad)}",
                )
            )
        elif not literal and any(ast.term_can_yield_null(t, effective_nullable) for t in terms):
            violations.append(
                Violation(
                    apath,
                    "nullable-comparison",
                    f"{what} under negation has a div/mod term, NULL on a zero divisor",
                )
            )
    return violations


def null_free(
    selection: ast.Selection,
    schema_or_catalog,
    param_nullable: frozenset = frozenset(),
) -> tuple[bool, list[Violation]]:
    """Check one selection's condition.

    ``param_nullable`` lists the possibly-null names bound by enclosing
    expressions; a correlated comparison under negation is just as unsafe as
    a local one, so those names count too.
    """
    cat = _null_catalog(schema_or_catalog)
    src_labels = _labels(selection.source, _label_map(cat))
    src_nullable = frozenset(_nullable(selection.source, cat, param_nullable))
    effective = (param_nullable - set(src_labels)) | src_nullable
    violations = []
    for path, theta in _negated_subconditions(selection.cond, "cond"):
        violations.extend(_check_negated(theta, path, frozenset(effective), cat))
    return (not violations), violations


# ---------------------------------------------------------------------------
# Certificates and reports


@dataclass
class SelectionReport:
    path: str
    null_free: bool
    violations: list[Violation]


@dataclass
class NullabilityReport:
    certified: bool
    nullable: tuple[str, ...]  # of the whole expression
    subexpressions: list[tuple[str, tuple[str, ...], tuple[str, ...]]]  # path, labels, nullable
    selections: list[SelectionReport] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "certified": self.certified,
            "nullable": list(self.nullable),
            "subexpressions": [
                {"path": p, "labels": list(l), "nullable": list(n)}
                for p, l, n in self.subexpressions
            ],
            "selections": [
                {
                    "path": s.path,
                    "null_free": s.null_free,
                    "violations": [
                        {"path": v.path, "rule": v.rule, "detail": v.detail}
                        for v in s.violations
                    ],
                }
                for s in self.selections
            ],
        }

    def to_table(self) -> str:
        lines = ["path\tlabels\tnullable"]
        for p, l, n in self.subexpressions:
            lines.append(f"{p or '.'}\t{','.join(l)}\t{','.join(n) or '-'}")
        lines.append("")
        for s in self.selections:
            status = "null-free" if s.null_free else "NOT null-free"
            lines.append(f"selection {s.path or '.'}: {status}")
            for v in s.violations:
                lines.append(f"  {v.rule} at {v.path}: {v.detail}")
        lines.append("")
        lines.append("certified" if self.certified else "uncertified")
        return "\n".join(lines)


def coincidence_certificate(e: ast.Expression, schema_or_catalog) -> NullabilityReport:
    """Certify that two- and three-valued evaluation coincide.

    Certified iff every selection anywhere in the expression, including
    those inside condition subqueries, passes the null-free check.
    """
    cat = _null_catalog(schema_or_catalog)
    report = NullabilityReport(True, _nullable(e, cat), [])
    _walk_expr(e, "", frozenset(), cat, report)
    report.certified = all(s.null_free for s in report.selections)
    return report


def _walk_expr(
    e: ast.Expression,
    path: str,
    param_nullable: frozenset,
    cat: NullCatalog,
    report: NullabilityReport,
):
    report.subexpressions.append((path, _labels(e, _label_map(cat)), _nullable(e, cat, param_nullable)))
    if isinstance(e, ast.Selection):
        ok, violations = null_free(e, cat, param_nullable)
        report.selections.append(SelectionReport(path, ok, violations))
        src_labels = _labels(e.source, _label_map(cat))
        effective = (param_nullable - set(src_labels)) | set(_nullable(e.source, cat, param_nullable))
        _walk_cond(e.cond, path + "/cond", frozenset(effective), cat, report)
        _walk_expr(e.source, path + "/src", param_nullable, cat, report)
        return
    if isinstance(e, ast.BaseRelation):
        return
    if isinstance(e, (ast.Projection, ast.Distinct, ast.Group)):
        _walk_expr(e.source, path + "/src", param_nullable, cat, report)
        return
    if isinstance(e, (ast.Product, ast.SetOp)):
        _walk_expr(e.left, path + "/l", param_nullable, cat, report)
        _walk_expr(e.right, path + "/r", param_nullable, cat, report)
        return
    if isinstance(e, ast.Mu):
        _walk_expr(e.seed, path + "/seed", param_nullable, cat, report)
        seed_labels = _labels(e.seed, _label_map(cat))
        mu_nullable = frozenset(_nullable_mu(e, cat, param_nullable))
        saved = cat.get(e.rel)
        cat[e.rel] = (seed_labels, mu_nullable)
        try:
            _walk_expr(e.step, path + "/step", param_nullable, cat, report)
        finally:
            if saved is None:
                del cat[e.rel]
            else:
                cat[e.rel] = saved
        return
    raise TypeCheckError(f"not an expression: {e!r}")


def _walk_cond(
    c: ast.Condition,
    path: str,
    param_nullable: frozenset,
    cat: NullCatalog,
    report: NullabilityReport,
):
    for q in ast.condition_subqueries(c):
        _walk_expr(q, path + "/q", param_nullable, cat, report)
    for i, sub in enumerate(ast.condition_children(c)):
        _walk_cond(sub, f"{path}.{i}", param_nullable, cat, report)
