"""Static analysis: nullable-attribute tracking and coincidence certificates.

`nullable` over-approximates which output attributes can carry NULL.
`null_free` checks that a selection never lets a negation observe a
possibly-null comparison, and `coincidence_certificate` extends the check to
every selection in an expression; certified expressions evaluate identically
under the conflating two-valued semantics and the three-valued one.  The
condition is sufficient, not necessary: uncertified expressions may still
coincide.  Each typechecks its input once and reads labels and nullability
from the `typecheck` notes, so a certificate costs time linear in the size of
the expression.  One walker follows `ast.steps` through expressions,
conditions and subqueries alike, and names each node by its path of steps,
the path `translate --trace` gives the same node.
"""
from __future__ import annotations

from typing import Iterable

from . import ast
from .frozen import Frozen
from .typecheck import Checked, typecheck
from .values import Schema


def nullable(e: ast.Expression, schema: Schema) -> tuple[str, ...]:
    """The subsequence of labels(e) that may carry NULL in some result, by
    the rules listed in `nullvl.typecheck`."""
    return typecheck(e, schema).sig.nullable


# ---------------------------------------------------------------------------
# The null-free condition


class Violation(Frozen):
    path: str
    rule: str  # "null-literal" | "nullable-comparison" | "nullable-subquery"
    detail: str


def _atoms_under(cond: ast.Condition, path: str) -> Iterable[tuple[str, ast.Condition]]:
    """Atoms reachable through connectives: only the `.` steps are taken, so
    no subquery is entered."""
    operands = [(step, sub) for step, sub in ast.steps(cond) if step[0] == "."]
    if not operands:
        yield path, cond
    for step, sub in operands:
        yield from _atoms_under(sub, path + step)


def _negated_subconditions(cond: ast.Condition, path: str):
    negated = isinstance(cond, ast.Not)
    for step, sub in ast.steps(cond):
        if step[0] == ".":
            if negated:
                yield path + step, sub
            yield from _negated_subconditions(sub, path + step)


def _check_negated(
    theta: ast.Condition,
    path: str,
    effective_nullable: frozenset,
    checked: Checked,
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
            sub_nul = checked.of(atom.query).nullable
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


def null_free(selection: ast.Selection, schema: Schema) -> tuple[bool, list[Violation]]:
    """Check one selection's condition."""
    checked = typecheck(selection, schema)
    effective = _effective(checked.expr, frozenset(), checked)
    violations = _violations(checked.expr, effective, checked)
    return (not violations), violations


def _effective(selection: ast.Selection, outer: frozenset, checked: Checked) -> frozenset:
    """The possibly-null names a selection's condition reads: those of its
    source row, and those of the enclosing rows (``outer``) it does not
    shadow.  A correlated comparison under negation is just as unsafe as a
    local one."""
    src = checked.of(selection.source)
    return (outer - set(src.labels)) | set(src.nullable)


def _violations(selection: ast.Selection, effective: frozenset, checked: Checked) -> list[Violation]:
    violations = []
    for path, theta in _negated_subconditions(selection.cond, "cond"):
        violations.extend(_check_negated(theta, path, effective, checked))
    return violations


# ---------------------------------------------------------------------------
# Certificates and reports


class SelectionReport(Frozen):
    path: str
    null_free: bool
    violations: list[Violation]


class NullabilityReport(Frozen):
    certified: bool
    nullable: tuple[str, ...]  # of the whole expression
    subexpressions: list[tuple[str, tuple[str, ...], tuple[str, ...]]]  # path, labels, nullable
    selections: list[SelectionReport]

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


def coincidence_certificate(e: ast.Expression | Checked, schema: Schema) -> NullabilityReport:
    """Certify that two- and three-valued evaluation coincide.

    Certified iff every selection anywhere in the expression, including
    those inside condition subqueries, passes the null-free check.  The
    expression is typechecked first, unless it is the `Checked` that
    `typecheck` returned for this schema.
    """
    checked = e if isinstance(e, Checked) else typecheck(e, schema)
    subexpressions, selections = [], []
    _walk(checked.expr, "", frozenset(), checked, subexpressions, selections)
    return NullabilityReport(all(s.null_free for s in selections), checked.sig.nullable, subexpressions,
                             selections)


def _walk(node, path: str, outer: frozenset, checked: Checked, subexpressions: list, selections: list):
    """Append every expression node under ``node`` to ``subexpressions`` and
    the check of every selection to ``selections``.  ``outer`` holds the
    possibly-null names of the enclosing rows; a subquery in a selection's
    condition sees the names that condition reads."""
    inner = outer
    sig = checked.notes.get(id(node))  # None for a condition
    if sig is not None:
        subexpressions.append((path, sig.labels, sig.nullable))
        if isinstance(node, ast.Selection):
            inner = _effective(node, outer, checked)
            violations = _violations(node, inner, checked)
            selections.append(SelectionReport(path, not violations, violations))
    for step, child in ast.steps(node):
        _walk(child, path + step, inner if step == "/cond" else outer, checked, subexpressions, selections)
