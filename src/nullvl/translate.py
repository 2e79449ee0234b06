"""Syntactic translations between condition semantics.

Each translator rewrites selection conditions through images: the image of
a condition at a set of truth values is a condition that is true under the
target semantics exactly when the source condition takes one of them.
Expressions translate by replacing every selection condition with its image
at "true"; the output evaluates, under the target semantics, to the same bag
as the input under the source semantics, on every database.

One entry point serves every pair of semantics:
`translate(expr, schema, source, target)` runs the one core, `_FromMVL`,
from any finite source kernel into any target kernel, or into every
grounding at once when `target` is None.  The core's images range over sets
of truth values, and it reads each comparison's condition templates from
the source kernel, which derives them from its one NULL table
(`LogicKernel.template`), and the not-null guards they need from the target.
The named pairs (`tr_*`) are `translate` between fixed semantics, and
`direction` runs the pair that `logic.DIRECTIONS` names by its source and
target for the CLI and harness.

`translate` typechecks its input once, as `evaluate` does, and translates
the checked tree; the core reads the labels of every node it needs them for
from the `typecheck` notes of that tree.  Translation keeps
the labels of every node, so a translated subquery has its input's labels.

The translations are purely syntactic and deterministic; no simplification
pass runs afterwards.  Fresh names introduced here carry the reserved
prefix ``__``.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product
from typing import Mapping, Optional

from . import ast
from .errors import EvalError, NullvlError, RecursionLimitError
from .evaluator import EvalConfig, evaluate
from .frozen import replace
from .logic import (
    AND,
    DIRECTIONS,
    OR,
    Grounding,
    LogicKernel,
    flag_of,
    fold_counted,
    kernel_2vl,
    kernel_3vl,
    kernel_by_name,
    kernel_grounded,
)
from .typecheck import Checked, RelSig, typecheck
from .values import Bag, Database, Schema

COUNT_LABEL = "__cnt"
REDUCED_LABEL = "__red"


@dataclass(frozen=True)
class TranslationResult:
    output: ast.Expression
    input: ast.Expression
    trace: tuple[tuple[str, str], ...]  # (node path, rule that fired)

    @functools.cached_property
    def size_ratio(self) -> Fraction:
        """Output nodes per input node, sized when first read."""
        return Fraction(ast.expression_size(self.output), ast.expression_size(self.input))

    def trace_json(self) -> list[dict]:
        return [{"path": path, "rule": rule} for path, rule in self.trace]


def _cols(labels: tuple[str, ...]) -> tuple[ast.Term, ...]:
    return tuple(ast.NameRef(n) for n in labels)


class _FromMVL:
    """Conditions under a finite source kernel into equivalents under a
    target: 3VL, 2VL, or (`target` None) every grounding at once.

    `image(c, values, path)` is a condition that is true under the target
    exactly when `c` takes one of `values` under the source.  Images are
    combined only by And, Or and selections, never negated, so an image
    need not be two-valued under the target.  Six rules keep them small:

    - value sets: `not` asks once for the preimage of the set, and the empty
      set and the set of every value are `(false)` and `(true)`;
    - connective cover: the And/Or table cells whose value is in the set
      are covered by rectangles.  Each distinct set B of right values that
      some left value reaches is paired with the left values that reach at
      least B, and a side whose set is every value is left out;
    - counted quantifiers: IN / ANY / ALL cannot just recurse (the fold
      size depends on the data), so they count, per truth value, how many
      subquery records compare to it, reduced through its eventual
      periodicity.  The reduced count profiles whose fold is in the set are
      merged, as in an implicant merge, wherever the profiles of one
      position's whole range agree on every other position; a merged
      position needs no count.  The zero counts of a profile share one
      emptiness test, and a value whose fold is itself at every length
      (lead 1, period 2) only asks for a record that compares to it;
    - target guards: the source's comparison templates rule NULL arguments
      out of `a op b` (its negation) wherever the target makes it true on
      some null pattern (`LogicKernel.null_guards`; both, for every
      grounding);
    - kept quantifiers: at the source's true value IN / ANY / ALL keep their
      shape, over the translated subquery, when both kernels' and/or are
      true exactly where the Boolean ones are and the two agree on the null
      patterns where the comparison (and `=`, for tuples) is true;
    - null-filtered membership: where the source's `=` is false on every
      null pattern, every record compares t or f, so IN is false exactly
      when an item is NULL or no record equals the items.  Its false image
      keeps the membership, negated, over the subquery's null-free records,
      on which every kernel compares as Boolean.
    """

    def __init__(self, notes: Mapping[int, RelSig], kernel: LogicKernel,
                 target: Optional[LogicKernel] = None):
        self.notes = notes  # the `typecheck` notes of the translated tree
        self.trace: list[tuple[str, str]] = []
        self._fresh = 0
        self.kernel, self.target = kernel, target
        # every grounding may make a comparison or its negation true on a NULL
        self.guards = target.null_guards if target else dict.fromkeys(ast.COMPARISONS, (True, True))

    def run(self, e: ast.Expression) -> TranslationResult:
        return TranslationResult(self.expr(e, ""), e, tuple(self.trace))

    def _note(self, path: str, rule: str):
        self.trace.append((path, rule))

    def _fresh_name(self, hint: str) -> str:
        self._fresh += 1
        return f"__{hint}{self._fresh}"

    def subquery(self, e: ast.Expression, path: str, avoid: set[str]):
        """Translate a condition subquery; rename its output labels when they
        collide with names the surrounding condition must keep visible."""
        out = self.expr(e, path)
        labels = self.notes[id(e)].labels
        if not (set(labels) & avoid):
            return out, labels
        fresh = tuple(self._fresh_name("c") for _ in labels)
        self._note(path, "rename-subquery-labels")
        renamed = ast.Projection(
            tuple(ast.ProjItem(ast.NameRef(n), f) for n, f in zip(labels, fresh)), out
        )
        return renamed, fresh

    def _avoid(self, items: tuple[ast.Term, ...]) -> set[str]:
        out: set[str] = set()
        for item in items:
            out |= ast.term_names(item)
        return out

    def expr(self, e: ast.Expression, path: str) -> ast.Expression:
        if isinstance(e, ast.BaseRelation):
            return e
        if isinstance(e, ast.Projection):
            return ast.Projection(e.items, self.expr(e.source, path + "/src"))
        if isinstance(e, ast.Selection):
            cond = self.cond_value(e.cond, self.kernel.true, path + "/cond")
            return ast.Selection(cond, self.expr(e.source, path + "/src"))
        if isinstance(e, ast.Product):
            return ast.Product(self.expr(e.left, path + "/l"), self.expr(e.right, path + "/r"))
        if isinstance(e, ast.SetOp):
            return ast.SetOp(e.op, self.expr(e.left, path + "/l"), self.expr(e.right, path + "/r"))
        if isinstance(e, ast.Distinct):
            return ast.Distinct(self.expr(e.source, path + "/src"))
        if isinstance(e, ast.Group):
            return ast.Group(e.names, e.aggs, self.expr(e.source, path + "/src"))
        if isinstance(e, ast.Mu):
            seed, step = self.expr(e.seed, path + "/seed"), self.expr(e.step, path + "/step")
            return ast.Mu(e.rel, e.distinct, seed, step)
        raise NullvlError(f"not an expression: {e!r}")

    def cond_value(self, c: ast.Condition, tau, path: str) -> ast.Condition:
        return self.image(c, frozenset((tau,)), path)

    def _spell(self, values: frozenset) -> str:
        return ",".join(v for v in self.kernel.values if v in values)

    def _keeps(self, ops) -> bool:
        source, target = self.kernel, self.target
        return target is not None and source.boolean_truth and target.boolean_truth and all(
            source.null_true[op] is not None and source.null_true[op] == target.null_true[op]
            for op in ops
        )

    def image(self, c: ast.Condition, values: frozenset, path: str) -> ast.Condition:
        kernel = self.kernel
        if not values or len(values) == len(kernel.values):
            return ast.CTrue() if values else ast.CFalse()
        if isinstance(c, ast.Compare):
            if len(c.lhs) > 1:
                return self.image(ast.expand_tuple_comparison(c.lhs, c.op, c.rhs), values, path)
            self._note(path, f"compare-template:{self._spell(values)}")
            return kernel.template(c.op, values, c.lhs[0], c.rhs[0], self.guards[c.op])
        if isinstance(c, (ast.And, ast.Or)):
            return self._cover(c, values, path)
        if isinstance(c, ast.Not):
            self._note(path, f"negation:{self._spell(values)}")
            preimage = frozenset(v for v in kernel.values if kernel.not_table[v] in values)
            return self.image(c.cond, preimage, path + ".n")
        if isinstance(c, (ast.In, ast.Quant)):
            if (isinstance(c, ast.In) and values == {kernel.false}
                    and set(kernel.null_equality.values()) == {kernel.false}):
                return self._null_filtered(c, path)
            op = "=" if isinstance(c, ast.In) else c.op
            conn = AND if isinstance(c, ast.Quant) and c.quant == "all" else OR
            if values == {kernel.true} and self._keeps({op, "="} if len(c.items) > 1 else {op}):
                self._note(path, "quantifier-kept")
                return replace(c, query=self.expr(c.query, path + "/q"))
            return self._counted(c.items, op, c.query, conn, values, path)
        if isinstance(c, (ast.IsNull, ast.Empty)):
            t, f = kernel.true in values, kernel.false in values
            if t == f:
                return ast.CTrue() if t else ast.CFalse()
            if isinstance(c, ast.Empty):
                c = ast.Empty(self.expr(c.query, path + "/q"))
            return c if t else ast.Not(c)
        if isinstance(c, (ast.CTrue, ast.CFalse)):
            value = kernel.true if isinstance(c, ast.CTrue) else kernel.false
            return ast.CTrue() if value in values else ast.CFalse()
        raise NullvlError(f"not a condition: {c!r}")

    def _null_filtered(self, c: ast.In, path: str) -> ast.Condition:
        self._note(path, "in-null-filtered")
        query, labels = self.subquery(c.query, path + "/q", self._avoid(c.items))
        null_free = ast.and_all([ast.Not(ast.IsNull(ast.NameRef(n))) for n in labels])
        kept = ast.Not(ast.In(c.items, ast.Selection(null_free, query)))
        return ast.or_all([ast.IsNull(t) for t in c.items] + [kept])

    def _cover(self, c: ast.And | ast.Or, values: frozenset, path: str) -> ast.Condition:
        kernel_values, every = self.kernel.values, frozenset(self.kernel.values)
        table = self.kernel.and_table if isinstance(c, ast.And) else self.kernel.or_table
        # the right values each left value reaches, and each distinct reach
        # paired with the left values that reach at least it, largest first
        reach = {a: frozenset(b for b in every if table[(a, b)] in values) for a in kernel_values}
        rights = sorted(dict.fromkeys(r for r in reach.values() if r), key=len, reverse=True)
        self._note(path, f"connective-cover:{self._spell(values)}:{len(rights)}")
        disjuncts = []
        for right in rights:
            left = frozenset(a for a in every if reach[a] >= right)
            sides = [self.image(c.left, left, path + ".l")] if left != every else []
            if right != every:
                sides.append(self.image(c.right, right, path + ".r"))
            disjuncts.append(ast.and_all(sides))
        return ast.or_all(disjuncts)

    def _counted(self, items, op, query, conn, values, path) -> ast.Condition:
        kernel = self.kernel
        avoid = self._avoid(items) | {COUNT_LABEL, REDUCED_LABEL}
        base, labels = self.subquery(query, path + "/q", avoid)

        periods = [kernel.periodicity(v, conn) for v in kernel.values]
        empty_fold = kernel.false if conn == OR else kernel.true
        profiles = [
            profile for profile in iter_product(*(range(p) for (_l, p) in periods))
            if (fold_counted(kernel, conn, dict(zip(kernel.values, profile)))
                if any(profile) else empty_fold) in values
        ]
        spelled = self._spell(values)
        self._note(path, f"count-profiles:{spelled}:{len(profiles)}")
        merged = _merge_profiles(profiles, [p for (_l, p) in periods])
        if len(merged) < len(profiles):
            self._note(path, f"count-dont-care:{spelled}:{len(merged)}")

        # the records of the subquery that compare to a set of values, once per set
        compare = ast.Compare(items, op, _cols(labels))
        selections: dict[frozenset, ast.Expression] = {}

        def selected(wanted: frozenset) -> ast.Expression:
            if wanted not in selections:
                per_row = self.image(compare, wanted, path + f".cnt[{self._spell(wanted)}]")
                selections[wanted] = base if per_row == ast.CTrue() else ast.Selection(per_row, base)
            return selections[wanted]

        disjuncts = []
        for profile in merged:
            zeros = frozenset(v for v, m in zip(kernel.values, profile) if m == 0)
            conjs = [ast.Empty(selected(zeros))] if zeros else []
            conjs += [
                self._count_matches(selected(frozenset((v,))), m, lead_period, path)
                for v, m, lead_period in zip(kernel.values, profile, periods)
                if m
            ]
            disjuncts.append(ast.and_all(conjs))
        return ast.or_all(disjuncts)

    def _count_matches(self, selected: ast.Expression, m: int, lead_period, path) -> ast.Condition:
        lead, period = lead_period
        if (lead, period) == (1, 2):
            self._note(path, "count-idempotent")
            return ast.Not(ast.Empty(selected))
        counted = ast.Group((), (ast.AggItem("count_star", None, COUNT_LABEL),), selected)
        if m < lead:
            return ast.Quant((ast.num(m),), "=", "any", counted)
        count, modulus = ast.NameRef(COUNT_LABEL), ast.num(period - lead)
        residue = ast.FnApply("mod", (ast.FnApply("sub", (count, ast.num(lead))), modulus))
        reduced = ast.Projection(
            (ast.ProjItem(residue, REDUCED_LABEL),),
            ast.Selection(ast.Compare((count,), ">=", (ast.num(lead),)), counted),
        )
        return ast.Quant((ast.num(m - lead),), "=", "any", reduced)


def _merge_profiles(profiles: list[tuple], sizes: list[int]) -> list[tuple]:
    """Merge count profiles that differ in one position and together cover
    its whole range `range(size)` into one profile with None (any count)
    there, until nothing merges.  The profiles stay disjoint, and a merged
    profile takes the place of the first profile it replaces."""
    out = list(profiles)
    merging = True
    while merging:
        merging = False
        for i, size in enumerate(sizes):
            groups: dict[tuple, list[tuple]] = {}
            for prof in out:
                if prof[i] is not None:
                    groups.setdefault(prof[:i] + (None,) + prof[i + 1:], []).append(prof)
            into = {p: key for key, members in groups.items() if len(members) == size for p in members}
            if into:
                merging = True
                out = list(dict.fromkeys(into.get(p, p) for p in out))
    return out


# ---------------------------------------------------------------------------
# Public entry points


def translate(
    expr: ast.Expression, schema: Schema, source: LogicKernel, target: Optional[LogicKernel],
    checked: Optional[Checked] = None,
) -> TranslationResult:
    """Rewrite a query written under the `source` kernel so that it
    evaluates identically under the `target` kernel, or under every
    grounding's two-valued semantics when `target` is None.

    `checked` is the `Checked` that `typecheck` returned for `expr` under
    `schema` where the caller has one; `expr` is then not typechecked again.
    """
    checked = checked or typecheck(expr, schema)
    return _FromMVL(checked.notes, source, target).run(checked.expr)


# The named pairs, each `translate` from one semantics into another.  Each
# keeps the expression as its first argument, as the benchmark's tracer
# sizes the output against it.


def tr_to_3vl(
    expr: ast.Expression, schema: Schema, checked: Optional[Checked] = None
) -> TranslationResult:
    """From the conflating two-valued semantics into the three-valued one."""
    return translate(expr, schema, kernel_2vl(), kernel_3vl(), checked)


def tr_from_3vl(
    expr: ast.Expression, schema: Schema, checked: Optional[Checked] = None
) -> TranslationResult:
    """From the three-valued semantics into the conflating two-valued one."""
    return translate(expr, schema, kernel_3vl(), kernel_2vl(), checked)


def tr_grounded_to_3vl(
    expr: ast.Expression, schema: Schema, grounding: Grounding, checked: Optional[Checked] = None
) -> TranslationResult:
    """From the grounding's two-valued semantics into the three-valued one."""
    return translate(expr, schema, kernel_grounded(grounding), kernel_3vl(), checked)


def tr_3vl_to_grounded(
    expr: ast.Expression, schema: Schema, checked: Optional[Checked] = None
) -> TranslationResult:
    """From the three-valued semantics into every grounding's at once."""
    return translate(expr, schema, kernel_3vl(), None, checked)


def tr_mvl_to_3vl(
    expr: ast.Expression, schema: Schema, kernel: LogicKernel, checked: Optional[Checked] = None
) -> TranslationResult:
    """From a finite many-valued kernel into the three-valued semantics."""
    return translate(expr, schema, kernel, kernel_3vl(), checked)


def direction(name: str, spec: Optional[str] = None):
    """Direction `name` with `spec`, its flag's value, in its "{}":
    `run(expr, schema, checked=None)`, which translates through the
    direction's named pair, and the source and target kernels of its
    capture equation.  Without a value a target with "{}" is None."""
    flag = flag_of(name)
    if spec is None and "{}" in DIRECTIONS[name][0]:
        raise NullvlError(f"{name} needs --{flag} <name or file>")
    source, target = (
        None if spec is None and "{}" in semantics else kernel_by_name(semantics.format(spec))
        for semantics in DIRECTIONS[name]
    )

    def run(expr, schema, checked=None) -> TranslationResult:
        # the named pair is looked up here, when it runs, so that rebinding
        # a module global (as a tracer does) reaches every caller
        pair, *args = {
            "2to3": (tr_to_3vl,),
            "3to2": (tr_from_3vl,),
            "gr-to-3": (tr_grounded_to_3vl, source.grounding),
            "3-to-gr": (tr_3vl_to_grounded,),
            "mvl-to-3": (tr_mvl_to_3vl, source),
        }[name]
        return pair(expr, schema, *args, checked)

    return run, source, target


# ---------------------------------------------------------------------------
# The capture oracle


@dataclass
class Verdict:
    status: str  # "equal" | "not-equal" | "inconclusive"
    left: Optional[Bag]
    right: Optional[Bag]
    size_ratio: Optional[Fraction]
    detail: str = ""

    @property
    def equal(self) -> bool:
        return self.status == "equal"


def check_capture(
    expr: ast.Expression | Checked,
    db: Database,
    source_cfg: EvalConfig,
    target_cfg: EvalConfig,
    translation: TranslationResult,
) -> Verdict:
    """Evaluate both sides of a capture equation and compare the bags.  The
    source side may be the `Checked` that `typecheck` returned for the
    database's schema, which is then not typechecked again."""
    try:
        left = evaluate(expr, db, cfg=source_cfg)
        right = evaluate(translation.output, db, cfg=target_cfg)
    except (RecursionLimitError, EvalError) as exc:
        return Verdict("inconclusive", None, None, translation.size_ratio, str(exc))
    status = "equal" if left == right else "not-equal"
    return Verdict(status, left, right, translation.size_ratio)
