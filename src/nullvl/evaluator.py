"""Denotational interpreter for expressions and conditions.

Everything is parameterized by a LogicKernel: the same walker implements the
three-valued semantics, the conflating two-valued one, syntactic equality,
groundings and arbitrary finite many-valued logics.  Selections keep exactly
the records whose condition comes out as the kernel's designated true value.

With ``EvalConfig.plan`` on (the default) the walker follows five rules, none
of which changes a result:

1. Each `evaluate` / `eval_condition` call typechecks its input once and
   reads labels and free names from the `typecheck` notes.  The planner's
   own facts about a selection (probe keys, the compiled condition) are
   derived from those notes once per call, in a dict keyed by node
   identity.
2. A condition subquery whose free names miss the labels of the selection's
   source is hoisted, as its condition compiles: it is evaluated at most
   once per evaluation of the selection, on first use, and kept in a memo
   that lives for that evaluation only.
3. Equality lookups go through hash indexes when the kernel allows it
   (`_Run.join_nulls`), and the full condition is still tested on every
   candidate:
   - a selection over a base relation or a product probes one index.  Its
     `=` conjuncts that compare a column of the indexed side (the relation,
     or the product's right side) with a term reading none of that side's
     columns give the key.  The side's bag is indexed on those columns and
     probed with the terms' values: once per call over a base relation
     (q2's correlated `σ(R.A = S.A)(S)`), once per left record over a
     product (q3's `X.A = Y.A`, or a computed `X.A + 1 = Y.C`).  The index
     lives for the `evaluate` call and is kept while the side's bag is
     unchanged: a loop-invariant side of a fixpoint's step is indexed once,
     a fixpoint relation again on every iteration;
   - single-item IN / ANY-`=` looks the item up in a value count index of
     the subquery's bag.
4. Quantifiers fold once per distinct record through `fold_counted`.
5. Each selection's condition and each projection's items are compiled once
   per call, next to the selection's other facts, to closures: the source's
   labels read record positions, outer names the caller's environment, and
   connectives index the kernel's tables.  A record is bound into an
   environment only for a subquery that reads the source's labels.
   `eval_condition` compiles its condition with no labels, so each of its
   subqueries is hoisted.  Grounding templates compile through the same
   compiler (`condition_rule`).

With ``plan=False`` it is the plain tree-walker, the reference the planned
evaluation is tested against; `eval_condition_rt` is that walker and reads
no planner state.
"""
from __future__ import annotations

from functools import cached_property
from typing import Mapping, Optional

from . import ast
from .errors import EvalError, RecursionLimitError
from .frozen import Frozen
from .funcs import apply_aggregate, apply_function
from .logic import AND, OR, LogicKernel, TruthValue, fold_counted, kernel_3vl
from .typecheck import Checked, RelSig, Typechecker, catalog_from_schema, typecheck
from .values import Bag, Database, Value, is_null

Env = Mapping[str, Value]


class EvalConfig(Frozen):
    kernel: LogicKernel = None  # None: kernel_3vl()
    recursion_cap: int = 10_000
    plan: bool = True  # False: the plain tree-walker

    def __post_init__(self):
        if self.kernel is None:
            object.__setattr__(self, "kernel", kernel_3vl())
        if self.recursion_cap < 1:
            raise ValueError("recursion_cap must be at least 1")


# runtime catalog: relation name -> bag
Rt = dict

_NULLS_1, _NULLS_2, _NULLS_12 = frozenset({1}), frozenset({2}), frozenset({1, 2})


class _Run:
    """The state of one `evaluate` call.

    ``notes`` are the `typecheck` notes of the evaluated tree; ``facts`` maps
    selection identities to what `_plan_selection` derived for them, and
    projection identities to their compiled items (None runs the plain
    tree-walker); ``indexes`` holds the probe index of each selection, with
    the bag of the indexed side it was built from.
    """

    def __init__(self, cfg: EvalConfig, notes: Mapping[int, RelSig]):
        self.cfg = cfg
        self.kernel = cfg.kernel
        self.notes = notes
        self.facts: Optional[dict] = {} if cfg.plan else None
        self.indexes: dict = {}

    @cached_property
    def members(self) -> bool:
        """Whether a one-column bag can answer `=` through a count index:
        every null pattern gives a constant."""
        return all(v is not None for v in self.kernel.null_equality.values())

    @cached_property
    def join_nulls(self) -> Optional[bool]:
        """None if selections may not go through a hash index on their `=`
        conjuncts, otherwise whether NULL keys match.  An index yields only
        records with equal keys; the others must be false for certain: no
        null pattern with a NULL on one side is true, and a conjunction is
        true only when both operands are."""
        kernel, eq = self.kernel, self.kernel.null_equality
        true = kernel.true
        if not self.members or true in (eq[_NULLS_1], eq[_NULLS_2]):
            return None
        if any(v == true and pair != (true, true) for pair, v in kernel.and_table.items()):
            return None
        return eq[_NULLS_12] == true


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


def eval_condition_rt(cond: ast.Condition, rt: Rt, env: Env, run: _Run) -> TruthValue:
    kernel = run.kernel
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
            ast.Quant(cond.items, "=", "any", cond.query), rt, env, run
        )
    if isinstance(cond, ast.Empty):
        return kernel.true if eval_rt(cond.query, rt, env, run).is_empty() else kernel.false
    if isinstance(cond, ast.Quant):
        bag = eval_rt(cond.query, rt, env, run)
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
            eval_condition_rt(cond.left, rt, env, run),
            eval_condition_rt(cond.right, rt, env, run),
        )
    if isinstance(cond, ast.Or):
        return kernel.disj(
            eval_condition_rt(cond.left, rt, env, run),
            eval_condition_rt(cond.right, rt, env, run),
        )
    if isinstance(cond, ast.Not):
        return kernel.neg(eval_condition_rt(cond.cond, rt, env, run))
    raise EvalError(f"not a condition: {cond!r}")


def _same(bag: Bag) -> Bag:
    return bag


class _Members:
    """A one-column bag as counts: per non-null value, and of NULLs."""

    def __init__(self, bag: Bag):
        self.counts: dict = {}
        self.nulls = 0
        for (v,), k in bag.items():
            if v is None:
                self.nulls = k
            else:
                self.counts[v] = k
        self.non_null = sum(self.counts.values())

    def equalities(self, kernel: LogicKernel, x: Value) -> list:
        """(truth value, multiplicity) of `x = v` over the bag's records v."""
        eq = kernel.null_equality
        if x is None:
            return [(eq[_NULLS_1], self.non_null), (eq[_NULLS_12], self.nulls)]
        hits = self.counts.get(x, 0)
        return [
            (kernel.true, hits), (kernel.false, self.non_null - hits), (eq[_NULLS_2], self.nulls)
        ]


def _connective(cond: ast.In | ast.Quant) -> tuple[str, str]:
    """The comparison and the connective that fold an IN or ANY/ALL."""
    if isinstance(cond, ast.In):
        return "=", OR
    return cond.op, OR if cond.quant == "any" else AND


def _source_form(cond: ast.In | ast.Quant, run: _Run):
    """How the subquery's bag is kept: as value counts when a single-item
    `=` disjunction can look its item up, as the bag otherwise."""
    if _connective(cond) == ("=", OR) and len(cond.items) == 1 and run.members:
        return _Members
    return _same


def _eval_quantified(
    cond: ast.In | ast.Quant, source, items: list, kernel: LogicKernel
) -> TruthValue:
    """IN and ANY/ALL over the subquery's ``source``, folded once per
    distinct record."""
    op, conn = _connective(cond)
    if isinstance(source, _Members):
        pairs = source.equalities(kernel, items[0])
    else:
        pairs = [
            (_compare_value_tuples(kernel, items, op, record), k)
            for record, k in source.items()
        ]
    counts: dict = {}
    for value, k in pairs:
        if k:
            counts[value] = counts.get(value, 0) + k
    if not counts:
        return kernel.false if conn == OR else kernel.true
    return fold_counted(kernel, conn, counts)


def _bind(env: Env, labels: tuple[str, ...], record) -> dict:
    merged = dict(env)
    merged.update(zip(labels, record))
    return merged


# -- compiled conditions and terms ---------------------------------------------
#
# A compiled term is a function of (record, env) and a compiled condition of
# (record, rt, env, run, memo): the names in ``labels`` read the record's
# positions, any other name the caller's environment, and ``memo`` keeps the
# hoisted subqueries' values for one evaluation of the selection.  Each does
# what the tree-walker does on the record bound over ``env``, in the same
# order, and raises the same errors, when it runs rather than when it is
# compiled.  The run is an argument, not a captured cell: the run keeps the
# compiled conditions in its facts, and a cell would make each call's state
# a reference cycle.


def _compile_term(term: ast.Term, where: Mapping[str, int]):
    if isinstance(term, (ast.NumConst, ast.OrdConst)):
        value = term.value
        return lambda record, env: value
    if isinstance(term, ast.NameRef) and term.name in where:
        i = where[term.name]
        return lambda record, env: record[i]
    if isinstance(term, ast.FnApply):
        fn, args = term.fn, [_compile_term(a, where) for a in term.args]

        def apply(record, env):
            values = [a(record, env) for a in args]
            return None if None in values else apply_function(fn, values)

        return apply
    # NULL, outer names, and the errors of holes and non-terms: the tree-walker
    return lambda record, env: eval_term(term, env)


def _compile_condition(cond: ast.Condition, labels: tuple[str, ...], run: _Run):
    """The condition as a function of a record with these labels, compiled
    against the run's kernel."""
    where = {name: i for i, name in enumerate(labels)}
    kernel = run.kernel
    true, false = kernel.true, kernel.false
    if isinstance(cond, ast.CTrue):
        return lambda record, rt, env, run, memo: true
    if isinstance(cond, ast.CFalse):
        return lambda record, rt, env, run, memo: false
    if isinstance(cond, ast.IsNull):
        term = _compile_term(cond.term, where)
        return lambda record, rt, env, run, memo: true if term(record, env) is None else false
    if isinstance(cond, ast.Compare):
        op, compare = cond.op, kernel.compare
        lhs = [_compile_term(t, where) for t in cond.lhs]
        rhs = [_compile_term(t, where) for t in cond.rhs]
        if len(lhs) == 1:
            left, right = lhs[0], rhs[0]
            return lambda record, rt, env, run, memo: compare(
                op, left(record, env), right(record, env)
            )
        return lambda record, rt, env, run, memo: _compare_value_tuples(
            kernel, [t(record, env) for t in lhs], op, [t(record, env) for t in rhs]
        )
    if isinstance(cond, (ast.In, ast.Quant, ast.Empty)):
        return _compile_subquery(cond, labels, where, run)
    if isinstance(cond, (ast.And, ast.Or)):
        # a left chain folds in a loop, in the tree-walker's order
        kind, parts = type(cond), []
        while isinstance(cond, kind):
            parts.append(cond.right)
            cond = cond.left
        parts.append(cond)
        first, *rest = [_compile_condition(c, labels, run) for c in reversed(parts)]
        table = kernel.and_table if kind is ast.And else kernel.or_table

        def connective(record, rt, env, run, memo):
            value = first(record, rt, env, run, memo)
            for part in rest:
                value = table[value, part(record, rt, env, run, memo)]
            return value

        return connective
    if isinstance(cond, ast.Not):
        inner, neg = _compile_condition(cond.cond, labels, run), kernel.not_table
        return lambda record, rt, env, run, memo: neg[inner(record, rt, env, run, memo)]
    # not a condition: the tree-walker raises its error
    return lambda record, rt, env, run, memo: eval_condition_rt(cond, rt, env, run)


def _compile_subquery(cond: ast.In | ast.Quant | ast.Empty, labels, where, run: _Run):
    """IN, ANY/ALL and EMPTY.  A subquery that reads none of the labels is
    hoisted: it runs on the caller's environment once per memo, on first
    use.  Any other runs on the record bound over the environment."""
    key, query, kernel = id(cond), cond.query, run.kernel
    if isinstance(cond, ast.Empty):
        true, false = kernel.true, kernel.false
        form, items = (lambda bag: true if bag.is_empty() else false), None
    else:
        form, items = _source_form(cond, run), [_compile_term(t, where) for t in cond.items]
    if run.notes[id(query)].free & set(labels):
        def source(record, rt, env, run, memo):
            return form(eval_rt(query, rt, _bind(env, labels, record), run))
    else:
        def source(record, rt, env, run, memo):
            if key not in memo:
                memo[key] = form(eval_rt(query, rt, env, run))
            return memo[key]
    if items is None:
        return source
    return lambda record, rt, env, run, memo: _eval_quantified(
        cond, source(record, rt, env, run, memo), [t(record, env) for t in items], kernel
    )


def eval_rt(e: ast.Expression, rt: Rt, env: Env, run: _Run) -> Bag:
    if isinstance(e, ast.BaseRelation):
        try:
            return rt[e.name]
        except KeyError:
            raise EvalError(f"unknown relation {e.name!r} at runtime")

    if isinstance(e, ast.Projection):
        src = eval_rt(e.source, rt, env, run)
        project = _projection(e, run)
        counts: dict = {}
        for record, k in src.items():
            out = project(record, env)
            counts[out] = counts.get(out, 0) + k
        return Bag.from_counts(counts)

    if isinstance(e, ast.Selection):
        return _eval_selection(e, rt, env, run)

    if isinstance(e, ast.Product):
        left = eval_rt(e.left, rt, env, run)
        right = eval_rt(e.right, rt, env, run)
        counts: dict = {}
        for lrec, lk in left.items():
            for rrec, rk in right.items():
                rec = lrec + rrec
                counts[rec] = counts.get(rec, 0) + lk * rk
        return Bag.from_counts(counts)

    if isinstance(e, ast.SetOp):
        left = eval_rt(e.left, rt, env, run)
        right = eval_rt(e.right, rt, env, run)
        if e.op == "union":
            return left.union(right)
        if e.op == "intersect":
            return left.intersect(right)
        return left.difference(right)

    if isinstance(e, ast.Distinct):
        return eval_rt(e.source, rt, env, run).distinct()

    if isinstance(e, ast.Group):
        return _eval_group(e, rt, env, run)

    if isinstance(e, ast.Mu):
        return _eval_mu(e, rt, env, run)

    raise EvalError(f"not an expression: {e!r}")


def _projection(e: ast.Projection, run: _Run):
    """The projection's items as a function of a source record and the
    environment: tree-walked, or compiled once per call."""
    labels = run.notes[id(e.source)].labels
    if run.facts is None:
        def project(record, env):
            row_env = _bind(env, labels, record)
            return tuple(eval_term(item.term, row_env) for item in e.items)

        return project
    project = run.facts.get(id(e))
    if project is None:
        where = {name: i for i, name in enumerate(labels)}
        terms = [_compile_term(item.term, where) for item in e.items]
        project = run.facts[id(e)] = lambda record, env: tuple([t(record, env) for t in terms])
    return project


def _plan_selection(e: ast.Selection, run: _Run):
    """The probe keys and the compiled condition."""
    labels = run.notes[id(e.source)].labels
    return _probe_keys(e, run.notes, labels), _compile_condition(e.cond, labels, run)


def _equalities(cond: ast.Condition) -> list:
    """The (lhs, rhs) term pairs of the `=` conjuncts of a condition."""
    return [
        pair for c in _conjuncts(cond) if isinstance(c, ast.Compare) and c.op == "="
        for pair in zip(c.lhs, c.rhs)
    ]


def _probe_keys(e: ast.Selection, notes: Mapping[int, RelSig], labels: tuple[str, ...]):
    """For a selection over a base relation or a product: the indexed side
    (the relation, or the product's right side), the positions of its
    columns that `=` conjuncts compare with terms reading none of them, and
    those terms compiled over the product's left labels (over none for a
    base relation).  q3's `X.A = Y.A` over `X × Y` gives the position of Y.A
    and the left record's X.A; q2's `S.A = R.A` over S gives the position of
    S.A and the outer R.A."""
    if isinstance(e.source, ast.Product):
        side, left = e.source.right, notes[id(e.source.left)].labels
    elif isinstance(e.source, ast.BaseRelation):
        side, left = e.source, ()
    else:
        return None
    where = {name: i for i, name in enumerate(labels[len(left):])}
    read, bound = {name: i for i, name in enumerate(left)}, where.keys()
    terms, positions = [], []
    for pair in _equalities(e.cond):
        for a, b in (pair, pair[::-1]):
            if isinstance(a, ast.NameRef) and a.name in where and not ast.term_names(b) & bound:
                terms.append(_compile_term(b, read))
                positions.append(where[a.name])
                break
    if not terms:
        return None
    return side, tuple(positions), tuple(terms)


def _conjuncts(c: ast.Condition) -> list:
    if isinstance(c, ast.And):
        return _conjuncts(c.left) + _conjuncts(c.right)
    return [c]


def _eval_selection(e: ast.Selection, rt: Rt, env: Env, run: _Run) -> Bag:
    if run.facts is None:
        probe = None
        labels = run.notes[id(e.source)].labels

        def test(record, rt, env, run, memo):
            return eval_condition_rt(e.cond, rt, _bind(env, labels, record), run)
    else:
        facts = run.facts.get(id(e))
        if facts is None:
            facts = run.facts[id(e)] = _plan_selection(e, run)
        probe, test = facts
    if probe is not None and run.join_nulls is not None:
        rows = _probe_candidates(e, probe, rt, env, run)
    else:
        rows = eval_rt(e.source, rt, env, run).items()
    true, memo = run.kernel.true, {}
    counts: dict = {}
    for record, k in rows:
        if test(record, rt, env, run, memo) == true:
            counts[record] = counts.get(record, 0) + k
    return Bag.from_counts(counts)


def _key_index(bag: Bag, positions: tuple[int, ...], nulls: bool) -> dict:
    """The records of a bag with their multiplicities, by their values at
    ``positions``; records with a NULL there are left out unless NULL keys
    match (the kernel makes NULL = NULL true)."""
    index: dict = {}
    for record, k in bag.items():
        key = tuple(record[i] for i in positions)
        if nulls or None not in key:
            index.setdefault(key, []).append((record, k))
    return index


def _probe_candidates(e: ast.Selection, probe, rt: Rt, env: Env, run: _Run):
    """The records of the selection's source whose indexed side has key
    columns equal to the probe terms, with their multiplicities.  The left
    side is evaluated first (over a base relation it is the one empty
    record), then the indexed side, whose index is kept until its bag
    changes; each left record probes with its key values."""
    side, positions, terms = probe
    left = (((), 1),) if side is e.source else eval_rt(e.source.left, rt, env, run).items()
    bag = eval_rt(side, rt, env, run)
    built = run.indexes.get(id(e))
    if built is None or built[0] is not bag:
        built = run.indexes[id(e)] = bag, _key_index(bag, positions, run.join_nulls)
    index = built[1]
    for lrec, lk in left:
        for rrec, rk in index.get(tuple([t(lrec, env) for t in terms]), ()):
            yield lrec + rrec, lk * rk


def _eval_group(e: ast.Group, rt: Rt, env: Env, run: _Run) -> Bag:
    src_labels = run.notes[id(e.source)].labels
    key_pos = [src_labels.index(n) for n in e.names]
    agg_pos = [src_labels.index(a.column) if a.column is not None else None for a in e.aggs]
    src = eval_rt(e.source, rt, env, run)

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
            cells = [(record[pos], k) for record, k in rows if record[pos] is not None]
            agg_values.append(apply_aggregate(agg.fn, cells, total))
        rec = key + tuple(agg_values)
        out[rec] = out.get(rec, 0) + 1
    return Bag.from_counts(out)


def _eval_mu(e: ast.Mu, rt: Rt, env: Env, run: _Run) -> Bag:
    seed = eval_rt(e.seed, rt, env, run)
    if e.distinct:
        seed = seed.distinct()
    result = seed
    frontier = seed
    iterations = 0
    while True:
        if frontier.is_empty():
            return result
        iterations += 1
        if iterations > run.cfg.recursion_cap:
            raise RecursionLimitError(
                f"fixpoint over {e.rel!r} exceeded {run.cfg.recursion_cap} iterations; "
                "the query may not terminate"
            )
        extended = dict(rt)
        extended[e.rel] = frontier
        step = eval_rt(e.step, extended, env, run)
        if e.distinct:
            step = step.distinct().difference(result)
        result = result.union(step)
        frontier = step


def _db_rt(db: Database) -> Rt:
    return {rel.name: db.tables.get(rel.name, Bag()) for rel in db.schema.relations.values()}


def evaluate(e: ast.Expression | Checked, db: Database, cfg: Optional[EvalConfig] = None) -> Bag:
    """Evaluate an expression on a database.  It is typechecked first,
    unless it is the `Checked` that `typecheck` returned for this schema."""
    checked = e if isinstance(e, Checked) else typecheck(e, db.schema)
    return eval_rt(checked.expr, _db_rt(db), {}, _Run(cfg or EvalConfig(), checked.notes))


def eval_condition(cond: ast.Condition, db: Database, cfg: Optional[EvalConfig] = None) -> TruthValue:
    """Evaluate a condition that reads no row; it is typechecked first."""
    checker = Typechecker(catalog_from_schema(db.schema))
    cond, _ = checker.check_cond(cond, {})
    run, rt = _Run(cfg or EvalConfig(), checker.notes), _db_rt(db)
    if run.facts is None:
        return eval_condition_rt(cond, rt, {}, run)
    return _compile_condition(cond, (), run)((), rt, {}, run, {})


def condition_rule(cond: ast.Condition, names: tuple[str, str]):
    """A subquery-free condition as a function of the values of two names to
    its 3VL truth value: compiled once, run on one `_Run` for all calls."""
    run = _Run(EvalConfig(kernel=kernel_3vl()), {})
    test = _compile_condition(cond, names, run)
    return lambda a, b: test((a, b), {}, {}, run, None)


def eval_group(
    names: tuple[str, ...],
    aggs: tuple[ast.AggItem, ...],
    source: ast.Expression,
    db: Database,
    cfg: Optional[EvalConfig] = None,
) -> Bag:
    """Group the source rows and aggregate; one record per group."""
    return evaluate(ast.Group(tuple(names), tuple(aggs), source), db, cfg)


def eval_mu(
    rel: str,
    distinct: bool,
    seed: ast.Expression,
    step: ast.Expression,
    db: Database,
    cfg: Optional[EvalConfig] = None,
) -> Bag:
    """Run the fixpoint iteration for a fresh relation name."""
    return evaluate(ast.Mu(rel, distinct, seed, step), db, cfg)
