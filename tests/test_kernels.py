import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nullvl import ast
from nullvl.errors import KernelError
from nullvl.evaluator import EvalConfig, evaluate
from nullvl.logic import (
    AND,
    OR,
    Grounding,
    LogicKernel,
    empty_grounding,
    fold_counted,
    grounding_from_json,
    kernel_2vl,
    kernel_2vl_syntactic,
    kernel_3vl,
    kernel_4vl_example,
    kernel_from_json,
    kernel_grounded,
    nonnegative_leq_grounding,
    periodicity,
    reduce_count,
    syntactic_equality_grounding,
)

from sample_queries import rs_db

ALL_KERNELS = [kernel_3vl, kernel_2vl, kernel_2vl_syntactic, kernel_4vl_example]

_GRID = [None, Fraction(-1), Fraction(0), Fraction(1), Fraction(2)]


def test_three_valued_tables():
    k = kernel_3vl()
    assert k.conj("u", "f") == "f"
    assert k.disj("u", "t") == "t"
    assert k.neg("u") == "u"
    assert k.conj("u", "t") == "u"
    assert k.disj("u", "f") == "u"


def test_two_valued_null_comparisons():
    k = kernel_2vl()
    assert k.compare("=", None, None) == "f"
    assert k.compare("=", Fraction(1), None) == "f"
    assert k.compare("<=", Fraction(3), Fraction(5)) == "t"
    assert k.compare("!=", None, Fraction(1)) == "f"


def test_syntactic_equality_kernel():
    k = kernel_2vl_syntactic()
    assert k.compare("=", None, None) == "t"
    assert k.compare("=", None, Fraction(1)) == "f"
    assert k.compare("<", None, None) == "f"
    assert k.compare("!=", None, None) == "f"


def test_grounded_sign_rule_for_null_leq():
    k = kernel_grounded(nonnegative_leq_grounding())
    assert k.compare("<=", None, Fraction(5)) == "t"
    assert k.compare("<=", None, Fraction(-1)) == "f"
    assert k.compare("<=", Fraction(-2), None) == "t"
    assert k.compare("<=", Fraction(2), None) == "f"
    assert k.compare("<=", None, None) == "t"


def test_empty_grounding_matches_conflating_kernel_on_grid():
    kg = kernel_grounded(empty_grounding())
    k2 = kernel_2vl()
    for op in ast.COMPARISONS:
        for a, b in itertools.product(_GRID, repeat=2):
            assert kg.compare(op, a, b) == k2.compare(op, a, b), (op, a, b)


def test_syntactic_grounding_matches_syntactic_kernel_on_grid():
    kg = kernel_grounded(syntactic_equality_grounding())
    ks = kernel_2vl_syntactic()
    for op in ast.COMPARISONS:
        for a, b in itertools.product(_GRID, repeat=2):
            assert kg.compare(op, a, b) == ks.compare(op, a, b), (op, a, b)


_4VL_AND_GOLDEN = {
    ("t", "t"): "t", ("t", "f"): "f", ("t", "u"): "u", ("t", "s"): "s",
    ("f", "t"): "f", ("f", "f"): "f", ("f", "u"): "f", ("f", "s"): "f",
    ("u", "t"): "u", ("u", "f"): "f", ("u", "u"): "u", ("u", "s"): "u",
    ("s", "t"): "s", ("s", "f"): "f", ("s", "u"): "u", ("s", "s"): "u",
}
_4VL_OR_GOLDEN = {
    ("t", "t"): "t", ("t", "f"): "t", ("t", "u"): "t", ("t", "s"): "t",
    ("f", "t"): "t", ("f", "f"): "f", ("f", "u"): "u", ("f", "s"): "s",
    ("u", "t"): "t", ("u", "f"): "u", ("u", "u"): "u", ("u", "s"): "u",
    ("s", "t"): "t", ("s", "f"): "s", ("s", "u"): "u", ("s", "s"): "u",
}


def test_four_valued_table_snapshot():
    k = kernel_4vl_example()
    assert k.and_table == _4VL_AND_GOLDEN
    assert k.or_table == _4VL_OR_GOLDEN
    assert k.conj("s", "s") == "u"
    assert k.conj("t", "s") == "s"
    assert k.compare("=", None, Fraction(1)) == "s"


def test_four_valued_restricts_to_boolean():
    k = kernel_4vl_example()
    for a, b in itertools.product(("t", "f"), repeat=2):
        assert k.conj(a, b) == ("t" if a == b == "t" else "f")
        assert k.disj(a, b) == ("f" if a == b == "f" else "t")


@pytest.mark.parametrize("make", ALL_KERNELS)
def test_tables_associative_and_commutative(make):
    k = make()
    for table in (k.and_table, k.or_table):
        for a, b in itertools.product(k.values, repeat=2):
            assert table[(a, b)] == table[(b, a)]
        for a, b, c in itertools.product(k.values, repeat=3):
            assert table[(table[(a, b)], c)] == table[(a, table[(b, c)])]


def test_broken_commutativity_rejected_with_witness():
    k = kernel_3vl()
    and_t = dict(k.and_table)
    and_t[("u", "f")] = "u"  # now u&f != f&u
    with pytest.raises(KernelError) as err:
        LogicKernel("broken", k.values, "t", "f", and_t, k.or_table, k.not_table, k.nulls)
    a, b = err.value.witness[:2]
    assert and_t[(a, b)] != and_t[(b, a)]


def test_broken_associativity_rejected_with_witness():
    k = kernel_3vl()
    or_t = dict(k.or_table)
    or_t[("t", "u")] = "f"  # commutative but not associative
    or_t[("u", "t")] = "f"
    with pytest.raises(KernelError) as err:
        LogicKernel("broken", k.values, "t", "f", k.and_table, or_t, k.not_table, k.nulls)
    w = err.value.witness
    if len(w) == 3:
        a, b, c = w
        assert or_t[(or_t[(a, b)], c)] != or_t[(a, or_t[(b, c)])]
    else:
        a, b = w
        assert or_t[(a, b)] != or_t[(b, a)]


def test_non_boolean_restriction_rejected():
    k = kernel_3vl()
    and_t = dict(k.and_table)
    and_t[("t", "t")] = "u"
    with pytest.raises(KernelError):
        LogicKernel("broken", k.values, "t", "f", and_t, k.or_table, k.not_table, k.nulls)


def test_accepts_valid_tables():
    k3 = kernel_3vl()
    rebuilt = LogicKernel(
        "copy", k3.values, "t", "f", k3.and_table, k3.or_table, k3.not_table, k3.nulls
    )
    assert rebuilt.values == k3.values
    kernel_4vl_example()  # weak idempotency is not required, just the laws


def test_periodicity_of_idempotent_values():
    kb = kernel_2vl()
    assert periodicity(kb, "t", OR) == (1, 2)
    k3 = kernel_3vl()
    assert periodicity(k3, "u", AND) == (1, 2)


def test_periodicity_of_the_varying_value():
    k4 = kernel_4vl_example()
    # brute-force folds: s, s&s=u, u&s=u -> lead 2, first repeat at 3
    assert k4.fold(AND, ["s", "s"]) == "u"
    assert periodicity(k4, "s", AND) == (2, 3)
    assert periodicity(k4, "s", OR) == (2, 3)


@pytest.mark.parametrize("make", ALL_KERNELS)
def test_periodicity_defining_equation_to_four_periods(make):
    k = make()
    for value in k.values:
        for conn in (AND, OR):
            lead, period = k.periodicity(value, conn)
            assert 0 < lead < period
            for j in range(1, 4 * period + 1):
                direct = k.fold(conn, [value] * j)
                reduced = k.fold(conn, [value] * reduce_count(j, lead, period))
                assert direct == reduced, (value, conn, j)


def test_fold_counted_singleton():
    assert fold_counted(kernel_2vl(), OR, {"t": 1}) == "t"


def test_fold_counted_mixed_counts():
    assert fold_counted(kernel_3vl(), OR, {"u": 3, "f": 2}) == "u"


def test_fold_counted_rejects_empty():
    with pytest.raises(KernelError):
        fold_counted(kernel_3vl(), OR, {})


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6), big=st.booleans())
def test_fold_counted_matches_direct_fold(seed, big):
    rng = random.Random(seed)
    kernel = rng.choice(ALL_KERNELS)()
    conn = rng.choice((AND, OR))
    hi = 10**6 if big else 12
    counts = {v: rng.randint(0, hi) for v in kernel.values}
    if sum(counts.values()) == 0:
        counts[kernel.true] = 1
    reduced = {
        v: reduce_count(n, *kernel.periodicity(v, conn)) for v, n in counts.items()
    }
    direct = kernel.fold(
        conn, (v for v in kernel.values for _ in range(reduced[v]))
    )
    assert fold_counted(kernel, conn, counts) == direct
    if not big:
        exact = kernel.fold(conn, (v for v in kernel.values for _ in range(counts[v])))
        assert fold_counted(kernel, conn, counts) == exact


def test_kernel_json_roundtrip():
    k3 = kernel_3vl()
    obj = {
        "name": "json-3vl",
        "values": list(k3.values),
        "true": "t",
        "false": "f",
        "and": [[k3.and_table[(a, b)] for b in k3.values] for a in k3.values],
        "or": [[k3.or_table[(a, b)] for b in k3.values] for a in k3.values],
        "not": [k3.not_table[a] for a in k3.values],
        "null_comparison": {
            op: {"1": "u", "2": "u", "12": "u"} for op in ast.COMPARISONS
        },
    }
    loaded = kernel_from_json(json.loads(json.dumps(obj)))
    assert loaded.nulls == k3.nulls
    x, y = ast.num(1), ast.num(2)
    for op in ast.COMPARISONS:
        for a, b in itertools.product(_GRID, repeat=2):
            assert loaded.compare(op, a, b) == k3.compare(op, a, b)
        for value in k3.values:
            assert loaded.template(op, value, x, y) == k3.template(op, value, x, y)


def test_grounding_json_and_validation():
    g = grounding_from_json(
        {
            "name": "leq",
            "templates": {"<=": {"1": "(cmp >= (arg 2) (num 0))"}},
        }
    )
    assert kernel_grounded(g).compare("<=", None, Fraction(3)) == "t"
    assert kernel_grounded(g).compare("<=", None, Fraction(-3)) == "f"
    with pytest.raises(KernelError, match="null position"):
        Grounding("bad", {("<=", frozenset({1})): ast.Compare((ast.ArgHole(1),), ">=", (ast.num(0),))})
    with pytest.raises(KernelError, match="subqueries"):
        Grounding(
            "bad",
            {("<=", frozenset({1})): ast.Empty(ast.BaseRelation("R"))},
        )


def test_two_valued_comparison_stays_two_valued_and_unknown_tracks_nulls():
    k2, k3 = kernel_2vl(), kernel_3vl()
    for op in ast.COMPARISONS:
        for a in _GRID:
            for b in _GRID:
                assert k2.compare(op, a, b) in ("t", "f")
                three = k3.compare(op, a, b)
                assert (three == "u") == (a is None or b is None)


def test_kernel_json_requires_total_null_comparisons():
    k3 = kernel_3vl()
    obj = {
        "values": list(k3.values), "true": "t", "false": "f",
        "and": [[k3.and_table[(a, b)] for b in k3.values] for a in k3.values],
        "or": [[k3.or_table[(a, b)] for b in k3.values] for a in k3.values],
        "not": [k3.not_table[a] for a in k3.values],
        "null_comparison": {"=": {"1": "u", "2": "u", "12": "u"}},
    }
    with pytest.raises(KernelError, match="must cover every comparison"):
        kernel_from_json(obj)


def test_built_in_kernels_are_built_once_per_process(tmp_path):
    from nullvl import logic
    from nullvl.harness import PLAN_KERNELS, kernel_by_name

    for make in (logic.kernel_3vl, logic.kernel_2vl, logic.kernel_2vl_syntactic,
                 logic.kernel_4vl_example):
        assert make() is make()
    grounded = [f"grounded:{g}" for g in logic.GROUNDINGS]
    for name in (*PLAN_KERNELS, *logic.KERNELS, *grounded):
        assert kernel_by_name(name) is kernel_by_name(name)
    assert kernel_by_name("3vl") is logic.kernel_3vl()

    # a grounding file is read each time it is named, and its kernel is
    # built once per distinct grounding
    path = tmp_path / "rule.json"
    path.write_text(json.dumps({"name": "rule", "templates": {"=": {"1": "(cmp >= (arg 2) (num 0))"}}}))
    first = kernel_by_name(f"grounded:{path}")
    assert kernel_by_name(f"grounded:{path}") is first
    assert first.compare("=", None, Fraction(1)) == "t"
    path.write_text(json.dumps({"name": "rule", "templates": {"=": {"1": "(cmp < (arg 2) (num 0))"}}}))
    rewritten = kernel_by_name(f"grounded:{path}")
    assert rewritten is not first and rewritten.name == first.name
    assert rewritten.compare("=", None, Fraction(1)) == "f"
    assert rewritten.compare("=", None, Fraction(-1)) == "t"


def test_semantics_names_that_are_no_strings_or_unknown_are_kernel_errors():
    from nullvl import logic

    for bad in (["3vl"], None, 4):
        for resolve in logic.RESOLVERS.values():
            with pytest.raises(KernelError, match="must be a string"):
                resolve(bad)
    with pytest.raises(KernelError, match="3vl, 2vl, 2vl-syn, 4vl"):
        logic.kernel_by_name("5vl")
    with pytest.raises(KernelError, match="empty, syntactic, leq-sign"):
        logic.kernel_by_name("grounded:leq")


def test_built_in_names_win_over_files_of_the_same_name(tmp_path, monkeypatch):
    from nullvl import logic

    monkeypatch.chdir(tmp_path)
    (tmp_path / "leq-sign").write_text(json.dumps({"name": "from-file", "templates": {}}))
    (tmp_path / "4vl").write_text(json.dumps(_4vl_as_json()))
    assert logic.grounding_by_name("leq-sign").name == "leq-sign"
    assert logic.grounding_by_name("./leq-sign").name == "from-file"
    assert logic.kernel_by_name("grounded:leq-sign").name == "grounded:leq-sign"
    assert logic.kernel_by_name("grounded:./leq-sign").name == "grounded:from-file"
    assert logic.kernel_by_name("4vl") is kernel_4vl_example()
    for spec in ("./4vl", "mvl:4vl", "mvl:./4vl"):
        assert logic.kernel_by_name(spec).name == "4vl-json", spec


def test_semantics_files_are_read_on_every_call(tmp_path):
    from nullvl import logic

    grounding = tmp_path / "g.json"
    kernel = tmp_path / "k.json"
    for name in ("first", "second"):
        grounding.write_text(json.dumps({"name": name, "templates": {}}))
        kernel.write_text(json.dumps(dict(_4vl_as_json(), name=name)))
        assert logic.grounding_by_name(str(grounding)).name == name
        assert logic.kernel_by_name(f"grounded:{grounding}").name == f"grounded:{name}"
        assert logic.kernel_by_name(str(kernel)).name == name
        assert logic.kernel_by_name(f"mvl:{kernel}").name == name


def _comparison_table_lines(kernel) -> list:
    """Every comparison on a grid of NULL, integers, a fraction and (for
    `=` and `!=`) text, plus the null equality the hash paths read."""
    numbers = [None, -1, 0, 1, 2, Fraction(1, 2)]
    lines = []
    for op in ast.COMPARISONS:
        grid = numbers + ["a", "b"] if op in ("=", "!=") else numbers
        for a, b in itertools.product(grid, repeat=2):
            lines.append(f"{op} {a!r} {b!r} {kernel.compare(op, a, b)}")
    for pattern, value in sorted(kernel.null_equality.items(), key=lambda kv: sorted(kv[0])):
        lines.append(f"null= {sorted(pattern)} {value}")
    return lines


def _4vl_as_json():
    k4 = kernel_4vl_example()
    return {
        "name": "4vl-json",
        "values": list(k4.values), "true": "t", "false": "f",
        "and": [[k4.and_table[(a, b)] for b in k4.values] for a in k4.values],
        "or": [[k4.or_table[(a, b)] for b in k4.values] for a in k4.values],
        "not": [k4.not_table[a] for a in k4.values],
        "null_comparison": {op: {"1": "s", "2": "s", "12": "s"} for op in ast.COMPARISONS},
    }


# sha256 of `_comparison_table_lines`, one digest per kernel
_COMPARISON_TABLE_DIGESTS = {
    "3vl": "ba2551dd651d0ee7c162553f835d30c0bbbe1c581c3a9317c0aac86a8c91323a",
    "2vl": "6bcfd43a8e495bdb6e751c04c7695d3adb53a34aed4786a008834d9824530fdc",
    "2vl-syn": "7833a7975cb8cd0e20479a686652cdd828833c4479c85ba2d4f7a9bc41800937",
    "4vl": "1b2119b205734aa7e437c63170c2ddd270c19586f9267a0f4be8a93bbfe55647",
    "4vl-json": "1b2119b205734aa7e437c63170c2ddd270c19586f9267a0f4be8a93bbfe55647",
    "grounded-empty": "6bcfd43a8e495bdb6e751c04c7695d3adb53a34aed4786a008834d9824530fdc",
    "grounded-syntactic": "7833a7975cb8cd0e20479a686652cdd828833c4479c85ba2d4f7a9bc41800937",
    "grounded-leq": "fee6d2107ca94265e2cc7e038d2ba92c72d09eb4055b7704006503cad4a9e370",
    "grounded-templates": "f69e554f74ca064d694ed9214f87aaf4b17ef002356eed4bcf92e2e1b2b34c56",
}


def _every_template_form_grounding():
    """Two-valued templates on order comparisons that between them use
    and / or / not, isnull, a tuple comparison, functions and (null)."""
    return grounding_from_json({
        "name": "template-forms",
        "templates": {
            "<": {
                "1": "(and (not (isnull (fn mult (arg 2) (num 2))))"
                     " (cmp < (tuple (num 0) (arg 2)) (tuple (num 0) (num 1))))",
                "2": "(or (isnull (fn div (num 1) (arg 1))) (cmp > (arg 1) (num 1)))",
            },
            "<=": {"12": "(or (isnull (null)) (false))"},
            ">": {"1": "(or (cmp >= (tuple (arg 2) (fn neg (arg 2))) (tuple (num 1) (num 0)))"
                        " (cmp = (fn mod (arg 2) (num 2)) (num 0)))"},
            ">=": {"2": "(not (and (cmp > (arg 1) (num 0))"
                        " (not (isnull (fn add (arg 1) (null))))))"},
        },
    })


def test_every_kernels_comparison_table_is_pinned():
    import hashlib

    kernels = {
        "3vl": kernel_3vl(),
        "2vl": kernel_2vl(),
        "2vl-syn": kernel_2vl_syntactic(),
        "4vl": kernel_4vl_example(),
        "4vl-json": kernel_from_json(json.loads(json.dumps(_4vl_as_json()))),
        "grounded-empty": kernel_grounded(empty_grounding()),
        "grounded-syntactic": kernel_grounded(syntactic_equality_grounding()),
        "grounded-leq": kernel_grounded(nonnegative_leq_grounding()),
        "grounded-templates": kernel_grounded(_every_template_form_grounding()),
    }
    digests = {
        name: hashlib.sha256("\n".join(_comparison_table_lines(k)).encode()).hexdigest()
        for name, k in kernels.items()
    }
    assert digests == _COMPARISON_TABLE_DIGESTS


def test_a_template_that_comes_out_unknown_is_an_error():
    # 1 / 0 is NULL, so NULL <= 0 compares NULL with 0: unknown under 3VL
    grounding = grounding_from_json(
        {"templates": {"<=": {"1": "(cmp >= (fn div (num 1) (arg 2)) (num 0))"}}}
    )
    kernel = kernel_grounded(grounding)
    assert kernel.compare("<=", None, 2) == "t"
    expr = ast.Selection(ast.Compare((ast.col("R.A"),), "<=", (ast.num(0),)), ast.BaseRelation("R"))
    for plan in (True, False):
        with pytest.raises(KernelError, match="template evaluated to unknown"):
            evaluate(expr, rs_db([1, None], []), EvalConfig(kernel=kernel, plan=plan))


def test_null_table_cells_must_be_present_and_known():
    # one table gives both `compare` and `null_equality`, so they cannot
    # disagree; what can be wrong is a missing cell or an unknown value
    ks = kernel_2vl_syntactic()

    def build(nulls):
        return LogicKernel(
            "syn", ks.values, "t", "f", ks.and_table, ks.or_table, ks.not_table, nulls
        )

    assert build(ks.nulls).null_equality == ks.null_equality
    missing = {cell: v for cell, v in ks.nulls.items() if cell != ("<", frozenset({1, 2}))}
    with pytest.raises(KernelError, match=r"must cover every comparison.*missing \(<, 12\)"):
        build(missing)
    for bad in ("u", None, 0, ["t"]):
        with pytest.raises(KernelError, match=r"\(=, 2\) holds"):
            build({**ks.nulls, ("=", frozenset({2})): bad})
    # a template cell is checked like a grounding's
    hole_at_null = ast.Compare((ast.ArgHole(1),), ">=", (ast.num(0),))
    with pytest.raises(KernelError, match="null position"):
        build({**ks.nulls, ("<=", frozenset({1})): hole_at_null})
