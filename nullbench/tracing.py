"""Spans and counters around the public functions of each nullvl module.

The tracer rebinds each traced function, in every nullvl module that holds a
reference to it, to a wrapper; `uninstall` puts the originals back.  A call
opens a span when it crosses from one module into another (or when its
function is marked as always spanned); calls inside one module, such as the
evaluator's recursion, are only counted.  Spans stay in flat arrays in memory
and are written out once, at the end of the run.
"""
from __future__ import annotations

import gc
import json
import sys
from array import array
from collections import Counter
from time import perf_counter

from nullvl import analyze, ast, cli, evaluator, funcs, fuzz, harness, logic, parser
from nullvl import sqlfront, translate, typecheck, values

FAMILIES = harness.FAMILIES
DIRECTIONS = ("2to3", "3to2", "gr-to-3", "3-to-gr", "mvl-to-3.3vl", "mvl-to-3.4vl")
_DIRECTION_OF = {
    "tr_to_3vl": "2to3",
    "tr_from_3vl": "3to2",
    "tr_grounded_to_3vl": "gr-to-3",
    "tr_3vl_to_grounded": "3-to-gr",
    "tr_mvl_to_3vl": "mvl-to-3",
}

# (layer, owner, attribute, how): "span" opens a span at module boundaries,
# "always" opens one on every call, "count" only counts (hot inner functions)
TRACED = [
    ("cli", cli, "main", "span"),
    ("values", values, "load_database", "always"),
    ("values", values, "database_from_json", "always"),
    ("values", values, "database_to_json", "span"),
    ("values", values, "bag_to_json", "always"),
    ("values", values.Bag, "canonical_text", "always"),
    ("values", values.Bag, "occurrences", "count"),
    ("parser", parser, "parse_expression", "span"),
    ("parser", parser, "parse_condition", "span"),
    ("typecheck", typecheck, "typecheck", "always"),
    ("typecheck", typecheck, "labels", "span"),
    ("typecheck", typecheck, "_labels", "span"),  # the label re-derivation other modules import
    ("ast", ast, "render_expression", "span"),
    ("ast", ast, "render_condition", "span"),
    ("ast", ast, "render_term", "span"),
    ("ast", ast, "expression_size", "span"),
    ("evaluator", evaluator, "evaluate", "span"),
    ("evaluator", evaluator, "eval_condition", "span"),
    ("evaluator", evaluator, "eval_group", "span"),
    ("evaluator", evaluator, "eval_mu", "span"),
    ("evaluator", evaluator, "eval_rt", "span"),
    ("evaluator", evaluator, "eval_condition_rt", "span"),
    ("evaluator", evaluator, "eval_term", "count"),
    ("logic", logic.LogicKernel, "fold", "span"),
    ("logic", logic.LogicKernel, "__init__", "always"),
    ("logic", logic, "fold_counted", "always"),
    ("logic", logic, "periodicity", "always"),
    ("logic", logic, "kernel_from_json", "span"),
    ("logic", logic, "load_kernel", "span"),
    ("logic", logic, "grounding_from_json", "span"),
    ("logic", logic, "load_grounding", "span"),
    ("logic", logic, "kernel_grounded", "span"),
    ("logic", logic, "kernel_3vl", "span"),
    ("logic", logic, "kernel_2vl", "span"),
    ("logic", logic, "kernel_2vl_syntactic", "span"),
    ("logic", logic, "kernel_4vl_example", "span"),
    ("funcs", funcs, "apply_function", "count"),
    ("funcs", funcs, "apply_aggregate", "always"),
    ("translate", translate, "tr_to_3vl", "always"),
    ("translate", translate, "tr_from_3vl", "always"),
    ("translate", translate, "tr_grounded_to_3vl", "always"),
    ("translate", translate, "tr_3vl_to_grounded", "always"),
    ("translate", translate, "tr_mvl_to_3vl", "always"),
    ("translate", translate, "check_capture", "span"),
    ("analyze", analyze, "coincidence_certificate", "always"),
    ("analyze", analyze, "nullable", "span"),
    ("analyze", analyze, "null_free", "span"),
    ("sqlfront", sqlfront, "parse_sql", "always"),
    ("sqlfront", sqlfront, "lower_to_algebra", "always"),
    ("sqlfront", sqlfront, "emit_sql", "always"),
    ("fuzz", fuzz, "gen_database", "always"),
    ("fuzz", fuzz, "gen_expression", "always"),
    ("harness", harness, "run_differential", "always"),
    ("harness", harness, "replay", "span"),
    ("harness", harness, "kernel_by_name", "span"),
]


def _nullvl_modules():
    return [m for name, m in sys.modules.items() if name == "nullvl" or name.startswith("nullvl.")]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self.calls: list[int] = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.top = -1  # innermost open span
        self.stack: list = []  # (function id, layer, first argument) of open traced calls
        self.request = -1
        self.counts: Counter = Counter()
        self.direction_ms: Counter = Counter()
        self.direction_calls: Counter = Counter()
        self.direction_nodes: Counter = Counter()
        self.family_cases: Counter = Counter()
        self.family_seconds: Counter = Counter()
        self._restore: list = []
        self._gc_start = 0.0
        self.gc_seconds = 0.0
        self.gc_collections = 0
        self._originals: dict = {}

    # -- installation ---------------------------------------------------------

    def install(self):
        for layer, owner, attr, how in TRACED:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            fid = len(self.names)
            self.names.append(f"{layer}.{getattr(owner, '__name__', '')}.{attr}"
                              if isinstance(owner, type) else f"{layer}.{attr}")
            self.layers.append(layer)
            self.calls.append(0)
            self._originals[self.names[fid]] = original
            wrapper = self._wrap(fid, layer, original, how, attr)
            if isinstance(owner, type):
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in _nullvl_modules():
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, name, original))
                        setattr(module, name, wrapper)
        gc.callbacks.append(self._on_gc)

    def uninstall(self):
        gc.callbacks.remove(self._on_gc)
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = perf_counter()
        else:
            self.gc_seconds += perf_counter() - self._gc_start
            self.gc_collections += 1

    # -- spans ------------------------------------------------------------------

    def _open(self, fid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(fid)
        self.span_parent.append(self.top)
        self.span_request.append(self.request)
        self.span_end.append(0.0)
        self.span_start.append(perf_counter())
        self.top = idx
        return idx

    def _close(self, idx: int):
        self.span_end[idx] = perf_counter()
        self.top = self.span_parent[idx]

    def _wrap(self, fid, layer, fn, how, attr):
        tracer = self
        calls = self.calls
        pre, post = self._hooks(attr)
        if how == "count":
            def counted(*args, **kwargs):
                calls[fid] += 1
                if pre:
                    pre(args)
                return fn(*args, **kwargs)
            return counted
        always = how == "always"
        stack = self.stack

        def traced(*args, **kwargs):
            calls[fid] += 1
            if pre:
                args = pre(args) or args
            idx = -1
            if always or not stack or stack[-1][1] != layer:
                idx = tracer._open(fid)
            stack.append((fid, layer, args[0] if args else None))
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                if idx >= 0:
                    tracer._close(idx)
            if post:
                post(args, result, idx)
            return result

        return traced

    def _span_seconds(self, idx: int) -> float:
        return self.span_end[idx] - self.span_start[idx]

    def _hooks(self, attr):
        """Per-function counters: (pre(args) -> new args or None, post(args, result, span))."""
        c = self.counts
        stack = self.stack

        if attr == "eval_rt":
            def pre(args):
                if stack and self.names[stack[-1][0]] == "evaluator.eval_condition_rt":
                    c["evaluator.subquery_evals"] += 1

            def post(args, result, idx):
                if isinstance(args[0], ast.Product):
                    c["evaluator.product_records"] += result.distinct_count()
                elif isinstance(args[0], ast.Selection):
                    c["evaluator.select_kept"] += result.distinct_count()
            return pre, post
        if attr == "eval_condition_rt":
            def pre(args):
                if (stack and self.names[stack[-1][0]] == "evaluator.eval_rt"
                        and isinstance(stack[-1][2], ast.Selection)):
                    c["evaluator.select_tested"] += 1
            return pre, None
        if attr == "fold":
            def pre(args):
                # consume the items here, so the comparisons producing them
                # are charged to the caller and the fold span times the fold
                items = list(args[2])
                c["logic.fold_items"] += len(items)
                return (args[0], args[1], items)
            return pre, None
        if attr == "occurrences":
            def pre(args):
                c["logic.fold_distinct_records"] += args[0].distinct_count()
            return pre, None
        if attr in ("parse_expression", "parse_condition"):
            def pre(args):
                c["parser.chars"] += len(args[0])
            return pre, None
        if attr == "apply_aggregate":
            def pre(args):
                c["funcs.agg_cells"] += len(args[1])
            return pre, None
        if attr == "coincidence_certificate":
            def post(args, result, idx):
                c["analyze.certified"] += bool(result.certified)
            return None, post
        if attr in _DIRECTION_OF:
            def post(args, result, idx):
                key = _DIRECTION_OF[attr]
                if key == "mvl-to-3":
                    key = f"mvl-to-3.{args[2].name}"
                self.direction_ms[key] += self._span_seconds(idx) * 1000
                self.direction_calls[key] += 1
                self.direction_nodes[key] += result.size_ratio * self._originals["ast.expression_size"](args[0])
            return None, post
        if attr == "run_differential":
            def post(args, result, idx):
                self.family_cases[args[0]] += result.cases
                self.family_seconds[args[0]] += self._span_seconds(idx)
                if args[0] == "coincidence":
                    c["harness.coincidence_cases"] += result.cases
                    c["harness.generated"] += result.cases + result.notes.get("uncertified-generated", 0)
            return None, post
        return None, None

    # -- results ---------------------------------------------------------------

    def span_figures(self):
        """Inclusive and self seconds per span name, and self seconds per layer."""
        n = len(self.span_name)
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        inclusive, layer_self = Counter(), Counter()
        for i in range(n):
            fid = self.span_name[i]
            dur = self.span_end[i] - self.span_start[i]
            inclusive[self.names[fid]] += dur
            layer_self[self.layers[fid]] += dur - child[i]
        return inclusive, layer_self

    def metrics(self, requests: int) -> dict:
        """Per-layer figures; `_ms` and counts are per traced request."""
        inc, own = self.span_figures()
        calls = dict(zip(self.names, self.calls))
        c = self.counts
        per = 1.0 / max(1, requests)

        def ms(seconds):
            return seconds * 1000 * per

        def ratio(a, b):
            return a / b if b else 0.0

        m = {
            "cli.self_ms": ms(own["cli"]),
            "values.load_database_ms": ms(inc["values.load_database"]),
            "values.output_ms": ms(inc["values.bag_to_json"] + inc["values.Bag.canonical_text"]),
            "values.database_from_json_calls": calls["values.database_from_json"] * per,
            "parser.self_ms": ms(own["parser"]),
            "parser.kb_per_s": ratio(c["parser.chars"] / 1000, own["parser"]),
            "typecheck.self_ms": ms(own["typecheck"]),
            "typecheck.calls": calls["typecheck.typecheck"] * per,
            "ast.render_ms": ms(sum(inc[f"ast.render_{k}"] for k in ("expression", "condition", "term"))),
            "evaluator.self_ms": ms(own["evaluator"]),
            "evaluator.self_share": ratio(own["evaluator"], inc["cli.main"]),
            "evaluator.expr_evals": calls["evaluator.eval_rt"] * per,
            "evaluator.cond_evals": calls["evaluator.eval_condition_rt"] * per,
            "evaluator.term_evals": calls["evaluator.eval_term"] * per,
            "evaluator.subquery_evals": c["evaluator.subquery_evals"] * per,
            "evaluator.product_records": c["evaluator.product_records"] * per,
            "evaluator.select_pass_ratio": ratio(c["evaluator.select_kept"], c["evaluator.select_tested"]),
            "logic.fold_calls": calls["logic.LogicKernel.fold"] * per,
            "logic.fold_items": c["logic.fold_items"] * per,
            "logic.fold_items_per_distinct": ratio(c["logic.fold_items"], c["logic.fold_distinct_records"]),
            "logic.fold_counted_calls": calls["logic.fold_counted"] * per,
            "logic.periodicity_ms": ms(inc["logic.periodicity"]),
            "logic.kernel_builds": calls["logic.LogicKernel.__init__"] * per,
            "logic.kernel_build_ms": ms(inc["logic.LogicKernel.__init__"]),
            "funcs.agg_cells": c["funcs.agg_cells"] * per,
            "funcs.agg_ms": ms(inc["funcs.apply_aggregate"]),
            "funcs.fn_calls": calls["funcs.apply_function"] * per,
        }
        for d in DIRECTIONS:
            m[f"translate.{d}.ms"] = ratio(self.direction_ms[d], self.direction_calls[d])
            m[f"translate.{d}.out_nodes"] = float(ratio(self.direction_nodes[d], self.direction_calls[d]))
        m.update({
            "analyze.self_ms": ms(own["analyze"]),
            "analyze.certified_share": ratio(c["analyze.certified"], calls["analyze.coincidence_certificate"]),
            "sqlfront.parse_ms": ms(inc["sqlfront.parse_sql"]),
            "sqlfront.lower_ms": ms(inc["sqlfront.lower_to_algebra"]),
            "sqlfront.emit_ms": ms(inc["sqlfront.emit_sql"]),
            "fuzz.gen_database_ms": ms(inc["fuzz.gen_database"]),
            "fuzz.gen_expression_ms": ms(inc["fuzz.gen_expression"]),
        })
        for family in FAMILIES:
            m[f"harness.{family}.cases_per_s"] = ratio(self.family_cases[family], self.family_seconds[family])
        m["harness.coincidence.yield"] = ratio(c["harness.coincidence_cases"], c["harness.generated"])
        m["harness.self_ms"] = ms(own["harness"])
        m["runtime.gc_ms"] = ms(self.gc_seconds)
        m["runtime.gc_collections"] = self.gc_collections * per
        return m

    def dump(self, path: str, extra: dict):
        """Write every span, and `extra`, as one JSON document."""
        doc = {
            "names": self.names,
            "layers": self.layers,
            "columns": ["name", "start", "end", "parent", "request"],
            "spans": [list(r) for r in zip(self.span_name, self.span_start, self.span_end,
                                          self.span_parent, self.span_request)],
        }
        doc.update(extra)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
