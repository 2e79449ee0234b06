"""nullvl benchmark.

    python3 nullbench/run.py --workload eval-wide --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from ./src.  One
process serves every request of the workload in a closed loop, one request
after the other, through `nullvl.cli.main` with standard output and error
captured.  The request list is cycled whole until the time is up.  After the
timed interval each distinct request's output is checked once against an
independent reference, and every repeat must print the same output.

Timings are rescaled to a reference host speed.  The machines this runs on
share their cores, and their speed drifts by a quarter within a minute.  A
fixed pure-Python loop (the yardstick) is timed after every request; each
request's time is multiplied by YARDSTICK_NOMINAL_S over the median of the
yardstick times around it.  Program changes move the rescaled figures as
much as the raw ones, since the yardstick runs no program code; the raw
figures and the yardstick's own median are printed on the line before the
result.

The last line of standard output is one JSON object: the end-to-end metrics
with --trace 0, the per-layer metrics of a traced run with --trace 1.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SPAWNS = 7
YARDSTICK_LOOPS = 300
YARDSTICK_WINDOW = 8  # yardstick samples around a request that set its scale
YARDSTICK_NOMINAL_S = 0.001  # rescaled times read as if the yardstick took 1 ms
SETUP_CODE = "import nullvl.cli; nullvl.cli.build_parser()"
WORK_DIR = ".bench_work"
OUT_DIR = ".bench_out"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["eval-wide", "eval-dup", "compile", "fuzz"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def import_program(root: str):
    """Import nullvl from <root>/src and nowhere else."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "nullvl", "cli.py")):
        raise SystemExit(f"error: no nullvl sources under {src}; run from the root of a checkout")
    sys.path[:0] = [src, HERE]
    import nullvl

    if not os.path.realpath(nullvl.__file__).startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"error: nullvl was imported from {nullvl.__file__}, not from {src}")
    return src


def yardstick() -> float:
    """Seconds taken by a fixed pure-Python loop that allocates tuples,
    strings, dict entries and Fractions, as the program does."""
    t0 = perf_counter()
    table = {}
    for i in range(YARDSTICK_LOOPS):
        table[(i % 61, str(i))] = Fraction(i, 7) + 1
    return perf_counter() - t0


def measure_setup(src: str) -> tuple[float, float]:
    """Median wall time (rescaled, raw) of a fresh interpreter importing the
    CLI and building its parser.  Interpreters are spawned one at a time;
    the first, which may write bytecode caches, is not counted."""
    env = dict(os.environ, PYTHONPATH=src)
    cmd = [sys.executable, "-c", SETUP_CODE]
    scaled, raw = [], []

    def speed():
        return statistics.median(yardstick() for _ in range(5))

    before = speed()
    for i in range(SETUP_SPAWNS + 1):
        t0 = perf_counter()
        subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL)
        seconds = perf_counter() - t0
        after = speed()
        if i:
            raw.append(seconds)
            scaled.append(seconds * YARDSTICK_NOMINAL_S * 2 / (before + after))
        before = after
    return statistics.median(scaled), statistics.median(raw)


def call(cli, argv):
    """One request: (seconds, exit code or error text, stdout, stderr).
    `cli.main` is looked up on every call, so a traced run sees its wrapper."""
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects a malformed command line
        code = exc.code
    except Exception:  # a crash fails this request; the loop goes on
        code = traceback.format_exc(limit=3)
    return perf_counter() - t0, code, out.getvalue(), err.getvalue()


class Outcomes:
    """Per distinct request: first output, executions, failures."""

    def __init__(self, requests):
        self.requests = requests
        self.first = {}
        self.runs = {r.label: 0 for r in requests}
        self.failed = {r.label: 0 for r in requests}
        self.reasons = {}

    def record(self, req, code, out, err):
        label = req.label
        self.runs[label] += 1
        reason = None
        if code != 0:
            reason = f"exit {code!r}: {err.strip()[:300]}"
        elif label not in self.first:
            self.first[label] = out
        elif out != self.first[label]:
            reason = "output differs from the first run of the same request"
        if reason:
            self.failed[label] += 1
            self.reasons.setdefault(label, reason)

    def check(self):
        """Check each distinct output once; a wrong answer fails every run of it."""
        for req in self.requests:
            if req.label in self.first and req.label not in self.reasons:
                reason = req.check(self.first[req.label])
                if reason:
                    self.reasons[req.label] = reason
                    self.failed[req.label] = self.runs[req.label]

    @property
    def attempted(self):
        return sum(self.runs.values())

    @property
    def failures(self):
        return sum(self.failed.values())


class Timings:
    """Per request: label, kind and raw seconds; the yardstick samples taken
    before the first request and after each one."""

    def __init__(self):
        self.labels, self.kinds, self.raw, self.yardstick = [], [], [], []

    def __len__(self):
        return len(self.kinds)

    @property
    def scaled(self):
        """Raw seconds rescaled by the median yardstick time around each request."""
        half = YARDSTICK_WINDOW // 2
        return [raw * YARDSTICK_NOMINAL_S
                / statistics.median(self.yardstick[max(0, j + 1 - half): j + 1 + half])
                for j, raw in enumerate(self.raw)]

    def ms(self, kind=None, scaled=True):
        values = self.scaled if scaled else self.raw
        return [v * 1000 for k, v in zip(self.kinds, values) if kind in (None, k)]

    def mean_raw_ms(self, label):
        mine = [v for k, v in zip(self.labels, self.raw) if k == label]
        return 1000 * statistics.mean(mine), len(mine)


def serve(cli, requests, seconds, outcomes, tracer=None):
    """Closed loop over whole cycles of the request list; returns the
    timings and the elapsed seconds."""
    timings = Timings()
    timings.yardstick.append(yardstick())
    start = perf_counter()
    deadline = start + seconds
    i = 0
    while i % len(requests) or not i or perf_counter() < deadline:
        req = requests[i % len(requests)]
        if tracer is not None:
            tracer.request = i
        seconds_taken, code, out, err = call(cli, req.argv)
        timings.yardstick.append(yardstick())
        outcomes.record(req, code, out, err)
        timings.labels.append(req.label)
        timings.kinds.append(req.kind)
        timings.raw.append(seconds_taken)
        i += 1
    return timings, perf_counter() - start


def high_percentile(values, q=0.9):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def latency_figures(timings) -> dict:
    """Per request kind: rescaled and raw p50 and p90, and the sample count."""
    out = {}
    for kind in sorted(set(timings.kinds)):
        for prefix, scaled in (("", True), ("raw.", False)):
            mine = timings.ms(kind, scaled)
            out[f"{prefix}{kind}.p50_ms"] = statistics.median(mine)
            out[f"{prefix}{kind}.p90_ms"] = high_percentile(mine)
        out[f"{kind}.samples"] = len(mine)
    return out


def cases_per_s(workload, outcomes, seconds) -> float:
    cases = sum(json.loads(outcomes.first[r.label])["cases"] * outcomes.runs[r.label]
                for r in workload.requests if r.kind == "fuzz" and r.label in outcomes.first)
    return cases / seconds


def metric(value, unit):
    return {"value": value, "unit": unit}


def run(args, root: str) -> dict:
    src = import_program(root)
    import workloads
    from nullvl import cli

    setup_s, raw_setup_s = measure_setup(src)
    os.makedirs(os.path.join(root, WORK_DIR), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(root, WORK_DIR))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, work)
        outcomes = Outcomes(workload.requests)
        if args.trace:
            return traced(args, root, cli, workload, outcomes)
        timings, elapsed = serve(cli, workload.requests, args.seconds, outcomes)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        t0 = perf_counter()
        outcomes.check()
        check_s = perf_counter() - t0
    finally:
        shutil.rmtree(work, ignore_errors=True)

    all_ms = timings.ms()
    info = {
        "workload": workload.name,
        "seed": args.seed,
        "input_size": workload.size,
        "elapsed_s": elapsed,
        "check_s": check_s,
        "samples": len(all_ms),
        "fail_ratio": outcomes.failures / outcomes.attempted,
        "premise": workload.premise or "holds",
        "yardstick_ms": 1000 * statistics.median(timings.yardstick),
        "raw.setup_s": raw_setup_s,
        "raw.p50_ms": statistics.median(timings.ms(scaled=False)),
        "raw.p90_ms": high_percentile(timings.ms(scaled=False)),
        "raw.requests_per_s": len(all_ms) / elapsed,
        **latency_figures(timings),
        **workload.props,
        **workload.summarize(outcomes.first),
        "failures": dict(list(outcomes.reasons.items())[:10]),
    }
    if args.workload == "fuzz":
        info["fuzz.cases_per_s"] = cases_per_s(workload, outcomes, sum(timings.scaled))
    print(json.dumps(info))
    return {
        "correct": outcomes.failures == 0 and workload.premise is None,
        "attempted": outcomes.attempted,
        "failed": outcomes.failures,
        "metrics": {
            "setup_s": metric(setup_s, "s"),
            "p50_ms": metric(statistics.median(all_ms), "ms"),
            "p90_ms": metric(high_percentile(all_ms), "ms"),
            "requests_per_s": metric(1000 * len(all_ms) / sum(all_ms), "1/s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        },
    }


def cross_check(workload, rows, summary) -> dict:
    """ROADMAP baselines next to the same figures read off this run: the
    per-request rows (untraced times) and the fuzz size ratios."""
    ms = {r["request"]: r["untraced_ms"] for r in rows}
    notes = {}
    if workload.name == "eval-wide":
        sizes = sorted({r["rows"] for r in rows}, key=int)
        for n in sizes:
            notes[f"q1 translated/q1 under 3vl at {n} rows"] = (
                ms[f"q1 2to3->3vl n={n}"] / ms[f"q1 3vl n={n}"])
        notes[f"q3 growth {sizes[0]} -> {sizes[-1]} rows"] = (
            ms[f"q3 3vl n={sizes[-1]}"] / ms[f"q3 3vl n={sizes[0]}"])
        notes["roadmap"] = "translated q1 / q1 = 2.8 at 400 rows; q3 x7-8 per doubling (200 -> 400 rows)"
    if workload.name == "fuzz":
        notes["roadmap"] = ("max/mean size ratios at 100 cases: 2to3 2.9; grounded-leq 13.4/3.6; "
                            "mvl-self 25.2/3.7; mvl-4vl 112.8/10.9")
        for family in ("capture-2vl-to-3vl", "grounded-leq", "mvl-self", "mvl-4vl"):
            notes[f"{family} max/mean size ratio"] = (summary.get(f"size_ratio.{family}.max"),
                                                      summary.get(f"size_ratio.{family}.mean"))
    return notes


def traced(args, root, cli, workload, outcomes) -> dict:
    """Half the time untraced, then half traced; per-layer figures come from
    the traced half, tracing overhead from the two request rates."""
    from tracing import Tracer

    plain, _ = serve(cli, workload.requests, args.seconds / 2, outcomes)
    tracer = Tracer()
    tracer.install()
    try:
        spanned, _ = serve(cli, workload.requests, args.seconds / 2, outcomes, tracer)
    finally:
        tracer.uninstall()
    outcomes.check()

    plain_rps = len(plain) / sum(plain.scaled)
    traced_rps = len(spanned) / sum(spanned.scaled)
    metrics = tracer.metrics(len(spanned))
    metrics["trace.overhead_share"] = 1 - traced_rps / plain_rps
    summary = workload.summarize(outcomes.first)
    metrics["translate.size_ratio.max"] = summary.get("size_ratio.max", 0.0)
    metrics["translate.size_ratio.mean"] = summary.get("size_ratio.mean", 0.0)

    rows = []
    for req in workload.requests:
        untraced_ms, untraced_runs = plain.mean_raw_ms(req.label)
        traced_ms, traced_runs = spanned.mean_raw_ms(req.label)
        rows.append({"request": req.label, "kind": req.kind, **req.info,
                     "untraced_ms": untraced_ms, "traced_ms": traced_ms,
                     "untraced_runs": untraced_runs, "traced_runs": traced_runs})
    notes = cross_check(workload, rows, summary)
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    path = os.path.join(root, OUT_DIR, f"trace-{workload.name}-{args.seed}.json")
    tracer.dump(path, {"requests": rows, "cross_check": notes, "per_layer": metrics})
    for row in rows:
        print(json.dumps(row))
    print(json.dumps({"workload": workload.name, "seed": args.seed, "trace_file": path,
                      "untraced_requests": len(plain), "traced_requests": len(spanned),
                      "cross_check": notes, **workload.props, **summary,
                      "premise": workload.premise or "holds",
                      "failures": dict(list(outcomes.reasons.items())[:10])}))
    return {
        "correct": outcomes.failures == 0 and workload.premise is None,
        "attempted": outcomes.attempted,
        "failed": outcomes.failures,
        "metrics": {k: metric(v, layer_unit(k)) for k, v in metrics.items()},
    }


def layer_unit(name: str) -> str:
    if name.endswith("_ms") or name.endswith(".ms"):
        return "ms"
    if name.endswith("kb_per_s"):
        return "kB/s"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("_share", "_ratio", "_per_distinct", ".yield", ".max", ".mean")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = run(args, os.getcwd())
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
