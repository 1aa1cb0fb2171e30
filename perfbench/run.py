"""Known-answer benchmark of tuttesolve, run from a plain checkout.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

An op runs the way a user solves: run_pipeline(PipelineConfig(...)), then
render_report(..., "structured"), then parse_report; or, on series-table,
one CoeffTable.build or column_series.  Every result is checked exactly
against the standard-library oracles in oracles.py.  One process and one
closed-loop client: the next op starts when the previous one has ended.

With --trace 0 the run reports the end-to-end metrics; with --trace 1 each
op runs twice, untraced and then traced, and the run reports the per-layer
metrics derived from the spans.  The last line printed is one JSON object
with the keys correct, attempted, failed and metrics.  README.md has the
workloads, the metrics and their units.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import oracles
import tracing
from workloads import WALK_STEPS, WORKLOADS, Op, passes

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 5     # start-ups per run; setup_s is their median
CHECK_TERMS = 200     # leading terms of each recurrence checked

# the flagship's minimal recurrence, low degree first:
# 3(n+2)(3n+4)(3n+5) a(n+1) = 8(2n+1)(4n+3)(4n+5) a(n)
GOLDEN = ((-120, -496, -640, -256), (120, 222, 135, 27))


def load_program() -> dict:
    """Import tuttesolve from the checkout's src/, never an installed copy."""
    if not (SRC / "tuttesolve" / "__init__.py").is_file():
        sys.exit(f"perfbench: no tuttesolve sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import tuttesolve
    if not Path(tuttesolve.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: imported tuttesolve from {tuttesolve.__file__}")
    return {name: importlib.import_module(f"tuttesolve.{name}")
            for name in ("pipeline", "report", "eqparse", "holonomic")}


def _proportional(a, b) -> bool:
    if [len(q) for q in a] != [len(q) for q in b]:
        return False
    fa = [c for q in a for c in q]
    fb = [c for q in b for c in q]
    k = next(Fraction(x, y) for x, y in zip(fa, fb) if y)
    return all(x == k * y for x, y in zip(fa, fb))


def _record(op: Op, seconds: float, status: str, problem=None, exc=None,
            stage=None) -> dict:
    rec = {"op": op.label(), "seconds": seconds, "status": status}
    if problem:
        rec["problem"] = problem
    if exc is not None:
        rec.update(error=type(exc).__name__, stage=stage,
                   detail=str(exc)[:200])
    return rec


class Runner:
    """Runs single ops against the program and checks them."""

    def __init__(self, mods: dict):
        self.pipeline = mods["pipeline"]
        self.report = mods["report"]
        self.eqparse = mods["eqparse"]
        self.absent = mods["holonomic"].ABSENT
        self.oracle = oracles.Oracle(WALK_STEPS)

    def run(self, op: Op) -> dict:
        """One op: its program time, status ok / unproven / wrong / error,
        and for an error its exception type and stage.  Oracle checks are
        not timed."""
        if op.kind == "solve":
            return self._solve(op)
        return self._build(op)

    def _solve(self, op: Op) -> dict:
        cfg = self.pipeline.PipelineConfig(
            op.equation, guess_order=op.guess_order,
            max_complexity=op.max_complexity, eval_at=op.eval_at)
        t0 = perf_counter()
        try:
            r = self.pipeline.run_pipeline(cfg)
        except Exception as exc:  # the op failed; the run goes on
            return _record(op, perf_counter() - t0, "error", exc=exc,
                           stage=getattr(exc, "stage", "run_pipeline"))
        spent = perf_counter() - t0
        problem = self._check_solution(op, r)
        stage = "render"
        t0 = perf_counter()
        try:
            text = self.report.render_report(r, "structured")
            stage = "parse"
            back = self.report.parse_report(text)
        except Exception as exc:
            return _record(op, spent + perf_counter() - t0,
                           "wrong" if problem else "error", problem,
                           exc=exc, stage=stage)
        spent += perf_counter() - t0
        if problem is None and back != r:
            problem = "parse_report(render_report(r)) != r"
        if problem:
            return _record(op, spent, "wrong", problem)
        return _record(op, spent, "ok" if r.proven else "unproven")

    def _check_solution(self, op: Op, r) -> str | None:
        o = self.oracle
        if (r.value is None or r.value.index != op.eval_at
                or r.value.value != o.value(op.name, op.eval_at)):
            return f"value at {op.eval_at} differs from the oracle"
        prefix = list(r.series_prefix)
        if prefix != o.terms(op.name, len(prefix)):
            return "series prefix differs from the oracle"
        want = o.terms(op.name, CHECK_TERMS)
        recs = [("recurrence", r.recurrence)]
        if r.minimized is not self.absent:
            recs.append(("minimized recurrence", r.minimized))
        for label, rec in recs:
            try:
                got = oracles.unroll(rec.coeffs, rec.initials, CHECK_TERMS)
            except IndexError:
                return f"{label} lacks an initial value"
            if got != want:
                return f"{label} differs from the oracle in its first terms"
        if op.name == "flagship" and (r.minimized is self.absent or not
                                      _proportional(r.minimized.coeffs, GOLDEN)):
            return "minimized recurrence is not the golden one"
        return None

    def _build(self, op: Op) -> dict:
        stage = "equation"
        t0 = perf_counter()
        try:
            eq = self.eqparse.parse_equation(op.equation)
            stage = op.kind
            if op.kind == "table":
                got = self.pipeline.CoeffTable.build(eq, op.order, op.ypow).entries
            else:
                got = self.pipeline.column_series(eq, op.ypow, op.order).coeffs
        except Exception as exc:  # the op failed; the run goes on
            return _record(op, perf_counter() - t0, "error", exc=exc,
                           stage=stage)
        spent = perf_counter() - t0
        problem = self._check_build(op, got)
        return _record(op, spent, "wrong" if problem else "ok", problem)

    def _check_build(self, op: Op, got) -> str | None:
        o = self.oracle
        want = o.table(op.name, op.order, op.ypow)
        if op.kind == "column":
            if list(got) != [row[op.ypow] for row in want]:
                return "column differs from the walk count"
            return None
        if (len(got), len(got[0])) != (op.order + 1, op.ypow + 1):
            return "table has the wrong shape"
        if want is not None:
            if [list(row) for row in got] != want:
                return "table differs from the walk count"
            return None
        # no direct count: column 0 has a closed form, and the whole table
        # must satisfy the equation inside its box
        if [row[0] for row in got] != o.terms(op.name, op.order + 1):
            return "table column 0 differs from the closed form"
        if not oracles.residual_is_zero(oracles.FLAGSHIP_TERMS, got):
            return "table does not satisfy the equation"
        return None


def measure_setup(args) -> float:
    """Median seconds from process start to the first op being ready.

    Each start-up is a fresh interpreter that imports tuttesolve and
    generates the run's first pass of inputs, then prints the monotonic
    clock, which Linux shares between processes.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=120, check=True)
        times.append(float(proc.stdout.split()[-1]) - t0)
    return statistics.median(times)


def run_ops(args, runner: Runner):
    """Whole passes until --seconds have gone by.

    Returns the op records, the trace self-check problems, and for a traced
    run the Profile of its spans with the tracing overhead per op.
    """
    records, problems = [], []
    tracer = tracing.Tracer() if args.trace else None
    overhead_s = 0.0
    gen = passes(args.workload, args.seed)
    start = perf_counter()
    while True:
        for op in next(gen):
            rec = runner.run(op)
            records.append(rec)
            if tracer is None:
                continue
            first = len(tracer.spans)
            tracer.install()
            try:
                trec = runner.run(op)
            finally:
                tracer.remove()
            trec["traced"] = True
            records.append(trec)
            overhead_s += trec["seconds"] - rec["seconds"]
            problem = tracing.check_op(tracer.spans, first, op.kind,
                                       trec["seconds"])
            if problem:
                problems.append(f"{op.label()}: {problem}")
        if perf_counter() - start >= args.seconds:
            break
    if tracer is None:
        return records, problems, None
    traced = len(records) // 2
    return records, problems, (tracing.Profile(tracer.spans, traced),
                               overhead_s / traced)


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def metadata() -> dict:
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "platform": platform.platform(), "commit": git_commit()}


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(records: list[dict], setup_s: float) -> dict:
    times = [r["seconds"] for r in records]
    ok = sum(r["status"] == "ok" for r in records)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": _metric(setup_s, "s"),
        "solve_s.p50": _metric(statistics.median(times), "s"),
        "ops_per_s": _metric(ok / sum(times), "1/s"),
        "peak_rss_mb": _metric(peak_kib * 1024 / 1e6, "MB"),
    }


def print_summary(args, records, metrics, profile, problems) -> None:
    failed = [r for r in records if r["status"] != "ok"]
    for r in records:
        why = r.get("problem") or (f"{r['error']} at stage {r['stage']}"
                                   if "error" in r else "")
        mark = "traced " if r.get("traced") else ""
        print(f"  {r['seconds']:9.4f} s  {r['status']:8s} {mark}{r['op']}  {why}")
    for p in problems:
        print(f"trace self-check failed: {p}")
    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:.6g} {m['unit']}")
    n = len(records)
    print(f"{'failed_ratio':28s} {len(failed) / n:.6g} ({len(failed)}/{n})")
    if not args.trace:
        times = sorted(r["seconds"] for r in records)
        if n >= 11:
            # the highest percentile with at least 10 samples beyond it
            print(f"{'solve_s.tail':28s} {times[n - 11]:.6g} s "
                  f"(p{100 * (n - 10) // n}, {n} samples)")
        else:
            print(f"{'solve_s.tail':28s} omitted ({n} samples, needs 11)")
    if profile is not None:
        print("self time by layer: " + ", ".join(
            f"{layer} {share:.1%}" for layer, share in profile.shares()))
        for (var, da, db), terms in profile.resultants():
            print(f"resultant in {var}, degrees {da} and {db}: "
                  f"{len(terms)} calls, {min(terms)}-{max(terms)} terms out")


def write_outputs(args, meta, records, result, profile) -> None:
    """The run's records and result, and for a traced run its spans, as
    [name, parent index, start, end, facts] per line."""
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    doc = {"meta": meta, "args": vars(args), "records": records, **result}
    stem.with_suffix(".json").write_text(json.dumps(doc, indent=1) + "\n")
    if profile is not None:
        with open(f"{stem}-spans.jsonl", "w") as fh:
            for span in profile.spans:
                fh.write(json.dumps(span) + "\n")


def run_all(args) -> int:
    """Every workload in turn, each in its own process."""
    results, status = {}, 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900)
        print(f"== {name}")
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            status = 1
            continue
        results[name] = json.loads(lines[-1])
        status |= not results[name]["correct"]
    print(json.dumps({"workloads": results}))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    mods = load_program()
    if args.probe:
        next(passes(args.workload, args.seed))
        print(time.monotonic())
        return 0

    meta = metadata()
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in meta.items()))
    setup_s = 0.0 if args.trace else measure_setup(args)
    records, problems, traced = run_ops(args, Runner(mods))
    profile = None
    if traced is None:
        metrics = end_to_end(records, setup_s)
    else:
        profile, overhead_s = traced
        values = profile.metrics(overhead_s)
        metrics = {name: _metric(values[name], unit)
                   for name, unit in tracing.PER_LAYER}
    print_summary(args, records, metrics, profile, problems)
    result = {
        "correct": not problems and all(r["status"] != "wrong"
                                        for r in records),
        "attempted": len(records),
        "failed": sum(r["status"] != "ok" for r in records),
        "metrics": metrics,
    }
    write_outputs(args, meta, records, result, profile)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
