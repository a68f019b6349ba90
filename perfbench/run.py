"""Benchmark of focount's evaluation API, run from the root of a checkout:

    python3 perfbench/run.py --workload pairs --seed 1 --seconds 25 --trace 0

It builds the workload's inputs from the seed, runs passes over the
workload's operations (closed loop, one caller) for about `--seconds`,
checks every answer against the reference, and prints two JSON lines: a
report with every metric, the per-operation medians and the machine it ran
on, and last the result: `correct`, `attempted`, `failed` and `metrics`.
Times are medians over an operation's runs.  Its first run fills the
structure's caches, so the median is the cost with warm caches.

On a shared 2-vCPU virtual machine, speed drifted by a third within
minutes.  So around every run of an operation the benchmark times a fixed piece of
pure-Python work, reference_loop(), and divides the operation's time by the
mean of the two loop times: the `*_ref` metrics count operation time in
reference loops, and hold still while the seconds move.  Over ten seeds of
`pairs`, the quartile spread of summed seconds was 15 % and of summed
reference loops 4 %.  The seconds are in the report.

Set-up is timed the same way.  `setup_s` is the median set-up time in
reference loops times REFERENCE_LOOP_S, the median seconds of one reference
loop on that machine when idle: seconds at a fixed machine speed.  Over ten
seeds of `pairs`, the quartile spread of the median set-up seconds was 40 %,
of their minimum 35 %, and of the median in reference loops 4 %.  The
measured seconds are in the report as `setup_wall_s`.

With `--trace 0` the result holds the end-to-end metrics of END_TO_END, taken
from passes without tracing.  With `--trace 1` untraced and traced passes
alternate; the result holds the per-layer metrics of spans.PER_LAYER from the
traced passes, and `tracing.overhead` compares the two kinds of pass.

String hashing is pinned (PYTHONHASHSEED), because set iteration order
changes how much work the engine does: with random hashing, one corpus pass
on fixed inputs ranged from 4.9 s to 7.8 s.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

from spans import PER_LAYER, Tracer, per_layer, tracing

ROOT = Path(__file__).resolve().parent.parent
HASH_SEED = "0"
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 0.5
MIN_OP_SECONDS = 0.05

REFERENCE_KEYS = 20_000
REFERENCE_LOOP_S = 0.003

# name -> (unit, better)
END_TO_END = {
    "eval_ref": ("ref", "lower"),
    "op_p50_ref": ("ref", "lower"),
    "op_max_ref": ("ref", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


class Failed:
    """The answer of an operation that raised."""

    def __init__(self, error: str):
        self.error = error

    def __repr__(self):
        return f"Failed({self.error})"


def reference_loop() -> float:
    """Seconds of a fixed piece of pure-Python work, dictionary stores under
    string keys like the engine's own: the machine's speed at that moment."""
    start = time.perf_counter()
    table = {}
    for i in range(REFERENCE_KEYS):
        table[str(i)] = i
    return time.perf_counter() - start


def time_setup(workload, seed: int):
    """Set the workload up several times, each between two reference loops.
    The last inputs, and the median set-up time in seconds and in reference
    loops."""
    samples = []
    before = reference_loop()
    deadline = time.perf_counter() + SETUP_MIN_SECONDS
    while len(samples) < SETUP_MIN_REPEATS or time.perf_counter() < deadline:
        gc.collect()
        start = time.perf_counter()
        ops = workload.setup(seed)
        took = time.perf_counter() - start
        after = reference_loop()
        samples.append((took, 2 * took / (before + after)))
        before = after
    return (ops, statistics.median(t for t, _ in samples),
            statistics.median(r for _, r in samples))


def timed_call(op, seen: list, tracer, with_trace: bool) -> float:
    """Run `op` once after a garbage collection; its seconds.  The answer,
    or Failed when it raised, goes to `seen`."""
    gc.collect()
    tracer.solved.clear()
    start = time.perf_counter()
    try:
        result = op.call()
    except Exception as exc:  # a failed operation, not a crash
        took = time.perf_counter() - start
        if not any(isinstance(a, Failed) for a in seen):
            traceback.print_exc()
        seen.append(Failed(repr(exc)))
        return took
    took = time.perf_counter() - start
    seen.append(result[0])
    if with_trace:
        tracer.note_run_stats(result[-1])
    return took


def run_passes(ops, seconds: float, tracer, trace: bool):
    """Passes over `ops` for about `seconds`.  Returns, for the untraced and
    for the traced passes, one row per pass holding (seconds, reference
    loops) for each op's runs, and every answer of each op.  In an untraced
    pass an op runs again until MIN_OP_SECONDS have gone by, so that short
    ops get enough samples.  In a traced run the passes alternate, untraced
    first; the layer wrappers are installed for the traced ones only, and
    there each op runs once."""
    plain, traced = [], []
    answers = [[] for _ in ops]
    deadline = time.perf_counter() + seconds
    while True:
        with_trace = trace and len(plain) > len(traced)
        begun_pass = time.perf_counter()
        row = []
        before = reference_loop()
        with tracing(tracer) if with_trace else nullcontext():
            for op, seen in zip(ops, answers):
                begun = time.perf_counter()
                samples = []
                while not samples or (
                        not with_trace
                        and time.perf_counter() - begun < MIN_OP_SECONDS):
                    took = timed_call(op, seen, tracer, with_trace)
                    after = reference_loop()
                    samples.append((took, 2 * took / (before + after)))
                    before = after
                row.append(samples)
        (traced if with_trace else plain).append(row)
        # stop when a pass as long as this one would overrun the deadline
        now = time.perf_counter()
        if now + (now - begun_pass) > deadline and (traced or not trace):
            return plain, traced, answers


def check(ops, answers, tracer) -> int:
    """Compute every reference and count the answers that differ."""
    with tracer.span("oracle", opaque=True):
        expected = [op.reference() for op in ops]
    return sum(got != want for seen, want in zip(answers, expected)
               for got in seen)


def op_medians(passes, field: int = 0) -> list[float]:
    """Each op's median over all its runs in `passes`, in seconds (field 0)
    or in reference loops (field 1)."""
    return [statistics.median(t[field] for samples in runs for t in samples)
            for runs in zip(*passes)]


def loglog_slope(ops, medians) -> float:
    """Slope of log time against log n, over the summed time per size."""
    by_n: dict[int, float] = {}
    for op, seconds in zip(ops, medians):
        by_n[op.n] = by_n.get(op.n, 0.0) + seconds
    return statistics.linear_regression(
        [math.log(n) for n in by_n], [math.log(t) for t in by_n.values()]).slope


def end_to_end(workload, ops, plain, setup, rss_mb: float):
    setup_wall_s, setup_ref = setup
    seconds, refs = op_medians(plain, 0), op_medians(plain, 1)
    totals = [sum(statistics.median(t for t, _ in samples) for samples in row)
              for row in plain]
    q1, _, q3 = (statistics.quantiles(totals, n=4) if len(totals) > 1
                 else (totals[0],) * 3)
    metrics = {"eval_ref": sum(refs), "op_p50_ref": statistics.median(refs),
               "op_max_ref": max(refs),
               "setup_s": setup_ref * REFERENCE_LOOP_S,
               "peak_rss_mb": rss_mb}
    extra = {"eval_s": (sum(seconds), "s"),
             "op_p50_s": (statistics.median(seconds), "s"),
             "op_max_s": (max(seconds), "s"),
             "setup_wall_s": (setup_wall_s, "s"),
             "setup_ref": (setup_ref, "ref"),
             "eval_s.q1": (q1, "s"), "eval_s.q3": (q3, "s"),
             "reference_loop_s": (statistics.median(
                 t / r for row in plain for samples in row
                 for t, r in samples), "s")}
    if workload.loglog_slope:
        extra["loglog_slope"] = (loglog_slope(ops, seconds), "1")
    return metrics, extra


def git_rev() -> str | None:
    """HEAD of the checkout; None when it is not a git repository.  Without
    its own .git the checkout may lie inside another repository, whose HEAD
    git would report."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment() -> dict:
    return {"git_rev": git_rev(), "python": platform.python_version(),
            "nproc": os.cpu_count(), "loadavg": list(os.getloadavg()),
            "pythonhashseed": os.environ.get("PYTHONHASHSEED")}


def run(workload, seed: int, seconds: float, trace: bool):
    """Run one workload; the report and the result, as dicts."""
    tracer = Tracer()
    if trace:
        with tracing(tracer):
            ops = workload.setup(seed)
        setup = None
    else:
        ops, *setup = time_setup(workload, seed)
    before = dict(tracer.totals)
    plain, traced, answers = run_passes(ops, seconds, tracer, trace)
    per_pass = {k: v - before.get(k, 0.0) for k, v in tracer.totals.items()}
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed = check(ops, answers, tracer)
    attempted = sum(len(seen) for seen in answers)
    report = {"workload": workload.name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "environment": environment(),
              "passes": len(plain), "traced_passes": len(traced),
              "ops": len(ops),
              "samples": sum(len(samples) for row in plain for samples in row),
              "per_op_ref": dict(zip((op.name for op in ops),
                                     op_medians(plain, 1))),
              "per_op_s": dict(zip((op.name for op in ops),
                                   op_medians(plain)))}
    extra = {"error_rate": (failed / attempted, "share")}
    if trace:
        once = {k: v - per_pass.get(k, 0.0) for k, v in tracer.totals.items()}
        overhead = sum(op_medians(traced, 1)) / sum(op_medians(plain, 1)) - 1
        values = per_layer(once, per_pass, len(traced), tracer.max_depth,
                           overhead)
        declared = PER_LAYER
    else:
        values, more = end_to_end(workload, ops, plain, setup, rss_mb)
        extra.update(more)
        declared = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit}
               for name, (unit, _) in declared.items()}
    report["metrics"] = {**metrics, **{name: {"value": v, "unit": u}
                                       for name, (v, u) in extra.items()}}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = {**os.environ, "PYTHONHASHSEED": HASH_SEED}
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import focount
    except ImportError as exc:
        print(f"cannot import focount from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if not Path(focount.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"focount was imported from {focount.__file__}, not from this "
              "checkout", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"pick one of {sorted(WORKLOADS)}")
    report, result = run(WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace))
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
