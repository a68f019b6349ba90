"""Alternating parent/change runs of one benchmark workload.

    python3 tools/ab_pairs.py --workload pairs --parent HEAD~1 --pairs 10

The change is the working tree of this checkout; the parent is `--parent`,
checked out into a temporary git worktree that is removed at the end.  Each
pair runs the command of BENCHMARK.json once on each side, at its
`run_seconds` unless `--seconds` says otherwise, with the same seed; which
side runs first alternates from pair to pair.  For every end-to-end metric
the script prints both medians, both quartiles, the change's relative
difference, and how many pairs the change won (ties count for neither).  A
gain is shown when the change wins at least nine tenths of the pairs and
the medians differ by more than the parent's quartile spread; a metric
worse by more than its bound is shown as such.  Below that, each
operation's median `per_op_ref` on both sides, read off the report line
that the benchmark prints before its result, shows which operations a gain
or a loss comes from; beside it, the median `per_op_s` off the same line
gives the raw seconds, since the reference loop that `*_ref` divides by
runs at different speeds in different processes.  The benchmark's own files
are run, never imported.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the report's per-operation fields, each operation name -> value
OP_FIELDS = ("per_op_ref", "per_op_s")


def run_once(checkout: Path, command: list[str], workload: str, seed: int,
             seconds: float):
    """One benchmark run in `checkout`, read by parse_run."""
    done = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True, check=True)
    return parse_run(done.stdout, checkout)


def parse_run(stdout: str, where) -> tuple[dict[str, float],
                                           dict[str, dict[str, float]]]:
    """A benchmark run's output: its result's metric values, and its
    report's OP_FIELDS.  Raises when an answer was wrong."""
    *_, report, result = map(json.loads, stdout.strip().splitlines())
    if not result["correct"]:
        raise RuntimeError(f"{where}: {result['failed']} wrong answers")
    return ({name: m["value"] for name, m in result["metrics"].items()},
            {name: report[name] for name in OP_FIELDS})


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarise(spec: list[dict], parent: list[dict], change: list[dict]):
    """One row per metric of `spec`, BENCHMARK.json's end_to_end list."""
    rows = []
    for metric in spec:
        name, lower = metric["name"], metric["better"] == "lower"
        old = [run[name] for run in parent]
        new = [run[name] for run in change]
        wins = sum(n < o if lower else n > o for o, n in zip(old, new))
        m_old, m_new = statistics.median(old), statistics.median(new)
        (q1, q3), (c1, c3) = quartiles(old), quartiles(new)
        gain = m_old - m_new if lower else m_new - m_old
        relative = (m_new - m_old) / m_old if m_old else 0.0
        verdict = ("gain" if wins >= 0.9 * len(old) and gain > q3 - q1
                   else "worse beyond bound"
                   if (relative if lower else -relative) > metric["bound"]
                   else "")
        rows.append((name, m_old, q1, q3, m_new, c1, c3, relative, wins,
                     len(old), verdict))
    return rows


def per_op(parent: list[dict], change: list[dict]):
    """One row per operation of the parent's runs: its median on each side
    and the change's relative difference."""
    rows = []
    for name in parent[0]:
        old = statistics.median(run[name] for run in parent)
        new = statistics.median(run[name] for run in change)
        rows.append((name, old, new, (new - old) / old if old else 0.0))
    return rows


def op_rows(parent: list[dict], change: list[dict]):
    """One row per operation: the per_op row of `per_op_ref`, followed by
    the medians and the difference of `per_op_s`."""
    ref, raw = (per_op([run[name] for run in parent],
                       [run[name] for run in change]) for name in OP_FIELDS)
    return [(*row, *seconds[1:]) for row, seconds in zip(ref, raw)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--parent", default="HEAD",
                        help="revision to compare the working tree with")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="run length; BENCHMARK.json's run_seconds")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    ops: dict[str, list[dict]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "parent"
        subprocess.run(["git", "worktree", "add", "--detach", str(base),
                        args.parent], cwd=ROOT, check=True,
                       capture_output=True)
        try:
            for i in range(args.pairs):
                sides = [("parent", base), ("change", ROOT)]
                for side, checkout in sides if i % 2 == 0 else sides[::-1]:
                    metrics, per_operation = run_once(
                        checkout, spec["command"], args.workload, args.seed,
                        seconds)
                    runs[side].append(metrics)
                    ops[side].append(per_operation)
                print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)
        finally:
            subprocess.run(["git", "worktree", "remove", "--force",
                            str(base)], cwd=ROOT, check=False)
    print(f"{args.workload}: {args.pairs} pairs at {seconds:g} s, seed "
          f"{args.seed}, parent {args.parent}")
    cols = ("median", "q1", "q3") * 2
    print(f"{'':12} {'parent':>32} {'change':>32}")
    print(f"{'metric':12}" + "".join(f"{c:>11}" for c in cols)
          + f"{'diff':>8} {'wins':>6}")
    for (name, *values, relative, wins, n, verdict) in summarise(
            spec["end_to_end"], runs["parent"], runs["change"]):
        print(f"{name:12}" + "".join(f"{v:>11.4g}" for v in values)
              + f"{relative:>+8.1%} {wins:>3}/{n:<2} {verdict}")
    print(f"\n{'':24}{'per_op_ref':>32}{'per_op_s':>32}")
    print(f"{'operation':24}"
          + f"{'parent':>12}{'change':>12}{'diff':>8}" * 2)
    for name, *values in op_rows(ops["parent"], ops["change"]):
        print(f"{name:24}" + "".join(
            f"{old:>12.4g}{new:>12.4g}{relative:>+8.1%}"
            for old, new, relative in (values[:3], values[3:])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
