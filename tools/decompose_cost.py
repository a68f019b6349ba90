"""Cold `cl_decompose` time of each corpus expression.

    PYTHONPATH=src python3 tools/decompose_cost.py --repeat 50

The corpus is the 16 expressions that `ExpressionSampler` draws from
`random.Random(seed)`, seeds 0-15, over the signature E/2, P/1, Q/1: the
expressions of the benchmark's `corpus` workload.  Each repetition parses
the expression's rendering afresh, untimed, and times one `cl_decompose`
call on the result together with a read of every layer symbol's cl-terms
(`SymbolDef.args`, built on first read), so the time is that of the whole
decomposition, as `focount decompose` pays it, however little of it an
evaluation would build.  No node survives from one call into the next and
every fact cached on a node starts cold.  The script prints, per
expression, the median over the repetitions in milliseconds, and last the
sum of those medians.  It times whichever `focount` is first on the path;
the header names it, so two checkouts compare by pointing PYTHONPATH at
each one's `src`.
"""
from __future__ import annotations

import argparse
import random
import statistics
import sys
import time

import focount
from focount.cldecomp import cl_decompose
from focount.generators import ExpressionSampler
from focount.logic import parse, render
from focount.structures import Signature

SIG = Signature.of({"E": 2, "P": 1, "Q": 1})
CORPUS_SEEDS = range(16)


def cold_costs(seeds=CORPUS_SEEDS, repeat: int = 20) -> dict[int, float]:
    """Seed -> median seconds of one `cl_decompose` call on a fresh parse,
    with every symbol's cl-terms built."""
    texts = {seed: render(ExpressionSampler(random.Random(seed)).expression())
             for seed in seeds}
    times: dict[int, list[float]] = {seed: [] for seed in seeds}
    for _ in range(repeat):
        for seed, text in texts.items():
            expr = parse(text, SIG)
            start = time.perf_counter()
            for layer in cl_decompose(expr, SIG).layers:
                for sym in layer.symbols:
                    sym.args
            times[seed].append(time.perf_counter() - start)
    return {seed: statistics.median(ts) for seed, ts in times.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=20,
                        help="timed calls per expression")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    print(f"focount from {focount.__file__}; median of {args.repeat} "
          "cold calls, ms")
    costs = cold_costs(repeat=args.repeat)
    for seed, seconds in costs.items():
        print(f"{seed:>5} {seconds * 1e3:9.3f}")
    print(f"total {sum(costs.values()) * 1e3:9.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
