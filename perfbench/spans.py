"""Per-layer tracing of focount from outside the package.

`tracing(tracer)` replaces the public function at each layer boundary with a
wrapper that records a span (time, self time, calls) and, where the layer
returns something countable, a counter; it puts the originals back when the
block ends.  Functions called millions of times, such as Structure.ball, are
left alone, so that tracing costs little.
"""
from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

SPANS = ("parse", "decompose", "materialise", "engine", "cover",
         "cover.members", "direct", "game.solve", "game.move",
         "removal.split", "structure.induced", "oracle")

FALLBACKS = {"recursion budget exhausted": "budget",
             "unfactorized condition": "unfactorized",
             "wide-pattern enumeration": "enumeration"}

RUN_STATS = ("clusters", "direct_clusters", "removal_clusters",
             "removal_steps", "depth_bound_checks")

# name -> (unit, better), in the order of the report
PER_LAYER = {}
for _span in SPANS:
    PER_LAYER[f"{_span}.s"] = ("s", "lower")
    PER_LAYER[f"{_span}.self_s"] = ("s", "lower")
    PER_LAYER[f"{_span}.calls"] = ("count", "lower")
PER_LAYER.update({
    "decompose.layers": ("count", "lower"),
    "decompose.basic_terms": ("count", "lower"),
    "engine.zero_share": ("share", "lower"),
    "cover.clusters": ("count", "lower"),
    "cover.weight_per_elem": ("count", "lower"),
    "cover.members.scan_per_hit": ("count", "lower"),
    "game.solve.repeat_share": ("share", "lower"),
    "engine.clusters": ("count", "lower"),
    "engine.direct_clusters": ("count", "lower"),
    "engine.removal_clusters": ("count", "lower"),
    "engine.removal_steps": ("count", "lower"),
    "engine.max_depth": ("count", "lower"),
    "engine.depth_bound_checks": ("count", "higher"),
    "engine.fallbacks": ("count", "lower"),
    "engine.fallbacks.budget": ("count", "lower"),
    "engine.fallbacks.unfactorized": ("count", "lower"),
    "engine.fallbacks.enumeration": ("count", "lower"),
    "tracing.overhead": ("share", "lower"),
})


class Tracer:
    """Aggregated spans and counters.  A span's self time is its duration
    minus the durations of the spans opened directly inside it.  Inside an
    opaque span nothing else is recorded."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.totals: dict[str, float] = defaultdict(float)
        self.max_depth = 0
        self.solved: set = set()
        self._children: list[float] = []
        self._muted = 0

    @contextmanager
    def span(self, name: str, opaque: bool = False):
        if self._muted:
            yield
            return
        start = self.clock()
        self._children.append(0.0)
        self._muted += opaque
        try:
            yield
        finally:
            self._muted -= opaque
            took = self.clock() - start
            inner = self._children.pop()
            if self._children:
                self._children[-1] += took
            self.totals[f"{name}.s"] += took
            self.totals[f"{name}.self_s"] += took - inner
            self.totals[f"{name}.calls"] += 1

    def count(self, name: str, by: float = 1) -> None:
        if not self._muted:
            self.totals[name] += by

    def wrap(self, name: str, fn, after=None):
        """`fn` recording span `name`; `after(args, result)` counts."""
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None and not self._muted:
                after(args, result)
            return result
        return traced

    def note_run_stats(self, stats) -> None:
        """Counts from the RunStats one operation returned; a fallback counts
        once per operation that raised it."""
        for key in RUN_STATS:
            self.count(f"engine.{key}", getattr(stats, key))
        self.max_depth = max(self.max_depth, stats.max_depth)
        for reason in stats.fallbacks:
            self.count("engine.fallbacks")
            for prefix, slug in FALLBACKS.items():
                if reason.startswith(prefix):
                    self.count(f"engine.fallbacks.{slug}")


def per_layer(once: dict, per_pass: dict, passes: int, max_depth: int,
              overhead: float) -> dict[str, float]:
    """The PER_LAYER metrics of one set-up, one reference check and one pass
    over the operations.  `once` holds what set-up and the check recorded,
    `per_pass` what `passes` traced passes recorded together."""
    raw = defaultdict(float, once)
    for key, value in per_pass.items():
        raw[key] += value / passes

    def share(part: str, whole: str) -> float:
        return raw[part] / raw[whole] if raw[whole] else 0.0

    out = {name: raw[name] for name in PER_LAYER}
    out["engine.zero_share"] = share("engine.zero", "engine.calls")
    out["cover.weight_per_elem"] = share("cover.weight", "cover.elements")
    out["cover.members.scan_per_hit"] = share("cover.members.scanned",
                                              "cover.members.hits")
    out["game.solve.repeat_share"] = share("game.solve.repeats",
                                           "game.solve.calls")
    out["engine.max_depth"] = max_depth
    out["tracing.overhead"] = overhead
    return out


def _is_zero(value) -> bool:
    if isinstance(value, dict):
        return not any(value.values())
    return not value


@contextmanager
def tracing(tracer: Tracer):
    """Install the layer wrappers for the duration of the block."""
    from focount import covers, localeval, logic, structures
    t = tracer

    def engine_done(args, result):
        t.count("engine.zero", _is_zero(result))

    def decomposed(args, decomp):
        basics = {b for layer in decomp.layers for sym in layer.symbols
                  for arg in sym.args for b in arg.basics()}
        if decomp.final_term is not None:
            basics.update(decomp.final_term.basics())
        t.count("decompose.layers", len(decomp.layers))
        t.count("decompose.basic_terms", len(basics))

    def covered(args, cover):
        t.count("cover.clusters", len(cover.clusters))
        t.count("cover.weight", cover.total_weight())
        t.count("cover.elements", len(args[0].universe))

    def members(args, found):
        t.count("cover.members.scanned", len(args[0].assignment))
        t.count("cover.members.hits", len(found))

    solve = t.wrap("game.solve", covers.solve_splitter)

    def solve_splitter(graph, r, *args, **kwargs):
        vertices = getattr(graph, "universe", None) or graph.vertices
        key = (frozenset(vertices), r)
        if key in t.solved:
            t.count("game.solve.repeats")
        t.solved.add(key)
        return solve(graph, r, *args, **kwargs)

    materialise_fn = localeval.eval_decomposition

    def materialise(decomp, structure, registry=None, engine=None):
        if engine is not None:
            engine = t.wrap("engine", engine, engine_done)
        with t.span("materialise"):
            return materialise_fn(decomp, structure, registry, engine)

    def localized(fn):
        return t.wrap("engine", fn, lambda args, res: engine_done(args, res[0]))

    patches = [
        (logic, "parse", t.wrap("parse", logic.parse)),
        (localeval, "cl_decompose",
         t.wrap("decompose", localeval.cl_decompose, decomposed)),
        (localeval, "eval_decomposition", materialise),
        (localeval, "localized_ground", localized(localeval.localized_ground)),
        (localeval, "localized_unary", localized(localeval.localized_unary)),
        (localeval, "build_cover", t.wrap("cover", localeval.build_cover,
                                          covered)),
        (covers.Cover, "members", t.wrap("cover.members",
                                         covers.Cover.members, members)),
        (localeval, "eval_basic_cl", t.wrap("direct", localeval.eval_basic_cl)),
        (covers, "solve_splitter", solve_splitter),
        (localeval, "solve_splitter", solve_splitter),
        (localeval, "splitter_move", t.wrap("game.move",
                                            localeval.splitter_move)),
        (localeval, "removal_unary_term",
         t.wrap("removal.split", localeval.removal_unary_term)),
        (localeval, "removal_ground_term",
         t.wrap("removal.split", localeval.removal_ground_term)),
        (structures.Structure, "induced",
         t.wrap("structure.induced", structures.Structure.induced)),
    ]
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, fn in patches:
            setattr(owner, attr, fn)
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
