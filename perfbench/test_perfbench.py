"""Tests of the benchmark's own machinery: span arithmetic, wrapper
restoration, failure counting, the recorded answers, and BENCHMARK.json."""
import json
import random
from pathlib import Path

from focount import cldecomp, covers, localeval, logic, structures
from focount.generators import make_family, with_colors
from focount.naive import Evaluator

import run
import spans
import workloads


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_duration_minus_direct_children():
    clock = FakeClock()
    t = spans.Tracer(clock)
    with t.span("outer"):
        clock.now += 1
        with t.span("inner"):
            clock.now += 2
            with t.span("leaf"):
                clock.now += 4
        clock.now += 8
        with t.span("inner"):
            clock.now += 16
    assert t.totals["outer.s"] == 31
    assert t.totals["outer.self_s"] == 9
    assert t.totals["inner.s"] == 22
    assert t.totals["inner.self_s"] == 18
    assert t.totals["inner.calls"] == 2
    assert t.totals["leaf.s"] == t.totals["leaf.self_s"] == 4


def test_an_opaque_span_records_nothing_inside_it():
    clock = FakeClock()
    t = spans.Tracer(clock)
    with t.span("oracle", opaque=True):
        with t.span("direct"):
            clock.now += 3
        t.count("engine.zero")
    assert t.totals["oracle.self_s"] == 3
    assert "direct.calls" not in t.totals and "engine.zero" not in t.totals


def test_per_layer_adds_one_pass_to_what_ran_once():
    once = {"parse.s": 1.0, "parse.calls": 2}
    per_pass = {"engine.s": 6.0, "engine.calls": 4, "engine.zero": 2}
    out = spans.per_layer(once, per_pass, 2, 3, 0.01)
    assert out["parse.s"] == 1.0 and out["engine.s"] == 3.0
    assert out["engine.zero_share"] == 0.5
    assert out["engine.max_depth"] == 3 and out["tracing.overhead"] == 0.01
    assert list(out) == list(spans.PER_LAYER)


def _namespaces():
    owners = (cldecomp, covers, localeval, logic, structures,
              covers.Cover, structures.Structure)
    return {owner: dict(vars(owner)) for owner in owners}


def test_a_traced_run_records_spans_and_restores_every_wrapper():
    ops = workloads.removal(0)[:2]
    before = _namespaces()
    tracer = spans.Tracer()
    plain, traced, answers = run.run_passes(ops, 0, tracer, trace=True)
    assert len(plain) == len(traced) == 1
    assert tracer.totals["engine.calls"] == len(ops)
    assert tracer.totals["game.solve.calls"] > 0
    assert _namespaces() == before


def test_wrappers_are_restored_when_the_block_raises():
    before = _namespaces()
    try:
        with spans.tracing(spans.Tracer()):
            assert localeval.build_cover is not before[localeval]["build_cover"]
            raise KeyError("boom")
    except KeyError:
        pass
    assert _namespaces() == before


def test_wrong_answers_and_exceptions_count_as_failures():
    ops = workloads.removal(0)[:3]
    ops[1].reference = lambda: {"no such element": 0}

    def boom():
        raise RuntimeError("injected")
    ops[2].call = boom
    workload = workloads.Workload("injected", lambda seed: ops)
    report, result = run.run(workload, 0, 0, trace=False)
    assert 2 <= result["failed"] < result["attempted"]
    assert result["correct"] is False
    assert (report["metrics"]["error_rate"]["value"]
            == result["failed"] / result["attempted"])


def test_relabelling_keeps_the_answers():
    s = with_colors(make_family("random-tree", 30, seed=3), ("P", "Q"),
                    random.Random(3))
    t = workloads.relabel(s, random.Random(5))
    assert t.universe == s.universe and t.relations != s.relations
    for text in (workloads.PAIRS_QUERY, workloads.QUERY):
        assert (Evaluator(t).evaluate(logic.parse(text, t.signature))
                == Evaluator(s).evaluate(logic.parse(text, s.signature)))


def test_every_recorded_operation_has_an_answer():
    for name in ("pairs", "query"):
        for op in workloads.WORKLOADS[name].setup(7):
            assert isinstance(op.reference(), int)
    assert workloads.HUB_TREE in workloads.recorded("removal")


def test_benchmark_json_declares_what_the_benchmark_prints():
    spec = json.loads((Path(__file__).parent.parent / "BENCHMARK.json")
                      .read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    declared = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    assert declared == run.END_TO_END
    declared = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert declared == spans.PER_LAYER
