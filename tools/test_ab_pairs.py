"""The verdicts of ab_pairs.summarise, its per-operation medians, and its
reading of a run's output, on made-up runs."""
import json

import pytest

from ab_pairs import op_rows, parse_run, per_op, summarise

SPEC = [{"name": "eval_ref", "better": "lower", "bound": 0.2},
        {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]


def runs(evals, rss):
    return [{"eval_ref": e, "peak_rss_mb": r} for e, r in zip(evals, rss)]


def test_a_gain_needs_nine_tenths_of_the_pairs_and_a_gap_beyond_the_spread():
    parent = runs([10, 11, 10, 12, 11, 10, 11, 12, 10, 11], [50] * 10)
    change = runs([8, 8, 9, 8, 8, 9, 8, 8, 12, 8], [56] * 10)
    rows = {row[0]: row for row in summarise(SPEC, parent, change)}
    name, m_old, q1, q3, m_new, *_, wins, n, verdict = rows["eval_ref"]
    assert (m_old, m_new, wins, n, verdict) == (11, 8, 9, 10, "gain")
    assert q1 <= m_old <= q3
    # 12 % more memory against a 10 % bound, and no pair won
    assert rows["peak_rss_mb"][-3:] == (0, 10, "worse beyond bound")
    one_loss = runs([10] * 10, [50] * 10)
    worse = runs([9] * 8 + [11] * 2, [50] * 10)
    assert summarise(SPEC, one_loss, worse)[0][-1] == ""


def test_each_operation_gets_its_median_on_both_sides():
    parent = [{"grid:1000": 2.0, "star:1000": 4.0},
              {"grid:1000": 3.0, "star:1000": 4.0},
              {"grid:1000": 9.0, "star:1000": 5.0}]
    change = [{"grid:1000": 1.5, "star:1000": 5.0},
              {"grid:1000": 1.0, "star:1000": 5.0},
              {"grid:1000": 2.0, "star:1000": 7.0}]
    assert per_op(parent, change) == [("grid:1000", 3.0, 1.5, -0.5),
                                      ("star:1000", 4.0, 5.0, 0.25)]


def test_a_run_gives_its_metrics_and_both_per_operation_fields():
    report = {"workload": "removal", "per_op_ref": {"a": 2.0, "b": 8.0},
              "per_op_s": {"a": 0.001, "b": 0.004}, "other": 1}
    result = {"correct": True, "failed": 0,
              "metrics": {"eval_ref": {"value": 10.0, "unit": "ref"}}}
    stdout = json.dumps(report) + "\n" + json.dumps(result) + "\n"
    metrics, ops = parse_run(stdout, "here")
    assert metrics == {"eval_ref": 10.0}
    assert ops == {"per_op_ref": {"a": 2.0, "b": 8.0},
                   "per_op_s": {"a": 0.001, "b": 0.004}}
    wrong = stdout.replace('"correct": true, "failed": 0',
                           '"correct": false, "failed": 2')
    with pytest.raises(RuntimeError, match="here: 2 wrong answers"):
        parse_run(wrong, "here")


def test_each_operation_row_puts_its_seconds_beside_its_ref():
    def run(ref, s):
        return {"per_op_ref": {"a": ref}, "per_op_s": {"a": s}}

    parent = [run(4.0, 0.004), run(2.0, 0.001), run(3.0, 0.002)]
    change = [run(1.0, 0.002), run(1.0, 0.002), run(2.0, 0.001)]
    assert op_rows(parent, change) == [("a", 3.0, 1.0, -2 / 3,
                                        0.002, 0.002, 0.0)]
