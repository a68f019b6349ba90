"""small_cost times sampled expressions on small structures and counts the
engine's splitter-game solves."""
import json

import small_cost
from focount.localeval import EvalConfig


def test_each_cell_is_checked_and_no_default_evaluation_solves(capsys):
    assert small_cost.main(["--seeds", "4", "--sizes", "6", "12",
                            "--repeats", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"focount", "repeats", "cells", "seconds",
                           "solves"}
    assert [(c["seed"], c["n"]) for c in report["cells"]] == [
        (seed, n) for seed in range(4) for n in (6, 12)]
    for c in report["cells"]:
        assert set(c) == {"seed", "family", "n", "seconds", "value",
                          "solves", "correct"}
        assert c["correct"] and c["seconds"] > 0
    assert report["seconds"] == sum(c["seconds"] for c in report["cells"])
    assert report["solves"] == 0


def test_solves_are_counted_and_a_wrong_value_exits_one(monkeypatch,
                                                        capsys):
    evaluate = small_cost.evaluate

    def forced_off_by_one(expr, structure):
        value, decomp, stats = evaluate(expr, structure,
                                        EvalConfig(hub_degree_threshold=1))
        return value + 1, decomp, stats

    monkeypatch.setattr(small_cost, "evaluate", forced_off_by_one)
    assert small_cost.main(["--seeds", "2", "--sizes", "8",
                            "--repeats", "1"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert not any(c["correct"] for c in report["cells"])
    assert report["solves"] > 0
