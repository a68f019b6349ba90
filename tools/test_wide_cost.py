"""wide_cost times one cold width-3 count per family and size."""
import json

import wide_cost


def test_each_cell_is_checked_and_each_family_gets_a_slope(capsys):
    assert wide_cost.main(["--sizes", "200", "400"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"focount", "query", "seed", "cells", "slopes"}
    assert [(c["family"], c["n"]) for c in report["cells"]] == [
        (family, n) for family in wide_cost.FAMILIES for n in (200, 400)]
    for c in report["cells"]:
        assert set(c) == {"family", "n", "seconds", "value", "correct"}
        assert c["correct"] and c["seconds"] > 0
    assert set(report["slopes"]) == set(wide_cost.FAMILIES)
    assert all(isinstance(v, float) for v in report["slopes"].values())


def test_a_wrong_value_exits_one(monkeypatch, capsys):
    evaluate = wide_cost.evaluate

    def off_by_one(expr, structure):
        value, decomp, stats = evaluate(expr, structure)
        return value + 1, decomp, stats

    monkeypatch.setattr(wide_cost, "evaluate", off_by_one)
    assert wide_cost.main(["--sizes", "50"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert not any(c["correct"] for c in report["cells"])
    assert set(report["slopes"].values()) == {None}
