"""The command-line front end: exit codes and reproducible run reports."""
import json

import pytest

from focount import cli

QUERY = "#(x,y). ((P(x) & Q(y)) & dist(x,y) <= 2)"
EVAL = ["eval", "--gen", "path:30", "--colors", "P,Q", "--query-text", QUERY]


def test_eval_exits_zero(tmp_path):
    out = tmp_path / "out.json"
    assert cli.main(["--out", str(out)] + EVAL) == 0
    payload = json.loads(out.read_text())
    assert payload["mode"] == "local"
    assert isinstance(payload["result"], int)


@pytest.mark.parametrize("argv", [
    [],
    ["eval", "--query-text", QUERY],
    ["eval", "--gen", "path:30", "--query-text", "#(x). R(x)"],
    ["eval", "--gen", "nosuchfamily:30", "--query-text", "#(x). x = x"],
    ["--jobs", "2"] + EVAL,
    EVAL + ["--epsilon", "0.5"],
    ["bench"],
], ids=["no-command", "no-structure", "unknown-relation", "unknown-family",
        "jobs", "epsilon", "bench"])
def test_bad_input_exits_one(argv, tmp_path):
    assert cli.main(["--out", str(tmp_path / "out.json")] + argv) == 1


def test_empty_list_relation_in_structure_file_exits_one(tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"universe": ["a", "b"],
                                "relations": {"E": []}}))
    argv = ["eval", "--structure", str(path), "--query-text",
            "#(x,y). E(x,y)"]
    assert cli.main(argv) == 1
    assert '"arity": k' in capsys.readouterr().err


def test_report_reruns_match_field_by_field(tmp_path):
    reports = []
    for i in range(2):
        path = tmp_path / f"report{i}.json"
        argv = ["--seed", "7", "--out", str(tmp_path / "out.json"),
                "--report", str(path)] + EVAL
        assert cli.main(argv) == 0
        reports.append(json.loads(path.read_text()))
    first, second = reports
    assert first.keys() == second.keys()
    for key in first:
        if key != "timings":
            assert first[key] == second[key], key
    assert first["timings"].keys() == second["timings"].keys()
