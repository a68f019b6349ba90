"""The command-line front end: exit codes and reproducible run reports."""
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

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
    ["decompose", "--signature", "not json", "--query-text", "#(x). x = x"],
    ["decompose", "--signature", "[1,2]", "--query-text", "#(x). x = x"],
    ["decompose", "--signature", '{"E": "x"}', "--query-text", "#(x). x = x"],
    ["transform", "--signature", "not json", "--formula-text", "x = x",
     "--removed", "x", "--r", "1"],
    ["transform", "--signature", "[1,2]", "--formula-text", "x = x",
     "--removed", "x", "--r", "1"],
    ["transform", "--signature", '{"E": "x"}', "--formula-text", "x = x",
     "--removed", "x", "--r", "1"],
    ["eval", "--gen", "path:abc", "--query-text", "#(x). x = x"],
    ["eval", "--gen", "grid:3xq", "--query-text", "#(x). x = x"],
    EVAL + ["--lambda", "1,x"],
], ids=["no-command", "no-structure", "unknown-relation", "unknown-family",
        "jobs", "epsilon", "bench", "decompose-signature-not-json",
        "decompose-signature-list", "decompose-signature-arity",
        "transform-signature-not-json", "transform-signature-list",
        "transform-signature-arity", "gen-size", "gen-grid-size", "lambda"])
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


def test_badly_formed_structure_file_exits_one(tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"universe": ["1"],
                                "relations": {"P": [1]}}))
    argv = ["eval", "--structure", str(path), "--query-text", "#(x). P(x)"]
    assert cli.main(argv) == 1
    assert "'P'" in capsys.readouterr().err


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


PARITY = """import sys
for line in sys.stdin:
    print(int(line.split()[0]) % 2, flush=True)
"""
ODD = ["eval", "--gen", "path:12", "--colors", "P",
       "--query-text", "odd(#(x). P(x))"]


def oracle(cmd: str) -> list[str]:
    return ["--oracle", f"odd=1:{cmd}"]


def test_missing_oracle_command_exits_one(tmp_path, capsys):
    argv = ["--out", str(tmp_path / "out.json")] + ODD + \
        oracle("no-such-oracle-command")
    assert cli.main(argv) == 1
    assert "cannot start oracle 'odd'" in capsys.readouterr().err


def test_oracle_that_stops_reading_exits_one(tmp_path, capsys):
    # answers once, then closes its input: the second request cannot be sent
    quitter = (f"{shlex.quote(sys.executable)} -c 'import os, time; "
               "os.close(0); print(1, flush=True); time.sleep(60)'")
    argv = ["--out", str(tmp_path / "out.json"), "eval", "--gen", "path:12",
            "--query-text", "#(x). odd(#(y). E(x,y))"] + oracle(quitter)
    assert cli.main(argv) == 1
    assert "oracle 'odd' closed its input" in capsys.readouterr().err


def test_silent_oracle_times_out(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "ORACLE_REPLY_TIMEOUT_S", 0.5)
    sleeper = f"{shlex.quote(sys.executable)} -c 'import time; time.sleep(60)'"
    start = time.monotonic()
    assert cli.main(["--out", str(tmp_path / "out.json")] + ODD
                    + oracle(sleeper)) == 1
    assert time.monotonic() - start < 10
    assert "oracle 'odd' gave no reply within 0.5 s" in capsys.readouterr().err


def test_oracle_run_leaves_no_process_or_pipe_behind(tmp_path):
    script = tmp_path / "parity.py"
    script.write_text(PARITY)
    src = Path(cli.__file__).resolve().parents[1]
    parity = oracle(f"{shlex.quote(sys.executable)} "
                    f"{shlex.quote(str(script))}")
    results = []
    for mode in ("local", "naive"):
        out = tmp_path / f"{mode}.json"
        argv = [sys.executable, "-X", "dev", "-m", "focount.cli",
                "--out", str(out)] + ODD + ["--mode", mode] + parity
        run = subprocess.run(argv, env=dict(os.environ, PYTHONPATH=str(src)),
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert "ResourceWarning" not in run.stderr
        assert "still running" not in run.stderr
        results.append(json.loads(out.read_text())["result"])
    assert results[0] == results[1]
