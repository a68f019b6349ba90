"""The command-line front end: exit codes and reproducible run reports."""
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from focount import cli, localeval

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
    EVAL + ["--lambda", "2"],
    ["transform", "--formula-text", "E(x,y)", "--removed", "x", "--r", "-1"],
    ["selftest", "--count", "-1"],
    ["selftest", "--max-n", "1"],
    ["eval", "--gen", "path:5", "--colors", "P,P", "--query-text",
     "#(x). P(x)"],
], ids=["no-command", "no-structure", "unknown-relation", "unknown-family",
        "jobs", "epsilon", "bench", "decompose-signature-not-json",
        "decompose-signature-list", "decompose-signature-arity",
        "transform-signature-not-json", "transform-signature-list",
        "transform-signature-arity", "gen-size", "gen-grid-size", "lambda",
        "transform-negative-halo", "selftest-count", "selftest-max-n",
        "colors-twice"])
def test_bad_input_exits_one(argv, tmp_path):
    assert cli.main(["--out", str(tmp_path / "out.json")] + argv) == 1


@pytest.mark.parametrize("size", ["0", "-3"])
def test_generated_structure_without_vertices_exits_one(size, tmp_path,
                                                        capsys):
    for family in ("grid", "two-trees", "path"):
        argv = ["--out", str(tmp_path / "out.json"), "eval", "--gen",
                f"{family}:{size}", "--query-text", "#(x).true"]
        assert cli.main(argv) == 1
        assert "need at least one vertex" in capsys.readouterr().err


def test_unwritable_output_paths_exit_one(tmp_path, capsys):
    """--out, --report and reduce --out-dir under a path that is a file."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    under = str(blocker / "out.json")
    reduce = ["reduce", "tree", "--gen", "path:4"]
    for argv in (["--out", under] + EVAL,
                 ["--out", str(tmp_path / "out.json"), "--report", under]
                 + EVAL,
                 ["--out", str(tmp_path / "out.json")] + reduce
                 + ["--out-dir", str(blocker)]):
        assert cli.main(argv) == 1, argv
        assert "cannot write" in capsys.readouterr().err
    assert cli.main(["--out", str(tmp_path / "new" / "out.json")]
                    + reduce + ["--out-dir", str(tmp_path / "dir")]) == 0
    assert json.loads((tmp_path / "dir" / "structure.json").read_text())


@pytest.mark.parametrize("text", ["prime(3, 4)", "nosuch(3)",
                                  "(geq1() | geq1(#(x). x = x))"])
def test_bad_constant_predicate_exits_one(text, tmp_path):
    out = ["--out", str(tmp_path / "out.json")]
    assert cli.main(out + ["decompose", "--signature", '{"E": 2}',
                           "--query-text", text]) == 1
    assert cli.main(out + ["eval", "--gen", "path:5",
                           "--query-text", text]) == 1


UNREAD = "(geq1(#(z). true) | exists x. forall y. (!E(x,y) | Q(y)))"
UNREAD_ON = ["--gen", "random-tree:30", "--colors", "P,Q",
             "--query-text", UNREAD]


def test_an_unsupported_part_that_evaluation_never_reads(tmp_path, capsys):
    """The sentence's counting body is not distance-local, but its true
    sibling decides the disjunction, so eval never decomposes it and
    answers as --mode naive does; decompose builds every symbol and fails
    on it."""
    out = tmp_path / "out.json"
    for mode in ("naive", "local"):
        assert cli.main(["--seed", "1", "--out", str(out), "eval", "--mode",
                         mode] + UNREAD_ON) == 0, mode
        assert json.loads(out.read_text())["result"] is True, mode
    stats = json.loads(out.read_text())["stats"]
    assert (stats["symbols"], stats["symbols_decomposed"]) == (2, 1)
    capsys.readouterr()
    assert cli.main(["--seed", "1", "--out", str(out), "decompose"]
                    + UNREAD_ON) == 1
    assert "counting body is not distance-local" in capsys.readouterr().err


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


def test_eval_report_carries_the_engine_stats(tmp_path):
    """A star of 40 has a hub, so the engine builds a cover: the report
    carries the stats the payload has, cover_weight included."""
    report = tmp_path / "report.json"
    argv = ["--out", str(tmp_path / "out.json"), "--report", str(report),
            "eval", "--gen", "star:40", "--colors", "P,Q", "--query-text",
            QUERY]
    assert cli.main(argv) == 0
    stats = json.loads(report.read_text())["stats"]
    assert stats == json.loads((tmp_path / "out.json").read_text())["stats"]
    assert stats["cover_weight"] >= 40


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


def test_selftest_reaches_the_covered_engine(tmp_path, monkeypatch, capsys):
    calls = []
    covered = localeval._Localizer._covered_values

    def record(self, *args):
        calls.append(1)
        return covered(self, *args)

    monkeypatch.setattr(localeval._Localizer, "_covered_values", record)
    argv = ["--seed", "3", "--out", str(tmp_path / "out.json"), "selftest",
            "--count", "3"]
    assert cli.main(argv) == 0
    assert "3 passed, 0 failed" in capsys.readouterr().out
    assert calls


def test_remove_rejects_a_halo_radius_above_the_element_count():
    """Run under a memory cap, since without the check remove would build
    a million halo relations: the command exits 1 within a second and
    names the limit."""
    src = Path(cli.__file__).resolve().parents[1]
    script = (
        "import resource, sys, time\n"
        "cap = 1 << 30\n"
        "resource.setrlimit(resource.RLIMIT_AS, (cap, cap))\n"
        "from focount import cli\n"
        "start = time.perf_counter()\n"
        "code = cli.main(['remove', '--gen', 'path:3', '--element', 'v0',\n"
        "                 '--r', '1000000'])\n"
        "print(time.perf_counter() - start)\n"
        "sys.exit(code)\n")
    run = subprocess.run([sys.executable, "-c", script],
                         env=dict(os.environ, PYTHONPATH=str(src)),
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 1, run.stderr
    assert "element count 3" in run.stderr
    assert float(run.stdout) < 1.0
