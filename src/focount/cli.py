"""Command-line front end.

Subcommands: eval, decompose, cover, game, remove, transform, reduce,
selftest.  Structures come from JSON files (--structure) or from
built-in generators (--gen family:n).  Results go to stdout or --out as
JSON; --report additionally writes a run report with input hashes so a rerun
with the same inputs and seed is comparable field by field (wall-clock
timings excepted).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import select
import shlex
import subprocess
import sys
import time
import traceback

from .covers import build_cover, remove, solve_splitter, validate_cover
from .errors import InputError, ParseError
from .generators import (FAMILY_NAMES, ExpressionSampler, grid_graph,
                         make_family, with_colors, with_ternary)
from .localeval import evaluate
from .logic import (NumericPredicate, Query, Registry, default_registry,
                    parse, parse_formula, render)
from .naive import Evaluator, eval_query
from .reductions import (decode_string, encode_string, encode_tree,
                         rewrite_string_formula, rewrite_tree_formula)
from .removal import removal_formula
from .structures import (Signature, signature_from_json, structure_from_json,
                         structure_to_json)
from .cldecomp import cl_decompose


def _sha(payload) -> str:
    if isinstance(payload, bytes):
        data = payload
    else:
        data = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(data).hexdigest()[:16]


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _write(path: str, text: str) -> None:
    """Write `text` to `path`, creating its directory if it is missing."""
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from None


# seconds an --oracle process may take to answer one request
ORACLE_REPLY_TIMEOUT_S = 30.0
# seconds an --oracle process gets to exit once its input is closed
ORACLE_EXIT_GRACE_S = 1.0


class _OracleProc:
    """Line-protocol predicate: one whitespace-separated integer tuple per
    request line, a single "0" or "1" line per reply."""

    def __init__(self, name: str, arity: int, cmd: str):
        self.name = name
        self.arity = arity
        self._pending = b""
        try:
            argv = shlex.split(cmd)
            if not argv:
                raise ValueError("empty command")
            self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE,
                                         stdout=subprocess.PIPE, bufsize=0)
        except (OSError, ValueError) as exc:
            raise InputError(
                f"cannot start oracle {name!r} ({cmd!r}): {exc}") from None

    def __call__(self, *args: int) -> bool:
        request = " ".join(str(a) for a in args) + "\n"
        try:
            self.proc.stdin.write(request.encode())
        except BrokenPipeError:
            raise InputError(
                f"oracle {self.name!r} closed its input") from None
        reply = self._readline().decode(errors="replace").strip()
        if reply not in ("0", "1"):
            raise InputError(
                f"oracle {self.name!r} replied {reply!r}, expected 0 or 1")
        return reply == "1"

    def _readline(self) -> bytes:
        """One reply line, or what came before end of output."""
        fd = self.proc.stdout.fileno()
        deadline = time.monotonic() + ORACLE_REPLY_TIMEOUT_S
        while b"\n" not in self._pending:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise InputError(
                    f"oracle {self.name!r} gave no reply within "
                    f"{ORACLE_REPLY_TIMEOUT_S:g} s")
            chunk = os.read(fd, 4096)
            if not chunk:
                break
            self._pending += chunk
        line, _, self._pending = self._pending.partition(b"\n")
        return line

    def close(self) -> None:
        """Close the oracle's input, give it a moment to exit, kill it if
        it does not, and close its output."""
        self.proc.stdin.close()  # unbuffered, so closing writes nothing
        try:
            self.proc.wait(timeout=ORACLE_EXIT_GRACE_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _registry(args) -> tuple[Registry, list[_OracleProc]]:
    registry = default_registry()
    procs: list[_OracleProc] = []
    try:
        for spec in getattr(args, "oracle", None) or ():
            try:
                name, rest = spec.split("=", 1)
                arity_text, cmd = rest.split(":", 1)
                arity = int(arity_text)
            except ValueError:
                raise InputError(f"bad --oracle {spec!r}, expected "
                                 "NAME=ARITY:COMMAND") from None
            proc = _OracleProc(name, arity, cmd)
            procs.append(proc)
            registry.register(NumericPredicate(name, arity, proc))
    except BaseException:
        for proc in procs:
            proc.close()
        raise
    return registry, procs


def _structure_from_args(args, attr: str = "structure"):
    """Returns (structure, input descriptor for hashing)."""
    path = getattr(args, attr, None)
    gen = getattr(args, "gen", None)
    if (path is None) == (gen is None):
        raise InputError(f"give exactly one of --{attr} FILE or --gen SPEC")
    if path is not None:
        text = _read(path)
        return structure_from_json(text), {attr: _sha(text.encode())}
    if ":" not in gen:
        raise InputError("--gen wants family:n, e.g. star:100 or grid:4x5")
    family, size_text = gen.split(":", 1)
    grid = family == "grid" and "x" in size_text
    try:
        sizes = [int(p) for p in size_text.split("x", 1)] if grid \
            else [int(size_text)]
    except ValueError:
        raise InputError(f"bad --gen {gen!r}: the size must be an integer, "
                         "or ROWSxCOLS for grid") from None
    if grid:
        structure = grid_graph(*sizes)
    else:
        structure = make_family(family, sizes[0], seed=args.seed)
    if getattr(args, "colors", None):
        rng = random.Random(("colors", args.seed, gen).__repr__())
        structure = with_colors(structure, args.colors.split(","), rng)
    return structure, {"gen": gen, "seed": args.seed}


def _emit(args, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, default=str)
    if args.out:
        _write(args.out, text + "\n")
    else:
        print(text)


def _report(args, command: str, inputs: dict, payload: dict,
            timings: dict) -> None:
    if not args.report:
        return
    report = {"command": command, "inputs": inputs,
              "mode": payload.get("mode"), "result": payload.get("result"),
              "fallbacks": payload.get("fallbacks", {}),
              "stats": payload.get("stats", {}), "timings": timings,
              "seed": args.seed}
    _write(args.report,
           json.dumps(report, indent=2, sort_keys=True, default=str) + "\n")


# -- subcommands -----------------------------------------------------------


def _cmd_eval(args) -> int:
    registry, procs = _registry(args)
    try:
        structure, inputs = _structure_from_args(args)
        query_text = _read(args.query) if args.query else args.query_text
        if query_text is None:
            raise InputError("give --query FILE or --query-text TEXT")
        inputs["query"] = _sha(query_text.encode())
        parsed = parse(query_text, structure.signature, registry)
        timings: dict[str, float] = {}
        t0 = time.perf_counter()
        payload: dict = {"mode": args.mode}
        if isinstance(parsed, Query):
            if args.mode == "local":
                raise InputError(
                    "local mode evaluates sentences and ground terms; "
                    "use --mode naive for queries with output variables")
            result = eval_query(parsed, structure, registry)
            payload["result"] = result.to_json()
        elif args.mode == "naive":
            value = Evaluator(structure, registry).evaluate(parsed)
            payload["result"] = value
        else:
            value, decomp, stats = evaluate(parsed, structure,
                                            registry=registry)
            payload["result"] = value
            payload["stats"] = stats.to_json()
            payload["fallbacks"] = stats.to_json()["fallbacks"]
            payload["layers"] = len(decomp.layers)
        timings["evaluate"] = time.perf_counter() - t0
        payload["timings"] = timings
        _emit(args, payload)
        _report(args, "eval", inputs, payload, timings)
        return 0
    finally:
        for proc in procs:
            proc.close()


def _cmd_decompose(args) -> int:
    registry, procs = _registry(args)
    try:
        if args.structure or args.gen:
            structure, inputs = _structure_from_args(args)
            sig = structure.signature
        elif args.signature:
            sig = signature_from_json(args.signature)
            inputs = {"signature": _sha(args.signature.encode())}
        else:
            raise InputError(
                "give --structure/--gen or --signature '{\"E\": 2}'")
        query_text = _read(args.query) if args.query else args.query_text
        if query_text is None:
            raise InputError("give --query FILE or --query-text TEXT")
        inputs["query"] = _sha(query_text.encode())
        expr = parse(query_text, sig, registry)
        if isinstance(expr, Query):
            raise InputError("decompose wants a closed sentence or term")
        t0 = time.perf_counter()
        decomp = cl_decompose(expr, sig, registry)
        timings = {"decompose": time.perf_counter() - t0}
        payload = {"mode": "decompose", "result": decomp.to_json(),
                   "timings": timings}
        _emit(args, payload)
        _report(args, "decompose", inputs, payload, timings)
        return 0
    finally:
        for proc in procs:
            proc.close()


def _cmd_cover(args) -> int:
    structure, inputs = _structure_from_args(args)
    t0 = time.perf_counter()
    cover = build_cover(structure, args.r)
    report = validate_cover(structure, cover)
    timings = {"cover": time.perf_counter() - t0}
    payload = {
        "mode": "cover",
        "result": {
            "r": cover.r,
            "s": cover.s,
            "clusters": [sorted(c) for c in cover.clusters],
            "centres": list(cover.centres),
            "degree_histogram": report.degree_histogram,
            "valid": report.ok,
            "problems": report.problems,
        },
        "timings": timings,
    }
    _emit(args, payload)
    _report(args, "cover", inputs, payload, timings)
    return 0


def _cmd_game(args) -> int:
    structure, inputs = _structure_from_args(args)
    t0 = time.perf_counter()
    solved = solve_splitter(structure, args.radius, round_cap=args.max_rounds)
    timings = {"game": time.perf_counter() - t0}
    strategy = [
        {"alive": sorted(alive), "pick": pick, "reply": reply}
        for (alive, pick), reply in sorted(
            solved.strategy.items(),
            key=lambda kv: (len(kv[0][0]), sorted(kv[0][0]), kv[0][1]))
    ]
    payload = {
        "mode": "game",
        "result": {"radius": solved.radius, "value": solved.value,
                   "round_cap": solved.round_cap, "survived": solved.survived,
                   "strategy": strategy},
        "timings": timings,
    }
    _emit(args, payload)
    _report(args, "game", inputs, payload, timings)
    return 0


def _cmd_remove(args) -> int:
    structure, inputs = _structure_from_args(args)
    # remove adds one halo relation per radius up to r, and no distance
    # among n elements exceeds n - 1
    n = len(structure.universe)
    if args.r > n:
        raise InputError(f"halo radius {args.r} exceeds the structure's "
                         f"element count {n}")
    t0 = time.perf_counter()
    removed = remove(structure, args.element, args.r)
    timings = {"remove": time.perf_counter() - t0}
    payload = {
        "mode": "remove",
        "result": {
            "removed": removed.removed,
            "r": removed.r,
            "structure": structure_to_json(removed.structure),
        },
        "timings": timings,
    }
    _emit(args, payload)
    _report(args, "remove", inputs, payload, timings)
    return 0


def _cmd_transform(args) -> int:
    if args.signature:
        sig = signature_from_json(args.signature)
    else:
        sig = Signature.of({"E": 2})
    text = _read(args.formula) if args.formula else args.formula_text
    if text is None:
        raise InputError("give --formula FILE or --formula-text TEXT")
    phi = parse_formula(text, sig)
    removed = frozenset(p for p in args.removed.split(",") if p)
    t0 = time.perf_counter()
    out = removal_formula(phi, removed, args.r)
    timings = {"transform": time.perf_counter() - t0}
    payload = {"mode": "transform",
               "result": render(out),
               "removed": sorted(removed),
               "timings": timings}
    _emit(args, payload)
    _report(args, "transform",
            {"formula": _sha(text.encode()), "removed": sorted(removed)},
            payload, timings)
    return 0


def _cmd_reduce(args) -> int:
    structure, inputs = _structure_from_args(args, attr="graph")
    t0 = time.perf_counter()
    if args.target == "tree":
        enc = encode_tree(structure)
        encoded = enc.tree
        extra = {"vertex_tags": enc.vertex_tags, "a_nodes": enc.a_nodes}
        rewrite = rewrite_tree_formula
    else:
        encoded = encode_string(structure)
        extra = {"text": decode_string(encoded)}
        rewrite = rewrite_string_formula
    result: dict = {"target": args.target,
                    "structure": structure_to_json(encoded), **extra}
    if args.formula:
        text = _read(args.formula)
        phi = parse_formula(text, Signature.of({"E": 2}))
        result["formula"] = render(rewrite(phi))
    timings = {"reduce": time.perf_counter() - t0}
    payload = {"mode": "reduce", "result": result, "timings": timings}
    if args.out_dir:
        _write(os.path.join(args.out_dir, "structure.json"),
               json.dumps(structure_to_json(encoded), indent=2))
        if "formula" in result:
            _write(os.path.join(args.out_dir, "formula.foc"),
                   result["formula"] + "\n")
        payload["written"] = args.out_dir
    _emit(args, payload)
    _report(args, "reduce", inputs, payload, timings)
    return 0


def _cmd_selftest(args) -> int:
    if args.count < 0:
        raise InputError("--count must be at least 0")
    if args.max_n < 2:
        raise InputError("--max-n must be at least 2")
    rng = random.Random(args.seed)
    passed = failed = 0
    failures = []
    t0 = time.perf_counter()
    for i in range(args.count):
        n = rng.randint(2, args.max_n)
        kind = rng.choice(FAMILY_NAMES)
        structure = make_family(kind, n, seed=rng.randrange(10**9))
        extras = random.Random(rng.randrange(10**9))
        structure = with_ternary(with_colors(structure, ("P", "Q"), extras),
                                 extras)
        sampler = ExpressionSampler(random.Random(rng.randrange(10**9)))
        expr = sampler.expression()
        want = Evaluator(structure).evaluate(expr)
        got, _, _ = evaluate(expr, structure)
        if got == want:
            passed += 1
        else:
            failed += 1
            failures.append({"case": i, "family": kind, "n": n,
                             "query": render(expr),
                             "naive": want, "local": got})
    timings = {"selftest": time.perf_counter() - t0}
    payload = {"mode": "selftest",
               "result": {"passed": passed, "failed": failed,
                          "failures": failures[:5]},
               "timings": timings}
    print(f"selftest: {passed} passed, {failed} failed")
    _emit(args, payload)
    _report(args, "selftest", {"count": args.count}, payload, timings)
    if failed:
        raise RuntimeError(f"selftest found {failed} disagreement(s)")
    return 0


# -- argument wiring -------------------------------------------------------


def _add_structure_args(p: argparse.ArgumentParser,
                        attr: str = "structure") -> None:
    p.add_argument(f"--{attr}", help="structure JSON file")
    p.add_argument("--gen", help=f"generate instead: family:n with family in "
                                 f"{', '.join(FAMILY_NAMES)}; grid accepts "
                                 f"RxC")
    p.add_argument("--colors", help="comma list of random unary relations "
                                    "to add to a generated structure")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="focount",
        description="Counting first-order queries: naive and localized "
                    "evaluation, cluster decompositions, covers, removal "
                    "games and graph encodings.")
    top.add_argument("--seed", type=int, default=0)
    top.add_argument("--out", help="write result JSON here instead of stdout")
    top.add_argument("--report", help="write a run report JSON here")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a query on a structure")
    _add_structure_args(p)
    p.add_argument("--query", help="query file")
    p.add_argument("--query-text", help="inline query text")
    p.add_argument("--mode", choices=("naive", "local"), default="local")
    p.add_argument("--oracle", action="append",
                   help="NAME=ARITY:COMMAND line-protocol predicate")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("decompose",
                       help="print the layered cluster decomposition")
    _add_structure_args(p)
    p.add_argument("--signature", help="JSON object name->arity")
    p.add_argument("--query", help="query file")
    p.add_argument("--query-text", help="inline query text")
    p.add_argument("--oracle", action="append",
                   help="NAME=ARITY:COMMAND line-protocol predicate")
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("cover", help="build and validate a ball cover")
    _add_structure_args(p)
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(fn=_cmd_cover)

    p = sub.add_parser("game", help="solve the removal game exactly")
    _add_structure_args(p)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--max-rounds", type=int, default=10)
    p.set_defaults(fn=_cmd_game)

    p = sub.add_parser("remove", help="project one element out")
    _add_structure_args(p)
    p.add_argument("--element", required=True)
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(fn=_cmd_remove)

    p = sub.add_parser("transform",
                       help="rewrite a formula for a removed element")
    p.add_argument("--formula", help="formula file")
    p.add_argument("--formula-text", help="inline formula text")
    p.add_argument("--signature", help="JSON object name->arity")
    p.add_argument("--removed", required=True,
                   help="comma list of variables naming the removed element")
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(fn=_cmd_transform)

    p = sub.add_parser("reduce", help="encode a graph as a tree or string")
    p.add_argument("target", choices=("tree", "string"))
    _add_structure_args(p, attr="graph")
    p.add_argument("--formula", help="FO formula over E to rewrite")
    p.add_argument("--out-dir", help="directory for structure.json + formula")
    p.set_defaults(fn=_cmd_reduce)

    p = sub.add_parser("selftest",
                       help="random cross-check of local against naive")
    p.add_argument("--count", type=int, default=25)
    p.add_argument("--max-n", type=int, default=48)
    p.set_defaults(fn=_cmd_selftest)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (InputError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 2
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
