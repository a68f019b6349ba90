"""Every import in the package and its tests sits at module level and is
used, or is a name that the benchmark's tracer patches on that module;
every private function or class of the package is read in the package,
and every public one by the package, the benchmark or the tools; every
EvalConfig field is read in the package or named by the benchmark."""
import ast
from pathlib import Path

import focount

ROOTS = [Path(focount.__file__).resolve().parent, Path(__file__).parent]
REPO = Path(__file__).resolve().parents[1]
TRACER = REPO / "perfbench" / "spans.py"
# public names that only tests read: remove/reconstruct round-trips and the
# halo levels are the spec of the engine's removal step (the halo test)
TEST_SPEC = {"reconstruct", "halo_level"}


def tracer_patches(source: str) -> dict[str, set[str]]:
    """Module name -> the attribute names that the tracer's patch list sets
    on it: every tuple `(module, "name", ...)` in the source."""
    patched: dict[str, set[str]] = {}
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Tuple) and len(node.elts) >= 2
                and isinstance(node.elts[0], ast.Name)
                and isinstance(node.elts[1], ast.Constant)
                and isinstance(node.elts[1].value, str)):
            patched.setdefault(node.elts[0].id, set()).add(
                node.elts[1].value)
    return patched


def unused_imports(source: str,
                   patched: set[str] = frozenset()) -> list[tuple[int, str]]:
    """(line, name) of each module-level import whose name the module never
    reads as a plain name; a name inside a quoted annotation is not read.
    An unread name is exempt when its statement carries `# noqa` and the
    name is in `patched`, the names the tracer patches on this module."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for stmt in tree.body:
        if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        noqa = any("# noqa" in line
                   for line in lines[stmt.lineno - 1:stmt.end_lineno])
        for alias in stmt.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read and not (noqa and name in patched):
                unused.append((stmt.lineno, name))
    return unused


def function_imports(source: str) -> list[int]:
    """Line of each import statement inside a function, at any depth."""
    tree = ast.parse(source)
    return sorted({node.lineno for fn in ast.walk(tree)
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(fn)
                   if isinstance(node, (ast.Import, ast.ImportFrom))})


def unread_defs(sources: dict[str, str], readers: dict[str, str],
                private: bool) -> list[str]:
    """`file:line: name` of each def or class of `sources`, at any depth,
    that no file of `sources` or `readers` reads as a plain name or as an
    attribute: the private ones (`_name`, not a dunder) or the public ones.
    Reads are matched by name alone, so a def whose name is also another
    attribute that is read, such as `size` or `dist`, counts as read."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set()
    for tree in [*trees.values(), *map(ast.parse, readers.values())]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = sorted(
        (name, node.lineno, node.name)
        for name, tree in trees.items() for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef))
        and node.name.startswith("_") == private
        and not node.name.endswith("__") and node.name not in read)
    return [f"{name}:{line}: {defined}" for name, line, defined in unread]


def unread_fields(source: str, cls: str, readers: dict[str, str],
                  namers: dict[str, str]) -> list[str]:
    """The fields of dataclass `cls` in `source` that no file of `readers`
    reads as an attribute and no file of `namers` names: as a plain name,
    an attribute, a keyword argument or a string."""
    (node,) = [n for n in ast.walk(ast.parse(source))
               if isinstance(n, ast.ClassDef) and n.name == cls]
    fields = [stmt.target.id for stmt in node.body
              if isinstance(stmt, ast.AnnAssign)]
    read = {n.attr for text in readers.values()
            for n in ast.walk(ast.parse(text)) if isinstance(n, ast.Attribute)}
    for text in namers.values():
        for n in ast.walk(ast.parse(text)):
            if isinstance(n, ast.Name):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
            elif isinstance(n, ast.keyword):
                read.add(n.arg)
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                read.add(n.value)
    return [name for name in fields if name not in read]


def test_the_checker_flags_only_unread_imports():
    source = ("from __future__ import annotations\n"
              "import os, sys\n"
              "import xml.dom\n"
              "from typing import Mapping as M, Sequence\n"
              "from json import dumps  # noqa: F401\n"
              "from json import (loads,  # noqa: F401\n"
              "                  load)\n"
              "from json import JSONDecoder  # noqa: F401\n"
              "def f(a: M[str, int]) -> int:\n"
              "    return xml.dom.x + sys.maxsize\n")
    assert unused_imports(source, {"dumps", "load", "Sequence"}) == [
        (2, "os"), (4, "Sequence"), (6, "loads"), (8, "JSONDecoder")]


def test_the_tracer_patches_are_read_per_module():
    source = ("patches = [\n"
              "    (localeval, 'splitter_move', move),\n"
              "    (covers.Cover, 'members', members),\n"
              "    (covers, 'solve_splitter', solve),\n"
              "]\n")
    assert tracer_patches(source) == {"localeval": {"splitter_move"},
                                      "covers": {"solve_splitter"}}


def test_the_checker_flags_imports_inside_functions():
    source = ("import os\n"
              "def f():\n"
              "    import sys\n"
              "    return os.sep + sys.platform\n"
              "class C:\n"
              "    def g(self):\n"
              "        def h():\n"
              "            from json import dumps  # noqa: F401\n"
              "        return h\n")
    assert function_imports(source) == [3, 8]


def test_the_checker_flags_unread_private_defs():
    sources = {"a.py": ("class _Box:\n"
                        "    def __init__(self):\n"
                        "        self.n = self._size()\n"
                        "    def _size(self):\n"
                        "        return 0\n"
                        "    def _helper(self):\n"
                        "        return 1\n"
                        "def _unread():\n"
                        "    return 2\n"),
               "b.py": "from a import _Box\nBOX = _Box()\n"}
    assert unread_defs(sources, {}, private=True) == ["a.py:6: _helper",
                                                      "a.py:8: _unread"]


def test_the_checker_flags_public_defs_that_only_tests_read():
    sources = {"a.py": ("def used():\n"
                        "    return 1\n"
                        "def tested():\n"
                        "    return 2\n"
                        "class Box:\n"
                        "    def size(self):\n"
                        "        return 3\n"
                        "    def _hidden(self):\n"
                        "        return 4\n")}
    readers = {"tool.py": "from a import used, Box\nprint(used(), Box.size)\n"}
    assert unread_defs(sources, readers, private=False) == ["a.py:3: tested"]


def test_the_checker_flags_config_fields_that_nothing_reads():
    source = ("@dataclass\n"
              "class Config:\n"
              "    \"\"\"Knobs.\"\"\"\n"
              "    read: int = 1\n"
              "    keyword: int = 2\n"
              "    quoted: int = 3\n"
              "    unread: int = 4\n"
              "    def method(self):\n"
              "        return unread\n")
    readers = {"a.py": source + "print(Config().read, unread)\n"}
    namers = {"bench.py": "cfg = Config(keyword=1)\nKEY = 'quoted'\n"}
    assert unread_fields(source, "Config", readers, namers) == ["unread"]
    assert unread_fields(source, "Config", readers, {}) == [
        "keyword", "quoted", "unread"]


def test_every_config_field_is_read_or_named_by_the_benchmark():
    """EvalConfig fields that the engine reads, or that perfbench still
    passes: a field that neither does is a knob to delete."""
    package = {path.name: path.read_text()
               for path in sorted(ROOTS[0].glob("*.py"))}
    bench = {path.name: path.read_text()
             for path in sorted((REPO / "perfbench").glob("*.py"))}
    found = unread_fields(package["localeval.py"], "EvalConfig", package,
                          bench)
    assert not found, found


def test_every_private_def_is_read_in_the_package():
    package = ROOTS[0]
    found = unread_defs({path.name: path.read_text()
                         for path in sorted(package.glob("*.py"))}, {},
                        private=True)
    assert not found, "\n".join(found)


def test_every_public_def_is_read_outside_the_tests():
    """The package, perfbench/ and tools/ read every public def or class of
    the package, their own test files aside, except TEST_SPEC."""
    package = {path.name: path.read_text()
               for path in sorted(ROOTS[0].glob("*.py"))}
    readers = {f"{folder}/{path.name}": path.read_text()
               for folder in ("perfbench", "tools")
               for path in sorted((REPO / folder).glob("*.py"))
               if not path.name.startswith("test_")}
    found = [line for line in unread_defs(package, readers, private=False)
             if line.rsplit(" ", 1)[1] not in TEST_SPEC]
    assert not found, "\n".join(found)


def test_no_unused_module_level_imports():
    patched = tracer_patches(TRACER.read_text())
    found = []
    for root in ROOTS:
        for path in sorted(root.glob("*.py")):
            for line, name in unused_imports(path.read_text(),
                                             patched.get(path.stem, set())):
                found.append(f"{path.name}:{line}: {name}")
    assert not found, "\n".join(found)


def test_no_imports_inside_functions():
    found = [f"{path.name}:{line}" for root in ROOTS
             for path in sorted(root.glob("*.py"))
             for line in function_imports(path.read_text())]
    assert not found, "\n".join(found)
