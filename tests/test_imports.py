"""Every import in the package and its tests sits at module level and is
used."""
import ast
from pathlib import Path

import focount

ROOTS = [Path(focount.__file__).resolve().parent, Path(__file__).parent]


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each module-level import whose name the module never
    reads as a plain name; a name inside a quoted annotation is not read.
    An import whose statement carries `# noqa` is exempt."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for stmt in tree.body:
        if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if any("# noqa" in line
               for line in lines[stmt.lineno - 1:stmt.end_lineno]):
            continue
        for alias in stmt.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                unused.append((stmt.lineno, name))
    return unused


def function_imports(source: str) -> list[int]:
    """Line of each import statement inside a function, at any depth."""
    tree = ast.parse(source)
    return sorted({node.lineno for fn in ast.walk(tree)
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(fn)
                   if isinstance(node, (ast.Import, ast.ImportFrom))})


def test_the_checker_flags_only_unread_imports():
    source = ("from __future__ import annotations\n"
              "import os, sys\n"
              "import xml.dom\n"
              "from typing import Mapping as M, Sequence\n"
              "from json import dumps  # noqa: F401\n"
              "from json import (loads,  # noqa: F401\n"
              "                  load)\n"
              "def f(a: M[str, int]) -> int:\n"
              "    return xml.dom.x + sys.maxsize\n")
    assert unused_imports(source) == [(2, "os"), (4, "Sequence")]


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


def test_no_unused_module_level_imports():
    found = []
    for root in ROOTS:
        for path in sorted(root.glob("*.py")):
            for line, name in unused_imports(path.read_text()):
                found.append(f"{path.name}:{line}: {name}")
    assert not found, "\n".join(found)


def test_no_imports_inside_functions():
    found = [f"{path.name}:{line}" for root in ROOTS
             for path in sorted(root.glob("*.py"))
             for line in function_imports(path.read_text())]
    assert not found, "\n".join(found)
