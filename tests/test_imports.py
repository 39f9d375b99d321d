"""Every name a src/maxplus module other than __init__ imports is used in that
module, and every import inside a function, __init__'s too, says on its line why
it is not at module level."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "maxplus"
MODULES = sorted(SRC.glob("*.py"))
# The package's __init__ imports names only to re-export them.
REEXPORTS = SRC / "__init__.py"


def unused_imports(source: str) -> list:
    """Names bound by import statements that no expression in the module reads.

    A dotted use such as itertools.combinations reads the name itertools, and
    annotations are expressions in the tree even when postponed.
    """
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def unexplained_local_imports(source: str) -> list:
    """Line numbers of the imports inside a function whose line carries no # comment."""
    lines = source.splitlines()
    return sorted({node.lineno for fn in ast.walk(ast.parse(source))
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))
                   and "#" not in lines[node.lineno - 1]})


@pytest.mark.parametrize("path", [p for p in MODULES if p != REEXPORTS], ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_explains_every_local_import(path):
    assert unexplained_local_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_reported():
    source = "import itertools, os\nfrom typing import List, Optional\nx: Optional[int] = 1\n"
    assert unused_imports(source + "itertools.chain()\n") == ["List", "os"]


def test_unexplained_local_import_is_reported():
    source = ("import os\n"
              "def f():\n"
              "    import sys\n"
              "    def g():\n"
              "        from os import path  # a reason\n"
              "        import re\n")
    assert unexplained_local_imports(source) == [3, 6]
