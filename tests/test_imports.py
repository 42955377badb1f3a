"""Unused imports: every name a package module imports is used in it.

A stand-in for a linter's F401 check.  The one exception is an import kept
only so that the benchmark harness can reach or wrap a name through this
module; its line says so with ``# noqa: F401`` and a reason naming
``bench/``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "conifold_lab"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """``line: name`` of each imported name that the source never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        text = "\n".join(lines[node.lineno - 1 : node.end_lineno])
        if "# noqa: F401" in text and "bench/" in text:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append(f"{node.lineno}: {name}")
    return unused


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []


def test_check_flags_what_it_should():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "import numpy as np\n"
        "from x import a, b  # noqa: F401  (unused; bench/run.py reads it)\n"
        "from y import c  # noqa: F401\n"
        "def f():\n"
        "    return np.pi + os.path.sep\n"
    )
    assert unused_imports(source) == ["2: math", "6: c"]
