"""Unused imports and unread names in the package.

Unused imports: every name a package or test module imports is used in it.
A stand-in for a linter's F401 check.  The one exception is an import kept
only so that the benchmark harness can reach or wrap a name through this
module; its line says so with ``# noqa: F401`` and a reason naming
``bench/``.  Such an import must still be reached: some ``bench/*.py`` file
names it as a ``(module, "name"`` wrap target or as ``module.name``, so an
import kept for a target that the harness has dropped fails the suite.  And
the module must not read it: a marked import that the code uses is no longer
kept only for the harness, so its marker is stale and fails the suite too.

The other way round, every package name that ``bench/`` reaches must exist,
so that deleting a name only the harness uses fails here and not first under
``bench/run.py --trace 1``.

Unread names: the package ships only what an experiment or the harness
reaches.  Every top-level def, class or assignment in a package module must
be read by some package module outside its own definition, or be reached by
``bench/``.  A name that only its own tests call fails here; it comes back
with its first caller.  There are no exceptions: a test-only oracle lives in
``tests/oracles.py``.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "conifold_lab"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(p.name for p in (ROOT / "tests").glob("*.py"))


def imports(source: str):
    """(line, bound names, kept for bench/) of each import but ``__future__``'s."""
    lines = source.splitlines()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        text = "\n".join(lines[node.lineno - 1 : node.end_lineno])
        names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
        yield node.lineno, names, "# noqa: F401" in text and "bench/" in text


def read_names(source: str) -> set[str]:
    return {n.id for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Name)}


def unused_imports(source: str) -> list[str]:
    """``line: name`` of each imported name that the source never reads."""
    used = read_names(source)
    return [f"{line}: {name}" for line, names, for_bench in imports(source) if not for_bench
            for name in names if name not in used]


def stale_bench_markers(source: str) -> list[str]:
    """``line: name`` of each import kept for bench/ that the source reads after all."""
    used = read_names(source)
    return [f"{line}: {name}" for line, names, for_bench in imports(source) if for_bench
            for name in names if name in used]


def unreached_bench_imports(module: str, source: str, bench: str) -> list[str]:
    """``line: name`` of each import kept for bench/ that the bench text never reaches."""
    def reached(name):
        target = rf"\(\s*{module}\s*,\s*[\"']{re.escape(name)}[\"']"
        return re.search(target, bench) or re.search(rf"\b{module}\.{re.escape(name)}\b", bench)

    return [f"{line}: {name}" for line, names, for_bench in imports(source) if for_bench
            for name in names if not reached(name)]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("test_module", TESTS)
def test_no_unused_imports_in_tests(test_module):
    assert unused_imports((ROOT / "tests" / test_module).read_text(encoding="utf-8")) == []


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


@pytest.mark.parametrize("module", MODULES)
def test_no_stale_bench_markers(module):
    assert stale_bench_markers((SRC / module).read_text(encoding="utf-8")) == []


def test_stale_marker_check_flags_what_it_should():
    source = (
        "from .forms import eval_form  # noqa: F401  (unused; bench/tracing.py wraps it)\n"
        "from .profile import eval_profile  # noqa: F401  (unused; bench/tracing.py wraps it)\n"
        "from .chart import rho  # noqa: F401\n"
        "def f(kind, p):\n"
        "    return eval_form(kind, p).m + rho(p)\n"
    )
    assert stale_bench_markers(source) == ["1: eval_form"]


@pytest.mark.parametrize("module", MODULES)
def test_bench_imports_are_reached(module):
    bench = "\n".join(p.read_text(encoding="utf-8") for p in sorted((ROOT / "bench").glob("*.py")))
    source = (SRC / module).read_text(encoding="utf-8")
    assert unreached_bench_imports(module.removesuffix(".py"), source, bench) == []


def test_reach_check_flags_what_it_should():
    source = (
        "from .forms import eval_form  # noqa: F401  (unused; bench/tracing.py wraps it)\n"
        "from .profile import eval_profile  # noqa: F401  (unused; bench/tracing.py wraps it)\n"
        "from .metricgeom import _max_workers  # noqa: F401  (unused; bench/worker.py calls it)\n"
        "from .chart import rho  # noqa: F401  (unused; bench/tracing.py wraps it)\n"
        "from .chart import contract\n"
    )
    bench = (
        'TARGETS = [(cli, "eval_form", "forms.eval"), (metricgeom, "rho", "chart")]\n'
        "width = cli._max_workers()\n"
        "profile.eval_profile(params, 0.0)\n"  # another module's name
        "cli.rho_max\n"  # a longer name
    )
    assert unreached_bench_imports("cli", source, bench) == ["2: eval_profile", "4: rho"]


def bench_reaches(source: str) -> set[tuple[str, str]]:
    """(module path, name) of each package name that one bench file reaches.

    A name is reached as ``module.name``, as a ``(module, "name", ...)`` wrap
    target or ``_replace(module, "name", ...)`` argument pair, or by
    ``from conifold_lab.module import name``; ``module`` is bound by
    ``import conifold_lab`` or ``from conifold_lab import module``.
    """
    tree = ast.parse(source)
    modules, reached = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update((a.asname or a.name, a.name) for a in node.names if a.name == "conifold_lab")
        elif isinstance(node, ast.ImportFrom) and node.module == "conifold_lab":
            modules.update((a.asname or a.name, f"conifold_lab.{a.name}") for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("conifold_lab."):
            reached.update((node.module, a.name) for a in node.names)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            owner, name = node.value.id, node.attr
        elif isinstance(node, (ast.Tuple, ast.Call)):
            args = node.elts if isinstance(node, ast.Tuple) else node.args
            if len(args) < 2 or not isinstance(args[0], ast.Name) or not isinstance(args[1], ast.Constant):
                continue
            owner, name = args[0].id, args[1].value
        else:
            continue
        if owner in modules and isinstance(name, str):
            reached.add((modules[owner], name))
    return reached


def bench_reached() -> set[tuple[str, str]]:
    return set().union(*(bench_reaches(p.read_text(encoding="utf-8"))
                         for p in sorted((ROOT / "bench").glob("*.py"))))


def test_names_bench_reaches_exist():
    reached = bench_reached()
    assert reached
    missing = sorted(f"{module}.{name}" for module, name in reached
                     if not hasattr(importlib.import_module(module), name))
    assert missing == []


def test_bench_reach_finds_each_form():
    bench = (
        "import conifold_lab\n"
        "from conifold_lab import cli, metricgeom as mg\n"
        "from conifold_lab.chart import ResolvedPoint\n"
        "TARGETS = [(mg, 'sample_domain', 'metricgeom.sample_domain'), (other, 'x', 'y')]\n"
        "tracer._replace(cli, '_pmap', wrap(cli._pmap))\n"
        "width = cli._max_workers(); here = conifold_lab.__file__; mg.RHO_DEPTH\n"
        "np.pi\n"
    )
    assert bench_reaches(bench) == {
        ("conifold_lab.chart", "ResolvedPoint"),
        ("conifold_lab.metricgeom", "sample_domain"),
        ("conifold_lab.metricgeom", "RHO_DEPTH"),
        ("conifold_lab.cli", "_pmap"),
        ("conifold_lab.cli", "_max_workers"),
        ("conifold_lab", "__file__"),
    }


def definitions(statement: ast.stmt) -> list[str]:
    """Names a top-level def, class or assignment binds (imports are F401's)."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def unread_names(sources: dict[str, str], bench: set[tuple[str, str]]) -> list[str]:
    """``module.name`` of each top-level name that no module reads and bench/ does not reach.

    ``sources`` maps each module's name (``__init__`` for the package) to its
    text, and ``bench`` holds (module, name) pairs.  A module reads its own
    names by their bare name outside their definition, and another module's
    through ``from .module import name`` or ``from . import module`` and
    ``module.name``.
    """
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        aliases = {a.asname or a.name: (node.module or "__init__", a.name) for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.level == 1 for a in node.names}
        for statement in tree.body:
            own = definitions(statement)
            defined += [(module, name) for name in own]
            for node in ast.walk(statement):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in own:
                    read.add(aliases.get(node.id, (module, node.id)))
                elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                    owner, name = aliases.get(node.value.id, (None, None))
                    if owner == "__init__":  # ``from . import module``, then ``module.name``
                        read.add((name, node.attr))
    read |= bench
    return [f"{module}.{name}" for module, name in defined if (module, name) not in read]


def test_every_name_is_read_or_reached():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    bench = {(module.partition(".")[2] or "__init__", name) for module, name in bench_reached()}
    assert unread_names(sources, bench) == []


def test_unread_check_flags_what_it_should():
    sources = {
        "__init__": '__version__ = "1"\n',
        "a": (
            "from . import b\n"
            "from .b import used\n"
            "BENCH_ONLY = 2\n"
            "helper = 3\n"
            "def own_only(n):\n"
            "    return own_only(n - 1) if n else helper\n"  # reads itself only
            "def main():\n"
            "    return used() + b.attr_read\n"
            "if __name__ == '__main__':\n"
            "    main()\n"
        ),
        "b": (
            "from . import __version__\n"
            "def used():\n"
            "    return __version__\n"
            "attr_read = 1\n"
            "class Lonely:\n"
            "    def again(self):\n"
            "        return Lonely\n"  # reads itself only
        ),
    }
    assert unread_names(sources, {("a", "BENCH_ONLY")}) == ["a.own_only", "b.Lonely"]
