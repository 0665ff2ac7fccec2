"""Regrowth guard: every ``repro`` module is reachable from an entry point.

The library keeps only code that a pinned entry point loads: the CLI, the
E1..E8 registry, the service modules and whatever ``perfbench/`` imports.
This test rebuilds the import graph from the source with ``ast`` (no
module is executed) and fails with the list of unreached modules.

``from pkg import name`` is resolved through ``pkg/__init__.py`` to the
module that defines ``name``, so a module whose only importer is its own
package ``__init__`` (a re-export nobody uses) counts as unreached.  A
package's other re-exports are not followed unless the package object
itself is imported.

The same file pins ruff's F822 gate (undefined names in ``__all__``) and
its F401 gate (unused imports outside package ``__init__`` files), since
the lint job is not runnable everywhere the tests are.
"""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent
ROOT = SRC.parent.parent
PERFBENCH = ROOT / "perfbench"
#: The trees the lint job checks (``ruff check src tests benchmarks examples``).
LINTED = [ROOT / name for name in ("src", "tests", "benchmarks", "examples")]

# Unreached on purpose.  ROADMAP open item 4 gives the certificate
# checkers a pinned caller (E3 replays its optimal sequence through
# ``certify_sequence``); until that lands the module stays.
ALLOWED_UNREACHED = {"repro.analysis.certificates"}


def _module_files() -> Dict[str, Path]:
    """Dotted module name -> source file, for every module under ``repro``."""
    modules = {}
    for path in sorted(SRC.rglob("*.py")):
        parts = list(path.relative_to(SRC.parent).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        modules[".".join(parts)] = path
    return modules


MODULES = _module_files()
PACKAGES = {name for name, path in MODULES.items() if path.name == "__init__.py"}


def _absolute(module: Optional[str], level: int, current: str) -> str:
    """Resolve a (possibly relative) ``from`` target against ``current``."""
    if not level:
        return module or ""
    base = current.split(".")
    if current not in PACKAGES:
        base = base[:-1]
    base = base[: len(base) - (level - 1)]
    return ".".join(base + ([module] if module else []))


def _imports(tree: ast.AST, current: str) -> List[Tuple[str, Optional[str]]]:
    """Every import in ``tree`` as ``(module, name)``; ``name`` is None for
    ``import module``.  Function-level imports count too."""
    found: List[Tuple[str, Optional[str]]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.extend((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            target = _absolute(node.module, node.level, current)
            found.extend((target, alias.name) for alias in node.names)
    return found


def _parse(name: str) -> ast.AST:
    return ast.parse(MODULES[name].read_text(encoding="utf-8"))


def _init_bindings(package: str) -> Dict[str, Tuple[str, str]]:
    """Names a package ``__init__`` re-exports: ``name -> (module, attr)``."""
    bindings = {}
    for node in ast.walk(_parse(package)):
        if isinstance(node, ast.ImportFrom):
            target = _absolute(node.module, node.level, package)
            for alias in node.names:
                bindings[alias.asname or alias.name] = (target, alias.name)
    return bindings


class _Scan:
    def __init__(self) -> None:
        self.reached: Set[str] = set()
        self._queue: List[str] = []

    def reach(self, module: str) -> None:
        """Mark ``module`` and its parent packages loaded."""
        parts = module.split(".")
        for i in range(1, len(parts) + 1):
            name = ".".join(parts[:i])
            if name in MODULES and name not in self.reached:
                self.reached.add(name)
                # A package reached only as a parent is not scanned: its
                # re-exports are resolved per name in ``reach_name``.
                if name not in PACKAGES or i == len(parts):
                    self._queue.append(name)

    def reach_name(self, module: str, name: str) -> None:
        """``from module import name``, resolved through package inits."""
        submodule = f"{module}.{name}"
        if submodule in MODULES:
            self.reach(submodule)
        elif module in PACKAGES and name in _init_bindings(module):
            self.reached.add(module)
            self.reach_name(*_init_bindings(module)[name])
        else:
            self.reach(module)

    def follow(self, module: str, name: Optional[str]) -> None:
        """Follow one ``(module, name)`` import edge."""
        if name is None or name == "*":
            self.reach(module)
        else:
            self.reach_name(module, name)

    def run(self) -> Set[str]:
        while self._queue:
            current = self._queue.pop()
            for module, name in _imports(_parse(current), current):
                self.follow(module, name)
        return self.reached


def _entry_points() -> List[str]:
    entries = ["repro.cli", "repro.experiments.registry"]
    entries += sorted(m for m in MODULES if m.startswith("repro.service."))
    return entries


def reachable_modules() -> Set[str]:
    scan = _Scan()
    for entry in _entry_points():
        scan.reach(entry)
    for script in sorted(PERFBENCH.glob("*.py")):
        for module, name in _imports(ast.parse(script.read_text(encoding="utf-8")), ""):
            scan.follow(module, name)
    return scan.run()


def test_perfbench_imports_are_scanned():
    assert PERFBENCH.is_dir(), PERFBENCH
    reached = reachable_modules()
    assert "repro.core.kernels" in reached  # imported only by perfbench/run.py


def test_every_module_is_reachable_from_an_entry_point():
    reached = reachable_modules()
    unreached = sorted(
        name
        for name in MODULES
        if name not in PACKAGES and name not in reached and name not in ALLOWED_UNREACHED
    )
    assert not unreached, (
        "modules no entry point (CLI, experiment registry, service, "
        "perfbench) imports -- delete them or give them a caller: "
        + ", ".join(unreached)
    )


def test_allowed_exceptions_are_still_unreached():
    # Once an allowed module gains a caller, drop it from the list.
    assert not ALLOWED_UNREACHED & reachable_modules()


def test_reexport_only_module_counts_as_unreached():
    """A module imported solely by its package ``__init__`` is not reached."""
    scan = _Scan()
    scan.reach_name("repro.trees", "RootedTree")
    reached = scan.run()
    assert "repro.trees.rooted_tree" in reached
    assert "repro.trees.generators" not in reached


@pytest.mark.parametrize("module", sorted(MODULES))
def test_dunder_all_entries_resolve(module):
    """Every ``__all__`` entry names a real attribute (ruff F822)."""
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names undefined {missing}"


# ----------------------------------------------------------------------
# Unused imports (ruff F401)
# ----------------------------------------------------------------------

_NOQA = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z0-9,\s]+))?", re.IGNORECASE)


def _noqa_f401(line: str) -> bool:
    match = _NOQA.search(line)
    return bool(match) and (
        match.group("codes") is None or "F401" in match.group("codes").upper()
    )


def _names_in(node: ast.AST, quoted: bool) -> Set[str]:
    """Names a subtree loads (assignment and ``del`` targets are not
    uses); with ``quoted``, string constants are parsed as expressions too
    (quoted annotations such as ``"RunReport"``)."""
    names: Set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif quoted and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                names |= _names_in(ast.parse(sub.value, mode="eval"), quoted)
            except SyntaxError:
                pass
    return names


def _used_names(tree: ast.AST) -> Set[str]:
    """Every name ``tree`` uses, in code, quoted annotations or ``__all__``."""
    used = _names_in(tree, quoted=False)
    for node in ast.walk(tree):
        annotation = None
        if isinstance(node, ast.arg):
            annotation = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns
        elif isinstance(node, ast.AnnAssign):
            annotation = node.annotation
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {
                c.value
                for c in ast.walk(node.value)
                if isinstance(c, ast.Constant) and isinstance(c.value, str)
            }
        if annotation is not None:
            used |= _names_in(annotation, quoted=True)
    return used


def _scope_imports(scope: ast.AST) -> Iterator[ast.stmt]:
    """Import statements of one scope, not of the functions nested in it."""
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))


def unused_imports(source: str) -> List[Tuple[int, str]]:
    """``(line, name)`` for every import binding its scope never uses.

    A module-level import counts as used anywhere in the file, a
    function-level one only inside its function.  ``__future__`` imports,
    star imports and lines marked ``# noqa`` (bare or naming F401) are
    skipped.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    found = []
    scopes = [tree] + [
        n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    for scope in scopes:
        used = _used_names(scope)
        for node in _scope_imports(scope):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if alias.name == "*" or name in used:
                    continue
                if _noqa_f401(lines[alias.lineno - 1]) or _noqa_f401(lines[node.lineno - 1]):
                    continue
                found.append((alias.lineno, name))
    return sorted(found)


def test_unused_import_scan():
    source = """
from typing import TYPE_CHECKING, List, Optional
import os.path
import json  # noqa: F401
import re  # noqa: E402
if TYPE_CHECKING:
    from collections import OrderedDict
    from pathlib import Path

def f(x: "Optional[OrderedDict[str, int]]") -> None:
    import sys
    import time
    v: "List[int]" = os.path.join(time.ctime())

def g():
    return sys

from os import sep
sep = "/"
"""
    assert unused_imports(source) == [(5, "re"), (8, "Path"), (11, "sys"), (18, "sep")]


def test_no_unused_imports():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for root in LINTED
        for path in sorted(root.rglob("*.py"))
        if path.name != "__init__.py"
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert not found, "unused imports (ruff F401):\n" + "\n".join(found)
