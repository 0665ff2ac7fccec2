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

The same file pins ruff's F822 gate (undefined names in ``__all__``),
since the lint job is not runnable everywhere the tests are.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent
PERFBENCH = SRC.parent.parent / "perfbench"

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
