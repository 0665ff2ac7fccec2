"""Regrowth guard: every ``repro`` module and definition has a caller.

The library keeps only code that an entry point or a consumer reaches.
The entry points are the CLI and the E1..E8 registry; the consumers are
``perfbench/``, ``benchmarks/``, ``examples/`` and the inline
``python -c`` scripts of the CI workflow.  ``tests/`` is not a consumer:
code that only tests call is dead.  Everything is read with ``ast``; no
module is executed.

Two gates share one allow-list, :data:`ALLOWED_UNREACHED`:

* **Modules.**  The import graph is rebuilt from the entry points and the
  consumers.  ``from pkg import name`` is resolved through
  ``pkg/__init__.py`` to the module that defines ``name``, so a module
  whose only importer is its own package ``__init__`` (a re-export nobody
  uses) counts as unreached.  A package's other re-exports are not
  followed unless the package object itself is imported.
* **Definitions.**  Every top-level function and class under ``src/repro``
  and every method of those classes is a unit.  A unit is reached when
  its name is used -- as a loaded name, an attribute, an import or a
  string constant (registries, ``getattr``) -- by module-level code, by a
  reached unit (a fixed point: a helper whose only caller is dead is
  dead), or by a consumer.  ``__all__`` entries and package ``__init__``
  re-exports are not uses.  A method also needs its class reached.
  Dunder methods and the HTTP hooks in :data:`HOOKS` always count.

A third gate keeps knobs out, with its own allow-list
:data:`ALLOWED_DEFAULTS`:

* **Parameters.**  Every parameter with a default on a reached public
  function or public class ``__init__`` under :data:`GATED_PACKAGES`
  must be passed -- by keyword or by position, ``cls(...)`` and
  ``functools.partial`` included -- by library code or a consumer.
  Calls are matched by name, like the definition gate; a ``**mapping``
  splat passes nothing the scan can see.  Passing a caller's own gated
  parameter straight through counts only once that parameter is passed
  itself.  A value nobody sets is a module constant (tests monkeypatch
  those), not a parameter.

The same file pins ruff's F822 gate (undefined names in ``__all__``) and
its F401 gate (unused imports outside package ``__init__`` files), since
the lint job is not runnable everywhere the tests are.
"""

from __future__ import annotations

import ast
import importlib
import re
import textwrap
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Set, Tuple

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent
ROOT = SRC.parent.parent
PERFBENCH = ROOT / "perfbench"
#: Trees outside the library whose code counts as a use.
CONSUMERS = ("perfbench", "benchmarks", "examples")
#: The workflow whose inline ``python -c`` scripts count as consumers.
CI_WORKFLOW = Path(".github") / "workflows" / "ci.yml"
#: The trees the lint job checks (``ruff check src tests benchmarks examples``).
LINTED = [ROOT / name for name in ("src", "tests", "benchmarks", "examples")]

#: Methods the standard library calls by name (``http.server`` handlers).
HOOKS = frozenset({"do_GET", "do_POST", "log_message"})

#: Unreached on purpose: module or definition -> why it stays.  An entry
#: covers everything defined under it, and the code it calls counts as
#: reached.  Drop an entry once it gains a caller (the test says so).
ALLOWED_UNREACHED = {
    "repro.adversaries.greedy.score_tree": (
        "single-candidate reference that tests pin the batched "
        "engine.batch.score_candidates against"
    ),
    "repro.adversaries.zeiner.quadratic_potential_score": (
        "score formula that test_golden_tstar pins the prefix-sum cyclic scorer against"
    ),
    "repro.adversaries.zeiner.CyclicFamilyAdversary._candidate_parent_matrix": (
        "candidate pool that test_golden_tstar scores with the reference formula"
    ),
    "repro.core.state.BroadcastState.heard_of_set": (
        "matrix side of the tests/heard_of.py message-passing oracle"
    ),
    "repro.analysis.certificates.certify_adversary_run": (
        "ROADMAP item 4 (certify the exact values) gives the certificate checkers a caller"
    ),
    "repro.analysis.certificates.certify_lower_bound_witness": (
        "ROADMAP item 4 (certify the exact values) gives the certificate checkers a caller"
    ),
    "repro.core.theorem.check_exact_value": (
        "ROADMAP item 4 decides it together with the certificate checkers"
    ),
    "repro.core.broadcast.verify_certificate": (
        "ROADMAP item 4 decides it together with the certificate checkers"
    ),
    "repro.analysis.intervals.as_cyclic_interval": (
        "ROADMAP item 10 runs it on every reach set along the schedule"
    ),
    "repro.experiments.registry.run_all": (
        "ROADMAP item 3 adds a test that run_all() passes every check"
    ),
}


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


def ci_scripts(root: Path = ROOT) -> List[str]:
    """The CI workflow's inline ``python -c "..."`` scripts, dedented."""
    workflow = root / CI_WORKFLOW
    if not workflow.exists():
        return []
    text = workflow.read_text(encoding="utf-8")
    return [
        textwrap.dedent(m.group(1))
        for m in re.finditer(r'python3? -c "(.*?)"', text, re.DOTALL)
    ]


def consumer_sources(root: Path = ROOT) -> List[str]:
    """Source text of every consumer: the consumer trees' files, then the
    CI workflow's inline scripts."""
    files = [
        path.read_text(encoding="utf-8")
        for name in CONSUMERS
        for path in sorted((root / name).rglob("*.py"))
    ]
    return files + ci_scripts(root)


CONSUMER_SOURCES = consumer_sources()


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
    return ["repro.cli", "repro.experiments.registry"]


def reachable_modules() -> Set[str]:
    scan = _Scan()
    for entry in _entry_points():
        scan.reach(entry)
    for source in CONSUMER_SOURCES:
        for module, name in _imports(ast.parse(source), ""):
            scan.follow(module, name)
    return scan.run()


def test_perfbench_imports_are_scanned():
    """Consumer imports are roots: perfbench/ is read, and a module only an
    example imports counts as reached."""
    assert PERFBENCH.is_dir(), PERFBENCH
    sources = set(CONSUMER_SOURCES)
    assert all(p.read_text(encoding="utf-8") in sources for p in PERFBENCH.glob("*.py"))
    # imported only by examples/lower_bound_demo.py
    assert "repro.analysis.certificates" in reachable_modules()


def test_every_module_is_reachable_from_an_entry_point():
    reached = reachable_modules()
    unreached = sorted(
        name
        for name in MODULES
        if name not in PACKAGES and name not in reached and name not in ALLOWED_UNREACHED
    )
    assert not unreached, (
        "modules no entry point (CLI, experiment registry) or consumer "
        "(perfbench, benchmarks, examples, CI scripts) imports -- delete "
        "them or give them a caller: " + ", ".join(unreached)
    )


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
# Definitions
# ----------------------------------------------------------------------

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


class Unit(NamedTuple):
    """One function, class or method; ``code`` is what runs when it is used."""

    name: str
    parent: Optional[str]  # the class qualname, for a method
    code: List[ast.AST]
    where: str


def _uses(nodes: Iterable[ast.AST]) -> Set[str]:
    """Names, attributes, imported names and string constants in ``nodes``."""
    used: Set[str] = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                used.add(sub.id)
            elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                used.add(sub.attr)
            elif isinstance(sub, (ast.Import, ast.ImportFrom)):
                used.update(alias.name.split(".")[-1] for alias in sub.names)
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                used.add(sub.value)
    return used


def _is_dunder_all(stmt: ast.stmt) -> bool:
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def library_units(library: Dict[str, str]) -> Tuple[Dict[str, Unit], List[ast.AST]]:
    """``(units by qualname, module-level code)`` of ``module -> source``.

    Module-level code leaves out ``__all__`` and, in a package
    ``__init__``, the ``from`` imports (re-exports).
    """
    units: Dict[str, Unit] = {}
    module_code: List[ast.AST] = []
    for module, source in library.items():
        is_package = module.endswith("__init__")
        module = module[: -len(".__init__")] if is_package else module
        for stmt in ast.parse(source).body:
            qual = f"{module}.{getattr(stmt, 'name', '')}"
            where = f"{module}:{stmt.lineno}"
            if isinstance(stmt, _DEFS):
                units[qual] = Unit(stmt.name, None, [stmt], where)
            elif isinstance(stmt, ast.ClassDef):
                own: List[ast.AST] = [*stmt.decorator_list, *stmt.bases, *stmt.keywords]
                for item in stmt.body:
                    if isinstance(item, _DEFS):
                        units[f"{qual}.{item.name}"] = Unit(
                            item.name, qual, [item], f"{module}:{item.lineno}"
                        )
                    else:
                        own.append(item)
                units[qual] = Unit(stmt.name, None, own, where)
            elif _is_dunder_all(stmt) or (is_package and isinstance(stmt, ast.ImportFrom)):
                continue
            else:
                module_code.append(stmt)
    return units, module_code


def _covered(qual: str, allowed: Iterable[str]) -> bool:
    """True when ``qual`` or a dotted prefix of it is in ``allowed``."""
    return any(qual == entry or qual.startswith(entry + ".") for entry in allowed)


def reached_units(
    units: Dict[str, Unit],
    module_code: List[ast.AST],
    consumers: Iterable[str],
    allowed: Iterable[str] = (),
) -> Set[str]:
    """Qualnames of the reached units; units ``allowed`` covers are roots."""
    allowed = list(allowed)
    used = _uses(module_code)
    for source in consumers:
        used |= _uses([ast.parse(source)])
    reached: Set[str] = set()
    grew = True
    while grew:
        grew = False
        for qual, unit in units.items():
            if qual in reached:
                continue
            if not _covered(qual, allowed):
                if unit.parent is not None and unit.parent not in reached:
                    continue
                hook = unit.parent is not None and (
                    unit.name in HOOKS or (unit.name.startswith("__") and unit.name.endswith("__"))
                )
                if not (hook or unit.name in used):
                    continue
            reached.add(qual)
            used |= _uses(unit.code)
            grew = True
    return reached


def unreached_definitions(
    library: Dict[str, str], consumers: Iterable[str], allowed: Iterable[str] = ()
) -> List[str]:
    """``qualname (module:line)`` of every unreached unit whose class, if
    any, is reached (a dead class's methods are not listed again)."""
    units, module_code = library_units(library)
    reached = reached_units(units, module_code, consumers, allowed)
    return sorted(
        f"{qual} ({unit.where})"
        for qual, unit in units.items()
        if qual not in reached and (unit.parent is None or unit.parent in reached)
    )


def library_sources(src: Path = SRC) -> Dict[str, str]:
    """``module -> source`` under ``src``; package inits keep ``.__init__``."""
    return {
        ".".join(path.relative_to(src.parent).with_suffix("").parts): path.read_text(
            encoding="utf-8"
        )
        for path in sorted(src.rglob("*.py"))
    }


def test_every_definition_is_reached():
    unreached = unreached_definitions(library_sources(), CONSUMER_SOURCES, ALLOWED_UNREACHED)
    assert not unreached, (
        "definitions only tests call -- delete them (with their tests) or "
        "give them a caller:\n" + "\n".join(unreached)
    )


def test_allowed_exceptions_are_still_unreached():
    # Once an allowed module or definition gains a caller, drop it from the list.
    units, module_code = library_units(library_sources())
    reached = reached_units(units, module_code, CONSUMER_SOURCES)
    modules = reachable_modules()
    for entry in ALLOWED_UNREACHED:
        if entry in MODULES:
            assert entry not in modules, f"{entry} is reached; drop it from ALLOWED_UNREACHED"
        else:
            assert entry in units, f"{entry} names no definition; drop it from ALLOWED_UNREACHED"
            assert entry not in reached, f"{entry} is reached; drop it from ALLOWED_UNREACHED"


def test_ci_inline_scripts_are_scanned():
    units, _ = library_units(library_sources())
    reached = reached_units(units, [], ci_scripts())
    assert "repro.obs.metrics.parse_prometheus" in reached  # obs-smoke's parser check


_SYNTHETIC = {
    "src/repro/__init__.py": """
from repro.lib import only_in_all
__all__ = ["only_in_all"]
""",
    "src/repro/lib.py": '''
def used_by_tests():
    pass

def used_by_example():
    return helper_of_example()

def helper_of_example():
    pass

def only_in_all():
    pass

def dead_caller():
    return only_via_dead_caller()

def only_via_dead_caller():
    pass

class Handlers:
    def __init__(self):
        self.table = HANDLERS

    def by_string(self):
        pass

    def unnamed(self):
        pass

class Unused:
    def __init__(self):
        only_from_dead_class()

def only_from_dead_class():
    pass

HANDLERS = {"go": "by_string"}
DEFAULT = Handlers()
''',
    "tests/test_lib.py": """
from repro.lib import used_by_tests
used_by_tests()
""",
    "examples/demo.py": """
from repro.lib import used_by_example
used_by_example()
""",
}


def test_definition_scan_on_synthetic_sources(tmp_path):
    for rel, source in _SYNTHETIC.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    found = unreached_definitions(
        library_sources(tmp_path / "src" / "repro"), consumer_sources(tmp_path)
    )
    assert [entry.split(" ")[0] for entry in found] == [
        "repro.lib.Handlers.unnamed",  # methods are units too
        "repro.lib.Unused",  # its __init__ counts only once the class is reached
        "repro.lib.dead_caller",  # a caller nothing calls
        "repro.lib.only_from_dead_class",
        "repro.lib.only_in_all",  # __all__ and re-exports are not uses
        "repro.lib.only_via_dead_caller",  # reached only through a dead caller
        "repro.lib.used_by_tests",  # tests/ is not a consumer
    ]


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


# ----------------------------------------------------------------------
# Parameters with defaults
# ----------------------------------------------------------------------

#: Packages whose public signatures the parameter gate checks.
GATED_PACKAGES = ("repro.engine", "repro.service", "repro.core")

#: Defaulted parameters no caller sets, kept on purpose: ``qualname.param``
#: (a class means its ``__init__``) -> why it stays.  Drop an entry once
#: non-test code or a consumer passes the parameter (the test says so).
ALLOWED_DEFAULTS = {
    "repro.service.fleet.WorkQueue.clock": (
        "test injection point: a virtual clock drives lease expiry"
    ),
    "repro.service.tenancy.TenantRegistry.clock": (
        "test injection point: a virtual clock drives token-bucket refill"
    ),
    "repro.service.server.ServiceServer.log_stream": (
        "test injection point: tests capture the access log in a StringIO"
    ),
}


class Param(NamedTuple):
    """One defaulted parameter: ``target`` is what callers call it by."""

    qual: str  # "module.func.param" or "module.Class.param"
    target: str
    name: str
    position: Optional[int]  # None for keyword-only
    where: str


def _defaulted(fn: ast.FunctionDef, skip_self: bool) -> Iterator[Tuple[str, Optional[int]]]:
    """``(name, position)`` of every defaulted parameter of ``fn``."""
    positional = [*fn.args.posonlyargs, *fn.args.args][1 if skip_self else 0 :]
    first = len(positional) - len(fn.args.defaults)
    for i, arg in enumerate(positional):
        if i >= first:
            yield arg.arg, i
    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def gated_params(units: Dict[str, Unit], reached: Set[str]) -> Dict[str, Param]:
    """Defaulted parameters of the reached public functions and public
    class ``__init__`` methods under :data:`GATED_PACKAGES`."""
    params: Dict[str, Param] = {}
    for qual, unit in units.items():
        if qual not in reached or not qual.startswith(GATED_PACKAGES):
            continue
        fn = unit.code[0] if unit.code else None
        if not isinstance(fn, _DEFS):
            continue  # a class: its __init__ is the unit
        if unit.parent is None:
            owner, target, skip_self = qual, unit.name, False
        elif unit.name == "__init__":
            owner = unit.parent
            target, skip_self = owner.rsplit(".", 1)[1], True
        else:
            continue
        if target.startswith("_"):
            continue
        for name, position in _defaulted(fn, skip_self):
            params[f"{owner}.{name}"] = Param(f"{owner}.{name}", target, name, position, unit.where)
    return params


class _Pass(NamedTuple):
    """One call site passing ``name`` to ``target``; ``forwards`` names the
    caller's own parameter when the argument is just that parameter."""

    target: str
    name: Optional[str]  # None: a positional slot, see ``position``
    position: int  # -1: a keyword, or a ``*args`` that may fill any slot
    forwards: Optional[str]


class _CallScan(ast.NodeVisitor):
    """Every call site's passed arguments, with the enclosing scope."""

    def __init__(self, module: str) -> None:
        self.passes: List[_Pass] = []
        self._module = module
        self._classes: List[str] = []
        self._scopes: List[Tuple[str, Set[str]]] = []

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._classes.append(node.name)
        self.generic_visit(node)
        self._classes.pop()

    def _visit_def(self, node: ast.AST) -> None:
        args = node.args
        names = {a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]}
        # An __init__'s parameters are gated under its class.
        owner = ".".join([self._module, *self._classes])
        if node.name != "__init__":
            owner = f"{owner}.{node.name}"
        self._scopes.append((owner, names))
        self.generic_visit(node)
        self._scopes.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = _visit_def

    def _forwarded(self, value: ast.AST) -> Optional[str]:
        if isinstance(value, ast.Name) and self._scopes:
            owner, names = self._scopes[-1]
            if value.id in names:
                return f"{owner}.{value.id}"
        return None

    def visit_Call(self, node: ast.Call) -> None:
        func, args, keywords = node.func, list(node.args), node.keywords
        if isinstance(func, (ast.Name, ast.Attribute)) and (
            getattr(func, "id", None) == "partial" or getattr(func, "attr", None) == "partial"
        ) and args:
            func, args = args[0], args[1:]  # functools.partial(f, ...) calls f
        target = getattr(func, "id", None) or getattr(func, "attr", None)
        if target == "cls" and self._classes:
            target = self._classes[-1]
        if target is not None:
            for i, arg in enumerate(args):
                if isinstance(arg, ast.Starred):
                    self.passes.append(_Pass(target, None, -1, None))  # fills any slot
                    break
                self.passes.append(_Pass(target, None, i, self._forwarded(arg)))
            for kw in keywords:
                if kw.arg is not None:
                    self.passes.append(_Pass(target, kw.arg, -1, self._forwarded(kw.value)))
        self.generic_visit(node)


def call_passes(sources: Dict[str, str]) -> List[_Pass]:
    """Every argument passed at a call site in ``module -> source``."""
    passes: List[_Pass] = []
    for module, source in sources.items():
        scan = _CallScan(module[: -len(".__init__")] if module.endswith(".__init__") else module)
        scan.visit(ast.parse(source))
        passes.extend(scan.passes)
    return passes


def unpassed_params(
    params: Dict[str, Param], passes: Iterable[_Pass], allowed: Iterable[str] = ()
) -> List[str]:
    """Gated parameters no call site passes, as ``qual (module:line)``.

    A pass that only forwards the caller's own gated parameter counts once
    that parameter is passed itself (a fixed point, like the definition
    gate): ``f(x=x)`` in a ``g(x=...)`` nobody passes ``x`` to is no use.
    ``allowed`` parameters count as passed.
    """
    passes = list(passes)
    passed = set(allowed) & set(params)

    def hits(param: Param, p: _Pass) -> bool:
        if p.target != param.target:
            return False
        if p.name is not None:
            return p.name == param.name
        return param.position is not None and (p.position == -1 or p.position == param.position)

    grew = True
    while grew:
        grew = False
        for qual, param in params.items():
            if qual in passed:
                continue
            if any(
                hits(param, p) and (p.forwards not in params or p.forwards in passed)
                for p in passes
            ):
                passed.add(qual)
                grew = True
    return sorted(f"{qual} ({param.where})" for qual, param in params.items() if qual not in passed)


def _non_test_sources() -> Dict[str, str]:
    sources = dict(library_sources())
    sources.update({f"consumer{i}": source for i, source in enumerate(CONSUMER_SOURCES)})
    return sources


def _params() -> Dict[str, Param]:
    units, module_code = library_units(library_sources())
    return gated_params(units, reached_units(units, module_code, CONSUMER_SOURCES, ALLOWED_UNREACHED))


def test_every_default_is_set_by_a_caller():
    unpassed = unpassed_params(_params(), call_passes(_non_test_sources()), ALLOWED_DEFAULTS)
    assert not unpassed, (
        "defaulted parameters no non-test caller sets -- make them module "
        "constants (tests monkeypatch those) or allow-list them with a "
        "reason:\n" + "\n".join(unpassed)
    )


def test_allowed_defaults_are_still_unpassed():
    params = _params()
    unpassed = {
        entry.split(" ")[0] for entry in unpassed_params(params, call_passes(_non_test_sources()))
    }
    for entry in ALLOWED_DEFAULTS:
        assert entry in params, f"{entry} names no gated parameter; drop it from ALLOWED_DEFAULTS"
        assert entry in unpassed, f"{entry} has a caller; drop it from ALLOWED_DEFAULTS"


_SYNTHETIC_PARAMS = {
    "repro.engine.lib": """
def public(a, by_key=1, by_pos=2, unset=3, *, kw_only=4):
    pass

def _private(unset=1):
    pass

class Thing:
    def __init__(self, size=1, via_cls=2, unset=3):
        pass

    @classmethod
    def make(cls):
        return cls(via_cls=5)

def forwarder(by_key=1, unset=2):
    return Thing(size=by_key, unset=unset)

def dead(unset=1):
    pass

public(0, by_key=1)
public(0, 1, 2)
forwarder(by_key=3)
Thing.make()
""",
    "repro.service.other": """
from functools import partial

def late(first=1, second=2):
    pass

run = partial(late, second=3)
run(kw_only=1)
""",
}


def test_parameter_scan_on_synthetic_sources():
    units, module_code = library_units(_SYNTHETIC_PARAMS)
    units.pop("repro.engine.lib.dead")  # an unreached function is not gated
    reached = reached_units(units, module_code, [])
    params = gated_params(units, reached)
    found = [entry.split(" ")[0] for entry in unpassed_params(params, call_passes(_SYNTHETIC_PARAMS))]
    assert found == [
        "repro.engine.lib.Thing.unset",  # forwarded from a parameter nobody passes
        "repro.engine.lib.forwarder.unset",
        "repro.engine.lib.public.kw_only",  # a keyword to another function
        "repro.engine.lib.public.unset",
        "repro.service.other.late.first",
    ]
    allowed = ["repro.engine.lib.forwarder.unset"]
    found = [
        entry.split(" ")[0]
        for entry in unpassed_params(params, call_passes(_SYNTHETIC_PARAMS), allowed)
    ]
    assert "repro.engine.lib.Thing.unset" not in found  # the allowed value flows on
