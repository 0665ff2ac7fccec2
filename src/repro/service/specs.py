"""Declarative simulation specs: registry, canonical form, content digests.

A *spec* is a plain JSON document describing one broadcast run::

    {"adversary": "rotating-path", "params": {"shift": 2},
     "n": 512, "seed": 0, "max_rounds": null, "backend": "bitset"}

The registry maps adversary names to the portfolio's factories together
with a typed parameter schema, so a spec can be validated, completed with
defaults, and *canonicalized*: two specs that describe the same run --
whatever their key order, and whether defaults are spelled out or
omitted -- canonicalize to the identical document and therefore hash to
the identical content digest.  The digest is the address everything
downstream keys on: the result cache, in-flight dedup in the scheduler,
and the HTTP job API.

Canonicalization rules (what "same run" means):

* unknown adversaries, unknown params, and wrongly-typed values are
  rejected with :class:`~repro.errors.SpecError` -- a digest never exists
  for an invalid spec;
* omitted params / ``seed`` / ``max_rounds`` are filled with their
  registry defaults, so ``{"adversary": "static-path", "n": 8}`` and the
  fully spelled-out equivalent share a digest;
* an omitted ``backend`` resolves to the *current process default*
  (``$REPRO_BACKEND`` / ``set_default_backend``) at canonicalization
  time; pass it explicitly for digests that must be stable across
  differently-configured processes;
* the canonical JSON encoding is ``sort_keys=True`` with compact
  separators, so the digest is independent of dict ordering and
  whitespace, stable across processes (:func:`hashlib.sha256`, no
  ``PYTHONHASHSEED`` dependence), and versioned by :data:`SPEC_VERSION`.

:class:`SpecHandle` bridges specs to the executor layer: it is a
picklable ``n -> adversary`` factory (usable anywhere a sweep factory
is, including across ``spawn`` boundaries) that *carries its
declarative spec*, which is what lets the fleet
(:class:`repro.service.fleet.FleetExecutor`) address each run it is
handed by that run's digest.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.backend import get_backend
from repro.errors import SpecError
from repro.types import AdversaryProtocol

#: Version prefix baked into every digest: bump when canonicalization or
#: run semantics change, so stale cache entries can never be served.
SPEC_VERSION = 1

#: Parameter types the schema language supports (JSON-representable).
_PARAM_TYPES = ("int",)


@dataclass(frozen=True)
class ParamSpec:
    """One typed, defaulted adversary parameter.

    ``type`` names a JSON scalar type from :data:`_PARAM_TYPES` (``int``
    is the only one); ``optional=True`` additionally admits ``None`` (the
    usual "derive from n" constructor convention).
    """

    type: str
    default: Any
    optional: bool = False

    def __post_init__(self) -> None:
        if self.type not in _PARAM_TYPES:
            raise SpecError(
                f"param type must be one of {sorted(_PARAM_TYPES)}, "
                f"got {self.type!r}"
            )

    def coerce(self, name: str, value: Any) -> Any:
        """Validate one supplied value."""
        if value is None:
            if self.optional:
                return None
            raise SpecError(f"param {name!r} must not be null")
        # bool is a subclass of int: reject booleans, so {"shift": true}
        # can never silently mean shift=1.
        if isinstance(value, bool) or not isinstance(value, int):
            raise SpecError(
                f"param {name!r} must be {self.type}, got {type(value).__name__}"
            )
        return value


@dataclass(frozen=True)
class AdversaryEntry:
    """One registered adversary family: factory + parameter schema."""

    name: str
    factory: Callable[..., AdversaryProtocol]
    params: Dict[str, ParamSpec] = field(default_factory=dict)
    #: Whether the factory takes a ``seed`` kwarg (the spec's top-level
    #: seed is forwarded to it; oblivious families simply record it).
    takes_seed: bool = False
    description: str = ""

    def build(self, n: int, params: Mapping[str, Any], seed: int) -> AdversaryProtocol:
        """Instantiate the adversary for one run."""
        kwargs = dict(params)
        if self.takes_seed:
            kwargs["seed"] = seed
        return self.factory(n, **kwargs)


_REGISTRY: Dict[str, AdversaryEntry] = {}


def register_adversary(
    name: str,
    factory: Callable[..., AdversaryProtocol],
    params: Optional[Mapping[str, ParamSpec]] = None,
    takes_seed: bool = False,
    description: str = "",
) -> AdversaryEntry:
    """Register an adversary family under a stable spec name.

    The factory must be a picklable callable ``(n, **params) -> adversary``
    (a class or module-level function -- the same spawn-safety rule as
    sharded sweeps).  Re-registering a name replaces the entry, which is
    what tests use to inject failing adversaries.
    """
    if not name or not isinstance(name, str):
        raise SpecError(f"adversary name must be a non-empty string, got {name!r}")
    entry = AdversaryEntry(
        name=name,
        factory=factory,
        params=dict(params or {}),
        takes_seed=takes_seed,
        description=description,
    )
    _REGISTRY[name] = entry
    return entry


def get_entry(name: str) -> AdversaryEntry:
    """Look up a registered family; :class:`SpecError` on unknown names."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise SpecError(
            f"unknown adversary {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def adversary_names() -> Tuple[str, ...]:
    """All registered spec names, sorted."""
    return tuple(sorted(_REGISTRY))


def describe_registry() -> Dict[str, Dict[str, Any]]:
    """A JSON-ready description of every registered family (``/v1/specs``)."""
    out: Dict[str, Dict[str, Any]] = {}
    for name in adversary_names():
        entry = _REGISTRY[name]
        out[name] = {
            "description": entry.description,
            "takes_seed": entry.takes_seed,
            "params": {
                pname: {
                    "type": p.type,
                    "default": p.default,
                    "optional": p.optional,
                }
                for pname, p in sorted(entry.params.items())
            },
        }
    return out


# ----------------------------------------------------------------------
# Canonicalization + digests
# ----------------------------------------------------------------------


def _canonical_params(entry: AdversaryEntry, raw: Any) -> Dict[str, Any]:
    """Validated params with every default spelled out, key-sorted."""
    if raw is None:
        raw = {}
    if not isinstance(raw, Mapping):
        raise SpecError(f"'params' must be an object, got {type(raw).__name__}")
    unknown = set(raw) - set(entry.params)
    if unknown:
        raise SpecError(
            f"unknown params {sorted(unknown)} for adversary {entry.name!r}; "
            f"accepted: {sorted(entry.params)}"
        )
    return {
        pname: pspec.coerce(pname, raw.get(pname, pspec.default))
        for pname, pspec in sorted(entry.params.items())
    }


def _canonical_int(spec: Mapping[str, Any], key: str, default: int) -> int:
    value = spec.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecError(f"{key!r} must be an integer, got {value!r}")
    return int(value)


def _canonical_max_rounds(spec: Mapping[str, Any]) -> Optional[int]:
    value = spec.get("max_rounds")
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise SpecError(f"'max_rounds' must be a positive integer or null, got {value!r}")
    return int(value)


def _canonical_backend(spec: Mapping[str, Any]) -> str:
    """The backend *name*, resolving an omitted backend to the default."""
    from repro.errors import BackendError

    try:
        return get_backend(spec.get("backend")).name
    except BackendError as exc:
        raise SpecError(str(exc)) from exc


_RUN_KEYS = frozenset(
    {"kind", "version", "adversary", "params", "n", "seed", "max_rounds", "backend"}
)


def _check_version(raw: Mapping[str, Any]) -> None:
    """Accept only this module's version marker (canonical docs carry it)."""
    version = raw.get("version", SPEC_VERSION)
    if version != SPEC_VERSION:
        raise SpecError(
            f"spec version {version!r} is not supported (expected {SPEC_VERSION})"
        )


def canonical_run_spec(raw: Mapping[str, Any]) -> Dict[str, Any]:
    """Validate a raw run spec and return its canonical document.

    The canonical form is what :func:`spec_digest` hashes: all defaults
    explicit, params validated against the registry schema, backend
    resolved to a name.  Raises :class:`~repro.errors.SpecError` on any
    malformed input.
    """
    if not isinstance(raw, Mapping):
        raise SpecError(f"spec must be a JSON object, got {type(raw).__name__}")
    unknown = set(raw) - _RUN_KEYS
    if unknown:
        raise SpecError(f"unknown spec keys {sorted(unknown)}; accepted: {sorted(_RUN_KEYS)}")
    _check_version(raw)
    kind = raw.get("kind", "run")
    if kind != "run":
        raise SpecError(f"run spec 'kind' must be 'run', got {kind!r}")
    if "adversary" not in raw:
        raise SpecError("spec is missing the 'adversary' name")
    entry = get_entry(raw["adversary"]) if isinstance(raw["adversary"], str) else None
    if entry is None:
        raise SpecError(f"'adversary' must be a string, got {raw['adversary']!r}")
    if "n" not in raw:
        raise SpecError("spec is missing 'n'")
    n = _canonical_int(raw, "n", 0)
    if n < 1:
        raise SpecError(f"'n' must be >= 1, got {n}")
    return {
        "kind": "run",
        "version": SPEC_VERSION,
        "adversary": entry.name,
        "params": _canonical_params(entry, raw.get("params")),
        "n": n,
        "seed": _canonical_int(raw, "seed", 0),
        "max_rounds": _canonical_max_rounds(raw),
        "backend": _canonical_backend(raw),
    }


_SWEEP_KEYS = frozenset(
    {"kind", "version", "adversaries", "ns", "seed", "max_rounds", "backend"}
)


def canonical_sweep_spec(raw: Mapping[str, Any]) -> Dict[str, Any]:
    """Validate a raw sweep spec and return its canonical document.

    A sweep spec names a set of adversary families and a list of node
    counts::

        {"adversaries": ["static-path", {"adversary": "rotating-path",
                                         "params": {"shift": 2}}],
         "ns": [16, 32], "backend": "bitset"}

    Canonical ``ns`` are sorted and deduplicated; canonical adversaries
    are sorted by label (default label = the adversary name), so
    logically-equal sweeps share a digest *and* enumerate their grids in
    one deterministic order.
    """
    if not isinstance(raw, Mapping):
        raise SpecError(f"sweep spec must be a JSON object, got {type(raw).__name__}")
    unknown = set(raw) - _SWEEP_KEYS
    if unknown:
        raise SpecError(
            f"unknown sweep keys {sorted(unknown)}; accepted: {sorted(_SWEEP_KEYS)}"
        )
    _check_version(raw)
    kind = raw.get("kind", "sweep")
    if kind != "sweep":
        raise SpecError(f"sweep spec 'kind' must be 'sweep', got {kind!r}")
    rows = raw.get("adversaries")
    if not isinstance(rows, (list, tuple)) or not rows:
        raise SpecError("'adversaries' must be a non-empty list")
    canon_rows: List[Dict[str, Any]] = []
    for row in rows:
        if isinstance(row, str):
            row = {"adversary": row}
        if not isinstance(row, Mapping):
            raise SpecError(f"adversary rows must be names or objects, got {row!r}")
        bad = set(row) - {"adversary", "params", "label"}
        if bad:
            raise SpecError(f"unknown adversary-row keys {sorted(bad)}")
        entry = get_entry(row.get("adversary", ""))
        label = row.get("label", entry.name)
        if not isinstance(label, str) or not label:
            raise SpecError(f"adversary label must be a non-empty string, got {label!r}")
        canon_rows.append(
            {
                "label": label,
                "adversary": entry.name,
                "params": _canonical_params(entry, row.get("params")),
            }
        )
    canon_rows.sort(key=lambda r: r["label"])
    labels = [r["label"] for r in canon_rows]
    if len(set(labels)) != len(labels):
        raise SpecError(f"duplicate adversary labels in sweep spec: {labels}")
    ns_raw = raw.get("ns")
    if not isinstance(ns_raw, (list, tuple)) or not ns_raw:
        raise SpecError("'ns' must be a non-empty list of node counts")
    ns: List[int] = []
    for value in ns_raw:
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise SpecError(f"'ns' entries must be integers >= 1, got {value!r}")
        ns.append(int(value))
    return {
        "kind": "sweep",
        "version": SPEC_VERSION,
        "adversaries": canon_rows,
        "ns": sorted(set(ns)),
        "seed": _canonical_int(raw, "seed", 0),
        "max_rounds": _canonical_max_rounds(raw),
        "backend": _canonical_backend(raw),
    }


def canonical_json(spec: Mapping[str, Any]) -> str:
    """The canonical JSON encoding digests are computed over."""
    return json.dumps(spec, sort_keys=True, separators=(",", ":"))


def spec_digest(spec: Mapping[str, Any]) -> str:
    """The content address of a run or sweep spec.

    The spec is always (re-)canonicalized -- canonicalization is
    idempotent and validating, so ``spec_digest(raw) ==
    spec_digest(canonical_run_spec(raw))`` holds unconditionally and a
    digest never exists for an invalid spec.  Run and sweep kinds are
    distinguished by the ``kind``/``adversaries`` keys.
    """
    if spec.get("kind") == "sweep" or "adversaries" in spec:
        spec = canonical_sweep_spec(spec)
    else:
        spec = canonical_run_spec(spec)
    return _canonical_digest(spec)


def _canonical_digest(spec: Mapping[str, Any]) -> str:
    """:func:`spec_digest` of a document that is *already* canonical.

    For callers holding the output of :func:`canonical_run_spec` /
    :func:`canonical_sweep_spec`, so the spec is validated and encoded
    once; anything else must go through :func:`spec_digest`.
    """
    payload = f"repro-spec-v{SPEC_VERSION}:{canonical_json(spec)}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Bridging specs to the executor layer
# ----------------------------------------------------------------------


class SpecHandle:
    """A picklable ``n -> adversary`` factory that carries its spec.

    Usable anywhere the executor stack accepts a factory (including
    across ``spawn`` process boundaries); additionally exposes
    :meth:`cell_spec`, the canonical run spec of each (n, max_rounds,
    backend) cell this family produces -- the fleet offers a run to its
    workers under that spec's digest.
    """

    def __init__(
        self,
        adversary: str,
        params: Optional[Mapping[str, Any]] = None,
        seed: int = 0,
        label: Optional[str] = None,
    ) -> None:
        entry = get_entry(adversary)
        self.adversary = entry.name
        self.params = _canonical_params(entry, params)
        self.seed = int(seed)
        self.label = label or entry.name
        # The canonical document this handle was built from, if any
        # (:func:`_to_run_spec`): its cell is not validated a second time.
        self._cell: Optional[Dict[str, Any]] = None

    def __call__(self, n: int) -> AdversaryProtocol:
        return get_entry(self.adversary).build(n, self.params, self.seed)

    def cell_spec(
        self, n: int, max_rounds: Optional[int], backend: Any
    ) -> Dict[str, Any]:
        """The canonical run spec for one grid cell of this family."""
        backend = backend if isinstance(backend, str) else get_backend(backend).name
        cell = self._cell
        if cell is not None and (n, max_rounds, backend) == (
            cell["n"], cell["max_rounds"], cell["backend"]
        ):
            return cell
        return canonical_run_spec(
            {
                "adversary": self.adversary,
                "params": self.params,
                "n": n,
                "seed": self.seed,
                "max_rounds": max_rounds,
                "backend": backend,
            }
        )

    def __repr__(self) -> str:
        return (
            f"SpecHandle({self.adversary!r}, params={self.params!r}, "
            f"seed={self.seed}, label={self.label!r})"
        )


def to_run_spec(raw: Mapping[str, Any]) -> "RunSpec":
    """Build an executor :class:`~repro.engine.executor.RunSpec` from a spec.

    The returned ``RunSpec`` is uninstrumented (``instrumentation='none'``,
    no kept trees) -- the cacheable shape -- and its adversary factory is a
    :class:`SpecHandle`, so it survives sharded execution.
    """
    return _to_run_spec(canonical_run_spec(raw))


def _to_run_spec(spec: Mapping[str, Any]) -> "RunSpec":
    """:func:`to_run_spec` of a document that is *already* canonical.

    For callers holding the output of :func:`canonical_run_spec` (a
    ``run`` task's payload), so the spec is not validated a second
    time; anything else must go through :func:`to_run_spec`.
    """
    from repro.engine.executor import RunSpec

    handle = SpecHandle(spec["adversary"], spec["params"], seed=spec["seed"])
    handle._cell = dict(spec)
    return RunSpec(
        adversary=handle,
        n=spec["n"],
        seed=spec["seed"],
        max_rounds=spec["max_rounds"],
        backend=spec["backend"],
    )


#: Seed of the portfolio's randomized row (random tree).
PORTFOLIO_SEED = 0


def portfolio_handles() -> Dict[str, SpecHandle]:
    """The standard sweep portfolio as declarative, cacheable handles.

    The static and rotating paths, the lower-bound-matching ``cyclic``
    adversary and the random tree, keyed by display label in a fixed
    order.  Every factory is a picklable :class:`SpecHandle`, so the
    portfolio crosses ``spawn`` boundaries and each row turns into a
    sweep-spec row (the CLI ``sweep`` runs it as a task graph).
    """
    return {
        "StaticPath": SpecHandle("static-path", label="StaticPath"),
        "RotatingPath": SpecHandle("rotating-path", {"shift": 1}, label="RotatingPath"),
        "CyclicFamily": SpecHandle("cyclic", label="CyclicFamily"),
        "RandomTree": SpecHandle("random-tree", seed=PORTFOLIO_SEED, label="RandomTree"),
    }


# ----------------------------------------------------------------------
# Built-in registry
# ----------------------------------------------------------------------


def _static_star_factory(n: int) -> AdversaryProtocol:
    """The star centered at 0, repeated forever (``t* = 1``).

    Module-level so the spec registry entry is spawn-safe; used by the
    E4 baseline experiment's declarative run grid.
    """
    from repro.adversaries.oblivious import StaticTreeAdversary
    from repro.trees.generators import star

    return StaticTreeAdversary(star(n), name="StaticStar")


def _register_builtins() -> None:
    from repro.adversaries.oblivious import RandomTreeAdversary
    from repro.adversaries.paths import RotatingPathAdversary, StaticPathAdversary
    from repro.adversaries.restricted import KInnerAdversary, KLeafAdversary
    from repro.adversaries.zeiner import CyclicFamilyAdversary

    register_adversary(
        "static-path",
        StaticPathAdversary,
        description="repeat the identity path; t* = n - 1 exactly",
    )
    register_adversary(
        "static-star",
        _static_star_factory,
        description="repeat the star centered at 0; t* = 1 exactly",
    )
    register_adversary(
        "rotating-path",
        RotatingPathAdversary,
        params={"shift": ParamSpec("int", 1)},
        description="cyclically re-rooted path, shifted `shift` per round",
    )
    register_adversary(
        "cyclic",
        CyclicFamilyAdversary,
        params={"m_stride": ParamSpec("int", None, optional=True)},
        description="cyclic rotated-path/fan family with quadratic scoring",
    )
    register_adversary(
        "random-tree",
        RandomTreeAdversary,
        takes_seed=True,
        description="a fresh uniform random tree every round (seeded)",
    )
    register_adversary(
        "k-leaf",
        KLeafAdversary,
        params={"k": ParamSpec("int", 3)},
        description="Figure 1 restricted setting: trees with <= k leaves",
    )
    register_adversary(
        "k-inner",
        KInnerAdversary,
        params={"k": ParamSpec("int", 3)},
        description="Figure 1 restricted setting: trees with <= k inner nodes",
    )


_register_builtins()


__all__ = [
    "SPEC_VERSION",
    "AdversaryEntry",
    "ParamSpec",
    "SpecHandle",
    "adversary_names",
    "canonical_json",
    "canonical_run_spec",
    "canonical_sweep_spec",
    "describe_registry",
    "get_entry",
    "portfolio_handles",
    "register_adversary",
    "spec_digest",
    "to_run_spec",
]
