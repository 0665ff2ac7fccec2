"""Declarative spec registry: canonicalization, digest injectivity/stability.

The property-test core (``test_digests_injective_and_stable_*``) is the
satellite the service's correctness hangs on: digests must be *injective*
(no two distinct canonical specs collide) and *stable* (invariant under
param order, spelled-out defaults, JSON round-trips, and process
boundaries) -- otherwise the cache could serve the wrong result or
recompute what it already knows.
"""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import SpecError
from repro.service.specs import (
    SPEC_VERSION,
    SpecHandle,
    adversary_names,
    canonical_run_spec,
    canonical_sweep_spec,
    describe_registry,
    portfolio_handles,
    spec_digest,
    to_run_spec,
)

from helpers import expected_portfolio, portfolio_rows

#: (adversary, params-grid) pairs the randomized digest grid draws from.
PORTFOLIO_GRID = [
    ("static-path", [{}]),
    ("static-star", [{}]),
    ("rotating-path", [{}, {"shift": 2}, {"shift": 3}]),
    ("cyclic", [{}, {"m_stride": 2}]),
    ("random-tree", [{}]),
    ("k-leaf", [{}, {"k": 2}]),
    ("k-inner", [{"k": 2}]),
]


def _grid_specs():
    """A deterministic raw-spec grid: portfolio x backends x seeds x n."""
    specs = []
    for adversary, params_list in PORTFOLIO_GRID:
        for params in params_list:
            for backend in ("dense", "bitset"):
                for seed in (0, 7):
                    for n in (6, 17):
                        specs.append(
                            {
                                "adversary": adversary,
                                "params": dict(params),
                                "n": n,
                                "seed": seed,
                                "backend": backend,
                            }
                        )
    return specs


class TestRegistry:
    def test_portfolio_is_registered(self):
        assert adversary_names() == tuple(sorted(name for name, _ in PORTFOLIO_GRID))

    def test_describe_registry_is_json_ready(self):
        doc = describe_registry()
        assert set(doc) == set(adversary_names())
        text = json.dumps(doc)  # must not raise
        assert "rotating-path" in text
        assert doc["rotating-path"]["params"]["shift"]["default"] == 1
        assert doc["random-tree"]["takes_seed"] is True

    def test_unknown_adversary_rejected(self):
        with pytest.raises(SpecError, match="unknown adversary"):
            canonical_run_spec({"adversary": "no-such-family", "n": 8})


class TestCanonicalization:
    def test_defaults_are_spelled_out(self):
        spec = canonical_run_spec({"adversary": "rotating-path", "n": 8})
        assert spec == {
            "kind": "run",
            "version": SPEC_VERSION,
            "adversary": "rotating-path",
            "params": {"shift": 1},
            "n": 8,
            "seed": 0,
            "max_rounds": None,
            "backend": spec["backend"],  # the process default's name
        }

    def test_idempotent(self):
        spec = canonical_run_spec(
            {"adversary": "k-inner", "n": 9, "params": {"k": 2}, "seed": 3}
        )
        assert canonical_run_spec(spec) == spec

    def test_rejects_unknown_keys_params_and_bad_types(self):
        with pytest.raises(SpecError, match="unknown spec keys"):
            canonical_run_spec({"adversary": "k-leaf", "n": 8, "nodes": 8})
        with pytest.raises(SpecError, match="unknown params"):
            canonical_run_spec(
                {"adversary": "k-leaf", "n": 8, "params": {"shift": 1}}
            )
        with pytest.raises(SpecError, match="must be int"):
            canonical_run_spec(
                {"adversary": "rotating-path", "n": 8, "params": {"shift": "2"}}
            )
        with pytest.raises(SpecError, match="bool"):
            # bool is an int subclass: shift=true must not mean shift=1
            canonical_run_spec(
                {"adversary": "rotating-path", "n": 8, "params": {"shift": True}}
            )
        with pytest.raises(SpecError, match="'n'"):
            canonical_run_spec({"adversary": "k-leaf"})
        with pytest.raises(SpecError, match="max_rounds"):
            canonical_run_spec({"adversary": "k-leaf", "n": 8, "max_rounds": 0})
        with pytest.raises(SpecError, match="version"):
            canonical_run_spec({"adversary": "k-leaf", "n": 8, "version": 99})

    def test_sweep_canonicalization_sorts_and_dedupes(self):
        spec = canonical_sweep_spec(
            {
                "adversaries": [
                    {"adversary": "rotating-path", "params": {"shift": 2}},
                    "static-path",
                ],
                "ns": [12, 8, 12, 10],
            }
        )
        assert [row["label"] for row in spec["adversaries"]] == [
            "rotating-path",
            "static-path",
        ]
        assert spec["ns"] == [8, 10, 12]
        # logically-equal sweeps share a digest regardless of input order
        flipped = canonical_sweep_spec(
            {
                "ns": [10, 8, 12],
                "adversaries": [
                    "static-path",
                    {"adversary": "rotating-path", "params": {"shift": 2}},
                ],
            }
        )
        assert spec_digest(spec) == spec_digest(flipped)

    def test_sweep_duplicate_labels_rejected(self):
        with pytest.raises(SpecError, match="duplicate adversary labels"):
            canonical_sweep_spec(
                {"adversaries": ["k-leaf", "k-leaf"], "ns": [8]}
            )


class TestDigestProperties:
    """The satellite: injective + stable digests over a randomized grid."""

    def test_digests_injective_over_grid(self):
        specs = _grid_specs()
        digests = [spec_digest(s) for s in specs]
        assert len(digests) == len(set(digests)), "digest collision in the grid"

    def test_digests_stable_under_key_order_and_defaults(self, rng):
        for raw in _grid_specs():
            reference = spec_digest(raw)
            # shuffle top-level key order
            keys = list(raw)
            rng.shuffle(keys)
            assert spec_digest({k: raw[k] for k in keys}) == reference
            # spell out every default the canonical form would fill in
            assert spec_digest(canonical_run_spec(raw)) == reference
            # drop explicitly-default fields
            slim = {k: v for k, v in raw.items() if k not in ("seed",) or v != 0}
            assert spec_digest(slim) == reference

    def test_digest_always_canonicalizes_and_validates(self):
        """Docs carrying version/kind markers still canonicalize: the
        identity spec_digest(raw) == spec_digest(canonical(raw)) holds
        unconditionally, and invalid specs never mint a digest."""
        raw = {
            "version": SPEC_VERSION,
            "kind": "run",
            "adversary": "static-path",
            "n": 8,
            "backend": "dense",
        }
        assert spec_digest(raw) == spec_digest(canonical_run_spec(raw))
        with pytest.raises(SpecError, match="unknown adversary"):
            spec_digest(
                {"version": SPEC_VERSION, "kind": "run", "adversary": "no-such", "n": 8}
            )

    def test_digests_stable_after_json_round_trip(self):
        for raw in _grid_specs():
            rehydrated = json.loads(json.dumps(canonical_run_spec(raw)))
            assert spec_digest(rehydrated) == spec_digest(raw)

    def test_digests_stable_across_spawned_subprocess(self, tmp_path):
        """The same raw specs must digest identically in a fresh process."""
        specs = _grid_specs()[::5]  # every 5th: enough coverage, fast start
        spec_file = tmp_path / "specs.json"
        spec_file.write_text(json.dumps(specs))
        src_root = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src_root) + os.pathsep + env.get("PYTHONPATH", "")
        script = (
            "import json, sys\n"
            "from repro.service.specs import spec_digest\n"
            "specs = json.loads(open(sys.argv[1]).read())\n"
            "print(json.dumps([spec_digest(s) for s in specs]))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script, str(spec_file)],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        child_digests = json.loads(out.stdout)
        assert child_digests == [spec_digest(s) for s in specs]


class TestSpecHandle:
    def test_handle_builds_the_portfolio_adversaries(self):
        """The portfolio handles build the standard portfolio's
        adversaries, in order, and each survives a pickle round trip."""
        handles = portfolio_handles()
        assert portfolio_rows(handles) == expected_portfolio()
        for label, handle in handles.items():
            clone = pickle.loads(pickle.dumps(handle))
            assert clone.label == label
            assert clone(9).name == handle(9).name

    def test_handle_is_picklable_and_digest_stable(self):
        handle = SpecHandle("rotating-path", {"shift": 2}, seed=1, label="rot2")
        clone = pickle.loads(pickle.dumps(handle))
        assert clone.label == "rot2"
        cell = handle.cell_spec(16, None, "dense")
        assert clone.cell_spec(16, None, "dense") == cell
        assert spec_digest(cell) == spec_digest(clone.cell_spec(16, None, "dense"))
        assert clone(16).name == handle(16).name

    def test_to_run_spec_round_trips_through_the_executor(self):
        from repro.engine.executor import get_executor

        spec = to_run_spec({"adversary": "static-path", "n": 12})
        report = get_executor("sequential").run(spec)
        assert report.t_star == 11  # static path: exactly n - 1
