"""Programmatic experiment registry.

Each experiment of the reproduction (E1..E8, defined in ``registry``) is runnable
three ways: via the benchmark harness (``pytest benchmarks/ -m table``),
via the CLI (``repro-broadcast experiment E2``), and programmatically
through this package:

>>> from repro.experiments import get_experiment, list_experiments
>>> table = get_experiment("E2").run()        # doctest: +SKIP
>>> print(table.render())                     # doctest: +SKIP

The registry's run functions use CLI-friendly (smaller) parameter grids
than the benchmark harnesses; the benchmarks remain the authoritative
regeneration path, and the tables printed here are pinned byte for byte in
``tests/fixtures/golden_experiments.json``.
"""

from repro.experiments.registry import (
    ExperimentSpec,
    ExperimentTable,
    experiment_graph,
    get_experiment,
    known_experiment_ids,
    list_experiments,
    run_all,
    run_experiment,
    table_from_doc,
    table_to_doc,
)

__all__ = [
    "ExperimentSpec",
    "ExperimentTable",
    "experiment_graph",
    "get_experiment",
    "known_experiment_ids",
    "list_experiments",
    "run_all",
    "run_experiment",
    "table_from_doc",
    "table_to_doc",
]
