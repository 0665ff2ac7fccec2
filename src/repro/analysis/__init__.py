"""Analysis and reporting utilities.

Executable versions of the paper's analytical lens (stalling structure,
cyclic-interval reach sets) plus the sweep/table machinery the CLI and the
experiments use:

* :mod:`~repro.analysis.stalling` -- who stalls, why, and the executable
  lemmas (root-always-gains, stalling characterization);
* :mod:`~repro.analysis.certificates` -- validation of claimed broadcast
  times and adversary traces;
* :mod:`~repro.analysis.sweep` -- parameter sweeps over ``n`` and
  adversaries;
* :mod:`~repro.analysis.tables` -- plain-text / markdown table rendering
  used by benchmarks and the CLI;
* :mod:`~repro.analysis.stats` -- small statistics helpers (linear fits
  for "is it linear in n?" checks);
* :mod:`~repro.analysis.intervals` -- cyclic-interval structure of reach
  sets.
"""

from repro.analysis.stalling import StallReport, stall_report, verify_lemmas_on_round
from repro.analysis.certificates import (
    certify_adversary_run,
    certify_lower_bound_witness,
    certify_sequence,
)
from repro.analysis.sweep import SweepResult
from repro.analysis.tables import format_table
from repro.analysis.stats import linear_fit, LinearFit
from repro.analysis.intervals import (
    CyclicInterval,
    as_cyclic_interval,
)

__all__ = [
    "StallReport",
    "stall_report",
    "verify_lemmas_on_round",
    "certify_sequence",
    "certify_adversary_run",
    "certify_lower_bound_witness",
    "SweepResult",
    "format_table",
    "linear_fit",
    "LinearFit",
    "CyclicInterval",
    "as_cyclic_interval",
]
