"""Every ``examples/`` script runs to completion against this checkout.

The examples count as consumers in the reachability gate, so a library
name they use stays alive; running them here is what notices when one of
those names goes away (ruff cannot see a removed attribute).
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent
EXAMPLES = SRC.parent / "examples"


@pytest.mark.parametrize("script", sorted(p.name for p in EXAMPLES.glob("*.py")))
def test_example_runs(script):
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        cwd=SRC.parent,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
