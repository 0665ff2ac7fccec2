"""Unit tests for the executable Theorem 3.1 checks."""

from __future__ import annotations

import math

import pytest

from repro.core.bounds import lower_bound, upper_bound
from repro.core.theorem import check_exact_value, sandwich


class TestSandwich:
    def test_report_fields(self):
        r = sandwich(10, 13)
        assert r.lower == lower_bound(10)
        assert r.upper == upper_bound(10)
        assert r.normalized == pytest.approx(1.3)
        assert r.upper_bound_respected
        assert r.meets_lower_bound

    def test_below_lower_bound_flagged(self):
        r = sandwich(10, 9)  # static path value, below the formula
        assert r.upper_bound_respected
        assert not r.meets_lower_bound

    def test_violation_detected(self):
        r = sandwich(10, 25)  # 25 > ⌈(1+√2)·10 − 1⌉ = 24
        assert not r.upper_bound_respected

    def test_str_mentions_everything(self):
        text = str(sandwich(10, 13))
        assert "n=10" in text and "13" in text

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            sandwich(5, -1)


class TestChecks:
    def test_check_exact_value_requires_both_sides(self):
        # Exact small-n values (certified by the solver): 1, 2, 4, 5.
        assert check_exact_value(2, 1)
        assert check_exact_value(3, 2)
        assert check_exact_value(4, 4)
        assert check_exact_value(5, 5)
        assert not check_exact_value(4, 3)   # below the LB formula
        assert not check_exact_value(4, 10)  # above the UB formula

    def test_gap_positive_and_linear(self):
        assert upper_bound(100) - lower_bound(100) > 0
        # The open gap grows like ((1 + √2) − 3/2) n ≈ 0.914 n.
        assert upper_bound(1000) - lower_bound(1000) == pytest.approx(
            ((1 + math.sqrt(2)) - 1.5) * 1000, rel=0.02
        )
