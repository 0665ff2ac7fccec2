"""Tests for the shared validators and the exception hierarchy."""

from __future__ import annotations

import numpy as np
import pytest

from repro import errors
from repro.types import validate_node, validate_node_count


class TestValidators:
    def test_node_count_accepts_numpy_ints(self):
        assert validate_node_count(np.int64(5)) == 5
        assert isinstance(validate_node_count(np.int64(5)), int)

    def test_node_count_rejects(self):
        with pytest.raises(ValueError):
            validate_node_count(0)
        with pytest.raises(ValueError):
            validate_node_count(-3)
        with pytest.raises(ValueError):
            validate_node_count(2.5)
        with pytest.raises(ValueError):
            validate_node_count("4")

    def test_node_range(self):
        assert validate_node(3, 4) == 3
        with pytest.raises(ValueError):
            validate_node(4, 4)
        with pytest.raises(ValueError):
            validate_node(-1, 4)
        with pytest.raises(ValueError):
            validate_node(1.5, 4)


class TestExceptionHierarchy:
    def test_all_derive_from_repro_error(self):
        for exc_type in (
            errors.InvalidTreeError,
            errors.InvalidGraphError,
            errors.DimensionMismatchError,
            errors.AdversaryError,
            errors.SearchBudgetExceeded,
            errors.SimulationError,
            errors.TraceError,
        ):
            assert issubclass(exc_type, errors.ReproError)

    def test_value_errors_are_value_errors(self):
        # Callers using plain except ValueError still catch validation.
        assert issubclass(errors.InvalidTreeError, ValueError)
        assert issubclass(errors.InvalidGraphError, ValueError)
        assert issubclass(errors.DimensionMismatchError, ValueError)
        assert issubclass(errors.TraceError, ValueError)

    def test_runtime_errors_are_runtime_errors(self):
        assert issubclass(errors.AdversaryError, RuntimeError)
        assert issubclass(errors.SimulationError, RuntimeError)
        assert issubclass(errors.SearchBudgetExceeded, RuntimeError)

    def test_budget_carries_state_count(self):
        exc = errors.SearchBudgetExceeded("cap", states_explored=42)
        assert exc.states_explored == 42
        assert "cap" in str(exc)

    def test_one_handler_catches_everything(self):
        caught = []
        for exc_type in (errors.InvalidTreeError, errors.AdversaryError):
            try:
                raise exc_type("boom")
            except errors.ReproError as exc:
                caught.append(type(exc))
        assert caught == [errors.InvalidTreeError, errors.AdversaryError]
