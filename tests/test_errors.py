"""The exception hierarchy: everything derives from ReproError."""

import pytest

from repro import errors


@pytest.mark.parametrize(
    "exc",
    [
        errors.ShapeError,
        errors.GraphError,
        errors.ScheduleError,
        errors.ExecutionError,
        errors.MemoryBudgetError,
        errors.CalibrationError,
        errors.PlanningError,
    ],
)
def test_subclasses_of_repro_error(exc):
    assert issubclass(exc, errors.ReproError)
    with pytest.raises(errors.ReproError):
        raise exc("boom")


def test_repro_error_is_exception():
    assert issubclass(errors.ReproError, Exception)


def test_config_error_is_also_a_value_error():
    assert issubclass(errors.ConfigError, errors.ReproError)
    with pytest.raises(ValueError):
        raise errors.ConfigError("out of range")
