"""Exception-hierarchy tests."""

import numpy as np
import pytest

from repro import errors


def test_all_derive_from_repro_error():
    for name in (
        "GraphFormatError", "GraphValidationError", "UnknownDatasetError",
        "UnknownAlgorithmError", "DeviceError", "DeviceOutOfMemoryError",
        "BufferOverflowError", "SharedMemoryExhaustedError",
        "SimulatedTimeLimitExceeded", "KernelDeadlockError",
        "SanitizerFindingsError",
    ):
        assert issubclass(getattr(errors, name), errors.ReproError), name


def test_device_failures_derive_from_device_error():
    assert issubclass(errors.DeviceOutOfMemoryError, errors.DeviceError)
    assert issubclass(errors.BufferOverflowError, errors.DeviceError)
    assert issubclass(errors.SharedMemoryExhaustedError, errors.DeviceError)


def test_shared_memory_exhausted_fields():
    exc = errors.SharedMemoryExhaustedError(2, "tile", 4096, 1024, 3072)
    assert exc.block == 2
    assert exc.name == "tile"
    assert exc.requested == 4096
    assert "tile" in str(exc) and "4096" in str(exc) and "3072" in str(exc)
    # downstream code that catches MemoryError keeps working
    assert issubclass(errors.SharedMemoryExhaustedError, MemoryError)


def test_lookup_errors_are_key_errors():
    assert issubclass(errors.UnknownDatasetError, KeyError)
    assert issubclass(errors.UnknownAlgorithmError, KeyError)


def test_oom_message_carries_numbers():
    exc = errors.DeviceOutOfMemoryError(100, 200, 250)
    assert "100" in str(exc) and "250" in str(exc)
    assert exc.requested == 100


def test_buffer_overflow_fields():
    exc = errors.BufferOverflowError(3, 1024)
    assert exc.block == 3
    assert "1024" in str(exc)


def test_time_limit_fields():
    exc = errors.SimulatedTimeLimitExceeded(500.0, 400.0)
    assert exc.elapsed_ms == 500.0
    assert "400.0" in str(exc)
    # sub-millisecond runs keep their digits instead of reading 0.0
    exc = errors.SimulatedTimeLimitExceeded(np.float64(0.0167), 0.01)
    assert str(exc) == "simulated time 0.0167 ms exceeded budget 0.01 ms"


def test_catching_base_class_at_api_boundary():
    from repro import decompose
    from repro.graph.examples import triangle

    with pytest.raises(errors.ReproError):
        decompose(triangle(), "not-an-algorithm")
