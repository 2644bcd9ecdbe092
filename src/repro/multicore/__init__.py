"""Simulated shared-memory multicore for the CPU-parallel baselines."""

from repro.multicore.costmodel import CpuCostModel
from repro.multicore.machine import SimulatedMulticore
from repro.multicore.profile import (
    BOUND_CLASSES,
    EpochProfile,
    MulticoreProfile,
    validate_cpu_epochs,
)

__all__ = [
    "BOUND_CLASSES",
    "CpuCostModel",
    "EpochProfile",
    "MulticoreProfile",
    "SimulatedMulticore",
    "validate_cpu_epochs",
]
