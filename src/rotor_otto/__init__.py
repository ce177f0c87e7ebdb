"""Ideal Otto cycles with a classical or quantum planar rotor working medium."""

from .cycle import CycleReport
from .qmagnetic import optimal_work_scan
from .sweep import (
    SweepGrid,
    SweepSpec,
    evaluate_point,
    extract_boundaries,
    momentum_curve,
    read_json,
    run_sweep,
    write_csv,
    write_json,
)
from .units import ConvergenceError, CyclePoint, DomainError

__all__ = [
    "CyclePoint",
    "CycleReport",
    "SweepSpec",
    "SweepGrid",
    "evaluate_point",
    "run_sweep",
    "extract_boundaries",
    "momentum_curve",
    "optimal_work_scan",
    "read_json",
    "write_csv",
    "write_json",
    "DomainError",
    "ConvergenceError",
]
