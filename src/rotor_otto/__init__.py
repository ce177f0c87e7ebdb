"""Ideal Otto cycles with a classical or quantum planar rotor working medium."""

from .classical import (
    classical_cycle_electric,
    classical_cycle_magnetic,
    classical_engine_condition_electric,
    classical_fridge_condition_electric,
    classical_mean_energy_electric,
    classical_mean_energy_magnetic,
)
from .cycle import CycleReport, assemble_cycle, carnot_bound
from .qelectric import (
    SpectralData,
    TridiagonalHamiltonian,
    build_pendulum_hamiltonian,
    eigensolve_sym_tridiagonal,
    thermal_quartet_electric,
)
from .qmagnetic import (
    MomentumStats,
    epsilon_fourier,
    momentum_stats,
    optimal_work_scan,
    quantum_partition_magnetic_direct,
    quantum_partition_magnetic_theta,
    quantum_quartet_magnetic,
)
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
from .units import (
    ConvergenceError,
    CyclePoint,
    DomainError,
    MeanEnergyQuartet,
)

__all__ = [
    "ConvergenceError",
    "CyclePoint",
    "CycleReport",
    "DomainError",
    "MeanEnergyQuartet",
    "MomentumStats",
    "SpectralData",
    "SweepGrid",
    "SweepSpec",
    "TridiagonalHamiltonian",
    "assemble_cycle",
    "build_pendulum_hamiltonian",
    "carnot_bound",
    "classical_cycle_electric",
    "classical_cycle_magnetic",
    "classical_engine_condition_electric",
    "classical_fridge_condition_electric",
    "classical_mean_energy_electric",
    "classical_mean_energy_magnetic",
    "eigensolve_sym_tridiagonal",
    "epsilon_fourier",
    "evaluate_point",
    "extract_boundaries",
    "momentum_curve",
    "momentum_stats",
    "optimal_work_scan",
    "quantum_partition_magnetic_direct",
    "quantum_partition_magnetic_theta",
    "quantum_quartet_magnetic",
    "read_json",
    "run_sweep",
    "thermal_quartet_electric",
    "write_csv",
    "write_json",
]
