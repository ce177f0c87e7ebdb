"""Built-in oracle cross-checks, runnable from the CLI.

Each check pits a production routine against an independent route:
theta-function vs direct partition sums, phase-space quadrature vs the
Bessel closed form, a dense eigensolver vs the tridiagonal one, and a
finite-difference Hellmann-Feynman identity.  The quadrature and dense
oracles here are also reused by the test suite.
"""

from __future__ import annotations

import numbers
import sys

import numpy as np
import scipy.integrate

from . import classical, qelectric, qmagnetic
from .units import DomainError, validate_tolerance


def classical_electric_mean_energy_quadrature(
    lam_i: float, lam_j: float, tau_j: float
) -> float:
    """<H_i>_j by direct phase-space averaging (quadrature over alpha).

    The Gaussian L_z integral is analytic (tau_j/2 kinetic part); only the
    angular average of sin^2(alpha/2) needs quadrature.
    """

    def boltzmann(alpha):
        return np.exp(-lam_j * np.sin(alpha / 2.0) ** 2 / tau_j)

    def weighted(alpha):
        return np.sin(alpha / 2.0) ** 2 * boltzmann(alpha)

    num, _ = scipy.integrate.quad(weighted, 0.0, 2.0 * np.pi, limit=200)
    den, _ = scipy.integrate.quad(boltzmann, 0.0, 2.0 * np.pi, limit=200)
    return 0.5 * tau_j + lam_i * num / den


def dense_pendulum_eigenvalues(lam: float, cutoff_m: int) -> np.ndarray:
    """Brute-force dense diagonalization of the pendulum matrix."""
    h = qelectric.build_pendulum_hamiltonian(lam, cutoff_m)
    dense = np.diag(h.diag) + np.diag(h.offdiag, 1) + np.diag(h.offdiag, -1)
    return np.linalg.eigvalsh(dense)


def check_theta_vs_direct(rng: np.random.Generator) -> float:
    err = 0.0
    for _ in range(100):
        lam = rng.uniform(0.0, 1.0)
        tau = rng.uniform(0.01, 5.0)
        err = max(
            err,
            abs(
                qmagnetic.momentum_stats(lam, tau).log_partition
                - qmagnetic.quantum_partition_magnetic_theta(lam, tau)
            ),
        )
    return err


def check_quadrature_vs_closed_form(rng: np.random.Generator) -> float:
    err = 0.0
    for _ in range(5):
        lam_i = rng.uniform(0.0, 5.0)
        lam_j = rng.uniform(0.1, 5.0)
        tau_j = rng.uniform(0.2, 5.0)
        err = max(
            err,
            abs(
                classical.classical_mean_energy_electric(lam_i, lam_j, tau_j)
                - classical_electric_mean_energy_quadrature(lam_i, lam_j, tau_j)
            ),
        )
    return err


def check_dense_vs_tridiagonal(rng: np.random.Generator) -> float:
    err = 0.0
    for _ in range(5):
        lam = rng.uniform(0.0, 20.0)
        cutoff = int(rng.integers(8, 64))
        h = qelectric.build_pendulum_hamiltonian(lam, cutoff)
        spec = qelectric.eigensolve_sym_tridiagonal(h, want_vectors=False)
        dense = dense_pendulum_eigenvalues(lam, cutoff)
        err = max(err, float(np.abs(spec.eigenvalues - dense).max()))
    return err


def check_hellmann_feynman(rng: np.random.Generator) -> float:
    err = 0.0
    step = 1e-4
    for _ in range(4):
        lam = rng.uniform(0.5, 6.0)
        tau = rng.uniform(0.2, 3.0)
        _, s_avg, cutoff = qelectric.pendulum_stroke_averages(lam, tau, 1e-11)
        lz_plus = qelectric.log_partition_pendulum(lam + step, tau, cutoff)
        lz_minus = qelectric.log_partition_pendulum(lam - step, tau, cutoff)
        fd = -tau * (lz_plus - lz_minus) / (2.0 * step)
        err = max(err, abs(s_avg - fd))
    return err


CHECKS = [
    ("theta_vs_direct_partition", check_theta_vs_direct, 1e-12),
    ("quadrature_vs_bessel_closed_form", check_quadrature_vs_closed_form, 1e-8),
    ("dense_vs_tridiagonal_eigensolver", check_dense_vs_tridiagonal, 1e-10),
    ("hellmann_feynman_cross_check", check_hellmann_feynman, 1e-6),
]


def run_selftest(seed: int = 0, tol: float | None = None, out=None) -> bool:
    """Run all checks, print a pass/fail table, return overall success."""
    # A bad seed or tol is a usage error, not a failed check.
    if not (isinstance(seed, numbers.Integral) and seed >= 0):
        raise DomainError(f"seed must be a non-negative integer, got {seed!r}")
    if tol is not None:
        validate_tolerance(tol)
    if out is None:
        out = sys.stdout
    all_ok = True
    for name, check, default_tol in CHECKS:
        rng = np.random.default_rng(seed)
        threshold = default_tol if tol is None else tol
        max_err = check(rng)
        ok = max_err < threshold
        all_ok &= ok
        print(
            f"{name:<36} {'PASS' if ok else 'FAIL'}  "
            f"max_err={max_err:.3e}  tol={threshold:.1e}",
            file=out,
        )
    return all_ok
