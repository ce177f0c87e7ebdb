"""Built-in oracle cross-checks, runnable from the CLI.

Each check pits a production routine against an independent route:
theta-function vs direct partition sums, phase-space quadrature vs the
Bessel closed form, a dense eigensolver vs the tridiagonal one, and a
finite-difference Hellmann-Feynman identity.  The quadrature and dense
oracles here are also reused by the test suite.

The phase-space quadrature is the periodic trapezoid rule in alpha: the
integrand is periodic and analytic, so the rule converges geometrically in
the node count (DLMF 3.5.ii), without reference to the Bessel closed form.
It needs numpy only, which keeps scipy.integrate, and with it
scipy.optimize, sparse, spatial and fft, out of every CLI process.
"""

from __future__ import annotations

import math
import numbers
import sys

import numpy as np

from . import classical, qelectric, qmagnetic
from .units import ConvergenceError, DomainError, validate_tolerance

# Node counts of the trapezoid rule stop doubling past this (8 MB per array).
_MAX_NODES = 1 << 20


def classical_electric_mean_energy_quadrature(
    lam_i: float, lam_j: float, tau_j: float
) -> float:
    """<H_i>_j by direct phase-space averaging (quadrature over alpha).

    The Gaussian L_z integral is analytic (tau_j/2 kinetic part); only the
    angular average of sin^2(alpha/2) under the weight exp(-x sin^2(alpha/2)),
    x = lambda_j/tau_j, needs quadrature.  The trapezoid rule on N nodes
    symmetric about the peak at alpha = 0 (where sin^2 keeps full relative
    precision) starts at N >= 16 sqrt(1 + x), a power of two and at least 64,
    so that the peak of width ~ 1/sqrt(x) spans several nodes, and doubles N
    until two averages agree to 1e-15 relative.
    """
    x = lam_j / tau_j
    n = max(64, 1 << math.ceil(math.log2(16.0 * math.sqrt(1.0 + x))))
    prev = math.nan
    while n <= _MAX_NODES:
        s = np.sin(np.arange(1 - n // 2, n // 2 + 1) * (math.pi / n)) ** 2
        weight = np.exp(-x * s)
        cur = float(s @ weight / weight.sum())
        if abs(cur - prev) <= 1e-15 * cur:
            return 0.5 * tau_j + lam_i * cur
        prev, n = cur, 2 * n
    raise ConvergenceError(f"trapezoid rule not converged at lambda_j/tau_j={x} up to {_MAX_NODES} nodes")


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
