"""Built-in oracle cross-checks, runnable from the CLI.

This module holds the package's oracles: independent routes to what the
production kernels compute, which no production path calls.  Each check
pits a production routine against one of them: the theta-function form of
the magnetic partition function vs the direct momentum sums, phase-space
quadrature vs the classical electric kernel's Bessel closed form, a dense
eigensolver vs the tridiagonal one, and a finite-difference
Hellmann-Feynman derivative of ln Z vs the pendulum's potential average.
The quadrature check takes W by the first law, -(Q_c + Q_h), from a quartet
of stroke averages (heats), a form no kernel uses.  The quadrature, dense,
ln Z and first-law oracles are also reused by the test suite.

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
from .units import ConvergenceError, DomainError, validate_control, validate_temperature

# Node counts of the trapezoid rule stop doubling past this (8 MB per array).
_MAX_NODES = 1 << 20


def heats(hh, hc, ch, cc):
    """(Q_c, Q_h, W) from the mean-energy quartet entries <H_i>_j, elementwise.

    W = -(Q_c + Q_h), the first law: the form of the oracles, whose quartets
    come from other routes; the kernels form W without the heats' tau terms.
    """
    q_c = cc - ch
    q_h = hh - hc
    w = -(q_c + q_h)
    w += 0.0  # in place: no grid-sized temporary
    return q_c, q_h, w


def _potential_average_quadrature(x: float) -> float:
    """<sin^2(alpha/2)> under the weight exp(-x sin^2(alpha/2)), by the trapezoid rule.

    The N nodes lie symmetric about the peak at alpha = 0 (where sin^2 keeps
    full relative precision).  N starts at N >= 16 sqrt(1 + x), a power of
    two and at least 64, so that the peak of width ~ 1/sqrt(x) spans several
    nodes, and doubles until two averages agree to 1e-15 relative.
    """
    n = max(64, 1 << math.ceil(math.log2(16.0 * math.sqrt(1.0 + x))))
    prev = math.nan
    while n <= _MAX_NODES:
        s = np.sin(np.arange(1 - n // 2, n // 2 + 1) * (math.pi / n)) ** 2
        weight = np.exp(-x * s)
        cur = float(s @ weight / weight.sum())
        if abs(cur - prev) <= 1e-15 * cur:
            return cur
        prev, n = cur, 2 * n
    raise ConvergenceError(f"trapezoid rule not converged at lambda_j/tau_j={x} up to {_MAX_NODES} nodes")


def classical_electric_mean_energy_quadrature(
    lam_i: float, lam_j: float, tau_j: float
) -> float:
    """<H_i>_j by direct phase-space averaging (quadrature over alpha).

    The Gaussian L_z integral is analytic (tau_j/2 kinetic part); only the
    angular average of sin^2(alpha/2) under the weight exp(-x sin^2(alpha/2)),
    x = lambda_j/tau_j, needs quadrature.
    """
    return 0.5 * tau_j + lam_i * _potential_average_quadrature(lam_j / tau_j)


def jacobi_theta3(z: float, log_q: float) -> float:
    """theta_3(z, q) = 1 + 2 sum_{v>=1} q^(v^2) cos(2 v z), q = e^log_q.

    The nome is passed in log form to avoid underflow at large temperature;
    log_q < 0 is required (the series diverges at q = 1).  Evaluated via the
    triple product

        theta_3 = prod_{n>=1} (1 - q^(2n)) (1 + 2 q^(2n-1) cos 2z + q^(4n-2)),

    writing the quadratic factor as (1 - q^(2n-1))^2 + 4 q^(2n-1) cos^2 z so
    every piece is nonnegative: near z = pi/2 with q close to 1 the defining
    cosine series loses ~4 digits to cancellation, while the product keeps
    full relative precision.  1 - q^k is taken through expm1.
    """
    if not (log_q < 0.0):
        raise DomainError(f"jacobi_theta3 requires log_q < 0, got {log_q}")
    cos_z = math.cos(z)
    s = 1.0
    n = 0
    while True:
        n += 1
        odd_log = (2 * n - 1) * log_q
        if odd_log < -40.0:
            return s
        r = math.exp(odd_log)
        a = -math.expm1(odd_log)
        s *= (a * a + 4.0 * r * cos_z * cos_z) * -math.expm1(2 * n * log_q)
        if n > 100000:
            raise ConvergenceError(f"theta product did not converge, log_q={log_q}")


def quantum_partition_magnetic_theta(lam: float, tau: float) -> float:
    """ln Z of the quantum magnetic rotor via Poisson summation: sqrt(2 pi tau) e^(lambda^2/2tau) theta_3."""
    lam = validate_control(lam)
    tau = validate_temperature(tau)
    theta = jacobi_theta3(-math.pi * lam, -2.0 * math.pi**2 * tau)
    return 0.5 * math.log(2.0 * math.pi * tau) + lam * lam / (2.0 * tau) + math.log(theta)


def build_pendulum_hamiltonian(lam: float, cutoff_m: int) -> tuple[np.ndarray, np.ndarray]:
    """(diag, offdiag) of the full tridiagonal matrix of H(lambda) truncated at |m| <= cutoff_m."""
    lam = validate_control(lam, require_nonnegative=True)
    if cutoff_m < 1:
        raise DomainError(f"cutoff_m must be >= 1, got {cutoff_m}")
    m = np.arange(-cutoff_m, cutoff_m + 1, dtype=float)
    return 0.5 * m * m + 0.5 * lam, np.full(2 * cutoff_m, -0.25 * lam)


def dense_pendulum_eigenvalues(lam: float, cutoff_m: int) -> np.ndarray:
    """Brute-force dense diagonalization of the pendulum matrix."""
    diag, offdiag = build_pendulum_hamiltonian(lam, cutoff_m)
    return np.linalg.eigvalsh(np.diag(diag) + np.diag(offdiag, 1) + np.diag(offdiag, -1))


def log_partition_pendulum(lam: float, tau: float, cutoff_m: int) -> float:
    """ln Z of the truncated pendulum spectrum (absolute energies), from the dense eigensolver."""
    tau = validate_temperature(tau)
    x = -dense_pendulum_eigenvalues(lam, cutoff_m) / tau
    top = x.max()
    return float(top + np.log(np.exp(x - top).sum()))


def check_theta_vs_direct(rng: np.random.Generator) -> float:
    err = 0.0
    for _ in range(100):
        lam, tau = rng.uniform(0.0, 1.0), rng.uniform(0.01, 5.0)
        direct = qmagnetic.momentum_stats(lam, tau).log_partition
        err = max(err, abs(direct - quantum_partition_magnetic_theta(lam, tau)))
    return err


def check_quadrature_vs_closed_form(rng: np.random.Generator) -> float:
    # The kernel's heats against heats from two quadrature stroke averages.
    err = 0.0
    for _ in range(5):
        lam_h, lam_c = rng.uniform(0.1, 5.0, 2)
        tau_h, tau_c = rng.uniform(0.2, 5.0, 2)
        s_h = _potential_average_quadrature(lam_h / tau_h)
        s_c = _potential_average_quadrature(lam_c / tau_c)
        quadrature = heats(0.5 * tau_h + lam_h * s_h, 0.5 * tau_c + lam_h * s_c,
                           0.5 * tau_h + lam_c * s_h, 0.5 * tau_c + lam_c * s_c)
        kernel = classical.classical_cycle_electric(lam_h, tau_h, lam_c, tau_c)
        err = max(err, *(abs(a.item() - b) for a, b in zip(kernel, quadrature)))
    return err


def check_dense_vs_tridiagonal(rng: np.random.Generator) -> float:
    err = 0.0
    for _ in range(5):
        lam, cutoff = rng.uniform(0.0, 20.0), int(rng.integers(8, 64))
        spec = qelectric.eigensolve_sym_tridiagonal(*build_pendulum_hamiltonian(lam, cutoff), cutoff)
        dense = dense_pendulum_eigenvalues(lam, cutoff)
        err = max(err, float(np.abs(spec.eigenvalues - dense).max()))
    return err


def check_hellmann_feynman(rng: np.random.Generator) -> float:
    err = 0.0
    step = 1e-4
    for _ in range(4):
        lam, tau = rng.uniform(0.5, 6.0), rng.uniform(0.2, 3.0)
        _, s_avg, cutoff = qelectric.pendulum_stroke_averages(lam, tau)
        lz_plus = log_partition_pendulum(lam + step, tau, cutoff)
        lz_minus = log_partition_pendulum(lam - step, tau, cutoff)
        fd = -tau * (lz_plus - lz_minus) / (2.0 * step)
        err = max(err, abs(s_avg - fd))
    return err


CHECKS = [
    ("theta_vs_direct_partition", check_theta_vs_direct, 1e-12),
    ("quadrature_vs_bessel_closed_form", check_quadrature_vs_closed_form, 1e-8),
    ("dense_vs_tridiagonal_eigensolver", check_dense_vs_tridiagonal, 1e-10),
    ("hellmann_feynman_cross_check", check_hellmann_feynman, 1e-6),
]


def run_selftest(seed: int = 0, out=None) -> bool:
    """Run all checks, each against its own fixed threshold; print a pass/fail
    table, return overall success."""
    # A bad seed is a usage error, not a failed check.
    if not (isinstance(seed, numbers.Integral) and seed >= 0):
        raise DomainError(f"seed must be a non-negative integer, got {seed!r}")
    if out is None:
        out = sys.stdout
    all_ok = True
    for name, check, threshold in CHECKS:
        rng = np.random.default_rng(seed)
        max_err = check(rng)
        ok = max_err < threshold
        all_ok &= ok
        print(f"{name:<36} {'PASS' if ok else 'FAIL'}  max_err={max_err:.3e}  tol={threshold:.1e}", file=out)
    return all_ok
