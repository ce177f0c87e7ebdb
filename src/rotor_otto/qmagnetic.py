"""Quantum magnetic-dipole machine.

The Hamiltonian H(lambda) = L_z^2/2 - lambda L_z is diagonal in the
angular-momentum basis with eigenvalues m(m - 2 lambda)/2, m integer.
The production path for all moments is the direct truncated Boltzmann sum
over m, taken in the offset k = m - round(lambda)
(momentum_moments); the theta-function and Fourier forms below are
verification oracles and a fast path for the deviation epsilon at moderate
tau.

epsilon(lambda, tau) = <L_z> - lambda is the genuinely quantum deviation of
the thermal mean momentum from the classical value: bounded by 1/2, zero at
every integer and half-integer lambda, sawtooth-shaped as tau -> 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import jacobi_theta3
from .units import (
    ConvergenceError,
    CyclePoint,
    DomainError,
    validate_control,
    validate_count,
    validate_temperature,
)

# Edge terms of the m-window sit at least this many nats below the peak weight.
_WINDOW_NATS = 40.0
_WINDOW_MAX_HALFWIDTH = 1 << 23
# Lambda values are summed in blocks of at most this many Boltzmann terms.
_BLOCK_TERMS = 1 << 16


@dataclass(frozen=True)
class MomentumStats:
    """Thermal momentum moments of the magnetic rotor at one (lambda, tau).

    mean_lz and second_moment_lz are in units of hbar and hbar^2;
    epsilon = mean_lz - lambda; variance_lz = <(L_z - <L_z>)^2>;
    log_partition is ln Z of the direct sum.
    """

    mean_lz: float
    second_moment_lz: float
    epsilon: float
    variance_lz: float
    log_partition: float
    terms_used: int


def momentum_moments(lam, tau: float):
    """Gibbs moments of k = m - round(lambda) at one tau, elementwise over lambda.

    Returns (mu, nu, log_z, terms): mu = <k>, nu = <k^2>, log_z = ln Z of the
    direct sum over m, and the number of terms summed per lambda.  With
    f = lambda - round(lambda), the weight of m = round(lambda) + k relative
    to that of round(lambda) is e^(-k (k - 2f)/(2 tau)): no term grows with
    |lambda|, and near the ground state mu and nu keep their full relative
    precision.  The closed-form window |k| <= ceil(sqrt(2 tau N)) + 1 puts
    both edges at least N = _WINDOW_NATS nats below the peak, since |f| <= 1/2.
    """
    tau = validate_temperature(tau)
    lam = np.asarray(lam, dtype=float)
    validate_control(np.max(np.abs(lam), initial=0.0))
    half = math.ceil(math.sqrt(2.0 * tau * _WINDOW_NATS)) + 1
    if half > _WINDOW_MAX_HALFWIDTH:
        raise ConvergenceError(f"momentum window too wide at tau={tau}")
    k = np.arange(-half, half + 1, dtype=float)
    flat = lam.ravel()
    mu, nu, log_z = np.empty((3, flat.size))
    step = max(1, _BLOCK_TERMS // k.size)
    for start in range(0, flat.size, step):
        block = slice(start, start + step)
        center = np.round(flat[block])
        f = (flat[block] - center)[:, None]
        w = np.exp(-k * (k - 2.0 * f) / (2.0 * tau))
        norm = w.sum(axis=1)
        mu[block] = (w * k).sum(axis=1) / norm
        nu[block] = (w * k * k).sum(axis=1) / norm
        log_z[block] = -center * (center - 2.0 * flat[block]) / (2.0 * tau) + np.log(norm)
    mu, nu, log_z = (v.reshape(lam.shape) for v in (mu, nu, log_z))
    eps = mu - (lam - np.round(lam))
    if not (np.all(np.abs(eps) <= 0.5 + 1e-12) and np.all(nu - mu * mu >= -1e-9)):
        raise DomainError(f"momentum moments out of range at tau={tau}: |epsilon| > 1/2 "
                          "or negative variance")
    return mu, nu, log_z, k.size


def quantum_partition_magnetic_theta(lam: float, tau: float) -> float:
    """ln Z via Poisson summation: sqrt(2 pi tau) e^(lambda^2/2tau) theta_3."""
    lam = validate_control(lam)
    tau = validate_temperature(tau)
    theta = jacobi_theta3(-math.pi * lam, -2.0 * math.pi**2 * tau)
    return 0.5 * math.log(2.0 * math.pi * tau) + lam * lam / (2.0 * tau) + math.log(theta)


def momentum_stats(lam: float, tau: float) -> MomentumStats:
    """Thermal mean, second moment and variance of L_z at one (lambda, tau)."""
    lam = validate_control(lam)
    center = float(round(lam))
    mu, nu, log_z, terms = (float(v) for v in momentum_moments(lam, tau))
    return MomentumStats(
        mean_lz=center + mu,
        second_moment_lz=center * center + 2.0 * center * mu + nu,
        epsilon=mu - (lam - center),
        variance_lz=nu - mu * mu,
        log_partition=log_z,
        terms_used=int(terms),
    )


def epsilon_fourier(lam: float, tau: float, n_max: int | None = None) -> float:
    """Fourier-series evaluation of the momentum deviation epsilon.

    epsilon = sum_{n>=1} (-1)^n [2 pi tau / sinh(2 pi^2 n tau)] sin(2 pi n lambda).

    With n_max=None the series is truncated once the coefficient magnitude
    drops below 1e-15; if that does not happen within 1e5 terms (very small
    tau), the direct Boltzmann sum is used instead.
    """
    lam = validate_control(lam)
    tau = validate_temperature(tau)
    auto = n_max is None
    cap = 100000 if auto else int(n_max)
    if cap < 1:
        raise DomainError(f"n_max must be >= 1, got {n_max}")
    total = 0.0
    for n in range(1, cap + 1):
        arg = 2.0 * math.pi**2 * n * tau
        coef = 4.0 * math.pi * tau * math.exp(-arg) if arg > 700.0 else 2.0 * math.pi * tau / math.sinh(arg)
        if auto and coef < 1e-15:
            return total
        total += (-1.0) ** n * coef * math.sin(2.0 * math.pi * n * lam)
    if auto:
        # tau so small the series converges too slowly; the direct sum is exact.
        return momentum_stats(lam, tau).epsilon
    return total


def cycle_heats_magnetic(lam_h, tau_h, lam_c: float, tau_c: float):
    """(Q_c, Q_h, W) of the quantum magnetic machine on the lam_h x tau_h grid.

    The kernel contract of cycle.py.  Each stroke j enters through its
    moments mu_j, nu_j of k = m - c_j, c_j = round(lambda_j), and
    f_j = lambda_j - c_j.  With D = c_h - c_c (shift) and
    d = lambda_h - lambda_c, the quartet differences reduce to

        Q_c = (nu_c - nu_h)/2 + f_c (mu_h - mu_c) - D (mu_h - f_c + D/2),
        Q_h = (nu_h - nu_c)/2 + f_h (mu_c - mu_h) + D (mu_c - f_h - D/2),
        W   = d (mu_h - mu_c + D) = -(Q_c + Q_h),

    in which the lambda^2 and f^2 terms have cancelled algebraically, so the
    heats keep full precision at any |lambda| and near the ground state.
    The hot moments are one momentum_moments call per tau_h row.
    """
    mu_c, nu_c, _, _ = momentum_moments(lam_c, tau_c)
    mu_h, nu_h = np.array([momentum_moments(lam_h, tau)[:2] for tau in tau_h]).transpose(1, 0, 2)
    c_h, c_c = np.round(lam_h), round(lam_c)
    f_h, f_c, shift = lam_h - c_h, lam_c - c_c, c_h - c_c
    q_c = 0.5 * (nu_c - nu_h) + f_c * (mu_h - mu_c) - shift * (mu_h - f_c + 0.5 * shift)
    q_h = 0.5 * (nu_h - nu_c) + f_h * (mu_c - mu_h) + shift * (mu_c - f_h - 0.5 * shift)
    return q_c, q_h, (lam_h - lam_c) * (mu_h - mu_c + shift)


def optimal_work_scan(
    lambda_c: float,
    tau_c: float,
    lambda_h_range: tuple[float, float, int],
    tau_h_range: tuple[float, float, int],
) -> tuple[CyclePoint, float]:
    """Grid-minimize the per-cycle work over hot-stroke parameters.

    Returns the minimizing CyclePoint and W_min (units of E); grid rows
    with tau_h < tau_c are skipped.  For lambda_c -> 1/2 from below and
    tau_c -> 0, W_min approaches -E/16 from above with minimizer
    lambda_h -> lambda_c/2; the mirrored branch lambda_c > 1/2 with
    lambda_h = (1 + lambda_c)/2 gives the same optimum.

    The order of the limits matters: tau_c must stay well below the cold
    doublet gap (1 - 2 lambda_c)/2, so that the cold state is the m = 0
    ground state and W_min -> -lambda_c^2/4.  At finite tau_c, since
    epsilon_h <= 0 for lambda_h in [0, 1/2], every hot point with
    0 <= lambda_h <= lambda_c < 1/2 obeys W >= -(lambda_c - <L_z>_c)^2/4.  At lambda_c = 0.4999 with
    tau_c = 1e-4, equal to the gap, <L_z>_c = 1/(1 + e) and this bound is
    -0.0133 E, far above -E/16.
    """
    (lam_lo, lam_hi, lam_n), (tau_lo, tau_hi, tau_n) = lambda_h_range, tau_h_range
    lams = np.linspace(lam_lo, lam_hi, validate_count(lam_n, 1, "optimal_work_scan lambda_h axis"))
    taus = np.linspace(tau_lo, tau_hi, validate_count(tau_n, 1, "optimal_work_scan tau_h axis"))
    taus = taus[~(taus < tau_c)]
    if taus.size == 0:
        raise DomainError("optimal_work_scan grid contains no tau_h >= tau_c")
    w = cycle_heats_magnetic(lams, taus, lambda_c, tau_c)[2]
    # argmin takes the first minimum in (tau_h, lambda_h) row-major order.
    i_tau, i_lam = np.unravel_index(np.argmin(w), w.shape)
    return CyclePoint(lams[i_lam], lambda_c, taus[i_tau], tau_c), float(w[i_tau, i_lam])
