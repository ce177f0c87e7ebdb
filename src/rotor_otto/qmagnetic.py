"""Quantum magnetic-dipole machine.

The Hamiltonian H(lambda) = L_z^2/2 - lambda L_z is diagonal in the
angular-momentum basis with eigenvalues m(m - 2 lambda)/2, m integer.
Every moment is the direct truncated Boltzmann sum over m, taken in the
offset k = m - round(lambda) over a window set by tau alone
(momentum_moments): any set of (lambda, tau) cells, a grid or not, is
summed in one call, the cells that share a window together.  Its oracles
live outside this module: the theta-function form of ln Z in selftest, the
Fourier series of epsilon in the test suite.

epsilon(lambda, tau) = <L_z> - lambda is the genuinely quantum deviation of
the thermal mean momentum from the classical value: bounded by 1/2, zero at
every integer and half-integer lambda, sawtooth-shaped as tau -> 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .units import (
    ConvergenceError,
    CyclePoint,
    DomainError,
    grid_axis,
    validate_control,
    validate_temperature,
)

# Edge terms of the m-window sit at least this many nats below the peak weight.
_WINDOW_NATS = 40.0
_WINDOW_MAX_HALFWIDTH = 1 << 23
# (tau, lambda) pairs are summed in blocks of at most this many Boltzmann
# terms: 64 KB per temporary, below glibc's default mmap threshold (128 KB).
# Freeing a larger, mmapped temporary raises that threshold, and the heap then
# keeps the memory of later ones resident.
_BLOCK_TERMS = 1 << 13


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


# Every exponent of a weight is <= 0, and is -inf where it passes the float
# range (subnormal tau): the weight is 0.0.  The ground-state term of log_z,
# ~ -lambda^2, is +-inf past |lambda| ~ 1e154; no heat uses log_z.
@np.errstate(over="ignore")
def momentum_moments(lam, tau):
    """Gibbs moments of k = m - round(lambda), elementwise over lam and tau, which broadcast together.

    Returns (mu, nu, log_z, terms), each of the broadcast shape: mu = <k>,
    nu = <k^2> and log_z = ln Z of the direct sum over m, and terms, the
    number of terms summed at each cell.  With f = lambda - round(lambda),
    the weight of m = round(lambda) + k relative to that of round(lambda) is
    e^(-k (k - 2f)/(2 tau)): no term grows with |lambda|, and near the ground
    state mu and nu keep their full relative precision.  The closed-form
    window |k| <= ceil(sqrt(2 tau N)) + 1 puts both edges at least
    N = _WINDOW_NATS nats below the peak, since |f| <= 1/2.

    Every tau's window is checked, in order, before any sum.  The cells are
    grouped by window, and each group is summed in blocks of cells, at most
    _BLOCK_TERMS terms each.  Each cell is reduced over its own window along
    the last axis, so its sums are the same bits whatever other cells share
    the call.
    """
    tau = np.asarray(tau)
    taus = [validate_temperature(t) for t in tau.ravel().tolist()]
    lam = np.asarray(lam, dtype=float)
    validate_control(np.max(np.abs(lam), initial=0.0))
    # A width at or past the cap counts as inf, which it is near the float maximum, where ceil overflows.
    widths = (math.sqrt(2.0 * t * _WINDOW_NATS) for t in taus)
    halves = [math.ceil(width) + 1 if width < _WINDOW_MAX_HALFWIDTH else math.inf for width in widths]
    for t, half in zip(taus, halves):
        if half > _WINDOW_MAX_HALFWIDTH:
            raise ConvergenceError(f"momentum window too wide at tau={t}")
    cells_of = np.broadcast_arrays(lam, 2.0 * np.array(taus).reshape(tau.shape),
                                   np.array(halves, dtype=int).reshape(tau.shape))
    shape, (flat, two_tau, half_of) = cells_of[0].shape, (a.ravel() for a in cells_of)
    center = np.rint(flat)
    f = flat - center
    mu, nu = np.empty(flat.size), np.empty(flat.size)
    log_z = -center * (center - 2.0 * flat) / two_tau  # the ground state's term
    for half in sorted(set(halves)):
        cells = np.flatnonzero(half_of == half)
        k = np.arange(-half, half + 1, dtype=float)
        neg_k, step = -k, max(1, _BLOCK_TERMS // k.size)
        for i in range(0, cells.size, step):
            c = cells[i:i + step]
            # One row per cell: its log-weights -k (k - 2f)/(2 tau), then its weights, in place.
            w = k - 2.0 * f[c, None]
            w *= neg_k
            w /= two_tau[c, None]
            np.exp(w, out=w)
            norm, wk = w.sum(axis=1), w * k
            mu[c] = mu_c = wk.sum(axis=1) / norm
            nu[c] = nu_c = (wk * k).sum(axis=1) / norm
            log_z[c] += np.log(norm)
            good = (np.abs(mu_c - f[c]) <= 0.5 + 1e-12) & (nu_c - mu_c * mu_c >= -1e-9)
            if not good.all():
                raise DomainError(f"momentum moments out of range at tau={two_tau[c][~good][0] / 2.0}: "
                                  "|epsilon| > 1/2 or negative variance")
    return mu.reshape(shape), nu.reshape(shape), log_z.reshape(shape), (2 * half_of + 1).reshape(shape)[()]


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


def cycle_heats_magnetic(lam_h, tau_h, lam_c: float, tau_c: float):
    """(Q_c, Q_h, W) of the quantum magnetic machine, elementwise over lam_h and tau_h.

    The kernel contract of cycle.py.  Each stroke j enters through its
    moments mu_j, nu_j of k = m - c_j, c_j = round(lambda_j), and
    f_j = lambda_j - c_j.  With D = c_h - c_c (shift) and
    d = lambda_h - lambda_c, the quartet differences reduce to

        Q_c = (nu_c - nu_h)/2 + f_c (mu_h - mu_c) - D (mu_h - f_c + D/2),
        Q_h = (nu_h - nu_c)/2 + f_h (mu_c - mu_h) + D (mu_c - f_h - D/2),
        W   = d (mu_h - mu_c + D) = -(Q_c + Q_h),

    in which the lambda^2 and f^2 terms have cancelled algebraically, so the
    heats keep full precision at any |lambda| and near the ground state.
    The hot moments of every cell are one momentum_moments call.
    """
    mu_c, nu_c, _, _ = momentum_moments(lam_c, tau_c)
    mu_h, nu_h, _, _ = momentum_moments(lam_h, tau_h)
    c_h, c_c = np.round(lam_h), round(lam_c)
    f_h, f_c, shift = lam_h - c_h, lam_c - c_c, c_h - c_c
    with np.errstate(over="ignore"):  # past the float range, W = +inf and Q_c = Q_h = -inf (a Heater)
        q_c = 0.5 * (nu_c - nu_h) + f_c * (mu_h - mu_c) - shift * (mu_h - f_c + 0.5 * shift)
        q_h = 0.5 * (nu_h - nu_c) + f_h * (mu_c - mu_h) + shift * (mu_c - f_h - 0.5 * shift)
        w = (lam_h - lam_c) * (mu_h - mu_c + shift)
    w += 0.0  # in place: no temporary of the broadcast shape
    return q_c, q_h, w


def optimal_work_scan(
    lambda_c: float,
    tau_c: float,
    lambda_h_range: tuple[float, float, int],
    tau_h_range: tuple[float, float, int],
) -> tuple[CyclePoint, float]:
    """Grid-minimize the per-cycle work over hot-stroke parameters.

    Returns the minimizing CyclePoint and W_min (units of E); grid rows
    with tau_h < tau_c are skipped.  The axes are checked as a sweep's
    (grid_axis), but one point each suffices.  For lambda_c -> 1/2 from below and
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
    lams = grid_axis(lambda_h_range, "optimal_work_scan lambda_h axis", minimum=1)
    taus = grid_axis(tau_h_range, "optimal_work_scan tau_h axis", minimum=1)
    taus = taus[~(taus < tau_c)]
    if taus.size == 0:
        raise DomainError("optimal_work_scan grid contains no tau_h >= tau_c")
    w = cycle_heats_magnetic(lams, taus[:, None], lambda_c, tau_c)[2]
    # argmin takes the first minimum in (tau_h, lambda_h) row-major order.
    i_tau, i_lam = np.unravel_index(np.argmin(w), w.shape)
    return CyclePoint(lams[i_lam], lambda_c, taus[i_tau], tau_c), float(w[i_tau, i_lam])
