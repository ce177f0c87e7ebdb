"""Independent reference computations used by the acceptance and oracle tests.

Neither route shares code with ``rotor_otto``:

- ``momentum_moments_mp`` sums the magnetic rotor's Boltzmann series over
  m at 30 significant digits (mpmath), in a fixed window around
  round(lambda);
- ``dense_quartet_electric`` builds the pendulum Hamiltonian as a dense
  matrix in the momentum basis and takes the traces Tr[rho_j H_i] directly,
  without the H_i = H_j + (lambda_i - lambda_j) S identity or the cutoff
  certificate of the production path; ``dense_heats_electric`` forms the
  cycle's heats from those traces;
- ``potential_average_mp`` integrates the classical pendulum's angular
  average <sin^2(alpha/2)> at 30 significant digits (mpmath.quad), with the
  interval split at the peak of the integrand.
"""

from __future__ import annotations

import functools
import math

import numpy as np


# Working precision (significant digits) and window half-width of the sums.
MP_DPS = 30
MP_HALF = 20


@functools.lru_cache(maxsize=1024)
def momentum_moments_mp(lam: float, tau: float):
    """(<L_z>, <L_z^2>) of the magnetic rotor as mpmath numbers.

    Sums the Boltzmann weights exp(-m(m - 2 lambda)/(2 tau)) over
    |m - round(lambda)| <= MP_HALF at MP_DPS digits; the float inputs are
    taken exactly.  Raises ValueError if the window edge is not negligible
    at that precision.
    """
    import mpmath

    if (MP_HALF - 0.5) ** 2 / (2.0 * tau) < (MP_DPS + 5) * math.log(10.0):
        raise ValueError(f"momentum window too narrow at tau={tau}")
    with mpmath.workdps(MP_DPS):
        lam_mp = mpmath.mpf(lam)
        two_tau = 2 * mpmath.mpf(tau)
        ms = range(round(lam) - MP_HALF, round(lam) + MP_HALF + 1)
        # -(m - lambda)^2 differs from -m(m - 2 lambda) by a constant, which
        # keeps the peak weight O(1).
        weights = [mpmath.exp(-((m - lam_mp) ** 2) / two_tau) for m in ms]
        norm = mpmath.fsum(weights)
        mean = mpmath.fsum(w * m for w, m in zip(weights, ms)) / norm
        second = mpmath.fsum(w * m * m for w, m in zip(weights, ms)) / norm
        return +mean, +second


def magnetic_cycle_mp(lam_h: float, lam_c: float, tau_h: float, tau_c: float):
    """(Q_c, W) of the quantum magnetic Otto cycle from the mpmath sums.

    Q_c = <H_c>_c - <H_c>_h with <H_i>_j = <L_z^2>_j/2 - lambda_i <L_z>_j,
    and W = (lambda_h - lambda_c)(<L_z>_h - <L_z>_c).
    """
    import mpmath

    l_h, l2_h = momentum_moments_mp(lam_h, tau_h)
    l_c, l2_c = momentum_moments_mp(lam_c, tau_c)
    with mpmath.workdps(MP_DPS):
        lc = mpmath.mpf(lam_c)
        q_c = (l2_c / 2 - lc * l_c) - (l2_h / 2 - lc * l_h)
        w = (mpmath.mpf(lam_h) - lc) * (l_h - l_c)
        return +q_c, +w


def potential_average_mp(lam: float, tau: float):
    """<sin^2(alpha/2)> under the weight exp(-(lambda/tau) sin^2(alpha/2)), as an mpmath number.

    The integrands are even in alpha, so both integrals run over [0, pi],
    split where sin^2(alpha/2) e^(-x sin^2(alpha/2)) peaks, at
    sin^2(alpha/2) = 1/x for x = lambda/tau > 1; the float inputs are taken
    exactly.
    """
    import mpmath

    with mpmath.workdps(MP_DPS):
        x = mpmath.mpf(lam) / mpmath.mpf(tau)
        points = [0, mpmath.pi] if x <= 1 else [0, 2 * mpmath.asin(1 / mpmath.sqrt(x)), mpmath.pi]

        def boltzmann(alpha):
            return mpmath.exp(-x * mpmath.sin(alpha / 2) ** 2)

        num = mpmath.quad(lambda a: mpmath.sin(a / 2) ** 2 * boltzmann(a), points)
        return +(num / mpmath.quad(boltzmann, points))


def _dense_pendulum(lam: float, cutoff: int) -> np.ndarray:
    # <m|L_z^2/2 + lambda sin^2(alpha/2)|m'>: sin^2(alpha/2) = 1/2 - cos(alpha)/2
    # and cos(alpha) couples m to m +- 1 with amplitude 1/2.
    m = np.arange(-cutoff, cutoff + 1, dtype=float)
    h = np.diag(0.5 * m * m + 0.5 * lam)
    idx = np.arange(2 * cutoff)
    h[idx, idx + 1] = h[idx + 1, idx] = -0.25 * lam
    return h


def dense_quartet_electric(
    lam_h: float, lam_c: float, tau_h: float, tau_c: float, cutoff: int = 120
) -> dict[str, float]:
    """<H_i>_j = Tr[rho_j H_i] of the quantum pendulum, dense in |m| <= cutoff.

    Returns a dict with keys hh, hc, ch, cc (entry ij: Hamiltonian at
    lambda_i, Gibbs state at (lambda_j, tau_j)).  Raises ValueError if a
    Gibbs state puts non-negligible weight on the truncation edge.
    """
    ham = {"h": _dense_pendulum(lam_h, cutoff), "c": _dense_pendulum(lam_c, cutoff)}
    taus = {"h": tau_h, "c": tau_c}
    out = {}
    for j in "hc":
        energies, vecs = np.linalg.eigh(ham[j])
        p = np.exp(-(energies - energies[0]) / taus[j])
        p /= p.sum()
        rho = (vecs * p) @ vecs.T
        if max(rho[0, 0], rho[-1, -1]) > 1e-20:
            raise ValueError(f"cutoff {cutoff} too small at tau_{j}={taus[j]}")
        for i in "hc":
            out[i + j] = float(np.sum(rho * ham[i]))
    return out


def dense_heats_electric(lam_h: float, lam_c: float, tau_h: float, tau_c: float):
    """(<H>_h, <H>_c, Q_c, Q_h, W) of the quantum pendulum cycle from dense_quartet_electric.

    <H>_j is the diagonal entry jj; Q_c = cc - ch, Q_h = hh - hc, W = -(Q_c + Q_h).
    """
    dense = dense_quartet_electric(lam_h, lam_c, tau_h, tau_c)
    q_c, q_h = dense["cc"] - dense["ch"], dense["hh"] - dense["hc"]
    return dense["hh"], dense["cc"], q_c, q_h, -(q_c + q_h)
