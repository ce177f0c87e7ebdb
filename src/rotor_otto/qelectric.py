"""Quantum electric-dipole (pendulum) machine.

In the angular-momentum basis |m>, m = -M..M, the pendulum Hamiltonian
H(lambda) = L_z^2/2 + lambda sin^2(alpha/2) is real symmetric tridiagonal:
sin^2(alpha/2) = 1/2 - (e^{i alpha} + e^{-i alpha})/4 contributes 1/2 on the
diagonal and -1/4 on the first off-diagonals.  Thermal averages of the
non-commuting H(lambda_i) under the Gibbs state of H(lambda_j) use the
operator identity H(lambda_i) = H(lambda_j) + (lambda_i - lambda_j) S with
S = sin^2(alpha/2), so only one diagonalization per stroke is needed.

The basis cutoff M is doubled from 32 until the stroke averages are
stationary; convergence is certified a posteriori, not assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg
from scipy.special import logsumexp

from .cycle import heats
from .units import (
    ConvergenceError,
    CyclePoint,
    DomainError,
    MeanEnergyQuartet,
    validate_control,
    validate_temperature,
)

_INITIAL_CUTOFF = 32
_MAX_CUTOFF = 1 << 15
# Below this tau the Boltzmann weights underflow; the ground-state-only
# average is exact in that limit.
_GROUND_STATE_TAU = 1e-6
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class TridiagonalHamiltonian:
    """Pendulum Hamiltonian in the momentum basis m = -M..M (units of E)."""

    diag: np.ndarray      # m^2/2 + lambda/2, length 2M+1
    offdiag: np.ndarray   # -lambda/4, length 2M
    cutoff_m: int
    lam: float


@dataclass(frozen=True)
class SpectralData:
    """Truncated spectrum of a pendulum Hamiltonian at fixed lambda."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None
    cutoff_m: int

    def orthonormality_residual(self) -> float:
        if self.eigenvectors is None:
            raise DomainError("no eigenvectors stored")
        v = self.eigenvectors
        return float(np.abs(v.T @ v - np.eye(v.shape[1])).max())


def build_pendulum_hamiltonian(lam: float, cutoff_m: int) -> TridiagonalHamiltonian:
    """Tridiagonal matrix of H(lambda) truncated at |m| <= cutoff_m."""
    lam = validate_control(lam, require_nonnegative=True)
    if cutoff_m < 1:
        raise DomainError(f"cutoff_m must be >= 1, got {cutoff_m}")
    m = np.arange(-cutoff_m, cutoff_m + 1, dtype=float)
    diag = 0.5 * m * m + 0.5 * lam
    offdiag = np.full(2 * cutoff_m, -0.25 * lam)
    return TridiagonalHamiltonian(diag=diag, offdiag=offdiag, cutoff_m=cutoff_m, lam=lam)


def eigensolve_sym_tridiagonal(
    h: TridiagonalHamiltonian, want_vectors: bool
) -> SpectralData:
    """All eigenvalues (and optionally orthonormal eigenvectors) of h."""
    try:
        if want_vectors:
            vals, vecs = scipy.linalg.eigh_tridiagonal(h.diag, h.offdiag)
        else:
            vals = scipy.linalg.eigh_tridiagonal(h.diag, h.offdiag, eigvals_only=True)
            vecs = None
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
        raise ConvergenceError(f"tridiagonal eigensolve failed: {exc}") from exc
    return SpectralData(eigenvalues=vals, eigenvectors=vecs, cutoff_m=h.cutoff_m)


def _thermal_weights(eigenvalues: np.ndarray, tau: float) -> np.ndarray:
    """Boltzmann weights relative to the ground state (avoids underflow)."""
    if tau < _GROUND_STATE_TAU:
        w = np.zeros_like(eigenvalues)
        w[0] = 1.0
        return w
    w = np.exp(-(eigenvalues - eigenvalues[0]) / tau)
    return w / w.sum()


def _stroke_averages_at(lam: float, tau: float, cutoff: int) -> tuple[float, float]:
    """(<H>, <S>) in the Gibbs state of H(lambda) at fixed basis cutoff."""
    h = build_pendulum_hamiltonian(lam, cutoff)
    spec = eigensolve_sym_tridiagonal(h, want_vectors=True)
    w = _thermal_weights(spec.eigenvalues, tau)
    e_avg = float(w @ spec.eigenvalues)
    # <n|S|n> = 1/2 - (1/2) sum_k v_k v_{k+1} for the tridiagonal S
    # (diag 1/2, offdiag -1/4), same sign convention as the builder.
    v = spec.eigenvectors
    overlap = np.einsum("kn,kn->n", v[:-1, :], v[1:, :])
    s_avg = float(w @ (0.5 - 0.5 * overlap))
    return e_avg, s_avg


@lru_cache(maxsize=65536)
def pendulum_stroke_averages(lam: float, tau: float, tol: float) -> tuple[float, float, int]:
    """(<H>, <S>, certified cutoff) with cutoff doubling from 32.

    Doubles M until both averages change by less than tol, or by less than
    their round-off 8 eps (M^2/2 + 3 lambda/2) at the larger M, which bounds
    the spectral norm of H (a tighter tol would double on noise alone);
    raises ConvergenceError past M = 2^15.
    """
    lam = validate_control(lam, require_nonnegative=True)
    tau = validate_temperature(tau)
    if tol <= 0.0:
        raise DomainError(f"tol must be > 0, got {tol}")
    cutoff = _INITIAL_CUTOFF
    prev = _stroke_averages_at(lam, tau, cutoff)
    while cutoff <= _MAX_CUTOFF:
        cutoff *= 2
        cur = _stroke_averages_at(lam, tau, cutoff)
        bound = max(tol, 8.0 * _EPS * (0.5 * cutoff * cutoff + 1.5 * lam))
        if abs(cur[0] - prev[0]) < bound and abs(cur[1] - prev[1]) < bound:
            return cur[0], cur[1], cutoff
        prev = cur
    raise ConvergenceError(
        f"stroke averages not converged at lambda={lam}, tau={tau} up to M={_MAX_CUTOFF}"
    )


def _quartet(lam_h, tau_h, lam_c: float, tau_c: float, tol: float):
    """(hh, hc, ch, cc) arrays, elementwise over lam_h, tau_h.

    Cross entries use <H_i>_j = <H_j>_j + (lambda_i - lambda_j) <S>_j; the
    per-stroke tolerance is tightened by the lambda spread so the assembled
    quartet entries meet tol.
    """
    lam_h, tau_h = np.broadcast_arrays(np.asarray(lam_h, dtype=float), np.asarray(tau_h, dtype=float))
    dlam = lam_h - lam_c
    stroke_tol = tol / (1.0 + np.abs(dlam))
    strokes = []
    for lam, tau, stol in zip(lam_h.ravel().tolist(), tau_h.ravel().tolist(), stroke_tol.ravel().tolist()):
        e_h, s_h, _ = pendulum_stroke_averages(lam, tau, stol)
        e_c, s_c, _ = pendulum_stroke_averages(lam_c, tau_c, stol)
        strokes.append((e_h, s_h, e_c, s_c))
    e_h, s_h, e_c, s_c = np.array(strokes).T.reshape((4,) + lam_h.shape)
    return e_h, e_c + dlam * s_c, e_h - dlam * s_h, e_c


def thermal_quartet_electric(point: CyclePoint, tol: float = 1e-10) -> MeanEnergyQuartet:
    """Mean-energy quartet of the quantum electric machine."""
    quartet = _quartet(point.lambda_h, point.tau_h, point.lambda_c, point.tau_c, tol)
    return MeanEnergyQuartet(*map(float, quartet))


def cycle_heats_electric(lam_h, tau_h, lam_c: float, tau_c: float, tol: float = 1e-10):
    """(Q_c, Q_h, W) of the quantum electric machine, elementwise over lam_h, tau_h.

    One pair of pendulum strokes per entry, through the cache of
    pendulum_stroke_averages.
    """
    return heats(*_quartet(lam_h, tau_h, lam_c, tau_c, tol))


def log_partition_pendulum(lam: float, tau: float, cutoff_m: int) -> float:
    """ln Z of the truncated pendulum spectrum (absolute energies)."""
    tau = validate_temperature(tau)
    h = build_pendulum_hamiltonian(lam, cutoff_m)
    spec = eigensolve_sym_tridiagonal(h, want_vectors=False)
    return float(logsumexp(-spec.eigenvalues / tau))
