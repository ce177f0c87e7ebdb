"""Quantum electric-dipole (pendulum) machine.

In the angular-momentum basis |m>, m = -M..M, the pendulum Hamiltonian
H(lambda) = L_z^2/2 + lambda sin^2(alpha/2) is real symmetric tridiagonal:
sin^2(alpha/2) = 1/2 - (e^{i alpha} + e^{-i alpha})/4 contributes 1/2 on the
diagonal and -1/4 on the first off-diagonals.  Thermal averages of the
non-commuting H(lambda_i) under the Gibbs state of H(lambda_j) use the
operator identity H(lambda_i) = H(lambda_j) + (lambda_i - lambda_j) S with
S = sin^2(alpha/2), so each stroke needs only the spectrum of its own H.

The spectrum does not depend on tau: a sweep diagonalizes H(lambda) once per
distinct lambda and per basis cutoff M, and forms the averages of every tau
of that column from it.  M is doubled from 32 until the averages are
stationary; each tau carries its own doubling certificate, so convergence is
certified a posteriori per tau, not assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg.lapack
from scipy.special import logsumexp

from .cycle import heats
from .units import (
    ConvergenceError,
    DomainError,
    validate_control,
    validate_temperature,
    validate_tolerance,
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
    """All eigenvalues, ascending (and optionally orthonormal eigenvectors), of h.

    LAPACK dstevd (divide and conquer), the driver scipy.linalg.eigh_tridiagonal
    selects for a full spectrum, called directly: at the cutoffs most strokes
    certify at (M = 32, 64) that wrapper's argument checks add 15-30% to a solve.
    """
    if not (np.isfinite(h.diag).all() and np.isfinite(h.offdiag).all()):
        raise DomainError("tridiagonal Hamiltonian has non-finite entries")
    vals, vecs, info = scipy.linalg.lapack.dstevd(h.diag, h.offdiag, compute_v=want_vectors)
    if info != 0:
        raise ConvergenceError(f"tridiagonal eigensolve failed: LAPACK dstevd info={info}")
    return SpectralData(
        eigenvalues=vals, eigenvectors=vecs if want_vectors else None, cutoff_m=h.cutoff_m
    )


def _column_at(lam: float, taus: np.ndarray, cutoff: int) -> np.ndarray:
    """(<H>, <S>) rows in the Gibbs states of H(lambda) at each tau, at fixed cutoff.

    One eigensolve serves every tau; a tau below _GROUND_STATE_TAU takes the
    ground state only.  Each tau is averaged by its own 1-D dot product, so
    its averages do not depend on which other taus share the call.
    """
    h = build_pendulum_hamiltonian(lam, cutoff)
    spec = eigensolve_sym_tridiagonal(h, want_vectors=True)
    energies = spec.eigenvalues
    # <n|S|n> = 1/2 - (1/2) sum_k v_k v_{k+1} for the tridiagonal S
    # (diag 1/2, offdiag -1/4), same sign convention as the builder.
    v = spec.eigenvectors
    overlap = np.einsum("kn,kn->n", v[:-1, :], v[1:, :])
    s_diag = 0.5 - 0.5 * overlap
    # Boltzmann weights relative to the ground state (avoids underflow).
    w = np.exp(-(energies - energies[0]) / np.maximum(taus, _GROUND_STATE_TAU)[:, None])
    w[taus < _GROUND_STATE_TAU, 1:] = 0.0
    w /= w.sum(axis=1, keepdims=True)
    return np.array([(row @ energies, row @ s_diag) for row in w]).T


def pendulum_column_averages(
    lam: float, taus, tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(<H>[], <S>[], certified cutoff[]) at every tau, with cutoff doubling from 32.

    The spectrum at each cutoff M is computed once for all taus.  Each tau
    keeps doubling until both of its averages change by less than tol, or by
    less than their round-off 8 eps (M^2/2 + 3 lambda/2) at the larger M,
    which bounds the spectral norm of H (a tighter tol would double on noise
    alone); a tau that has passed is not evaluated at larger M.  Raises
    ConvergenceError, naming the first tau left uncertified, past M = 2^15.
    """
    lam = validate_control(lam, require_nonnegative=True)
    taus = np.array([validate_temperature(tau) for tau in np.ravel(taus).tolist()])
    validate_tolerance(tol)
    averages = np.empty((2, len(taus)))
    certified = np.zeros(len(taus), dtype=int)
    open_ = np.arange(len(taus))  # taus not yet certified
    cutoff = _INITIAL_CUTOFF
    prev = _column_at(lam, taus, cutoff)
    while cutoff <= _MAX_CUTOFF:
        cutoff *= 2
        cur = _column_at(lam, taus[open_], cutoff)
        # Written for every open tau; a tau's last write is at its certified cutoff.
        averages[:, open_], certified[open_] = cur, cutoff
        bound = max(tol, 8.0 * _EPS * (0.5 * cutoff * cutoff + 1.5 * lam))
        pending = ~(np.abs(cur - prev) < bound).all(axis=0)
        open_, prev = open_[pending], cur[:, pending]
        if not len(open_):
            return averages[0], averages[1], certified
    raise ConvergenceError(
        f"stroke averages not converged at lambda={lam}, tau={taus[open_[0]]} "
        f"up to M={_MAX_CUTOFF}"
    )


@lru_cache(maxsize=65536)
def pendulum_stroke_averages(lam: float, tau: float, tol: float) -> tuple[float, float, int]:
    """(<H>, <S>, certified cutoff) at one tau: pendulum_column_averages on [tau]."""
    e_avg, s_avg, cutoff = pendulum_column_averages(lam, [tau], tol)
    return float(e_avg[0]), float(s_avg[0]), int(cutoff[0])


def cycle_heats_electric(lam_h, tau_h, lam_c: float, tau_c: float, tol: float = 1e-10):
    """(Q_c, Q_h, W) of the quantum electric machine, elementwise over lam_h, tau_h.

    The quartet's cross entries use <H_i>_j = <H_j>_j + (lambda_i - lambda_j) <S>_j;
    the per-stroke tolerance is tightened by the lambda spread so the quartet
    entries meet tol.  The hot strokes of each distinct lambda_h, which share
    that tolerance, are one column call of pendulum_column_averages; the cold
    stroke goes through the cache of pendulum_stroke_averages.
    """
    lam_h, tau_h = np.broadcast_arrays(np.asarray(lam_h, dtype=float), np.asarray(tau_h, dtype=float))
    dlam = lam_h - lam_c
    columns: dict[float, list[int]] = {}
    for cell, lam in enumerate(lam_h.ravel().tolist()):
        columns.setdefault(lam, []).append(cell)
    taus = tau_h.ravel()
    strokes = np.empty((4, lam_h.size))
    for lam, cells in columns.items():
        stroke_tol = tol / (1.0 + abs(lam - lam_c))
        strokes[:2, cells] = pendulum_column_averages(lam, taus[cells], stroke_tol)[:2]
        strokes[2, cells], strokes[3, cells], _ = pendulum_stroke_averages(lam_c, tau_c, stroke_tol)
    e_h, s_h, e_c, s_c = strokes.reshape((4,) + lam_h.shape)
    return heats(e_h, e_c + dlam * s_c, e_h - dlam * s_h, e_c)


def log_partition_pendulum(lam: float, tau: float, cutoff_m: int) -> float:
    """ln Z of the truncated pendulum spectrum (absolute energies)."""
    tau = validate_temperature(tau)
    h = build_pendulum_hamiltonian(lam, cutoff_m)
    spec = eigensolve_sym_tridiagonal(h, want_vectors=False)
    return float(logsumexp(-spec.eigenvalues / tau))
