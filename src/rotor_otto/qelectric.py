"""Quantum electric-dipole (pendulum) machine.

In the angular-momentum basis |m>, m = -M..M, the pendulum Hamiltonian
H(lambda) = L_z^2/2 + lambda sin^2(alpha/2) is real symmetric tridiagonal:
sin^2(alpha/2) = 1/2 - (e^{i alpha} + e^{-i alpha})/4 contributes 1/2 on the
diagonal and -1/4 on the first off-diagonals.  Thermal averages of the
non-commuting H(lambda_i) under the Gibbs state of H(lambda_j) use the
operator identity H(lambda_i) = H(lambda_j) + (lambda_i - lambda_j) S with
S = sin^2(alpha/2), so each stroke needs only the spectrum of its own H.

H(lambda) commutes with the parity alpha -> -alpha, so in the basis
|c_0> = |0>, |c_m> = (|m> + |-m>)/sqrt(2) and |s_m> = (|m> - |-m>)/sqrt(2)
it splits into two symmetric tridiagonal blocks with the same diagonal
m^2/2 + lambda/2: the even block, m = 0..M, whose first off-diagonal entry is
-sqrt(2) lambda/4 and the others -lambda/4, and the odd block, m = 1..M, with
off-diagonal -lambda/4.  With q = 2 lambda these are Mathieu's two families
of period 2 pi in alpha, E = (a_2n(q) + 4 lambda)/8 for the even block and
(b_2n+2(q) + 4 lambda)/8 for the odd one (DLMF 28.2, 28.4).  Each stroke
solves both blocks, with about half the eigenvector memory of the full
(2M + 1) matrix; build_pendulum_hamiltonian keeps the full matrix for the
oracles.

The spectrum does not depend on tau: a sweep diagonalizes H(lambda) once per
lambda_h column and per basis cutoff M, and forms the averages of every tau_h
of that column from it; the cold stroke is solved once per sweep.  One solve
usually certifies a tau on its own, by two bounds.  In the infinite operator
a kept level n has the residual r_n = (lambda/4)|v_n[M]|, so a true level
lies within r_n of it (Parlett, The Symmetric Eigenvalue Problem, SIAM 1998).
Since V = lambda sin^2(alpha/2) >= 0, min-max puts the levels above the
cutoff at or above the free-rotor levels m^2/2, |m| > M, whose Boltzmann
tail has a closed form.  M starts at the first cutoff of the ladder 32 * 2^k
where that tail can be below tol, and a tau whose bounds fail is solved
again at twice the cutoff.  scipy.linalg.lapack is imported by the first
solve, so a process that runs no pendulum never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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
_SQRT2 = float(np.sqrt(2.0))


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
    import scipy.linalg.lapack

    if not (np.isfinite(h.diag).all() and np.isfinite(h.offdiag).all()):
        raise DomainError("tridiagonal Hamiltonian has non-finite entries")
    vals, vecs, info = scipy.linalg.lapack.dstevd(h.diag, h.offdiag, compute_v=want_vectors)
    if info != 0:
        raise ConvergenceError(f"tridiagonal eigensolve failed: LAPACK dstevd info={info}")
    return SpectralData(
        eigenvalues=vals, eigenvectors=vecs if want_vectors else None, cutoff_m=h.cutoff_m
    )


def _parity_blocks(lam: float, cutoff: int) -> tuple[TridiagonalHamiltonian, TridiagonalHamiltonian]:
    """Even (m = 0..cutoff) and odd (m = 1..cutoff) blocks of H(lambda) at cutoff."""
    m = np.arange(cutoff + 1, dtype=float)
    diag = 0.5 * m * m + 0.5 * lam
    offdiag = np.full(cutoff, -0.25 * lam)
    even_offdiag = offdiag.copy()
    even_offdiag[0] *= _SQRT2
    return (TridiagonalHamiltonian(diag=diag, offdiag=even_offdiag, cutoff_m=cutoff, lam=lam),
            TridiagonalHamiltonian(diag=diag[1:], offdiag=offdiag[1:], cutoff_m=cutoff, lam=lam))


def _free_rotor_tail(cutoff: int, taus: np.ndarray, e0: float) -> tuple[np.ndarray, np.ndarray]:
    """Bounds on the Boltzmann weight and energy of the levels above cutoff M.

    The levels of H beyond the first 2M + 1 lie at or above the free-rotor
    levels m^2/2, |m| > M.  With a = M + 1, m = a + k and m^2/2 >= a^2/2 + a k,
    their weights relative to a ground level e0 sum to at most
    2 e^{-(a^2/2 - e0)/tau} / (1 - q), q = e^{-a/tau}; as y e^{-y/tau} falls
    for y >= tau, their energies sum to at most
    2 e^{-(a^2/2 - e0)/tau} (a^2/2 / (1 - q) + a q / (1 - q)^2).  Both bounds
    are infinite where a^2/2 < tau or a^2/2 < e0.
    """
    a = cutoff + 1.0
    edge = 0.5 * a * a  # the lowest free-rotor level above the cutoff
    tau = np.maximum(taus, _GROUND_STATE_TAU)
    valid = (edge >= tau) & (edge >= e0)
    tau = np.minimum(tau, edge)  # keeps the invalid entries finite
    one_minus_q = -np.expm1(-a / tau)
    head = 2.0 * np.exp(min(e0 - edge, 0.0) / tau) / one_minus_q
    mass = np.where(valid, head, np.inf)
    energy = np.where(valid, head * (edge + a * (1.0 - one_minus_q) / one_minus_q), np.inf)
    return mass, energy


def _column_at(lam: float, taus: np.ndarray, cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """(<H>, <S>) rows at each tau at fixed cutoff, and bounds on their errors.

    One eigensolve per parity block serves every tau; a tau below
    _GROUND_STATE_TAU takes the ground state, the even block's first level,
    only.  One einsum averages every tau, reducing each tau's row on its
    own, so its averages do not depend on which other taus share the call.
    The error bound of <H> is the weighted residual sum_n w_n r_n plus the
    free-rotor energy tail, that of <S> (0 <= S <= 1) the same residual plus
    the tail's weight.
    """
    even, odd = (eigensolve_sym_tridiagonal(h, want_vectors=True) for h in _parity_blocks(lam, cutoff))
    energies = np.concatenate((even.eigenvalues, odd.eigenvalues))
    # <n|S|n> = 1/2 - (1/2) sum_k c_k v_k v_{k+1} for S = H'(lambda) (diag 1/2,
    # offdiag -1/4), with c_0 = sqrt(2) in the even block and c_k = 1 otherwise.
    overlaps = [np.einsum("kn,kn->n", v[:-1, :], v[1:, :]) for v in (even.eigenvectors, odd.eigenvectors)]
    overlaps[0] += (_SQRT2 - 1.0) * even.eigenvectors[0] * even.eigenvectors[1]
    s_diag = 0.5 - 0.5 * np.concatenate(overlaps)
    # Each block's last row, m = M, couples to m = M + 1 by -lambda/4.
    residual = 0.25 * lam * np.abs(np.concatenate((even.eigenvectors[-1], odd.eigenvectors[-1])))
    # Boltzmann weights relative to the ground state (avoids underflow).
    w = np.exp(-(energies - energies[0]) / np.maximum(taus, _GROUND_STATE_TAU)[:, None])
    w[taus < _GROUND_STATE_TAU, 1:] = 0.0
    w /= w.sum(axis=1, keepdims=True)
    e_avg, s_avg, res = np.einsum("tn,kn->kt", w, np.stack((energies, s_diag, residual)))
    tail_mass, tail_energy = _free_rotor_tail(cutoff, taus, energies[0])
    return np.array((e_avg, s_avg)), np.array((res + tail_energy, res + tail_mass))


def pendulum_column_averages(
    lam: float, taus, tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(<H>[], <S>[], certified cutoff[]) at every tau, usually from one solve.

    A tau is certified at cutoff M when the error bounds of both its averages
    (_column_at) are below tol, or below their round-off
    8 eps (M^2/2 + 3 lambda/2), which bounds the spectral norm of H (a tighter
    tol could never be met).  Each tau walks the ladder M = 32 * 2^k from the
    first cutoff where its free-rotor energy tail, taken above a ground level
    of 0, is below that bound; a tau whose bounds fail is evaluated again at
    twice the cutoff, and one that passed is not evaluated at larger M.  So a
    tau's cutoff and averages do not depend on the other taus of the call.
    Raises ConvergenceError, naming the first tau left uncertified, when
    M = 2^15 does not certify it.
    """
    lam = validate_control(lam, require_nonnegative=True)
    taus = np.array([validate_temperature(tau) for tau in np.ravel(taus).tolist()])
    validate_tolerance(tol)
    averages = np.empty((2, len(taus)))
    certified = np.zeros(len(taus), dtype=int)
    pending = np.ones(len(taus), dtype=bool)
    cutoff = _INITIAL_CUTOFF
    while pending.any() and cutoff <= _MAX_CUTOFF:
        bound = max(tol, 8.0 * _EPS * (0.5 * cutoff * cutoff + 1.5 * lam))
        # The true ground level is >= 0, so a tau failing this cannot pass at M.
        due = np.flatnonzero(pending)
        due = due[_free_rotor_tail(cutoff, taus[due], 0.0)[1] < bound]
        if len(due):
            cur, err = _column_at(lam, taus[due], cutoff)
            passed = (err < bound).all(axis=0)
            averages[:, due[passed]], certified[due[passed]] = cur[:, passed], cutoff
            pending[due[passed]] = False
        cutoff *= 2
    if not pending.any():
        return averages[0], averages[1], certified
    raise ConvergenceError(
        f"stroke averages not converged at lambda={lam}, tau={taus[pending][0]} "
        f"up to M={_MAX_CUTOFF}"
    )


@lru_cache(maxsize=65536)
def pendulum_stroke_averages(lam: float, tau: float, tol: float) -> tuple[float, float, int]:
    """(<H>, <S>, certified cutoff) at one tau: pendulum_column_averages on [tau]."""
    e_avg, s_avg, cutoff = pendulum_column_averages(lam, [tau], tol)
    return float(e_avg[0]), float(s_avg[0]), int(cutoff[0])


def cycle_heats_electric(lam_h, tau_h, lam_c: float, tau_c: float, tol: float = 1e-10):
    """(Q_c, Q_h, W) of the quantum electric machine on the lam_h x tau_h grid.

    The kernel contract of cycle.py.  The quartet's cross entries use
    <H_i>_j = <H_j>_j + (lambda_i - lambda_j) <S>_j, so a column's strokes
    take tol / (1 + |lambda_h - lambda_c|) and its entries meet tol.  Each
    lambda_h column is one pendulum_column_averages call over the tau_h axis;
    the cold stroke is one pendulum_stroke_averages call at the tightest
    column tolerance.
    """
    dlam = lam_h - lam_c
    e_c, s_c, _ = pendulum_stroke_averages(lam_c, tau_c, tol / (1.0 + float(np.abs(dlam).max())))
    e_h, s_h = np.array([pendulum_column_averages(lam, tau_h, tol / (1.0 + abs(lam - lam_c)))[:2]
                         for lam in lam_h.tolist()]).transpose(1, 2, 0)
    return heats(e_h, e_c + dlam * s_c, e_h - dlam * s_h, e_c)


def log_partition_pendulum(lam: float, tau: float, cutoff_m: int) -> float:
    """ln Z of the truncated pendulum spectrum (absolute energies)."""
    tau = validate_temperature(tau)
    h = build_pendulum_hamiltonian(lam, cutoff_m)
    x = -eigensolve_sym_tridiagonal(h, want_vectors=False).eigenvalues / tau
    top = x.max()
    return float(top + np.log(np.exp(x - top).sum()))
