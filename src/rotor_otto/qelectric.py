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
solves both blocks, one after the other, so it holds the eigenvectors of one
block at a time: about a quarter of those of the full (2M + 1) matrix, which
only the oracles of selftest build.

The spectrum does not depend on tau: a kernel call diagonalizes H(lambda)
once per distinct lambda_h and per basis cutoff M, and forms the averages of
every tau_h paired with it from that spectrum; the cold stroke is solved once
per call.  One solve usually certifies a tau on its own, by two bounds.  In
the infinite operator a kept level n has the residual r_n = (lambda/4)|v_n[M]|,
so a true level lies within r_n of it (Parlett, The Symmetric Eigenvalue
Problem, SIAM 1998).  Since V = lambda sin^2(alpha/2) >= 0, min-max puts the
levels above the cutoff at or above the free-rotor levels m^2/2, |m| > M,
whose Boltzmann tail has a closed form.  Both bounds are held to the stroke's
own round-off, so a stroke's averages are a function of (lambda, tau) alone.
M starts at the first cutoff of the ladder 32 * 2^k where that tail can be
below it, and a tau whose bounds fail is solved again at twice the cutoff.
The first solve loads scipy's f2py LAPACK extension, scipy.linalg._flapack,
by itself: not the scipy.linalg package, whose __init__ imports some 300
modules to reach the same routine.  A process that runs no pendulum loads
neither.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .units import ConvergenceError, DomainError, validate_control, validate_temperature

_INITIAL_CUTOFF = 32
_MAX_CUTOFF = 1 << 12  # the eigenvectors of one parity block take about 134 MB here
# Below this tau the Boltzmann weights underflow; the ground-state-only
# average is exact in that limit.
_GROUND_STATE_TAU = 1e-6
_EPS = float(np.finfo(float).eps)
_SQRT2 = float(np.sqrt(2.0))


@dataclass(frozen=True)
class SpectralData:
    """Truncated spectrum of a pendulum Hamiltonian at fixed lambda."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # column n belongs to eigenvalues[n]
    cutoff_m: int


@lru_cache(maxsize=None)
def _flapack():
    """scipy.linalg._flapack, the module that scipy.linalg.lapack takes its routines from.

    The one already in sys.modules if the caller has imported scipy.linalg;
    otherwise loaded from scipy's linalg directory after `import scipy`, which
    sets up the paths of the libraries a wheel bundles; its sys.modules entry is
    dropped, so a later `import scipy.linalg` binds it as the package's attribute.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    import scipy

    directory = os.path.join(os.path.dirname(scipy.__file__), "linalg")
    suffixes = importlib.machinery.EXTENSION_SUFFIXES
    paths = [os.path.join(directory, "_flapack" + suffix) for suffix in suffixes]
    path = next((path for path in paths if os.path.isfile(path)), None)
    if path is None:
        raise ImportError(f"no LAPACK extension _flapack in {directory} (tried suffixes {suffixes})")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules.pop(name, None)
    return module


def eigensolve_sym_tridiagonal(diag: np.ndarray, offdiag: np.ndarray, cutoff_m: int) -> SpectralData:
    """All eigenvalues, ascending, and orthonormal eigenvectors of the matrix (diag, offdiag).

    cutoff_m, the basis cutoff M the matrix was built at, is only recorded.
    LAPACK dstevd (divide and conquer), the driver scipy.linalg.eigh_tridiagonal
    selects for a full spectrum, called directly: at the cutoffs most strokes
    certify at (M = 32, 64) that wrapper's argument checks add 15-30% to a solve.
    It is the function object scipy.linalg.lapack.dstevd names, taken from
    scipy's extension module without importing the scipy.linalg package
    (_flapack).
    """
    dstevd = _flapack().dstevd

    if not (np.isfinite(diag).all() and np.isfinite(offdiag).all()):
        raise DomainError("tridiagonal Hamiltonian has non-finite entries")
    vals, vecs, info = dstevd(diag, offdiag)
    if info != 0:
        raise ConvergenceError(f"tridiagonal eigensolve failed: LAPACK dstevd info={info}")
    return SpectralData(eigenvalues=vals, eigenvectors=vecs, cutoff_m=cutoff_m)


def _parity_blocks(lam: float, cutoff: int):
    """(diag, offdiag) of the even (m = 0..cutoff) and of the odd (m = 1..cutoff) block of H(lambda)."""
    m = np.arange(cutoff + 1, dtype=float)
    diag = 0.5 * m * m + 0.5 * lam
    offdiag = np.full(cutoff, -0.25 * lam)
    even_offdiag = offdiag.copy()
    even_offdiag[0] *= _SQRT2
    return (diag, even_offdiag), (diag[1:], offdiag[1:])


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


def _block_levels(lam: float, block, cutoff: int, even: bool) -> np.ndarray:
    """Rows E_n, <n|S|n> and residual r_n of the levels of one parity block (diag, offdiag).

    The block's eigenvectors are dropped on return, before the caller
    solves the other block.
    """
    spectrum = eigensolve_sym_tridiagonal(*block, cutoff)
    v = spectrum.eigenvectors
    # <n|S|n> = 1/2 - (1/2) sum_k c_k v_k v_{k+1} for S = H'(lambda) (diag 1/2,
    # offdiag -1/4), with c_0 = sqrt(2) in the even block and c_k = 1 otherwise.
    overlap = np.einsum("kn,kn->n", v[:-1, :], v[1:, :])
    if even:
        overlap += (_SQRT2 - 1.0) * v[0] * v[1]
    # The block's last row, m = M, couples to m = M + 1 by -lambda/4.
    return np.stack((spectrum.eigenvalues, 0.5 - 0.5 * overlap, 0.25 * lam * np.abs(v[-1])))


def _column_at(lam: float, taus: np.ndarray, cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """(<H>, <S>) rows at each tau at fixed cutoff, and bounds on their errors.

    One eigensolve per parity block serves every tau; the blocks are solved
    one after the other, each reduced to its levels (_block_levels) first.
    A tau below _GROUND_STATE_TAU takes the ground state, the even block's
    first level, only.  One einsum averages every tau, reducing each tau's
    row on its own, so its averages do not depend on which other taus share
    the call.  The error bound of <H> is the weighted residual
    sum_n w_n r_n plus the free-rotor energy tail, that of <S> (0 <= S <= 1)
    the same residual plus the tail's weight.
    """
    even, odd = _parity_blocks(lam, cutoff)
    levels = np.hstack((_block_levels(lam, even, cutoff, True), _block_levels(lam, odd, cutoff, False)))
    energies = levels[0]
    # Boltzmann weights relative to the ground state (avoids underflow).
    w = np.exp(-(energies - energies[0]) / np.maximum(taus, _GROUND_STATE_TAU)[:, None])
    w[taus < _GROUND_STATE_TAU, 1:] = 0.0
    w /= w.sum(axis=1, keepdims=True)
    e_avg, s_avg, res = np.einsum("tn,kn->kt", w, levels)
    tail_mass, tail_energy = _free_rotor_tail(cutoff, taus, energies[0])
    return np.array((e_avg, s_avg)), np.array((res + tail_energy, res + tail_mass))


def pendulum_column_averages(lam: float, taus) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(<H>[], <S>[], certified cutoff[]) at every tau, usually from one solve.

    A tau is certified at cutoff M when the error bounds of both its averages
    (_column_at) are below their round-off 8 eps (M^2/2 + 3 lambda/2), which
    bounds the spectral norm of H.  Each tau walks the ladder M = 32 * 2^k
    from the first cutoff where its free-rotor energy tail, taken above a
    ground level of 0, is below that bound; a tau whose bounds fail is
    evaluated again at twice the cutoff, and one that passed is not evaluated
    at larger M.  So a tau's cutoff and averages do not depend on the other
    taus of the call.  Raises ConvergenceError, naming the first tau left
    uncertified, when M = 2^12 does not certify it (before any solve, if its
    tail needs more).
    """
    lam = validate_control(lam, require_nonnegative=True)
    taus = np.array([validate_temperature(tau) for tau in np.ravel(taus).tolist()])
    averages = np.empty((2, len(taus)))
    certified = np.zeros(len(taus), dtype=int)
    pending = np.ones(len(taus), dtype=bool)
    cutoff = _INITIAL_CUTOFF
    while pending.any() and cutoff <= _MAX_CUTOFF:
        bound = 8.0 * _EPS * (0.5 * cutoff * cutoff + 1.5 * lam)
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


@lru_cache(maxsize=64)
def pendulum_stroke_averages(lam: float, tau: float) -> tuple[float, float, int]:
    """(<H>, <S>, certified cutoff) at one tau: pendulum_column_averages on [tau].

    A kernel call solves one cold stroke, so the cache serves only a stroke
    that repeats across calls; it keeps the last 64 distinct ones.
    """
    e_avg, s_avg, cutoff = pendulum_column_averages(lam, [tau])
    return float(e_avg[0]), float(s_avg[0]), int(cutoff[0])


def cycle_heats_electric(lam_h, tau_h, lam_c: float, tau_c: float):
    """(Q_c, Q_h, W) of the quantum electric machine, elementwise over lam_h and tau_h.

    The kernel contract of cycle.py.  Each distinct lambda_h is one
    pendulum_column_averages call over the tau_h of its cells, and the cold
    stroke one pendulum_stroke_averages call.  The quartet's cross entries use
    <H_i>_j = <H_j>_j + (lambda_i - lambda_j) <S>_j, so an entry <H_i>_j is
    within (1 + |lambda_i - lambda_j|) times stroke j's round-off bound, and
    W = -(lambda_h - lambda_c)(<S>_h - <S>_c).
    """
    e_c, s_c, _ = pendulum_stroke_averages(lam_c, tau_c)
    lam_h, tau_h = np.broadcast_arrays(lam_h, tau_h)
    e_h, s_h = np.empty(lam_h.shape), np.empty(lam_h.shape)
    for lam in sorted(set(lam_h.ravel().tolist())):
        cells = lam_h == lam
        e_h[cells], s_h[cells], _ = pendulum_column_averages(lam, tau_h[cells])
    dlam = lam_h - lam_c
    w = -dlam * (s_h - s_c)  # -(Q_c + Q_h), its <H>_j terms cancelled
    w += 0.0
    return e_c - (e_h - dlam * s_h), e_h - (e_c + dlam * s_c), w
