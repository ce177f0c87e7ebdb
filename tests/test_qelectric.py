import math

import numpy as np
import pytest

from rotor_otto import qelectric
from rotor_otto.classical import classical_mean_energy_electric
from rotor_otto.qelectric import (
    TridiagonalHamiltonian,
    build_pendulum_hamiltonian,
    eigensolve_sym_tridiagonal,
    log_partition_pendulum,
    pendulum_column_averages,
    pendulum_stroke_averages,
)
from rotor_otto.selftest import dense_pendulum_eigenvalues
from rotor_otto.sweep import SweepSpec, evaluate_point, run_sweep
from rotor_otto.units import ConvergenceError, CyclePoint, DomainError

from oracles import dense_heats_electric


class TestHamiltonianBuilder:
    def test_free_rotor(self):
        h = build_pendulum_hamiltonian(0.0, 2)
        assert np.allclose(h.diag, [2.0, 0.5, 0.0, 0.5, 2.0])
        assert np.allclose(h.offdiag, [0.0, 0.0, 0.0, 0.0])

    def test_unit_coupling(self):
        h = build_pendulum_hamiltonian(1.0, 1)
        assert np.allclose(h.diag, [1.0, 0.5, 1.0])
        assert np.allclose(h.offdiag, [-0.25, -0.25])

    def test_negative_lambda_rejected(self):
        with pytest.raises(DomainError):
            build_pendulum_hamiltonian(-1.0, 4)


class TestEigensolver:
    def test_two_by_two_closed_form(self):
        a, b, c = 1.3, -0.4, 0.7
        h = TridiagonalHamiltonian(
            diag=np.array([a, b]), offdiag=np.array([c]), cutoff_m=1, lam=0.0
        )
        spec = eigensolve_sym_tridiagonal(h, want_vectors=False)
        disc = math.sqrt((a - b) ** 2 / 4 + c * c)
        assert spec.eigenvalues[0] == pytest.approx((a + b) / 2 - disc, abs=1e-14)
        assert spec.eigenvalues[1] == pytest.approx((a + b) / 2 + disc, abs=1e-14)

    def test_non_finite_entries_rejected(self):
        h = TridiagonalHamiltonian(
            diag=np.array([1.0, np.nan, 2.0]), offdiag=np.array([0.1, 0.2]), cutoff_m=1, lam=0.0
        )
        with pytest.raises(DomainError):
            eigensolve_sym_tridiagonal(h, want_vectors=True)

    def test_free_rotor_degeneracies(self):
        spec = eigensolve_sym_tridiagonal(
            build_pendulum_hamiltonian(0.0, 3), want_vectors=False
        )
        assert np.allclose(spec.eigenvalues, [0.0, 0.5, 0.5, 2.0, 2.0, 4.5, 4.5])

    def test_dense_oracle(self):
        spec = eigensolve_sym_tridiagonal(
            build_pendulum_hamiltonian(1.0, 60), want_vectors=False
        )
        dense = dense_pendulum_eigenvalues(1.0, 60)
        assert abs(spec.eigenvalues[0] - dense[0]) < 1e-10

    def test_dense_oracle_random_instances(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            lam = rng.uniform(0.0, 20.0)
            cutoff = int(rng.integers(4, 48))
            spec = eigensolve_sym_tridiagonal(
                build_pendulum_hamiltonian(lam, cutoff), want_vectors=False
            )
            dense = dense_pendulum_eigenvalues(lam, cutoff)
            assert np.abs(spec.eigenvalues - dense).max() < 1e-10

    def test_eigenvector_orthonormality(self):
        spec = eigensolve_sym_tridiagonal(
            build_pendulum_hamiltonian(2.0, 30), want_vectors=True
        )
        assert spec.orthonormality_residual() < 1e-10

    def test_sorted_within_tolerance(self):
        spec = eigensolve_sym_tridiagonal(
            build_pendulum_hamiltonian(3.0, 40), want_vectors=False
        )
        diffs = np.diff(spec.eigenvalues)
        assert (diffs > -1e-12).all()

    def test_variational_monotonicity_in_cutoff(self):
        for lam in (1.0, 4.0):
            small = eigensolve_sym_tridiagonal(
                build_pendulum_hamiltonian(lam, 16), want_vectors=False
            ).eigenvalues
            large = eigensolve_sym_tridiagonal(
                build_pendulum_hamiltonian(lam, 32), want_vectors=False
            ).eigenvalues
            assert (small >= large[: len(small)] - 1e-12).all()

    def test_harmonic_ladder_spacing(self):
        # lambda >> 1: bottom of the spectrum looks like a harmonic
        # oscillator with level spacing sqrt(lambda/2)
        spec = eigensolve_sym_tridiagonal(
            build_pendulum_hamiltonian(400.0, 64), want_vectors=False
        )
        gap = spec.eigenvalues[1] - spec.eigenvalues[0]
        assert gap == pytest.approx(math.sqrt(200.0), rel=0.01)


class TestStrokeAverages:
    def test_potential_average_bounded(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            _, s_avg, _ = pendulum_stroke_averages(
                rng.uniform(0.0, 10.0), rng.uniform(0.05, 5.0), 1e-10
            )
            assert 0.0 <= s_avg <= 1.0

    def test_ground_state_clamp(self):
        lam = 2.0
        e_avg, _, _ = pendulum_stroke_averages(lam, 1e-8, 1e-10)
        ground = eigensolve_sym_tridiagonal(
            build_pendulum_hamiltonian(lam, 64), want_vectors=False
        ).eigenvalues[0]
        assert e_avg == pytest.approx(ground, abs=1e-10)

    def test_hellmann_feynman_cross_oracle(self):
        lam, tau, step = 1.5, 0.8, 1e-4
        _, s_avg, cutoff = pendulum_stroke_averages(lam, tau, 1e-11)
        fd = -tau * (
            log_partition_pendulum(lam + step, tau, cutoff)
            - log_partition_pendulum(lam - step, tau, cutoff)
        ) / (2 * step)
        assert s_avg == pytest.approx(fd, abs=1e-6)

    def test_round_off_stops_the_doubling(self):
        # At lambda_h ~ 862 the quartet's per-stroke tol (1e-10 / 862) lies
        # below the round-off of <H>, which already agrees to 1.5e-13 between
        # M = 32 and 64; the doubling must stop there, not run on noise.
        p = CyclePoint(861.8547639571464, 0.011012854772924286, 12.348369624337156, 1.8480060611326552)
        stroke_tol = 1e-10 / (1.0 + abs(p.lambda_h - p.lambda_c))
        e_h, _, cutoff = pendulum_stroke_averages(p.lambda_h, p.tau_h, stroke_tol)
        assert cutoff == 64
        e_c = pendulum_stroke_averages(p.lambda_c, p.tau_c, stroke_tol)[0]
        r = evaluate_point("electric", "quantum", p)
        dense = dense_heats_electric(p.lambda_h, p.lambda_c, p.tau_h, p.tau_c)
        names = ("<H>_h", "<H>_c", "q_c", "q_h", "w")
        for name, got, value in zip(names, (e_h, e_c, r.q_c, r.q_h, r.w), dense):
            assert abs(got - value) < 1e-10, name


def _per_tau_reference(lam, tau, tol):
    """(<H>, <S>, cutoff) by one eigensolve per cutoff for this tau alone.

    The per-tau loop that pendulum_column_averages replaces, kept as the
    reference: same arithmetic, so the results must agree bit for bit.
    """
    prev, cutoff = None, 32
    while cutoff <= 1 << 16:
        spec = eigensolve_sym_tridiagonal(build_pendulum_hamiltonian(lam, cutoff), want_vectors=True)
        energies, v = spec.eigenvalues, spec.eigenvectors
        if tau < 1e-6:
            w = np.zeros_like(energies)
            w[0] = 1.0
        else:
            w = np.exp(-(energies - energies[0]) / tau)
            w = w / w.sum()
        cur = (float(w @ energies),
               float(w @ (0.5 - 0.5 * np.einsum("kn,kn->n", v[:-1, :], v[1:, :]))))
        bound = max(tol, 8.0 * np.finfo(float).eps * (0.5 * cutoff * cutoff + 1.5 * lam))
        if prev is not None and abs(cur[0] - prev[0]) < bound and abs(cur[1] - prev[1]) < bound:
            return cur + (cutoff,)
        prev, cutoff = cur, 2 * cutoff
    raise AssertionError("reference did not converge")


# Straddles the ground-state shortcut at tau = 1e-6 and reaches the
# classical regime, so one column certifies at several cutoffs.
_COLUMN_TAUS = [1e-9, 5e-7, 9.99e-7, 1e-6, 1.001e-6, 1e-4, 0.05, 0.7, 5.0, 40.0, 300.0]


class TestColumnAverages:
    @pytest.mark.parametrize("lam", [0.0, 2.0, 37.5, 861.8547639571464])
    def test_column_equals_per_tau_evaluation(self, lam):
        tol = 1e-10 / (1.0 + lam)
        e_avg, s_avg, cutoff = pendulum_column_averages(lam, _COLUMN_TAUS, tol)
        assert len(set(cutoff.tolist())) > 1
        for k, tau in enumerate(_COLUMN_TAUS):
            single = pendulum_stroke_averages(lam, tau, tol)
            assert (e_avg[k], s_avg[k], cutoff[k]) == single
            assert single == _per_tau_reference(lam, tau, tol)

    @pytest.mark.parametrize("lam", [0.0, 2.0, 861.8547639571464])
    def test_continuous_across_ground_state_shortcut(self, lam):
        e_avg, s_avg, _ = pendulum_column_averages(lam, _COLUMN_TAUS, 1e-11)
        below, at, above = _COLUMN_TAUS.index(9.99e-7), _COLUMN_TAUS.index(1e-6), _COLUMN_TAUS.index(1.001e-6)
        for avg in (e_avg, s_avg):
            assert abs(avg[at] - avg[below]) <= 1e-12
            assert abs(avg[above] - avg[at]) <= 1e-12
        ground = eigensolve_sym_tridiagonal(
            build_pendulum_hamiltonian(lam, 64), want_vectors=False
        ).eigenvalues[0]
        assert e_avg[below] == pytest.approx(ground, abs=1e-10)

    def test_unconverged_column_names_lambda_and_first_open_tau(self, monkeypatch):
        # Cap the doubling below the cutoff the warm taus need.
        monkeypatch.setattr(qelectric, "_MAX_CUTOFF", 32)
        with pytest.raises(ConvergenceError, match=r"lambda=2\.0, tau=40\.0 up to M=32"):
            pendulum_column_averages(2.0, [0.05, 40.0, 300.0], 1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            pendulum_column_averages(-1.0, [1.0], 1e-10)
        with pytest.raises(DomainError):
            pendulum_column_averages(1.0, [1.0, 0.0], 1e-10)
        with pytest.raises(DomainError):
            pendulum_column_averages(1.0, [1.0], 0.0)

    def test_sweep_eigensolves_do_not_grow_with_n_tau(self, monkeypatch):
        # One spectrum per lambda_h column and cutoff: a 5 x 200 sweep makes
        # at most 8 eigensolves per column, hot and cold strokes included,
        # where doubling each cell on its own takes at least two per cell.
        calls = []

        def counting(h, want_vectors):
            calls.append(h.cutoff_m)
            return eigensolve_sym_tridiagonal(h, want_vectors)

        monkeypatch.setattr(qelectric, "eigensolve_sym_tridiagonal", counting)
        pendulum_stroke_averages.cache_clear()
        spec = SweepSpec((1.0, 20.0, 5), (1.0, 10.0, 200), 1.0, 1.0, "electric", "quantum")
        run_sweep(spec)
        assert 0 < len(calls) <= 8 * 5


class TestThermalQuartet:
    def test_degenerate_cycle(self):
        p = CyclePoint(1.0, 1.0, 2.0, 2.0)
        r = evaluate_point("electric", "quantum", p)
        assert r.w == pytest.approx(0.0, abs=1e-12)
        assert r.q_c == pytest.approx(0.0, abs=1e-12)
        assert r.q_h == pytest.approx(0.0, abs=1e-12)

    def test_correspondence_limit(self):
        e_avg = pendulum_stroke_averages(1.0, 10.0, 1e-10)[0]
        classical = classical_mean_energy_electric(1.0, 1.0, 10.0)
        assert e_avg == pytest.approx(classical, rel=0.02)

    def test_first_law(self):
        p = CyclePoint(3.0, 1.0, 4.0, 1.0)
        r = evaluate_point("electric", "quantum", p)
        assert abs(r.q_c + r.q_h + r.w) < 1e-10

    def test_quantum_engine_below_classical(self):
        # one cell of the systematic-disadvantage comparison
        p = CyclePoint(3.0, 1.0, 4.0, 1.0)
        w_quantum = evaluate_point("electric", "quantum", p).w
        w_classical = evaluate_point("electric", "classical", p).w
        assert -w_quantum <= -w_classical + 1e-9
