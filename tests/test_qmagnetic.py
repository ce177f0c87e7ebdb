import math

import numpy as np
import pytest

from rotor_otto.qmagnetic import (
    cycle_heats_magnetic,
    epsilon_fourier,
    momentum_stats,
    optimal_work_scan,
    quantum_partition_magnetic_theta,
)
from rotor_otto.sweep import evaluate_point
from rotor_otto.units import CyclePoint, DomainError

from oracles import magnetic_cycle_mp, momentum_moments_mp


class TestPartitionFunctions:
    def test_low_temperature_single_ground_state(self):
        assert momentum_stats(0.0, 0.005).log_partition == pytest.approx(
            0.0, abs=1e-12
        )

    def test_half_integer_doublet_degeneracy(self):
        # at lambda = 1/2 the states m = 0, 1 are degenerate minima
        tau = 0.01
        log_z = momentum_stats(0.5, tau).log_partition
        # E_0 = 0 for both minima in the m(m - 2 lambda)/2 convention
        assert log_z == pytest.approx(math.log(2.0), abs=1e-12)

    def test_dual_evaluation_cross_oracle(self):
        for lam, tau in [(0.3, 1.0), (0.3, 0.05), (0.0, 0.5), (0.9, 3.0)]:
            direct = momentum_stats(lam, tau).log_partition
            theta = quantum_partition_magnetic_theta(lam, tau)
            assert abs(direct - theta) < 1e-12

    def test_classical_limit_of_theta_form(self):
        # tau >= 2: theta -> 1, ln Z -> ln sqrt(2 pi tau) + lambda^2/(2 tau)
        lam, tau = 0.4, 3.0
        classical = 0.5 * math.log(2 * math.pi * tau) + lam * lam / (2 * tau)
        assert quantum_partition_magnetic_theta(lam, tau) == pytest.approx(
            classical, abs=1e-6
        )

    def test_integer_relabeling_shift(self):
        lam, tau = 0.3, 0.7
        shift = ((lam + 1) ** 2 - lam**2) / (2 * tau)
        assert momentum_stats(lam + 1, tau).log_partition == pytest.approx(
            momentum_stats(lam, tau).log_partition + shift, abs=1e-12
        )


class TestMomentumStats:
    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0, 1.5])
    @pytest.mark.parametrize("tau", [0.01, 0.1, 0.5, 2.0])
    def test_epsilon_vanishes_at_integer_and_half_integer(self, lam, tau):
        assert abs(momentum_stats(lam, tau).epsilon) < 1e-12

    def test_ground_state_occupation_at_low_temperature(self):
        stats = momentum_stats(0.25, 0.001)
        assert stats.mean_lz == pytest.approx(0.0, abs=1e-10)
        assert stats.epsilon == pytest.approx(-0.25, abs=1e-10)

    def test_deviation_invisible_at_moderate_temperature(self):
        assert abs(momentum_stats(0.25, 0.5).epsilon) < 5e-4

    def test_integer_shift_gauge(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            lam = rng.uniform(-2, 2)
            tau = rng.uniform(0.01, 5.0)
            assert momentum_stats(lam + 1.0, tau).epsilon == pytest.approx(
                momentum_stats(lam, tau).epsilon, abs=1e-12
            )

    def test_reflection_antisymmetry(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            lam = rng.uniform(0.0, 3.0)
            tau = rng.uniform(0.01, 5.0)
            assert momentum_stats(-lam, tau).epsilon == pytest.approx(
                -momentum_stats(lam, tau).epsilon, abs=1e-12
            )

    def test_epsilon_bounded_by_half(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            stats = momentum_stats(rng.uniform(-3, 3), rng.uniform(0.005, 10.0))
            assert abs(stats.epsilon) <= 0.5 + 1e-12
            assert stats.second_moment_lz >= stats.mean_lz**2 - 1e-9

    @pytest.mark.parametrize(
        "lam,negative", [(0.1, True), (0.4, True), (0.6, False), (0.9, False)]
    )
    def test_epsilon_sign_around_integers(self, lam, negative):
        # epsilon pulls toward the closest integer at low temperature
        eps = momentum_stats(lam, 0.01).epsilon
        assert (eps < 0) == negative


class TestLargeLambda:
    """Against the 30-digit sums: no moment may grow with |lambda|."""

    @pytest.mark.parametrize("lam", [1e6 + 0.3, 1e8 + 0.3])
    def test_epsilon_matches_oracle(self, lam):
        mpmath = pytest.importorskip("mpmath")
        stats = momentum_stats(lam, 0.01)
        mean, _ = momentum_moments_mp(lam, 0.01)
        with mpmath.workdps(30):
            eps = float(mean - mpmath.mpf(lam))
        assert abs(eps + 0.3) < 1e-8
        assert abs(stats.epsilon - eps) < 1e-9
        assert stats.variance_lz >= 0.0

    @pytest.mark.parametrize(
        "point",
        [
            CyclePoint(1e4 + 0.37, 1e4 + 0.81, 0.5, 0.02),
            CyclePoint(1e4 + 0.9, 1e4 + 0.2, 0.3, 0.1),
            CyclePoint(-1e4 - 0.25, -1e4 + 0.45, 1.0, 0.01),
            # The quickstart cycle of README.md moved up by 1e6.
            CyclePoint(1e6 + 0.25, 1e6 + 0.485, 1.0, 0.001),
        ],
    )
    def test_cycle_matches_oracle(self, point):
        pytest.importorskip("mpmath")
        report = evaluate_point("magnetic", "quantum", point)
        q_c, w = magnetic_cycle_mp(point.lambda_h, point.lambda_c, point.tau_h, point.tau_c)
        assert abs(report.q_c - float(q_c)) < 1e-9
        assert abs(report.w - float(w)) < 1e-9


class TestEpsilonFourier:
    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0, 2.5])
    def test_vanishes_at_integer_and_half_integer(self, lam):
        # every sine vanishes (up to rounding of sin(pi n))
        assert abs(epsilon_fourier(lam, 0.3)) < 1e-15

    def test_matches_direct_sum(self):
        for lam in [0.25, 0.1, 0.77]:
            for tau in [0.05, 0.1, 0.5, 2.0]:
                assert epsilon_fourier(lam, tau) == pytest.approx(
                    momentum_stats(lam, tau).epsilon, abs=1e-10
                )

    def test_sawtooth_limit(self):
        # tau -> 0: the deviation pulls lambda to the nearest integer
        assert epsilon_fourier(0.3, 0.002) == pytest.approx(-0.3, abs=1e-6)

    def test_bad_n_max_rejected(self):
        with pytest.raises(DomainError):
            epsilon_fourier(0.3, 0.1, n_max=0)


class TestQuantumQuartet:
    def test_degenerate_cycle(self):
        p = CyclePoint(0.3, 0.3, 1.0, 1.0)
        r = evaluate_point("magnetic", "quantum", p)
        assert r.q_c == pytest.approx(0.0, abs=1e-12)
        assert r.w == pytest.approx(0.0, abs=1e-12)

    def test_no_work_output_in_classical_regime(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            taus = np.sort(rng.uniform(2.0, 8.0, 2))
            p = CyclePoint(rng.uniform(0, 1), rng.uniform(0, 1), taus[1], taus[0])
            r = evaluate_point("magnetic", "quantum", p)
            assert r.w >= -1e-6

    def test_ideal_regime_work_approximation(self):
        p = CyclePoint(0.25, 0.485, 1.0, 0.001)
        r = evaluate_point("magnetic", "quantum", p)
        approx = -(p.lambda_c - p.lambda_h) * p.lambda_h
        assert r.mode == "Engine"
        assert r.w == pytest.approx(approx, rel=0.05)

    def test_work_rewrite_via_epsilons(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            taus = np.sort(rng.uniform(0.01, 3.0, 2))
            lam_h = rng.uniform(0.0, 0.45)
            lam_c = rng.uniform(lam_h + 0.02, 0.5)
            p = CyclePoint(lam_h, lam_c, taus[1], taus[0])
            r = evaluate_point("magnetic", "quantum", p)
            eps_h = momentum_stats(lam_h, taus[1]).epsilon
            eps_c = momentum_stats(lam_c, taus[0]).epsilon
            dlam = lam_c - lam_h
            rewrite = dlam**2 * (1.0 + (eps_c - eps_h) / dlam)
            assert r.w == pytest.approx(rewrite, abs=1e-10)

    def test_first_law(self):
        p = CyclePoint(0.25, 0.485, 1.0, 0.001)
        r = evaluate_point("magnetic", "quantum", p)
        assert abs(r.q_c + r.q_h + r.w) < 1e-12


class TestOptimalWorkScan:
    def test_small_scan_near_ideal_point(self):
        # gap/tau_c >> 1 here, so the paper's asymptotic bound applies
        point, w_min = optimal_work_scan(
            0.485, 0.001, (0.2, 0.3, 21), (0.5, 1.5, 5)
        )
        assert w_min < -0.055
        assert abs(point.lambda_h - 0.245) < 0.02

    def test_asymptotic_bound_from_above(self):
        point, w_min = optimal_work_scan(
            0.4999, 1e-6, (0.15, 0.35, 201), (0.2, 2.0, 50)
        )
        assert -0.0625 <= w_min <= -0.0619
        assert abs(point.lambda_h - 0.4999 / 2) < 0.01

    def test_footnote_branch_mirrored(self):
        # lambda_c slightly above 1/2 with lambda_h = (1 + lambda_c)/2 matches
        # the mirrored configuration below 1/2
        tau_h, tau_c = 1.0, 0.001
        lam_c = 0.52
        upper = CyclePoint((1 + lam_c) / 2, lam_c, tau_h, tau_c)
        mirrored = CyclePoint(1 - (1 + lam_c) / 2, 1 - lam_c, tau_h, tau_c)
        w_upper = evaluate_point("magnetic", "quantum", upper).w
        w_mirror = evaluate_point("magnetic", "quantum", mirrored).w
        assert w_upper == pytest.approx(w_mirror, abs=1e-8)

    def test_empty_grid_rejected(self):
        with pytest.raises(DomainError):
            optimal_work_scan(0.485, 0.001, (0.2, 0.3, 0), (0.5, 1.5, 5))

    @pytest.mark.parametrize("lams, taus", [((0.2, 0.3, 2.5), (0.5, 1.5, 5)),
                                            ((0.2, 0.3, 21), (0.5, 1.5, 5.0))])
    def test_fractional_count_rejected(self, lams, taus):
        with pytest.raises(DomainError, match="integer count"):
            optimal_work_scan(0.485, 0.001, lams, taus)

    @pytest.mark.parametrize("lam_c, tau_c", [(0.6, 0.1), (0.1, 0.3)])
    def test_returns_exact_grid_minimum(self, lam_c, tau_c):
        # Brute force over the same grid through evaluate_point, keeping the
        # first minimum in row-major (tau_h, lambda_h) order; at (0.1, 0.3)
        # the minimum W = 0 is tied along lambda_h = lambda_c.  The first
        # tau_h row lies below tau_c and must be skipped: the kernel's work
        # there is lower than anywhere on the valid rows.
        lam_range, tau_range = (0.0, 1.0, 21), (tau_c / 3, 1.5, 8)
        best = None
        for tau_h in np.linspace(*tau_range)[1:]:
            for lam_h in np.linspace(*lam_range):
                w = evaluate_point("magnetic", "quantum", CyclePoint(lam_h, lam_c, tau_h, tau_c)).w
                if best is None or w < best[0]:
                    best = (w, lam_h, tau_h)
        point, w_min = optimal_work_scan(lam_c, tau_c, lam_range, tau_range)
        bits = [float(v).hex() for v in (w_min, point.lambda_h, point.tau_h)]
        assert bits == [float(v).hex() for v in best]
        assert (point.lambda_c, point.tau_c) == (lam_c, tau_c)
        skipped = cycle_heats_magnetic(np.linspace(*lam_range), np.array([tau_c / 3]), lam_c, tau_c)[2]
        assert skipped.min() < w_min
