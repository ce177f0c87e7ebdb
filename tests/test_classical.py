from fractions import Fraction

import numpy as np
import pytest

from rotor_otto.classical import (
    bessel_argument,
    classical_engine_condition_electric,
    classical_fridge_condition_electric,
    classical_mean_energy_electric,
    classical_mean_energy_magnetic,
)
from rotor_otto.selftest import classical_electric_mean_energy_quadrature
from rotor_otto.specfun import bessel_ratio_i1_i0
from rotor_otto.sweep import evaluate_point
from rotor_otto.units import CyclePoint

from oracles import potential_average_mp


def ratio(lam, tau):
    return bessel_ratio_i1_i0(bessel_argument(lam, tau))


class TestElectricMeanEnergy:
    def test_free_rotor_equipartition(self):
        assert classical_mean_energy_electric(0.0, 2.0, 0.7) == pytest.approx(0.35)

    def test_quadrature_oracle_single_point(self):
        got = classical_mean_energy_electric(1.0, 1.0, 1.0)
        expected = classical_electric_mean_energy_quadrature(1.0, 1.0, 1.0)
        assert got == pytest.approx(expected, abs=1e-8)

    def test_quadrature_oracle_random_points(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            lam_i = rng.uniform(0.0, 8.0)
            lam_j = rng.uniform(0.05, 8.0)
            tau_j = rng.uniform(0.1, 8.0)
            got = classical_mean_energy_electric(lam_i, lam_j, tau_j)
            expected = classical_electric_mean_energy_quadrature(lam_i, lam_j, tau_j)
            assert got == pytest.approx(expected, abs=1e-8)

    @pytest.mark.parametrize("x", [1e-6, 1.0, 25.0, 1e3, 1e5, 1e7])
    def test_quadrature_oracle_over_decades(self, x):
        # x = lambda_j/tau_j; the peak of the angular weight narrows as
        # 1/sqrt(x).  lambda_i stays of order one: the closed form's 1 - I1/I0
        # carries the rounding of the ratio, ~eps x in relative terms, which
        # lambda_i would scale.
        tau_j = 0.5
        got = classical_electric_mean_energy_quadrature(1.3, x * tau_j, tau_j)
        expected = classical_mean_energy_electric(1.3, x * tau_j, tau_j)
        assert got == pytest.approx(expected, rel=1e-13, abs=0.0)

    def test_quadrature_oracle_against_30_digits(self):
        # At x = 1e7 with lambda_i = lambda_j the potential term is half of
        # <H>, so the 30-digit integral checks the quadrature's own digits.
        pytest.importorskip("mpmath")
        lam_j, tau_j = 5e6, 0.5
        expected = 0.5 * tau_j + lam_j * float(potential_average_mp(lam_j, tau_j))
        got = classical_electric_mean_energy_quadrature(lam_j, lam_j, tau_j)
        assert got == pytest.approx(expected, rel=1e-13, abs=0.0)

    def test_pinned_pendulum_limit(self):
        # lambda_j -> inf: the potential average vanishes, only kinetic remains
        assert classical_mean_energy_electric(1.0, 1e7, 1.0) == pytest.approx(
            0.5, abs=1e-6
        )

    def test_quartet_column_ordering(self):
        # lambda_h >= lambda_c implies hc >= cc (mean energy monotone in lambda_i)
        # at the cycle point (lambda_h, lambda_c, tau_h, tau_c) = (3, 1, 4, 1)
        hc = classical_mean_energy_electric(3.0, 1.0, 1.0)
        cc = classical_mean_energy_electric(1.0, 1.0, 1.0)
        assert hc >= cc


class TestMagneticMeanEnergy:
    def test_completing_the_square(self):
        assert classical_mean_energy_magnetic(0.7, 0.7, 1.2) == pytest.approx(
            0.6 - 0.7**2 / 2
        )

    def test_zero_displacement(self):
        assert classical_mean_energy_magnetic(0.5, 0.0, 1.4) == pytest.approx(0.7)

    def test_gaussian_moment_oracle(self):
        # <L_z>_j = lambda_j, <L_z^2>_j = tau_j + lambda_j^2, so
        # <H_i>_j = (tau_j + lambda_j^2)/2 - lambda_i lambda_j
        assert classical_mean_energy_magnetic(0.2, 0.485, 1.0) == pytest.approx(
            0.52061250, abs=1e-12
        )


class TestElectricCycle:
    def closed_forms(self, p):
        r_h, r_c = ratio(p.lambda_h, p.tau_h), ratio(p.lambda_c, p.tau_c)
        q_c = (p.tau_c - p.tau_h) / 2 + p.lambda_c / 2 * (r_h - r_c)
        q_h = (p.tau_h - p.tau_c) / 2 + p.lambda_h / 2 * (r_c - r_h)
        w = (p.lambda_h - p.lambda_c) / 2 * (r_h - r_c)
        return q_c, q_h, w

    def test_closed_form_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            taus = np.sort(rng.uniform(0.05, 8.0, 2))
            p = CyclePoint(rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0), taus[1], taus[0])
            report = evaluate_point("electric", "classical", p)
            q_c, q_h, w = self.closed_forms(p)
            assert report.q_c == pytest.approx(q_c, abs=1e-12)
            assert report.q_h == pytest.approx(q_h, abs=1e-12)
            assert report.w == pytest.approx(w, abs=1e-12)

    def test_equal_lambdas_no_work(self):
        p = CyclePoint(2.0, 2.0, 3.0, 1.0)
        report = evaluate_point("electric", "classical", p)
        assert report.w == pytest.approx(0.0, abs=1e-14)

    def test_equal_temperatures_no_work_output(self):
        # at tau_h = tau_c the ratio monotonicity forbids W < 0
        p = CyclePoint(5.0, 1.0, 2.0, 2.0)
        report = evaluate_point("electric", "classical", p)
        assert report.w >= 0.0

    def test_paper_engine_instance(self):
        p = CyclePoint(3.0, 1.0, 4.0, 1.0)
        report = evaluate_point("electric", "classical", p)
        assert report.mode == "Engine"
        assert report.w < 0.0

    def test_first_law_exact(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            taus = np.sort(rng.uniform(0.05, 8.0, 2))
            p = CyclePoint(rng.uniform(0, 10), rng.uniform(0, 10), taus[1], taus[0])
            r = evaluate_point("electric", "classical", p)
            assert abs(r.q_c + r.q_h + r.w) < 1e-12


class TestEngineCondition:
    def test_paper_instances(self):
        assert classical_engine_condition_electric(CyclePoint(3.0, 1.0, 4.0, 1.0))
        assert not classical_engine_condition_electric(CyclePoint(4.0, 1.0, 3.0, 1.0))
        assert not classical_engine_condition_electric(CyclePoint(1.0, 1.0, 4.0, 1.0))

    def test_agrees_with_work_sign(self):
        rng = np.random.default_rng(17)
        checked = 0
        while checked < 1000:
            taus = np.sort(rng.uniform(0.05, 8.0, 2))
            p = CyclePoint(rng.uniform(0.01, 10), rng.uniform(0.01, 10), taus[1], taus[0])
            r = evaluate_point("electric", "classical", p)
            if abs(r.w) < 1e-9:
                continue
            assert (r.w < 0) == classical_engine_condition_electric(p)
            checked += 1


class TestFridgeCondition:
    def test_pure_heating_stroke(self):
        assert not classical_fridge_condition_electric(CyclePoint(2.0, 2.0, 3.0, 1.0))

    def test_strong_confinement_refrigerates(self):
        # Fig. 3 blue region: large lambda_h, small temperature difference
        assert classical_fridge_condition_electric(CyclePoint(15.0, 1.0, 1.2, 1.0))

    def test_agrees_with_heat_sign(self):
        rng = np.random.default_rng(19)
        checked = 0
        while checked < 500:
            taus = np.sort(rng.uniform(0.05, 8.0, 2))
            p = CyclePoint(rng.uniform(0.01, 15), rng.uniform(0.01, 15), taus[1], taus[0])
            r = evaluate_point("electric", "classical", p)
            if abs(r.q_c) < 1e-9:
                continue
            assert (r.q_c > 0) == classical_fridge_condition_electric(p)
            checked += 1


class TestMagneticNoGo:
    def test_closed_forms(self):
        # The second point's quartet entries are of order lambda^2/2 = 5e15:
        # the heats must not be formed from their differences.
        for p in (CyclePoint(0.2, 0.485, 1.0, 0.5), CyclePoint(1e8 + 0.25, 1e8 + 0.485, 1.0, 1e-3)):
            r = evaluate_point("magnetic", "classical", p)
            d = p.lambda_h - p.lambda_c
            dtau = p.tau_h - p.tau_c
            assert r.w == pytest.approx(d**2, abs=1e-12)
            assert r.q_c == pytest.approx(-dtau / 2 - d**2 / 2, abs=1e-12)
            assert r.q_h == pytest.approx(dtau / 2 - d**2 / 2, abs=1e-12)
            assert r.mode == "Heater"

    def test_work_is_correctly_rounded_square(self):
        # libm pow(d, 2) rounds this d^2 0.5005 ulp off; a point must give
        # the correctly rounded d*d, as its sweep cell does.
        p = CyclePoint(25.68044275069256, -0.03890868177107217, 0.004931128551802054, 0.002895340457074458)
        d = p.lambda_h - p.lambda_c
        assert evaluate_point("magnetic", "classical", p).w == d * d
        assert d * d == float(Fraction(d) ** 2)

    def test_degenerate_cycle(self):
        p = CyclePoint(0.3, 0.3, 1.0, 1.0)
        r = evaluate_point("magnetic", "classical", p)
        assert r.w == pytest.approx(0.0, abs=1e-14)
        assert r.q_c == pytest.approx(0.0, abs=1e-14)

    def test_no_go_over_random_points(self):
        rng = np.random.default_rng(23)
        for _ in range(1000):
            taus = np.sort(rng.uniform(0.01, 10.0, 2))
            lam_h, lam_c = rng.uniform(-3, 3, 2)
            p = CyclePoint(lam_h, lam_c, taus[1], taus[0])
            r = evaluate_point("magnetic", "classical", p)
            assert r.w >= -1e-12
            assert r.q_c <= 1e-12
            assert abs(r.q_c + r.q_h + r.w) < 1e-12
            if lam_h != lam_c:
                assert r.w > 0.0
            if taus[1] > taus[0]:
                assert r.q_c < 0.0
