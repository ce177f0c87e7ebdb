from fractions import Fraction

import numpy as np
import pytest

from rotor_otto.classical import classical_cycle_electric, classical_cycle_magnetic
from rotor_otto.selftest import classical_electric_mean_energy_quadrature, heats
from rotor_otto.specfun import bessel_ratio_i1_i0
from rotor_otto.sweep import evaluate_point
from rotor_otto.units import CyclePoint

from oracles import (
    classical_electric_work_mp,
    classical_engine_condition_electric,
    classical_fridge_condition_electric,
    potential_average_mp,
)


def ratio(lam, tau):
    return bessel_ratio_i1_i0(lam / (2.0 * tau))


def mean_energy(lam_i, lam_j, tau_j):
    """<H_i>_j of the classical electric machine in closed form."""
    return 0.5 * tau_j + 0.5 * lam_i * (1.0 - ratio(lam_j, tau_j))


def kernel_heats(p, kernel=classical_cycle_electric):
    """(Q_c, Q_h, W) of a kernel at the cycle point p, a one-cell list."""
    return tuple(a.item() for a in kernel(np.array([p.lambda_h]), np.array([p.tau_h]), p.lambda_c, p.tau_c))


def quartet_heats(p, h=classical_electric_mean_energy_quadrature):
    """(Q_c, Q_h, W) from the quartet h(lambda_i, lambda_j, tau_j) = <H_i>_j, by default the quadrature's."""
    (lh, th), (lc, tc) = (p.lambda_h, p.tau_h), (p.lambda_c, p.tau_c)
    return heats(h(lh, lh, th), h(lh, lc, tc), h(lc, lh, th), h(lc, lc, tc))


class TestElectricMeanEnergy:
    def test_free_rotor_equipartition(self):
        # <H_c>_j = tau_j/2 at lambda_c = 0, whatever lambda_j
        p = CyclePoint(2.0, 0.0, 0.7, 0.3)
        assert kernel_heats(p)[0] == pytest.approx(0.15 - 0.35)

    def test_quadrature_oracle_single_point(self):
        p = CyclePoint(3.0, 1.0, 4.0, 1.0)
        assert kernel_heats(p) == pytest.approx(quartet_heats(p), abs=1e-8)

    def test_quadrature_oracle_random_points(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            taus = np.sort(rng.uniform(0.1, 8.0, 2))
            p = CyclePoint(rng.uniform(0.0, 8.0), rng.uniform(0.05, 8.0), taus[1], taus[0])
            assert kernel_heats(p) == pytest.approx(quartet_heats(p), abs=1e-8)

    @pytest.mark.parametrize("x", [1e-6, 1.0, 25.0, 1e3, 1e5, 1e7])
    def test_quadrature_oracle_over_decades(self, x):
        # x = lambda_j/tau_j; the peak of the angular weight narrows as
        # 1/sqrt(x).  lambda_i stays of order one: the closed form's 1 - I1/I0
        # carries the rounding of the ratio, ~eps x in relative terms, which
        # lambda_i would scale.
        tau_j = 0.5
        got = classical_electric_mean_energy_quadrature(1.3, x * tau_j, tau_j)
        expected = mean_energy(1.3, x * tau_j, tau_j)
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
        # lambda_h -> inf: the hot potential average vanishes, so <H_c>_h
        # keeps only its kinetic tau_h/2 and Q_c = <H_c>_c - tau_h/2
        cc = classical_electric_mean_energy_quadrature(1.0, 1.0, 1.0)
        assert kernel_heats(CyclePoint(1e7, 1.0, 1.0, 1.0))[0] == pytest.approx(cc - 0.5, abs=1e-6)

    def test_quartet_column_ordering(self):
        # lambda_h >= lambda_c implies hc >= cc (mean energy monotone in lambda_i),
        # so Q_h = hh - hc <= hh - cc, at the cycle point (3, 1, 4, 1)
        h = classical_electric_mean_energy_quadrature
        hh, cc = h(3.0, 3.0, 4.0), h(1.0, 1.0, 1.0)
        assert kernel_heats(CyclePoint(3.0, 1.0, 4.0, 1.0))[1] <= hh - cc


class TestMagneticMeanEnergy:
    # <L_z>_j = lambda_j, <L_z^2>_j = tau_j + lambda_j^2, so
    # <H_i>_j = (tau_j + lambda_j^2)/2 - lambda_i lambda_j
    def test_completing_the_square(self):
        # <H_j>_j = tau_j/2 - lambda_j^2/2: equal lambdas exchange only tau/2
        p = CyclePoint(0.7, 0.7, 1.2, 0.4)
        assert kernel_heats(p, classical_cycle_magnetic) == pytest.approx((-0.4, 0.4, 0.0))

    def test_zero_displacement(self):
        p = CyclePoint(0.0, 0.0, 1.4, 0.5)
        assert kernel_heats(p, classical_cycle_magnetic) == pytest.approx((-0.45, 0.45, 0.0))

    def test_gaussian_moment_oracle(self):
        def h(lam_i, lam_j, tau_j):
            return (tau_j + lam_j**2) / 2 - lam_i * lam_j

        p = CyclePoint(0.2, 0.485, 2.0, 1.0)
        assert h(0.2, 0.485, 1.0) == pytest.approx(0.52061250, abs=1e-12)
        assert kernel_heats(p, classical_cycle_magnetic) == pytest.approx(quartet_heats(p, h), abs=1e-12)


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

    @pytest.mark.parametrize("tau_h", [10.0 ** k for k in range(0, 301, 15)])
    def test_work_keeps_its_digits_at_any_tau_h(self, tau_h):
        # The heats hold tau_h/2 each, so -(Q_c + Q_h) would lose log10(tau_h/|W|)
        # digits; W from the Bessel ratios keeps them, and the Engine its mode.
        pytest.importorskip("mpmath")
        report = evaluate_point("electric", "classical", CyclePoint(0.3, 0.2, tau_h, 0.1))
        expected = float(classical_electric_work_mp(0.3, 0.2, tau_h, 0.1))
        assert report.w == pytest.approx(expected, rel=1e-14, abs=0.0)
        assert report.mode == "Engine"

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
