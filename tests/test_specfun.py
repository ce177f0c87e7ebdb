import math

import numpy as np
import pytest

from rotor_otto.specfun import bessel_ratio_i1_i0, jacobi_theta3
from rotor_otto.units import DomainError


def i0_power_series(x, terms=30):
    """Independent oracle: 30-term ascending series of I0."""
    return sum((x / 2.0) ** (2 * k) / math.factorial(k) ** 2 for k in range(terms))


def i1_power_series(x, terms=30):
    return sum(
        (x / 2.0) ** (2 * k + 1) / (math.factorial(k) * math.factorial(k + 1))
        for k in range(terms)
    )


# Frozen from the 30-term series oracle above.
RATIO_AT_ONE = 0.4463899658965310


class TestBesselRatio:
    def test_at_zero(self):
        assert bessel_ratio_i1_i0(0.0) == 0.0

    def test_at_one_matches_series_oracle(self):
        assert bessel_ratio_i1_i0(1.0) == pytest.approx(RATIO_AT_ONE, abs=1e-13)
        assert bessel_ratio_i1_i0(1.0) == pytest.approx(
            i1_power_series(1.0) / i0_power_series(1.0), abs=1e-14
        )

    def test_large_argument_asymptotic(self):
        # I1/I0 ~ 1 - 1/2x - 1/8x^2 - 1/8x^3
        x = 50.0
        assert bessel_ratio_i1_i0(x) == pytest.approx(
            1 - 1 / (2 * x) - 1 / (8 * x * x) - 1 / (8 * x**3), abs=1e-7
        )

    def test_strictly_increasing_and_bounded(self):
        rng = np.random.default_rng(42)
        xs = np.sort(rng.uniform(0.0, 100.0, size=200))
        vals = [bessel_ratio_i1_i0(float(x)) for x in xs]
        for v in vals:
            assert 0.0 <= v < 1.0
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_matches_series_ratio_on_sample(self):
        for x in np.linspace(0.1, 15.0, 40):
            expected = i1_power_series(float(x)) / i0_power_series(float(x))
            assert bessel_ratio_i1_i0(float(x)) == pytest.approx(expected, abs=1e-13)

    def test_array_matches_scalar_calls(self):
        xs = np.array([[0.0, 0.5, 3.0], [40.0, 700.0, 1e6]])
        ratios = bessel_ratio_i1_i0(xs)
        assert ratios.shape == xs.shape
        assert all(ratios.flat[k] == bessel_ratio_i1_i0(float(x)) for k, x in enumerate(xs.flat))

    @pytest.mark.parametrize("x", [-1.0, float("nan"), float("inf")])
    def test_outside_domain_rejected(self, x):
        with pytest.raises(DomainError):
            bessel_ratio_i1_i0(np.array([1.0, x]))


class TestJacobiTheta3:
    def test_tiny_nome_is_one(self):
        assert jacobi_theta3(1.234, -800.0) == 1.0

    def test_partial_sum_oracle(self):
        log_q = math.log(0.1)
        expected = 1.0 + sum(2 * 0.1 ** (v * v) for v in range(1, 6))
        assert jacobi_theta3(0.0, log_q) == pytest.approx(expected, rel=1e-15)

    def test_even_in_z(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            z = rng.uniform(-10, 10)
            log_q = -rng.uniform(0.05, 5.0)
            assert jacobi_theta3(z, log_q) == pytest.approx(
                jacobi_theta3(-z, log_q), rel=1e-15
            )

    def test_pi_periodic(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            z = rng.uniform(-3, 3)
            log_q = -rng.uniform(0.05, 5.0)
            assert abs(
                jacobi_theta3(z + math.pi, log_q) - jacobi_theta3(z, log_q)
            ) < 1e-14 * abs(jacobi_theta3(z, log_q)) + 1e-14

    def test_nonnegative(self):
        for z in np.linspace(0, math.pi, 30):
            assert jacobi_theta3(float(z), -0.2) >= 0.0

    def test_bad_nome_rejected(self):
        with pytest.raises(DomainError):
            jacobi_theta3(0.0, 0.0)
