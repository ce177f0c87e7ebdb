import json

import pytest

from rotor_otto.units import CyclePoint, DomainError


def test_degenerate_point_is_valid():
    p = CyclePoint(1.0, 1.0, 1.0, 1.0)
    assert p.tau_h == p.tau_c == 1.0


def test_fig3_regime_point_is_valid():
    p = CyclePoint(3.0, 1.0, 4.0, 1.0)
    assert p.lambda_h == 3.0


def test_hot_colder_than_cold_rejected():
    with pytest.raises(DomainError):
        CyclePoint(1.0, 1.0, 0.5, 1.0)


@pytest.mark.parametrize("tau", [0.0, -1.0, float("nan"), float("inf")])
def test_bad_temperature_rejected(tau):
    with pytest.raises(DomainError):
        CyclePoint(1.0, 1.0, 1.0, tau)


def test_nonfinite_lambda_rejected():
    with pytest.raises(DomainError):
        CyclePoint(float("nan"), 1.0, 2.0, 1.0)


def test_serialization_round_trip_bit_exact():
    p = CyclePoint(0.1 + 0.2, 1.0 / 3.0, 4.0, 1e-300)
    restored = CyclePoint(**json.loads(json.dumps(p.to_dict())))
    assert restored == p
