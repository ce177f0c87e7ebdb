import json

import pytest

from rotor_otto.cycle import assemble_cycle, classify_modes, heats
from rotor_otto.selftest import classical_electric_mean_energy_quadrature
from rotor_otto.sweep import evaluate_point
from rotor_otto.units import CyclePoint, DomainError


def _classify(q_c, q_h, w, p):
    """CycleReport of synthetic heats, through classify_modes and assemble_cycle."""
    modes = classify_modes(q_c, q_h, w, p.tau_h, p.tau_c)
    return assemble_cycle("electric", "classical", p, q_c, q_h, w, *modes)


def test_trivial_quartet_is_heater():
    p = CyclePoint(1.0, 1.0, 2.0, 1.0)
    r = _classify(*heats(hh=1.0, hc=1.0, ch=0.5, cc=0.5), p)
    assert r.mode == "Heater"
    assert r.w == 0.0
    assert r.efficiency is None and r.cop is None


def test_magnetic_heater_example():
    p = CyclePoint(0.2, 0.485, 1.0, 0.5)
    r = evaluate_point("magnetic", "classical", p)
    assert r.mode == "Heater"
    assert r.w == pytest.approx(0.081225, abs=1e-12)
    assert r.q_c < 0.0


def test_electric_engine_example():
    p = CyclePoint(3.0, 1.0, 4.0, 1.0)
    r = evaluate_point("electric", "classical", p)
    assert r.mode == "Engine"
    assert 0.0 < r.efficiency <= 0.75


def test_carnot_bound():
    # classify_modes rejects an engine beyond 1 - tau_c/tau_h: 0.75 at (4, 1), 0 at (2, 2)
    assert classify_modes(-0.25, 1.0, -0.75, 4.0, 1.0)[1] == 0.75
    with pytest.raises(DomainError, match="outside"):
        classify_modes(-0.2, 1.0, -0.8, 4.0, 1.0)
    with pytest.raises(DomainError, match="outside"):
        classify_modes(-0.5, 1.0, -0.5, 2.0, 2.0)


def test_engine_efficiency_below_carnot_on_random_points():
    import numpy as np

    rng = np.random.default_rng(29)
    engines = 0
    while engines < 50:
        taus = np.sort(rng.uniform(0.1, 8.0, 2))
        p = CyclePoint(rng.uniform(0, 8), rng.uniform(0.1, 8), taus[1], taus[0])
        r = evaluate_point("electric", "classical", p)
        if r.mode == "Engine":
            assert r.efficiency <= 1.0 - p.tau_c / p.tau_h + 1e-9
            engines += 1


def test_column_shift_gauge():
    # adding c to both hh and hc leaves Q_h unchanged; same for the cold column
    p = CyclePoint(2.0, 1.0, 3.0, 1.0)
    q = [classical_electric_mean_energy_quadrature(i, j, tau) for i, j, tau in
         [(2.0, 2.0, 3.0), (2.0, 1.0, 1.0), (1.0, 2.0, 3.0), (1.0, 1.0, 1.0)]]
    q_c, q_h, _ = heats(*q)
    shifted_q_c, shifted_q_h, _ = heats(q[0] + 5.0, q[1] + 5.0, q[2] - 2.0, q[3] - 2.0)
    assert shifted_q_h == pytest.approx(q_h, abs=1e-12)
    assert shifted_q_c == pytest.approx(q_c, abs=1e-12)
    r = evaluate_point("electric", "classical", p)
    assert (r.q_c, r.q_h) == pytest.approx((q_c, q_h), abs=1e-12)


def test_second_law_violation_rejected():
    p = CyclePoint(1.0, 1.0, 2.0, 1.0)
    bogus = heats(hh=0.0, hc=0.5, ch=0.0, cc=1.0)  # W < 0 and Q_c > 0
    with pytest.raises(DomainError):
        classify_modes(*bogus, p.tau_h, p.tau_c)


def test_nan_quartet_rejected():
    with pytest.raises(DomainError):
        classify_modes(*heats(hh=float("nan"), hc=0.0, ch=0.0, cc=0.0), 2.0, 1.0)


def test_unknown_tags_rejected():
    p = CyclePoint(1.0, 1.0, 2.0, 1.0)
    with pytest.raises(DomainError):
        evaluate_point("steam", "classical", p)
    with pytest.raises(DomainError):
        evaluate_point("electric", "semiclassical", p)


def test_json_schema_round_trip():
    p = CyclePoint(3.0, 1.0, 4.0, 1.0)
    r = evaluate_point("electric", "classical", p)
    d = json.loads(json.dumps(r.to_json_dict()))
    assert set(d) == {
        "q_c", "q_h", "w", "mode", "efficiency", "cop",
        "machine", "model", "lambda_h", "lambda_c", "tau_h", "tau_c",
    }
    assert d == r.to_json_dict()
    assert r.to_json() == json.dumps(r.to_json_dict())


def test_mode_tolerance_band():
    p = CyclePoint(1.0, 1.0, 2.0, 1.0)
    r = _classify(*heats(hh=0.0, hc=1e-14, ch=0.0, cc=0.0), p)
    assert r.mode == "Heater"
