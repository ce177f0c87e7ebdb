"""The reference oracles of tests/oracles.py, checked against the program.

The cells are the ones the acceptance criteria lean on: the cold point of
criterion 4, the refrigeration edge of the Fig. 7 grid (criterion 5), and
Fig. 3/4 cells where a quantum quantity that is not an output exceeds its
classical counterpart (criterion 8).
"""

import math

import numpy as np
import pytest

from rotor_otto.qelectric import pendulum_stroke_averages
from rotor_otto.qmagnetic import momentum_stats
from rotor_otto.sweep import evaluate_point
from rotor_otto.units import CyclePoint

from oracles import (
    dense_heats_electric,
    dense_quartet_electric,
    magnetic_cycle_mp,
    momentum_moments_mp,
)


def _quantum_magnetic(point):
    return evaluate_point("magnetic", "quantum", point)


def test_momentum_oracle_doublet_closed_form():
    # lambda_c = 0.4999, tau_c = 1e-4: only m = 0 and m = 1 (excitation
    # energy (1 - 2 lambda_c)/2 = tau_c) carry weight, so <L> = <L^2> = 1/(1+e).
    mpmath = pytest.importorskip("mpmath")
    mean, second = momentum_moments_mp(0.4999, 1e-4)
    with mpmath.workdps(30):
        gap = (1 - 2 * mpmath.mpf(0.4999)) / 2
        exact = 1 / (1 + mpmath.exp(gap / mpmath.mpf(1e-4)))
    assert abs(mean - exact) < 1e-25
    assert abs(second - exact) < 1e-25
    stats = momentum_stats(0.4999, 1e-4)
    assert abs(stats.mean_lz - float(mean)) < 1e-15
    assert abs(stats.second_moment_lz - float(second)) < 1e-15


def test_momentum_oracle_window_guard():
    pytest.importorskip("mpmath")
    with pytest.raises(ValueError):
        momentum_moments_mp(0.3, 100.0)


def test_fig7_refrigeration_edge_matches_oracle():
    # Highest refrigerator cell of the Fig. 7 grid (lambda_h ~ 0.24372,
    # tau_h ~ 0.13417) and the heater cell directly above it.
    pytest.importorskip("mpmath")
    lam_h = np.linspace(0.0, 0.5, 200)[97]
    taus = np.linspace(0.025, 2.0, 200)
    top = _quantum_magnetic(CyclePoint(lam_h, 0.485, taus[11], 0.025))
    above = _quantum_magnetic(CyclePoint(lam_h, 0.485, taus[12], 0.025))
    q_top, w_top = magnetic_cycle_mp(lam_h, 0.485, taus[11], 0.025)
    q_above, w_above = magnetic_cycle_mp(lam_h, 0.485, taus[12], 0.025)
    assert abs(top.q_c - float(q_top)) < 1e-15
    assert abs(top.w - float(w_top)) < 1e-15
    assert abs(above.q_c - float(q_above)) < 1e-15
    assert abs(above.w - float(w_above)) < 1e-15
    assert top.mode == "Refrigerator" and abs(float(q_top) - 2.8795e-5) < 1e-9
    assert above.mode != "Refrigerator" and q_above <= 0


def test_stated_optimum_point_matches_oracle():
    # Minimizer of the criterion 4 scan at (lambda_c, tau_c) = (0.4999, 1e-4):
    # the hot grid's edge, far above the asymptotic -E/16.
    pytest.importorskip("mpmath")
    point = CyclePoint(0.35, 0.4999, 2.0, 1e-4)
    _, w_ref = magnetic_cycle_mp(0.35, 0.4999, 2.0, 1e-4)
    assert abs(_quantum_magnetic(point).w - float(w_ref)) < 1e-15
    assert abs(float(w_ref) + 0.0121506809) < 1e-10
    mean_c = momentum_moments_mp(0.4999, 1e-4)[0]
    assert w_ref >= -((0.4999 - mean_c) ** 2) / 4


# (tau_c, lambda_h index, tau_h index, quantity) on the 40x40 Fig. 3/4 axes;
# each cell is one where the quantum value of a non-output exceeds the
# classical one: -W in refrigerators and heaters, Q_c in engines and heaters.
_ELECTRIC_CELLS = [
    (1.0, 1, 0, "w"),     # Refrigerator in both models
    (1.0, 4, 1, "w"),     # classical Refrigerator, quantum Heater
    (1.0, 0, 1, "q_c"),   # Heater at lambda_h = lambda_c
    (1.0, 1, 3, "q_c"),   # Engine in both models
    (0.05, 6, 0, "q_c"),  # classical Engine, quantum Heater
]


@pytest.mark.parametrize("tau_c, i, j, quantity", _ELECTRIC_CELLS)
def test_dense_quartet_matches_program(tau_c, i, j, quantity):
    point = CyclePoint(
        np.linspace(1.0, 20.0, 40)[i], 1.0, np.linspace(1.0, 10.0, 40)[j], tau_c
    )
    # The stroke averages the kernel uses, and the heats.
    e_h = pendulum_stroke_averages(point.lambda_h, point.tau_h)[0]
    e_c = pendulum_stroke_averages(point.lambda_c, point.tau_c)[0]
    r = evaluate_point("electric", "quantum", point)
    dense = dense_heats_electric(point.lambda_h, point.lambda_c, point.tau_h, point.tau_c)
    names = ("<H>_h", "<H>_c", "q_c", "q_h", "w")
    for name, got, value in zip(names, (e_h, e_c, r.q_c, r.q_h, r.w), dense):
        assert abs(got - value) < 1e-12, name
    # The raw signed inequality really fails here: the quantum value taken
    # from the oracle alone is the larger one.
    _, _, q_c, _, w = dense
    classical = evaluate_point("electric", "classical", point)
    if quantity == "w":
        assert -w > -classical.w + 1e-9
    else:
        assert q_c > classical.q_c + 1e-9


def test_dense_quartet_cutoff_guard():
    with pytest.raises(ValueError):
        dense_quartet_electric(1.0, 1.0, 50.0, 1.0, cutoff=8)


def test_dense_quartet_free_rotor_closed_form():
    # lambda = 0 is the free rotor: <L^2/2> = sum m^2/2 e^{-m^2/2tau} / Z.
    tau = 0.7
    m = np.arange(-60, 61)
    weights = np.exp(-m * m / (2 * tau))
    exact = float((0.5 * m * m * weights).sum() / weights.sum())
    dense = dense_quartet_electric(0.0, 0.0, tau, tau)
    assert all(math.isclose(v, exact, rel_tol=1e-13) for v in dense.values())
