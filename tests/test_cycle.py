import json
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotor_otto.classical import classical_cycle_electric, classical_cycle_magnetic
from rotor_otto.cycle import (
    MODE_ENGINE,
    MODE_HEATER,
    MODE_REFRIGERATOR,
    MODE_TOL,
    assemble_cycle,
    classify_modes,
)
from rotor_otto.qelectric import cycle_heats_electric, pendulum_stroke_averages
from rotor_otto.qmagnetic import cycle_heats_magnetic
from rotor_otto.selftest import classical_electric_mean_energy_quadrature, heats
from rotor_otto.specfun import bessel_ratio_i1_i0
from rotor_otto.sweep import evaluate_point
from rotor_otto.units import ConvergenceError, CyclePoint, DomainError


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


@pytest.mark.parametrize("machine, model, point, expected", [
    # A Heater whose COP q_c / w would overflow, were it divided.
    ("electric", "classical",
     CyclePoint(1.1106654538327617e-280, 8.86154088148822e+284, 7.87666716683177e-55, 7.648390389704979e-101),
     (-4.43077044074411e+284, 3.938333583415885e-55, 4.43077044074411e+284)),
    # (lambda_h - lambda_c)^2 is past the float range.
    ("magnetic", "classical",
     CyclePoint(-1.1409850730689828e+75, -2.1295144028473246e+238, 2.578779131769612e+165, 1.331416682637247e-165),
     (-math.inf, -math.inf, math.inf)),
    # The ground-state term of ln Z, ~ lambda^2 / tau, is past the float range.
    ("magnetic", "quantum",
     CyclePoint(2.6910846283415545e+152, 3.5118360326908686e+64, 4.501101428869694e-193, 1.6997799798749412e-247),
     (-3.6209682384481013e+304, -3.6209682384481013e+304, 7.241936476896203e+304)),
    # Every log-weight but the ground state's is -inf at a subnormal tau.
    ("magnetic", "quantum", CyclePoint(0.3, 0.2, 1e-320, 1e-320), (0.0, 0.0, 0.0)),
], ids=["electric COP", "classical magnetic W", "quantum magnetic ln Z", "subnormal tau"])
def test_overflow_edges_warn_not(machine, model, point, expected):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = evaluate_point(machine, model, point)
    assert (r.q_c, r.q_h, r.w, r.mode, r.efficiency, r.cop) == (*expected, MODE_HEATER, None, None)


# The whole domain the API accepts, but the quantum electric machine, whose
# pendulum solves are too slow to draw by the hundred: |lambda| up to 1e300
# (electric lambda >= 0) and tau_c <= tau_h from the smallest subnormal to
# near the float maximum.  Each magnitude is drawn from hypothesis' floats,
# uniformly in its log, or from the paper's window, where engines and
# refrigerators lie.
_TAUS = st.one_of(st.floats(min_value=5e-324, max_value=1.7e308),
                  st.floats(min_value=-323.0, max_value=308.0).map(lambda e: 10.0 ** e),
                  st.floats(min_value=1e-3, max_value=10.0))
_LAMBDAS = st.one_of(st.floats(min_value=0.0, max_value=1e300),
                     st.floats(min_value=-323.0, max_value=300.0).map(lambda e: 10.0 ** e),
                     st.floats(min_value=0.0, max_value=3.0))


@st.composite
def _domain_points(draw):
    machine, model = draw(st.sampled_from([("electric", "classical"), ("magnetic", "classical"),
                                           ("magnetic", "quantum")]))
    signs = st.sampled_from([1.0] if machine == "electric" else [1.0, -1.0])
    lam_h, lam_c = (draw(signs) * draw(_LAMBDAS) for _ in range(2))
    tau_c, tau_h = sorted((draw(_TAUS), draw(_TAUS)))
    return machine, model, CyclePoint(lam_h, lam_c, tau_h, tau_c)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_domain_points())
def test_whole_domain(case):
    """A report, or the quantum magnetic window's ConvergenceError, and no warning; a
    report keeps the first law where its heats are finite, a mode that matches their
    signs, and the classical magnetic no-go theorem.  Every point is valid, so even a
    DomainError fails: one from the Carnot check would hide a wrong efficiency."""
    machine, model, point = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            r = evaluate_point(machine, model, point)
        except ConvergenceError as exc:  # tau above about 8.8e11
            assert model == "quantum" and "momentum window too wide" in str(exc)
            return
    if all(math.isfinite(x) for x in (r.q_c, r.q_h, r.w)):
        assert abs(r.w + r.q_c + r.q_h) <= 1e-12 * max(abs(r.q_c), abs(r.q_h), abs(r.w)) + 1e-300
    mode = MODE_ENGINE if r.w < -MODE_TOL else MODE_REFRIGERATOR if r.q_c > MODE_TOL else MODE_HEATER
    assert r.mode is mode
    assert (r.efficiency is not None, r.cop is not None) == (mode == MODE_ENGINE, mode == MODE_REFRIGERATOR)
    if (machine, model) == ("magnetic", "classical"):
        assert r.mode is MODE_HEATER and r.w >= 0.0


# Both electric machines: lambda >= 0, and tau_h up to 1e300 in the classical
# model; the pendulum's solve grows with tau, so the quantum model stays at
# tau <= 1e3, which is still where the heats' tau/2 terms exceed W by 1e3.
@st.composite
def _electric_points(draw):
    model = draw(st.sampled_from(["classical", "quantum"]))
    top_lam, top_tau = (6.0, 300.0) if model == "classical" else (1.3, 3.0)
    lam_h, lam_c = (draw(st.one_of(st.just(0.0), st.floats(-3.0, top_lam).map(lambda e: 10.0 ** e)))
                    for _ in range(2))
    tau_c, tau_h = sorted(draw(st.floats(-2.0, top_tau).map(lambda e: 10.0 ** e)) for _ in range(2))
    return model, CyclePoint(lam_h, lam_c, tau_h, tau_c)


def _potential_average(model, lam, tau):
    """<S>, S = sin^2(alpha/2), of one stroke: (1 - I1/I0(lambda/2tau))/2 classically, else the pendulum's."""
    if model == "quantum":
        return pendulum_stroke_averages(lam, tau)[1]
    return 0.5 * (1.0 - float(bessel_ratio_i1_i0(min(lam / (2.0 * tau), sys.float_info.max))))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_electric_points())
def test_electric_work_from_the_potential_averages(case):
    """Q_c + Q_h = (lambda_h - lambda_c)(<S>_h - <S>_c): the strokes' tau/2 and
    <H_j>_j cancel, so W is that product to a few ulps of its lambda factor, at any tau."""
    model, p = case
    r = evaluate_point("electric", model, p)
    s_h, s_c = (_potential_average(model, lam, tau) for lam, tau in ((p.lambda_h, p.tau_h), (p.lambda_c, p.tau_c)))
    d = p.lambda_h - p.lambda_c
    assert abs(r.w - -d * (s_h - s_c)) <= 4.0 * sys.float_info.epsilon * abs(d)


KERNELS = {
    ("electric", "classical"): classical_cycle_electric,
    ("electric", "quantum"): cycle_heats_electric,
    ("magnetic", "classical"): classical_cycle_magnetic,
    ("magnetic", "quantum"): cycle_heats_magnetic,
}


@pytest.mark.parametrize(
    "machine, model, lambda_c, tau_c, lam, tau",
    [
        ("electric", "classical", 1.0, 1.0, (1.0, 8.0, 7), (1.0, 6.0, 5)),
        ("electric", "quantum", 1.0, 0.05, (1.0, 8.0, 4), (1.0, 6.0, 3)),
        ("magnetic", "classical", 0.4, 0.5, (-2.0, 2.0, 7), (1.0, 6.0, 5)),
        # Two momentum window widths, each with more cells than one block holds.
        ("magnetic", "quantum", 0.485, 0.001, (0.0, 0.5, 40), (0.5, 1.5, 30)),
    ],
)
def test_shuffled_cells_equal_the_grid_bit_for_bit(machine, model, lambda_c, tau_c, lam, tau):
    # The kernel contract of cycle.py is elementwise: a grid is one layout of
    # its cells, and a shuffled list of them, or one 0-d cell, gives the same bits.
    kernel = KERNELS[machine, model]
    lams, taus = np.linspace(*lam), np.linspace(*tau)
    grid = kernel(lams, taus[:, None], lambda_c, tau_c)
    order = np.random.default_rng(3).permutation(lams.size * taus.size)
    j, i = np.divmod(order, lams.size)
    cells = kernel(lams[i], taus[j], lambda_c, tau_c)
    one = kernel(np.array(lams[i[0]]), np.array(taus[j[0]]), lambda_c, tau_c)
    for g, c, s in zip(grid, cells, one):
        assert g.shape == (taus.size, lams.size) and c.shape == order.shape and np.shape(s) == ()
        assert np.array_equal(g.ravel()[order].view(np.int64), c.view(np.int64))
        assert np.array_equal(np.asarray(s).view(np.int64), c[0].view(np.int64))
