"""Each check of the benchmark passes real outputs and rejects perturbed ones.

The perturbed outputs come from the program itself, evaluated at shifted
parameters and labelled with the requested ones (a hot stroke at 0.97 tau_h,
a cold stroke at 100 tau_c, ...), or are edited copies of its files.  Run
from the repository root:

    python3 -m pytest perfbench/test_checks.py
"""

import copy
import dataclasses
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import workloads as wl  # noqa: E402
from rotor_otto import qmagnetic, sweep  # noqa: E402
from rotor_otto.units import CyclePoint  # noqa: E402


def evaluate(machine, model, points, hot=1.0):
    """Cells at points, each evaluated with its hot stroke at hot * tau_h."""
    reports = []
    for lam_h, lam_c, tau_h, tau_c in points:
        shifted = CyclePoint(lam_h, lam_c, tau_h * hot, tau_c)
        report = sweep.evaluate_point(machine, model, shifted)
        reports.append(dataclasses.replace(report, point=CyclePoint(lam_h, lam_c, tau_h, tau_c)))
    return checks.cells_from_reports(reports, (len(points),))


def sample_points(pair, n=12, seed=5):
    rows = wl._draw(np.random.default_rng(seed), dict(wl.PAIRS[pair], count=n))
    # keep tau_h well above tau_c, so that 0.97 tau_h is still the hotter stroke
    rows[:, 2] = np.maximum(rows[:, 2], 1.5 * rows[:, 3])
    return [tuple(map(float, r)) for r in rows]


def grid_cells(sw, hot=1.0):
    """Cells of a sweep, evaluated cell by cell with the hot stroke at hot * tau_h."""
    xs, ys = np.linspace(*sw["lam"]), np.linspace(*sw["tau"])
    points = [(x, sw["lambda_c"], y, sw["tau_c"]) for y in ys for x in xs]
    cells = evaluate(sw["machine"], sw["model"], points, hot)
    return checks.Cells(*(a.reshape(len(ys), len(xs)) for a in cells._arrays()))


def assert_check(check, good_args, bad_args):
    ok, detail = check(*good_args)
    assert ok, detail
    ok, detail = check(*bad_args)
    assert not ok, detail


@pytest.mark.parametrize("check", [checks.check_magnetic_quantum_float, checks.check_magnetic_quantum_mp])
def test_magnetic_references_reject_a_shifted_hot_stroke(check):
    points = sample_points("qmag")
    assert_check(check, [evaluate("magnetic", "quantum", points)],
                 [evaluate("magnetic", "quantum", points, hot=0.97)])


def test_dense_traces_reject_a_shifted_hot_stroke():
    points = sample_points("qel", n=6)
    assert_check(checks.check_electric_quantum_dense, [evaluate("electric", "quantum", points)],
                 [evaluate("electric", "quantum", points, hot=0.97)])


def test_classical_electric_closed_form_rejects_a_shifted_hot_stroke():
    points = sample_points("cel")
    assert_check(checks.check_electric_classical, [evaluate("electric", "classical", points)],
                 [evaluate("electric", "classical", points, hot=0.97)])


def test_classical_magnetic_theorem_rejects_a_shifted_hot_stroke():
    points = sample_points("cmag")
    assert_check(checks.check_magnetic_classical, [evaluate("magnetic", "classical", points)],
                 [evaluate("magnetic", "classical", points, hot=0.97)])


def test_engine_condition_rejects_a_flipped_work_sign():
    good = evaluate("electric", "classical", sample_points("cel", n=40))
    bad = copy.deepcopy(good)
    k = int(np.argmax(np.abs(bad.w)))
    bad.w[k] = -bad.w[k]
    assert_check(checks.check_engine_condition, [good], [bad])


def test_cycle_consistency_rejects_a_broken_first_law_and_a_wrong_mode():
    good = evaluate("magnetic", "quantum", sample_points("qmag"))
    broken = copy.deepcopy(good)
    broken.q_h[0] += 1e-6
    relabelled = copy.deepcopy(good)
    relabelled.mode[0] = checks.FRIDGE if good.mode[0] == checks.ENGINE else checks.ENGINE
    assert_check(checks.check_cycle_consistency, [good], [broken])
    assert not checks.check_cycle_consistency(relabelled)[0]


def test_quantum_disadvantage_rejects_a_hotter_quantum_stroke():
    classical = grid_cells(wl.FIG3_CLASSICAL)
    assert_check(checks.check_quantum_disadvantage,
                 [classical, grid_cells(wl.FIG3_QUANTUM)],
                 [classical, grid_cells(wl.FIG3_QUANTUM, hot=1.2)])


def test_optimum_rejects_a_warmer_cold_stroke():
    def scans(cold):
        out = []
        for lam_c, tau_c in wl.OPTIMUM_COLD:
            point, w_min = qmagnetic.optimal_work_scan(
                lam_c, cold * tau_c, wl.OPTIMUM_HOT_LAMBDA, wl.OPTIMUM_HOT_TAU)
            out.append((lam_c, tau_c, point.lambda_h, w_min))
        return out

    axis = np.linspace(*wl.OPTIMUM_HOT_LAMBDA)
    assert_check(checks.check_optimum, [scans(1.0), axis], [scans(100.0), axis])


def test_momentum_curve_rejects_a_shifted_tau_and_a_nonzero_epsilon():
    good = sweep.momentum_curve(wl.MOMENTUM_LAMBDA, [0.05, 0.5])
    shifted = [(lam, tau, mean, eps) for (lam, tau, _, _), (_, _, mean, eps) in
               zip(good, sweep.momentum_curve(wl.MOMENTUM_LAMBDA, [0.05 * 0.97, 0.5 * 0.97]))]
    nudged = [(lam, tau, mean + 1e-9 * (lam == 0.5), eps + 1e-9 * (lam == 0.5))
              for lam, tau, mean, eps in good]
    assert_check(checks.check_momentum_curve, [good], [shifted])
    assert not checks.check_momentum_curve(nudged)[0]


SMALL_FIG6 = dict(wl.FIG6, lam=(0.0, 0.5, 30), tau=(0.01, 2.0, 30))


@pytest.fixture(scope="module")
def fig6_grid():
    return sweep.run_sweep(sweep.SweepSpec(
        lambda_h_range=SMALL_FIG6["lam"], tau_h_range=SMALL_FIG6["tau"],
        lambda_c=SMALL_FIG6["lambda_c"], tau_c=SMALL_FIG6["tau_c"],
        machine=SMALL_FIG6["machine"], model=SMALL_FIG6["model"]))


def test_boundaries_reject_a_vertex_off_its_edge(fig6_grid):
    good = checks.cells_from_grid(fig6_grid)
    assert good.boundary_engine, "the small Fig. 6 grid has an engine boundary"
    bad = copy.deepcopy(good)
    x, y = bad.boundary_engine[0][0]
    bad.boundary_engine[0][0] = (x + 0.5 * (0.5 / 29), y + 0.5 * (1.99 / 29))
    xs, ys = np.linspace(*SMALL_FIG6["lam"]), np.linspace(*SMALL_FIG6["tau"])
    assert_check(checks.check_boundaries, [good, xs, ys], [bad, xs, ys])


def test_boundaries_reject_a_field_from_a_shifted_hot_stroke(fig6_grid):
    good = checks.cells_from_grid(fig6_grid)
    bad = grid_cells(SMALL_FIG6, hot=0.7)
    bad.boundary_engine, bad.boundary_fridge = good.boundary_engine, good.boundary_fridge
    xs, ys = np.linspace(*SMALL_FIG6["lam"]), np.linspace(*SMALL_FIG6["tau"])
    assert_check(checks.check_boundaries, [good, xs, ys], [bad, xs, ys])


def test_axes_reject_a_shifted_axis(fig6_grid):
    good = checks.cells_from_grid(fig6_grid)
    assert_check(checks.check_axes, [good, SMALL_FIG6["lam"], SMALL_FIG6["tau"]],
                 [good, SMALL_FIG6["lam"], (0.011, 2.0, 30)])


def test_csv_round_trip_rejects_rounded_values(fig6_grid, tmp_path):
    good = checks.cells_from_grid(fig6_grid)
    path = tmp_path / "grid.csv"
    sweep.write_csv(fig6_grid, path)
    spec = wl.spec_dict(SMALL_FIG6)
    assert checks.check_csv(path, good, spec)[0]
    text = path.read_text().splitlines()
    fields = text[5].split(",")
    fields[8] = f"{float(fields[8]):.12g}"  # the w column, rounded to 12 digits
    text[5] = ",".join(fields)
    path.write_text("\n".join(text) + "\n")
    assert not checks.check_csv(path, good, spec)[0]


def test_json_round_trip_rejects_an_edited_boundary(fig6_grid, tmp_path):
    good = checks.cells_from_grid(fig6_grid)
    path = tmp_path / "grid.json"
    sweep.write_json(fig6_grid, path)
    spec = wl.spec_dict(SMALL_FIG6)
    assert checks.check_json(path, good, spec)[0]
    bad = copy.deepcopy(good)
    x, y = bad.boundary_engine[0][0]
    bad.boundary_engine[0][0] = (x, np.nextafter(y, np.inf))
    assert not checks.check_json(path, bad, spec)[0]
