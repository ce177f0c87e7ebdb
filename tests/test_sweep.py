import csv
import dataclasses
import io
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rotor_otto import sweep
from rotor_otto.cycle import MODE_ENGINE, MODE_HEATER, MODE_REFRIGERATOR
from rotor_otto.sweep import (
    SweepGrid,
    SweepSpec,
    _marching_squares,
    evaluate_point,
    extract_boundaries,
    momentum_curve,
    read_json,
    run_sweep,
    write_csv,
    write_json,
)
from rotor_otto.units import ConvergenceError, CyclePoint, DomainError

from oracles import classical_engine_condition_electric


# A sweep whose momentum window is too wide from the second tau_h row on.
MAGNETIC_WINDOW_FAILURE = SweepSpec(
    lambda_h_range=(0.1, 0.4, 3),
    tau_h_range=(1.0, 2e12, 3),
    lambda_c=0.3,
    tau_c=1.0,
    machine="magnetic",
    model="quantum",
)


def small_spec(**overrides):
    base = dict(
        lambda_h_range=(1.0, 8.0, 15),
        tau_h_range=(1.0, 6.0, 12),
        lambda_c=1.0,
        tau_c=1.0,
        machine="electric",
        model="classical",
    )
    base.update(overrides)
    return SweepSpec(**base)


class TestSweepSpec:
    def test_count_too_small_rejected(self):
        with pytest.raises(DomainError):
            small_spec(lambda_h_range=(1.0, 8.0, 1))

    @pytest.mark.parametrize("count", [2.5, 3.0])
    def test_fractional_count_rejected(self, count):
        # int(2.5) would sweep 2 columns; a 3.0 would sweep, then fail read_json.
        with pytest.raises(DomainError, match="lambda_h axis needs an integer count"):
            small_spec(lambda_h_range=(1.0, 8.0, count))
        with pytest.raises(DomainError, match="tau_h axis needs an integer count"):
            small_spec(tau_h_range=(1.0, 6.0, count))

    def test_numpy_integer_count_accepted(self, tmp_path):
        spec = small_spec(lambda_h_range=(1.0, 8.0, np.int64(4)))
        assert spec.lambda_axis().shape == (4,)
        assert spec == small_spec(lambda_h_range=(1.0, 8.0, 4))
        path = tmp_path / "grid.json"
        write_json(run_sweep(spec), path)
        assert read_json(path).spec == spec

    def test_inverted_range_rejected(self):
        with pytest.raises(DomainError):
            small_spec(tau_h_range=(6.0, 1.0, 10))

    def test_log_scale_needs_positive_min(self):
        with pytest.raises(DomainError):
            small_spec(tau_h_range=(0.0, 6.0, 10), tau_scale="log")

    def test_unknown_machine_rejected(self):
        with pytest.raises(DomainError):
            small_spec(machine="diesel")

    def test_log_axis(self):
        spec = small_spec(tau_h_range=(0.1, 10.0, 5), tau_scale="log", tau_c=0.1)
        assert np.allclose(spec.tau_axis(), np.geomspace(0.1, 10.0, 5))

    @pytest.mark.parametrize("overrides, message", [
        (dict(lambda_h_range=(1.0, math.inf, 3)), "lambda_h axis needs finite min < max, got (1.0, inf)"),
        (dict(lambda_h_range=(-math.inf, 8.0, 3)), "lambda_h axis needs finite min < max, got (-inf, 8.0)"),
        (dict(lambda_h_range=(math.nan, 8.0, 3)), "lambda_h axis needs finite min < max, got (nan, 8.0)"),
        (dict(tau_h_range=(1.0, math.inf, 3)), "tau_h axis needs finite min < max, got (1.0, inf)"),
        (dict(tau_h_range=(1.0, math.nan, 3), tau_scale="log"), "tau_h axis needs finite min < max"),
        (dict(lambda_h_range=(-1.7e308, 1.7e308, 3)), "lambda_h axis has non-finite points"),
        (dict(lambda_c=math.nan), "control parameter must be finite, got nan"),
        (dict(tau_c=math.inf), "reduced temperature must be finite and > 0, got inf"),
        (dict(tau_c=2.0), "hot reservoir colder than cold one: tau_h=1.0 < tau_c=2.0"),
        # The electric machine's lambda is a field strength.
        (dict(lambda_h_range=(-1.0, 8.0, 3)), "control parameter must be >= 0 here, got -1.0"),
        (dict(lambda_c=-0.5), "control parameter must be >= 0 here, got -0.5"),
    ], ids=["lambda max inf", "lambda min -inf", "lambda min nan", "tau max inf", "tau max nan",
            "lambda overflow", "lambda_c nan", "tau_c inf", "tau_c above tau_h",
            "electric lambda_h min negative", "electric lambda_c negative"])
    def test_domain_checked_at_construction(self, overrides, message):
        # Every cell of a spec is a valid cycle point, so run_sweep checks no domain.
        with pytest.raises(DomainError, match=re.escape(message)):
            small_spec(**overrides)

    def test_magnetic_lambda_takes_either_sign(self):
        spec = small_spec(machine="magnetic", lambda_h_range=(-1.0, 8.0, 3), lambda_c=-0.5)
        assert spec.lambda_axis()[0] == -1.0

    def test_axes_computed_once_and_read_only(self):
        # cell() indexes the axes on every call; they are built once per spec.
        spec = small_spec()
        assert spec.lambda_axis() is spec.lambda_axis()
        assert spec.tau_axis() is spec.tau_axis()
        assert np.array_equal(spec.lambda_axis(), np.linspace(1.0, 8.0, 15))
        with pytest.raises(ValueError):
            spec.tau_axis()[0] = 0.0
        assert spec == small_spec() and hash(spec) == hash(small_spec())


class TestRunSweep:
    def test_electric_classical_engine_region_matches_condition(self):
        grid = run_sweep(small_spec())
        lams = grid.spec.lambda_axis()
        taus = grid.spec.tau_axis()
        for j, tau_h in enumerate(taus):
            for i, lam_h in enumerate(lams):
                report = grid.cell(i, j)
                assert report.point.lambda_h == lam_h
                assert report.point.tau_h == tau_h
                if abs(report.w) > 1e-9:
                    expected = classical_engine_condition_electric(report.point)
                    assert (report.w < 0) == expected

    def test_magnetic_classical_is_all_heater(self):
        grid = run_sweep(
            small_spec(machine="magnetic", lambda_h_range=(-2.0, 2.0, 10))
        )
        assert all(c.mode == "Heater" for c in grid.cells)

    def test_magnetic_quantum_engine_region(self):
        grid = run_sweep(
            SweepSpec(
                lambda_h_range=(0.0, 0.5, 21),
                tau_h_range=(0.01, 2.0, 21),
                lambda_c=0.485,
                tau_c=0.001,
                machine="magnetic",
                model="quantum",
            )
        )
        engine_cells = [c for c in grid.cells if c.mode == "Engine"]
        assert engine_cells
        # engine window constraint after integer-offset reduction
        for c in engine_cells:
            reduced = (c.point.lambda_c - c.point.lambda_h) % 1.0
            assert min(reduced, 1.0 - reduced) < 1.0
            assert c.point.lambda_c - c.point.lambda_h < 1.0
        # the cell near (0.25, 1.0) is an engine
        near = grid.cell(10, 10)
        assert near.mode == "Engine"

    def test_cell_error_carries_coordinates(self):
        # tau_h min < tau_c: the spec's first row is no cycle, so no spec is built.
        with pytest.raises(DomainError, match=r"tau_h=0\.5 < tau_c=1\.0"):
            SweepSpec(
                lambda_h_range=(0.1, 1.0, 3),
                tau_h_range=(0.5, 2.0, 3),
                lambda_c=0.5,
                tau_c=1.0,
                machine="magnetic",
                model="classical",
            )

    def test_kernel_error_names_first_failing_cell(self):
        # The momentum window is too wide from the second tau_h row on.
        with pytest.raises(ConvergenceError, match=r"^momentum window too wide at tau=1000000000000\.5$"):
            run_sweep(MAGNETIC_WINDOW_FAILURE)

    @pytest.mark.parametrize("spec, message", [
        (MAGNETIC_WINDOW_FAILURE, "momentum window too wide at tau=1000000000000.5"),
        # tau = 1e8 needs a cutoff beyond 2^12: its free-rotor tail fails before any solve.
        (SweepSpec((1.0, 20.0, 2), (1.0, 1e8, 2), 1.0, 0.05, "electric", "quantum"),
         "stroke averages not converged at lambda=1.0, tau=100000000.0"),
    ], ids=["magnetic window", "pendulum cutoff"])
    def test_kernel_error_is_not_rewalked(self, spec, message, monkeypatch):
        monkeypatch.setattr(sweep, "evaluate_point", lambda *args, **kwargs: pytest.fail("per-cell re-walk"))
        with pytest.raises(ConvergenceError, match=re.escape(message)):
            run_sweep(spec)


@pytest.mark.parametrize(
    "machine, model, lambda_c, tau_c, lam, tau",
    [
        ("electric", "classical", 1.0, 1.0, (1.0, 8.0, 5), (1.0, 6.0, 4)),
        ("electric", "quantum", 1.0, 0.05, (1.0, 8.0, 4), (1.0, 6.0, 3)),
        ("magnetic", "classical", 0.4, 0.5, (-2.0, 2.0, 5), (1.0, 6.0, 4)),
        ("magnetic", "quantum", 0.485, 0.001, (0.0, 0.5, 6), (0.01, 2.0, 5)),
        # Three tau_h rows in each of two momentum window widths: the grid's
        # rows are summed together, each cell alone.
        ("magnetic", "quantum", 0.485, 0.001, (0.0, 0.5, 6), (0.5, 1.5, 12)),
        # Heater and Engine cells; a lambda_h column far from lambda_c must
        # not change how the cold stroke is certified.
        ("electric", "quantum", 0.15937168899158027, 16.276649601237345, (0.2, 100.0, 2), (16.3, 40.0, 2)),
    ],
)
def test_grid_cells_equal_point_evaluations(machine, model, lambda_c, tau_c, lam, tau):
    spec = SweepSpec(lam, tau, lambda_c, tau_c, machine, model)
    grid = run_sweep(spec)
    modes = set()
    for j, tau_h in enumerate(spec.tau_axis()):
        for i, lam_h in enumerate(spec.lambda_axis()):
            report = evaluate_point(machine, model, CyclePoint(lam_h, lambda_c, tau_h, tau_c))
            assert grid.cell(i, j) == report
            assert grid.cell(i, j).to_json() == report.to_json()  # bit for bit, the sign of a zero too
            modes.add(grid.cell(i, j).mode)
    assert grid.cells == [grid.cell(i, j) for j in range(tau[2]) for i in range(lam[2])]
    if model == "quantum" or machine == "electric":
        assert len(modes) > 1


class TestLeanReports:
    def test_reports_are_slotted_and_share_the_mode_names(self):
        spec = SweepSpec((0.0, 0.5, 4), (0.01, 2.0, 3), 0.485, 0.001, "magnetic", "quantum")
        grid = run_sweep(spec)
        reports = [*grid.cells, grid.cell(1, 2),
                   *(evaluate_point("magnetic", "quantum", r.point) for r in grid.cells)]
        for report in reports:
            assert not hasattr(report, "__dict__") and not hasattr(report.point, "__dict__")
            assert any(report.mode is mode for mode in (MODE_ENGINE, MODE_REFRIGERATOR, MODE_HEATER))
        assert {r.mode for r in reports} == {MODE_ENGINE, MODE_REFRIGERATOR, MODE_HEATER}
        report = reports[0]
        with pytest.raises(AttributeError):
            report.w = 1.0
        # Python 3.11 raises TypeError here, not FrozenInstanceError: the frozen
        # __setattr__ of a slotted dataclass calls super() on the class as it was
        # before slots were added.
        with pytest.raises((AttributeError, TypeError)):
            report.note = "no per-instance attributes"
        changed = dataclasses.replace(report, w=1.0, point=dataclasses.replace(report.point, tau_h=3.0))
        assert (changed.w, changed.point.tau_h, changed.q_c) == (1.0, 3.0, report.q_c)

    def test_cells_hold_under_400_bytes_per_report(self):
        # A report, its point, their floats and the list's slot, by tracemalloc.
        grid = run_sweep(SweepSpec((0.0, 0.5, 30), (0.01, 2.0, 30), 0.485, 0.001, "magnetic", "quantum"))
        tracemalloc.start()
        try:
            cells = grid.cells
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held / len(cells) < 400

    def test_cells_hold_under_280_bytes_per_report(self):
        # Built from the spec's axis floats and item(): a report's own floats
        # are its heats, work and figures of merit, and no numpy scalar is kept.
        grid = run_sweep(SweepSpec((0.0, 0.5, 200), (0.01, 2.0, 200), 0.485, 0.001, "magnetic", "quantum"))
        grid.cells
        tracemalloc.start()
        try:
            cells = grid.cells
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(cells) == 40000 and held / len(cells) <= 280

    def test_reports_share_the_axis_floats(self, tmp_path):
        # The reports of a tau_h row share one tau_h float, those of a lambda_h column one lambda_h float.
        grid = run_sweep(SweepSpec((0.0, 0.5, 5), (0.01, 2.0, 4), 0.485, 0.001, "magnetic", "quantum"))
        write_json(grid, tmp_path / "grid.json")
        for g in (grid, read_json(tmp_path / "grid.json")):
            cells = g.cells
            for i in range(5):
                for j in range(4):
                    point = g.cell(i, j).point
                    assert point.tau_h is g.cell(0, j).point.tau_h is cells[5 * j].point.tau_h
                    assert point.lambda_h is g.cell(i, 0).point.lambda_h is cells[i].point.lambda_h
                    assert type(point.lambda_h) is float and type(point.tau_h) is float
            assert cells[7].point.tau_h is not cells[2].point.tau_h

    def test_mode_arrays_hold_the_constants(self, tmp_path):
        # 8 bytes per cell: references to the three mode names, not a string array.
        grid = run_sweep(SweepSpec((0.0, 0.5, 9), (0.01, 2.0, 7), 0.485, 0.001, "magnetic", "quantum"))
        write_json(grid, tmp_path / "grid.json")
        for g in (grid, read_json(tmp_path / "grid.json")):
            assert g.mode.dtype == object and g.mode.shape == (7, 9)
            assert all(any(m is mode for mode in (MODE_ENGINE, MODE_REFRIGERATOR, MODE_HEATER))
                       for m in g.mode.flat)
            assert {*g.mode.flat} == {MODE_ENGINE, MODE_REFRIGERATOR, MODE_HEATER}

    def test_sweep_holds_under_56_bytes_per_cell(self):
        # Six float or reference arrays are 48 bytes per cell; classify_modes
        # makes no grid-sized string array, so the peak stays below 96.
        spec = SweepSpec((0.0, 0.5, 200), (0.01, 2.0, 200), 0.485, 0.001, "magnetic", "quantum")
        run_sweep(spec)
        tracemalloc.start()
        try:
            grid = run_sweep(spec)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert grid.w.size == 40000
        assert held / grid.w.size <= 56 and peak / grid.w.size <= 96


class TestMomentumCurve:
    def test_all_curves_pass_through_half_half(self):
        rows = momentum_curve((0.0, 1.0, 3), [0.01, 0.1, 0.5])
        mids = [r for r in rows if r[0] == 0.5]
        assert len(mids) == 3
        for _, _, mean_lz, eps in mids:
            assert mean_lz == pytest.approx(0.5, abs=1e-12)
            assert eps == pytest.approx(0.0, abs=1e-12)

    def test_moderate_temperature_curve_is_classical(self):
        rows = momentum_curve((0.0, 3.0, 61), [0.5])
        assert max(abs(eps) for _, _, _, eps in rows) < 5e-4

    def test_low_temperature_staircase(self):
        rows = momentum_curve((0.0, 3.0, 301), [0.01])
        for lam, _, mean_lz, _ in rows:
            frac = lam % 1.0
            if abs(frac - 0.5) < 0.05:
                continue
            assert abs(mean_lz - round(lam)) < 0.02

    def test_bad_range_rejected(self):
        with pytest.raises(DomainError):
            momentum_curve((1.0, 0.0, 10), [0.5])

    @pytest.mark.parametrize("count", [2.7, 3.0])
    def test_fractional_count_rejected(self, count):
        with pytest.raises(DomainError, match="integer count"):
            momentum_curve((0.0, 1.0, count), [0.5])

    @pytest.mark.parametrize("lambda_range, message", [
        ((0.0, math.inf, 3), "lambda range needs finite min < max, got (0.0, inf)"),
        ((math.nan, 1.0, 3), "lambda range needs finite min < max, got (nan, 1.0)"),
        ((-1.7e308, 1.7e308, 3), "lambda range has non-finite points"),
    ])
    def test_nonfinite_range_rejected(self, lambda_range, message):
        # The range check of SweepSpec's axes.
        with pytest.raises(DomainError, match=re.escape(message)):
            momentum_curve(lambda_range, [0.5])


def synthetic_grid(f, n_lam=11, n_tau=9):
    """SweepGrid whose W field is f(lambda_h, tau_h), Q_c = -1 everywhere."""
    spec = SweepSpec(
        lambda_h_range=(0.0, 2.0, n_lam),
        tau_h_range=(1.0, 3.0, n_tau),
        lambda_c=1.0,
        tau_c=1.0,
        machine="electric",
        model="classical",
    )
    w = np.array([[f(lam, tau) for lam in spec.lambda_axis()] for tau in spec.tau_axis()])
    return SweepGrid(
        spec=spec,
        q_c=np.full(w.shape, -1.0),
        q_h=1.0 - w,
        w=w,
        mode=np.full(w.shape, "Heater"),
        efficiency=np.full(w.shape, np.nan),
        cop=np.full(w.shape, np.nan),
    )


class TestBoundaries:
    def test_uniform_sign_gives_no_boundaries(self):
        grid = synthetic_grid(lambda lam, tau: 1.0)
        engine, fridge = extract_boundaries(grid)
        assert engine == []
        assert fridge == []

    def test_synthetic_vertical_line(self):
        grid = synthetic_grid(lambda lam, tau: lam - 1.0)
        engine, _ = extract_boundaries(grid)
        points = [p for line in engine for p in line]
        assert points
        cell_width = 2.0 / 10
        for x, _ in points:
            assert abs(x - 1.0) <= cell_width

    def test_classical_engine_boundary_tracks_analytic_condition(self):
        grid = run_sweep(small_spec(lambda_h_range=(1.0, 8.0, 29), tau_h_range=(1.0, 6.0, 26)))
        assert grid.boundary_engine
        # with lambda_c = tau_c = 1 the analytic W = 0 locus is the union of
        # tau_h = lambda_h and lambda_h = 1; one cell width slack
        dl = (8.0 - 1.0) / 28
        dt = (6.0 - 1.0) / 25
        for line in grid.boundary_engine:
            for lam, tau in line:
                assert min(abs(tau - lam), abs(lam - 1.0)) <= max(dl, dt) + 1e-9

    def test_marching_squares_crossings_on_sign_changes_only(self):
        xs = np.linspace(0, 1, 5)
        ys = np.linspace(0, 1, 5)
        f = np.fromfunction(lambda i, j: (i - 1.7) * 1.0, (5, 5))
        lines = _marching_squares(xs, ys, f)
        for line in lines:
            for x, _ in line:
                assert xs[1] <= x <= xs[2]

    def test_crossing_shared_by_two_cells_joins_one_polyline(self):
        # Cells (0, 0) and (1, 0) both end at the crossing on the edge x = 1,
        # whose y interpolated from either end of the edge differs in the
        # last bit, on either side of a 12-digit rounding boundary.
        lines = _marching_squares(np.array([0.0, 1.0, 2.0]), np.array([0.0, 2.92]),
                                  np.array([[-1.0, 1.0], [-0.966, 0.425], [-1.0, 1.0]]))
        assert len(lines) == 1
        assert lines[0] == pytest.approx([(2.0, 1.46), (1.0, 2.0278360891445), (0.0, 1.46)], rel=1e-15)

    def test_zero_corner_of_a_positive_cell_is_one_vertex(self):
        # f = x - y is zero at the diagonal nodes.  Both crossings of cell
        # (1, 0) are its zero corner (1, 1), a segment of one vertex, which
        # must not put (1, 1) into the polyline twice.
        xs = np.array([0.0, 1.0, 2.0])
        assert _marching_squares(xs, xs, xs[:, None] - xs[None, :]) == [[(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]]

    def test_isolated_zero_node_gives_no_polyline(self):
        xs = np.array([0.0, 1.0, 2.0])
        f = np.ones((3, 3))
        f[1, 1] = 0.0
        assert _marching_squares(xs, xs, f) == []


# Small fields on uneven axes.  Quarter steps make exact zeros, saddles and
# flat regions common, and keep every interpolated crossing off the nodes.
FIELDS = st.tuples(st.integers(2, 6), st.integers(2, 6)).flatmap(lambda shape: st.tuples(
    arrays(float, shape, elements=st.integers(-4, 4).map(lambda k: k / 4)),
    *(st.lists(st.sampled_from([0.5, 1.0, 2.5]), min_size=n, max_size=n) for n in shape)))


def _vertex_kind(xs, ys, f, p):
    """('zero', node) at a node where f == 0, ('edge', (i, j, axis)) on a sign-changing edge, else None."""
    x, y = p
    i = int(np.searchsorted(xs, x, side="right")) - 1
    j = int(np.searchsorted(ys, y, side="right")) - 1
    on_x, on_y = xs[i] == x, ys[j] == y
    if on_x and on_y:
        return ("zero", (i, j)) if f[i, j] == 0.0 else None
    if on_y and (f[i, j] > 0) != (f[i + 1, j] > 0) and 0.0 not in (f[i, j], f[i + 1, j]):
        return ("edge", (i, j, 0))
    if on_x and (f[i, j] > 0) != (f[i, j + 1] > 0) and 0.0 not in (f[i, j], f[i, j + 1]):
        return ("edge", (i, j, 1))
    return None


def _cells_of(xs, ys, p):
    return {(i, j) for i in range(len(xs) - 1) for j in range(len(ys) - 1)
            if xs[i] <= p[0] <= xs[i + 1] and ys[j] <= p[1] <= ys[j + 1]}


@settings(derandomize=True, max_examples=150, deadline=None)
@given(FIELDS)
def test_marching_squares_topology(field):
    f, dx, dy = field
    xs, ys = np.cumsum(dx), np.cumsum(dy)
    lines = _marching_squares(xs, ys, f)
    kinds = [[_vertex_kind(xs, ys, f, p) for p in line] for line in lines]
    # Every vertex is a zero node or lies on an edge whose ends differ in sign.
    assert all(kind is not None for line in kinds for kind in line)
    # Consecutive vertices of a polyline lie on one cell, and differ.
    for line in lines:
        assert len(line) >= 2
        assert all(_cells_of(xs, ys, p) & _cells_of(xs, ys, q) for p, q in zip(line, line[1:]))
        assert all(p != q for p, q in zip(line, line[1:]))
    # Each crossing appears in exactly one polyline, once; only a closed loop repeats its first vertex.
    crossings = [kind for line, line_kinds in zip(lines, kinds)
                 for kind in line_kinds[:-1 if line[0] == line[-1] else None] if kind[0] == "edge"]
    pos = f > 0
    along_x = (pos[:-1] != pos[1:]) & (f[:-1] != 0) & (f[1:] != 0)
    along_y = (pos[:, :-1] != pos[:, 1:]) & (f[:, :-1] != 0) & (f[:, 1:] != 0)
    assert len(crossings) == len(set(crossings)) == along_x.sum() + along_y.sum()
    # The walk stops at a vertex once all its segments are used, so no
    # polyline holds an end vertex of an earlier one: no two polylines share
    # an end vertex, not even a zero node.
    for k, line_kinds in enumerate(kinds):
        assert not {line_kinds[0], line_kinds[-1]} & set().union(*kinds[k + 1:])


@pytest.fixture(params=["as run", "infinite COP", "infinite heat"])
def mixed_grid(request):
    """A grid with all three modes on a log-scaled tau_h axis; optionally one COP is inf,
    as classify_modes gives a refrigerator with W = 0, or one Q_c is inf and one W -inf,
    so that the writers' non-finite branch formats a heat column."""
    spec = SweepSpec((0.0, 0.5, 9), (0.01, 2.0, 7), 0.485, 0.001, "magnetic", "quantum",
                     tau_scale="log")
    grid = run_sweep(spec)
    assert set(grid.mode.flat) == {"Engine", "Refrigerator", "Heater"}
    if request.param == "infinite COP":
        cop = grid.cop.copy()
        cop[tuple(np.argwhere(grid.mode == "Refrigerator")[0])] = np.inf
        grid = dataclasses.replace(grid, cop=cop)
    if request.param == "infinite heat":
        q_c, w = grid.q_c.copy(), grid.w.copy()
        q_c[2, 4], w[5, 1] = np.inf, -np.inf
        grid = dataclasses.replace(grid, q_c=q_c, w=w)
    return grid


class TestSerialization:
    def test_csv_deterministic(self, tmp_path):
        spec = small_spec(lambda_h_range=(1.0, 4.0, 5), tau_h_range=(1.0, 3.0, 4))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(run_sweep(spec), a)
        write_csv(run_sweep(spec), b)
        assert a.read_bytes() == b.read_bytes()

    def test_csv_floats_round_trip_bit_exact(self, tmp_path):
        spec = SweepSpec((0.0, 0.5, 9), (0.01, 2.0, 7), 0.485, 0.001, "magnetic", "quantum")
        grid = run_sweep(spec)
        path = tmp_path / "grid.csv"
        write_csv(grid, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        reports = grid.cells
        assert len(rows) == len(reports)
        for row, report in zip(rows, reports):
            for key in ("q_c", "q_h", "w", "efficiency", "cop"):
                value = getattr(report, key)
                assert (row[key] == "") if value is None else (float(row[key]) == value)
            for key in ("lambda_h", "tau_h", "lambda_c", "tau_c"):
                assert float(row[key]) == getattr(report.point, key)
            assert row["mode"] == report.mode
        assert {r.mode for r in reports} == {"Engine", "Refrigerator", "Heater"}

    def test_csv_shape_and_header(self, tmp_path):
        spec = small_spec(lambda_h_range=(1.0, 4.0, 5), tau_h_range=(1.0, 3.0, 4))
        path = tmp_path / "grid.csv"
        write_csv(run_sweep(spec), path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == (
            "lambda_h,tau_h,lambda_c,tau_c,machine,model,q_c,q_h,w,mode,efficiency,cop"
        )
        assert len(lines) == 1 + 5 * 4

    def test_json_round_trip_identical(self, tmp_path):
        spec = small_spec(lambda_h_range=(1.0, 4.0, 6), tau_h_range=(1.0, 3.0, 5))
        grid = run_sweep(spec)
        path = tmp_path / "grid.json"
        write_json(grid, path)
        restored = read_json(path)
        assert restored.spec == grid.spec
        assert restored.cells == grid.cells
        assert restored.boundary_engine == grid.boundary_engine
        assert restored.boundary_fridge == grid.boundary_fridge

    def test_json_with_fractional_count_rejected(self, tmp_path):
        path = tmp_path / "grid.json"
        write_json(run_sweep(small_spec(lambda_h_range=(1.0, 4.0, 3))), path)
        path.write_text(path.read_text().replace('"lambda_h_range": [1.0, 4.0, 3]',
                                                 '"lambda_h_range": [1.0, 4.0, 3.0]'))
        with pytest.raises(DomainError, match="integer count"):
            read_json(path)

    def test_write_error_carries_path(self, tmp_path):
        grid = run_sweep(small_spec(lambda_h_range=(1.0, 4.0, 3), tau_h_range=(1.0, 3.0, 3)))
        missing = tmp_path / "no" / "such" / "dir" / "out.csv"
        with pytest.raises(OSError, match="out.csv"):
            write_csv(grid, missing)

    def test_json_bytes_equal_report_dicts(self, mixed_grid, tmp_path):
        path = tmp_path / "grid.json"
        write_json(mixed_grid, path)
        doc = {
            "spec": mixed_grid.spec.to_dict(),
            "cells": [r.to_json_dict() for r in mixed_grid.cells],
            "boundary_engine": mixed_grid.boundary_engine,
            "boundary_fridge": mixed_grid.boundary_fridge,
        }
        # json.dumps writes an infinity as Infinity, which is not JSON.
        expected = json.dumps(doc).replace(": Infinity", ": 1e999").replace(": -Infinity", ": -1e999")
        assert path.read_bytes() == (expected + "\n").encode()
        assert read_json(path).cells == mixed_grid.cells

    def test_json_parses_strictly(self, mixed_grid, tmp_path):
        path = tmp_path / "grid.json"
        write_json(mixed_grid, path)
        # A strict (RFC 8259) reader: the constants NaN and Infinity are no JSON.
        doc = json.loads(path.read_text(), parse_constant=lambda name: pytest.fail(f"not JSON: {name}"))
        cops = [None if math.isnan(c) else c for c in mixed_grid.cop.flat]
        assert [cell["cop"] for cell in doc["cells"]] == cops
        for key in ("q_c", "w"):
            assert [cell[key] for cell in doc["cells"]] == getattr(mixed_grid, key).ravel().tolist()

    def test_csv_bytes_equal_csv_writer(self, mixed_grid, tmp_path):
        path = tmp_path / "grid.csv"
        write_csv(mixed_grid, path)
        expected = io.StringIO()
        writer = csv.writer(expected)
        writer.writerow(["lambda_h", "tau_h", "lambda_c", "tau_c", "machine", "model",
                         "q_c", "q_h", "w", "mode", "efficiency", "cop"])
        for r in mixed_grid.cells:
            p = r.point
            writer.writerow([p.lambda_h, p.tau_h, p.lambda_c, p.tau_c, r.machine, r.model,
                             r.q_c, r.q_h, r.w, r.mode, r.efficiency, r.cop])
        assert path.read_bytes() == expected.getvalue().encode()

    @pytest.mark.parametrize("key", ["lambda_h_range", "tau_h_range", "lambda_c", "tau_c", "machine", "model",
                                     "lambda_scale", "tau_scale"])
    def test_spec_without_a_key_rejected_with_path(self, key, tmp_path):
        # Scales too: a file names every field of the spec, defaults included.
        path = tmp_path / "grid.json"
        write_json(run_sweep(small_spec(lambda_h_range=(1.0, 4.0, 3), tau_h_range=(1.0, 3.0, 3))), path)
        doc = json.loads(path.read_text())
        del doc["spec"][key]
        path.write_text(json.dumps(doc))
        with pytest.raises(DomainError, match=re.escape(f"{path} holds no sweep grid: KeyError: '{key}'")):
            read_json(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc["cells"].pop(), "cannot reshape array of size 8 into shape (3,3)"),
        (lambda doc: doc["cells"].append(doc["cells"][0]), "cannot reshape array of size 10 into shape (3,3)"),
        (lambda doc: doc["cells"][4].pop("w"), "KeyError: 'w'"),
        (lambda doc: doc["cells"][4].update(mode="Turbine"), "unknown mode 'Turbine'"),
        (lambda doc: doc["cells"][4].update(lambda_h=99.0), "cell 4: lambda_h is 99.0, the spec's is 2.5"),
        (lambda doc: doc["cells"][4].update(machine="magnetic"),
         "cell 4: machine is 'magnetic', the spec's is 'electric'"),
        (lambda doc: doc["cells"][1].update(tau_h=True), "cell 1: tau_h is True, the spec's is 1.0"),
        (lambda doc: doc["cells"][4].update(q_c="0.5"), "cell 4: q_c is '0.5', not a number"),
        (lambda doc: doc["cells"][8].update(cop="inf"), "cell 8: cop is 'inf', not a number"),
        (lambda doc: doc["cells"][4].update(w="abc"), "cell 4: w is 'abc', not a number"),
        (lambda doc: doc["cells"][4].update(w=[1]), "cell 4: w is [1], not a number"),
        (lambda doc: [d.update(tau_c=2.0) for d in [doc["spec"], *doc["cells"]]],
         "hot reservoir colder than cold one: tau_h=1.0 < tau_c=2.0"),
        (lambda doc: [d.update(lambda_c=-0.5) for d in [doc["spec"], *doc["cells"]]],
         "control parameter must be >= 0 here, got -0.5"),
    ], ids=["too few cells", "too many cells", "missing key", "unknown mode", "foreign lambda_h", "foreign machine",
            "bool tau_h", "string heat", "string cop", "non-numeric string work", "list work", "tau_c above tau_h",
            "negative electric lambda_c"])
    def test_malformed_json_rejected_with_path(self, edit, message, tmp_path):
        path = tmp_path / "grid.json"
        write_json(run_sweep(small_spec(lambda_h_range=(1.0, 4.0, 3), tau_h_range=(1.0, 3.0, 3))), path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(DomainError, match=re.escape(message)) as info:
            read_json(path)
        assert str(path) in str(info.value)
