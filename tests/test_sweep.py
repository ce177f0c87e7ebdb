import csv
import dataclasses
import io
import json
import re

import numpy as np
import pytest

from rotor_otto.classical import classical_engine_condition_electric
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
        spec = small_spec(tau_h_range=(0.1, 10.0, 5), tau_scale="log")
        assert np.allclose(spec.tau_axis(), np.geomspace(0.1, 10.0, 5))

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
        spec = SweepSpec(
            lambda_h_range=(0.1, 1.0, 3),
            tau_h_range=(0.5, 2.0, 3),
            lambda_c=0.5,
            tau_c=1.0,  # tau_h min < tau_c: first row must fail
            machine="magnetic",
            model="classical",
        )
        with pytest.raises(DomainError, match="tau_h=0.5"):
            run_sweep(spec)

    def test_kernel_error_names_first_failing_cell(self):
        # The momentum window is too wide from the second tau_h row on.
        spec = SweepSpec(
            lambda_h_range=(0.1, 0.4, 3),
            tau_h_range=(1.0, 2e12, 3),
            lambda_c=0.3,
            tau_c=1.0,
            machine="magnetic",
            model="quantum",
        )
        with pytest.raises(ConvergenceError, match=r"cell \(lambda_h=0\.1, tau_h=1000000000000\.5\)"):
            run_sweep(spec)


@pytest.mark.parametrize(
    "machine, model, lambda_c, tau_c, lam, tau",
    [
        ("electric", "classical", 1.0, 1.0, (1.0, 8.0, 5), (1.0, 6.0, 4)),
        ("electric", "quantum", 1.0, 0.05, (1.0, 8.0, 4), (1.0, 6.0, 3)),
        ("magnetic", "classical", 0.4, 0.5, (-2.0, 2.0, 5), (1.0, 6.0, 4)),
        ("magnetic", "quantum", 0.485, 0.001, (0.0, 0.5, 6), (0.01, 2.0, 5)),
    ],
)
def test_grid_cells_equal_point_evaluations(machine, model, lambda_c, tau_c, lam, tau):
    spec = SweepSpec(lam, tau, lambda_c, tau_c, machine, model)
    grid = run_sweep(spec)
    modes = set()
    for j, tau_h in enumerate(spec.tau_axis()):
        for i, lam_h in enumerate(spec.lambda_axis()):
            point = CyclePoint(lam_h, lambda_c, tau_h, tau_c)
            assert grid.cell(i, j) == evaluate_point(machine, model, point)
            modes.add(grid.cell(i, j).mode)
    assert grid.cells == [grid.cell(i, j) for j in range(tau[2]) for i in range(lam[2])]
    if model == "quantum" or machine == "electric":
        assert len(modes) > 1


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


@pytest.fixture(params=["as run", "infinite COP"])
def mixed_grid(request):
    """A grid with all three modes on a log-scaled tau_h axis; optionally one COP is inf,
    as classify_modes gives a refrigerator with W = 0."""
    spec = SweepSpec((0.0, 0.5, 9), (0.01, 2.0, 7), 0.485, 0.001, "magnetic", "quantum",
                     tau_scale="log")
    grid = run_sweep(spec)
    assert set(grid.mode.flat) == {"Engine", "Refrigerator", "Heater"}
    if request.param == "infinite COP":
        cop = grid.cop.copy()
        cop[tuple(np.argwhere(grid.mode == "Refrigerator")[0])] = np.inf
        grid = dataclasses.replace(grid, cop=cop)
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
        assert path.read_bytes() == (json.dumps(doc) + "\n").encode()
        assert read_json(path).cells == mixed_grid.cells

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

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc["cells"].pop(), "cannot reshape array of size 8 into shape (3,3)"),
        (lambda doc: doc["cells"][4].pop("w"), "KeyError: 'w'"),
        (lambda doc: doc["cells"][4].update(mode="Turbine"), "unknown mode 'Turbine'"),
        (lambda doc: doc["cells"][4].update(lambda_h=99.0), "cell 4: lambda_h is 99.0, the spec's is 2.5"),
        (lambda doc: doc["cells"][4].update(machine="magnetic"),
         "cell 4: machine is 'magnetic', the spec's is 'electric'"),
        (lambda doc: doc["cells"][1].update(tau_h=True), "cell 1: tau_h is True, the spec's is 1.0"),
        (lambda doc: doc["cells"][4].update(q_c="0.5"), "cell 4: q_c is '0.5', not a number"),
        (lambda doc: doc["cells"][8].update(cop="inf"), "cell 8: cop is 'inf', not a number"),
    ], ids=["too few cells", "missing key", "unknown mode", "foreign lambda_h", "foreign machine",
            "bool tau_h", "string heat", "string cop"])
    def test_malformed_json_rejected_with_path(self, edit, message, tmp_path):
        path = tmp_path / "grid.json"
        write_json(run_sweep(small_spec(lambda_h_range=(1.0, 4.0, 3), tau_h_range=(1.0, 3.0, 3))), path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(DomainError, match=re.escape(message)) as info:
            read_json(path)
        assert str(path) in str(info.value)
