"""Parameter sweeps, momentum curves, regime boundaries, CSV/JSON output.

A sweep evaluates the cycle on a rectangular (lambda_h, tau_h) grid at
fixed cold-stroke parameters, with one array call of the machine/model
kernel and of the mode classifier; evaluate_point is the same call on one
cell.  Boundaries between operation regimes are the zero-level polylines of
W and Q_c, extracted by marching squares with linear edge interpolation.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat, starmap

import numpy as np

from . import classical, qelectric, qmagnetic
from .cycle import (
    JSON_KEYS,
    MACHINE_ELECTRIC,
    MODE_ENGINE,
    MODE_HEATER,
    MODE_REFRIGERATOR,
    MODEL_CLASSICAL,
    CycleReport,
    assemble_cycle,
    check_tags,
    classify_modes,
)
from .units import ConvergenceError, CyclePoint, DomainError, validate_count, validate_tolerance

SCALE_LINEAR = "linear"
SCALE_LOG = "log"


@dataclass(frozen=True)
class SweepSpec:
    """Axes and fixed parameters of a (lambda_h, tau_h) sweep."""

    lambda_h_range: tuple[float, float, int]
    tau_h_range: tuple[float, float, int]
    lambda_c: float
    tau_c: float
    machine: str
    model: str
    lambda_scale: str = SCALE_LINEAR
    tau_scale: str = SCALE_LINEAR

    def __post_init__(self) -> None:
        for name, scale in (("lambda_h", self.lambda_scale), ("tau_h", self.tau_scale)):
            lo, hi, count = getattr(self, f"{name}_range")
            # Kept as a plain int: a numpy integer does not serialize to JSON.
            object.__setattr__(self, f"{name}_range", (lo, hi, validate_count(count, 2, f"{name} axis")))
            if not lo < hi:
                raise DomainError(f"{name} axis needs min < max, got ({lo}, {hi})")
            if scale not in (SCALE_LINEAR, SCALE_LOG):
                raise DomainError(f"unknown scale {scale!r}")
            if scale == SCALE_LOG and lo <= 0.0:
                raise DomainError(f"log-scaled {name} axis needs min > 0, got {lo}")
        check_tags(self.machine, self.model)

    @cached_property
    def _axes(self) -> tuple[np.ndarray, np.ndarray]:
        """(lambda_h axis, tau_h axis), computed once per spec and read-only."""
        axes = tuple((np.geomspace if scale == SCALE_LOG else np.linspace)(*rng) for rng, scale in
                     ((self.lambda_h_range, self.lambda_scale), (self.tau_h_range, self.tau_scale)))
        for axis in axes:
            axis.flags.writeable = False
        return axes

    def lambda_axis(self) -> np.ndarray:
        return self._axes[0]

    def tau_axis(self) -> np.ndarray:
        return self._axes[1]

    def to_dict(self) -> dict:
        return {
            "lambda_h_range": list(self.lambda_h_range),
            "tau_h_range": list(self.tau_h_range),
            "lambda_c": self.lambda_c,
            "tau_c": self.tau_c,
            "machine": self.machine,
            "model": self.model,
            "lambda_scale": self.lambda_scale,
            "tau_scale": self.tau_scale,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SweepSpec":
        return cls(
            lambda_h_range=tuple(d["lambda_h_range"]),
            tau_h_range=tuple(d["tau_h_range"]),
            lambda_c=d["lambda_c"],
            tau_c=d["tau_c"],
            machine=d["machine"],
            model=d["model"],
            lambda_scale=d["lambda_scale"],
            tau_scale=d["tau_scale"],
        )


@dataclass(eq=False)
class SweepGrid:
    """Evaluated sweep: arrays of shape (n_tau, n_lambda), tau rows and lambda columns.

    Entry [i_tau, i_lambda] belongs to (lambda_axis[i_lambda], tau_axis[i_tau]);
    an absent efficiency or COP is NaN.  cell() and cells build CycleReports
    from the arrays and the spec's axes on each call.
    """

    spec: SweepSpec
    q_c: np.ndarray
    q_h: np.ndarray
    w: np.ndarray
    mode: np.ndarray
    efficiency: np.ndarray
    cop: np.ndarray
    boundary_engine: list[list[tuple[float, float]]] = field(default_factory=list)
    boundary_fridge: list[list[tuple[float, float]]] = field(default_factory=list)

    def cell(self, i_lambda: int, i_tau: int) -> CycleReport:
        return self._report(self.spec.lambda_axis()[i_lambda], self.spec.tau_axis()[i_tau],
                            (i_tau, i_lambda))

    @property
    def cells(self) -> list[CycleReport]:
        """Reports of every cell in row-major order (tau rows, lambda columns)."""
        lams, taus = self.spec.lambda_axis(), self.spec.tau_axis()
        return [self._report(lam, tau, (j, i))
                for j, tau in enumerate(taus) for i, lam in enumerate(lams)]

    def _report(self, lam_h, tau_h, index) -> CycleReport:
        spec = self.spec
        point = CyclePoint(lam_h, spec.lambda_c, tau_h, spec.tau_c)
        entries = (a[index] for a in (self.q_c, self.q_h, self.w, self.mode, self.efficiency, self.cop))
        return assemble_cycle(spec.machine, spec.model, point, *entries)


def _cycle_arrays(machine, model, lam_h, tau_h, lam_c, tau_c, tol):
    """(q_c, q_h, w, mode, efficiency, cop), each (n_tau, n_lam): the kernel contract of cycle.py.

    lam_h and tau_h are the grid's axes; the cold stroke is solved once per call.
    """
    check_tags(machine, model)
    if machine == MACHINE_ELECTRIC and model == MODEL_CLASSICAL:
        q_c, q_h, w = classical.classical_cycle_electric(lam_h, tau_h, lam_c, tau_c)
    elif machine == MACHINE_ELECTRIC:
        q_c, q_h, w = qelectric.cycle_heats_electric(lam_h, tau_h, lam_c, tau_c, tol=tol)
    elif model == MODEL_CLASSICAL:
        q_c, q_h, w = classical.classical_cycle_magnetic(lam_h, tau_h, lam_c, tau_c)
    else:
        q_c, q_h, w = qmagnetic.cycle_heats_magnetic(lam_h, tau_h, lam_c, tau_c)
    return (q_c, q_h, w) + classify_modes(q_c, q_h, w, tau_h[:, None], tau_c)


def evaluate_point(
    machine: str, model: str, point: CyclePoint, tol: float = 1e-10
) -> CycleReport:
    """Single-cycle evaluation: the sweep's kernels on a 1x1 grid."""
    validate_tolerance(tol)
    entries = _cycle_arrays(machine, model, np.array([point.lambda_h]), np.array([point.tau_h]),
                            point.lambda_c, point.tau_c, tol)
    return assemble_cycle(machine, model, point, *(a[0, 0] for a in entries))


def run_sweep(spec: SweepSpec, tol: float = 1e-10) -> SweepGrid:
    """Evaluate every cell of the sweep and extract regime boundaries.

    A failure is re-raised with the grid coordinates of the first cell, in
    row-major order, that fails on its own.
    """
    validate_tolerance(tol)
    lams, taus = spec.lambda_axis(), spec.tau_axis()
    try:
        # A cell's coordinates are valid iff its column's and its row's are.
        for lam in lams:
            CyclePoint(lam, spec.lambda_c, taus[-1], spec.tau_c)
        for tau in taus:
            CyclePoint(lams[0], spec.lambda_c, tau, spec.tau_c)
        arrays = _cycle_arrays(spec.machine, spec.model, lams, taus, spec.lambda_c, spec.tau_c, tol)
    except (DomainError, ConvergenceError):
        for tau in taus:
            for lam in lams:
                try:
                    evaluate_point(spec.machine, spec.model,
                                   CyclePoint(lam, spec.lambda_c, tau, spec.tau_c), tol=tol)
                except (DomainError, ConvergenceError) as exc:
                    raise type(exc)(f"cell (lambda_h={lam}, tau_h={tau}): {exc}") from exc
        raise
    grid = SweepGrid(spec, *arrays)
    grid.boundary_engine, grid.boundary_fridge = extract_boundaries(grid)
    return grid


def momentum_curve(
    lambda_range: tuple[float, float, int], taus: list[float]
) -> list[tuple[float, float, float, float]]:
    """Rows (lambda, tau, <L_z>/hbar, epsilon) of the thermal momentum curve."""
    lo, hi, count = lambda_range
    validate_count(count, 2, "lambda range")
    if not lo < hi:
        raise DomainError(f"invalid lambda range {lambda_range}")
    lams = np.linspace(lo, hi, count)
    centers = np.round(lams)
    rows = []
    for tau in taus:
        mu = qmagnetic.momentum_moments(lams, tau)[0]
        rows += zip(lams.tolist(), [float(tau)] * len(lams), (centers + mu).tolist(),
                    (mu - (lams - centers)).tolist())
    return rows


def extract_boundaries(
    grid: SweepGrid,
) -> tuple[list[list[tuple[float, float]]], list[list[tuple[float, float]]]]:
    """Zero-level polylines of W (engine boundary) and Q_c (fridge boundary)."""
    lams = grid.spec.lambda_axis()
    taus = grid.spec.tau_axis()
    return (
        _marching_squares(lams, taus, -grid.w.T),
        _marching_squares(lams, taus, grid.q_c.T),
    )


def _marching_squares(
    xs: np.ndarray, ys: np.ndarray, f: np.ndarray
) -> list[list[tuple[float, float]]]:
    """Zero-crossing polylines of f[i_x, i_y] sampled on the (xs, ys) node grid.

    The corners of cell (i, j) are taken in the order (i, j), (i+1, j),
    (i+1, j+1), (i, j+1); edge k runs from corner k to corner k+1, and a
    crossing is interpolated from the edge's first corner.
    """
    pos = f > 0.0
    x, y = np.meshgrid(xs, ys, indexing="ij")
    lo, hi = slice(None, -1), slice(1, None)
    corners = [(lo, lo), (hi, lo), (hi, hi), (lo, hi)]
    edges = []  # (sign change, crossing x, crossing y) of each cell's edge k
    for k in range(4):
        a, b = corners[k], corners[(k + 1) % 4]
        with np.errstate(divide="ignore", invalid="ignore"):  # edges without a sign change
            t = f[a] / (f[a] - f[b])
            edges.append((pos[a] != pos[b], x[a] + t * (x[b] - x[a]), y[a] + t * (y[b] - y[a])))
    segments = []
    # Two crossings make one segment; a saddle cell's four pair in edge order.
    for i, j in zip(*np.nonzero(sum(change for change, _, _ in edges))):
        crossings = [(float(cx[i, j]), float(cy[i, j])) for change, cx, cy in edges if change[i, j]]
        segments.append((crossings[0], crossings[1]))
        if len(crossings) == 4:
            segments.append((crossings[2], crossings[3]))
    return _chain_segments(segments)


def _chain_segments(segments) -> list[list[tuple[float, float]]]:
    """Merge shared-endpoint segments into polylines (greedy walk)."""

    def key(p):
        return (round(p[0], 12), round(p[1], 12))

    adjacency: dict = {}
    for seg in segments:
        a, b = key(seg[0]), key(seg[1])
        adjacency.setdefault(a, []).append((seg, 1))
        adjacency.setdefault(b, []).append((seg, -1))

    used = set()
    polylines = []
    for start_seg in segments:
        if id(start_seg) in used:
            continue
        used.add(id(start_seg))
        line = [start_seg[0], start_seg[1]]
        # extend forward from the tail, then backward from the head
        for endpoint_idx, append in ((-1, True), (0, False)):
            while True:
                end = key(line[endpoint_idx])
                nxt = None
                for seg, _ in adjacency.get(end, []):
                    if id(seg) not in used:
                        nxt = seg
                        break
                if nxt is None:
                    break
                used.add(id(nxt))
                point = nxt[1] if key(nxt[0]) == end else nxt[0]
                if append:
                    line.append(point)
                else:
                    line.insert(0, point)
        polylines.append([(float(x), float(y)) for x, y in line])
    return polylines


CSV_COLUMNS = [
    "lambda_h",
    "tau_h",
    "lambda_c",
    "tau_c",
    "machine",
    "model",
    "q_c",
    "q_h",
    "w",
    "mode",
    "efficiency",
    "cop",
]


def _cell_texts(grid: SweepGrid, real, absent: str, tag):
    """Per tau_h row, an iterator over its cells as tuples of text in CSV_COLUMNS order.

    real formats a Python float (tolist(): the repr of a numpy float names its
    type), tag a machine, model or mode name, and absent stands for a NaN
    efficiency or COP.  The axes and the constant columns are formatted once;
    one row at a time is held.
    """
    spec = grid.spec
    lams = list(map(real, spec.lambda_axis().tolist()))
    fixed = [real(float(spec.lambda_c)), real(float(spec.tau_c)), tag(spec.machine), tag(spec.model)]
    for j, tau_h in enumerate(spec.tau_axis().tolist()):
        heats = [map(real, a[j].tolist()) for a in (grid.q_c, grid.q_h, grid.w)]
        optionals = [[absent if math.isnan(x) else real(x) for x in a[j].tolist()]
                     for a in (grid.efficiency, grid.cop)]
        yield zip(lams, *map(repeat, [real(tau_h), *fixed]), *heats,
                  map(tag, grid.mode[j].tolist()), *optionals)


def _write(path, what: str, emit) -> None:
    """Fill the file at path through emit(fh); a file this call opened is removed on failure."""
    try:
        fh = open(path, "w", newline="")
    except OSError as exc:
        raise OSError(f"failed writing {what} to {path}: {exc}") from exc
    try:
        with fh:
            emit(fh)
    except BaseException:
        os.remove(path)
        raise


def write_csv(grid: SweepGrid, path) -> None:
    """CSV with one row per cell; shortest round-trip decimals, '' for absent optionals.

    The bytes are those of csv.writer: str of a float is its repr, and no
    field needs quoting, since every text field is a machine or model name
    (check_tags) or a mode (classify_modes).
    """

    def emit(fh):
        fh.write(",".join(CSV_COLUMNS) + "\r\n")
        for row in _cell_texts(grid, str, "", str):
            fh.write("".join(",".join(cell) + "\r\n" for cell in row))

    _write(path, "CSV", emit)


def _json_float(x: float) -> str:
    return repr(x) if math.isfinite(x) else json.dumps(x)


def write_json(grid: SweepGrid, path) -> None:
    """JSON: the spec, the cells in the CycleReport schema (row-major), the boundaries.

    The document is written as json.dump would write it, one tau_h row at a time.
    """
    cell = "{{" + ", ".join(f'"{key}": {{{CSV_COLUMNS.index(key)}}}' for key in JSON_KEYS) + "}}"

    def emit(fh):
        fh.write('{"spec": ' + json.dumps(grid.spec.to_dict()) + ', "cells": [')
        sep = ""
        for row in _cell_texts(grid, _json_float, "null", json.dumps):
            fh.write(sep + ", ".join(starmap(cell.format, row)))
            sep = ", "
        fh.write('], "boundary_engine": ' + json.dumps(grid.boundary_engine)
                 + ', "boundary_fridge": ' + json.dumps(grid.boundary_fridge) + "}\n")

    _write(path, "JSON", emit)


def _is_number(x) -> bool:
    return type(x) in (int, float)


def _check_cells(cells: list, spec: SweepSpec) -> None:
    """DomainError naming the first cell, in row-major order, that disagrees with spec.

    A cell's coordinates, machine and model must be the spec's (the axes
    are written as shortest round-trip decimals, so they compare exactly),
    its heats and work numbers, and its efficiency and COP numbers or null.
    """
    lams, taus = spec.lambda_axis().tolist(), spec.tau_axis().tolist()
    fixed = {"lambda_c": spec.lambda_c, "tau_c": spec.tau_c, "machine": spec.machine, "model": spec.model}
    for k, cell in enumerate(cells):
        j, i = divmod(k, len(lams))
        for key, value in {"lambda_h": lams[i], "tau_h": taus[j], **fixed}.items():
            # A bool equals 0 or 1 but is no coordinate.
            if cell[key] != value or _is_number(cell[key]) != _is_number(value):
                raise DomainError(f"cell {k}: {key} is {cell[key]!r}, the spec's is {value!r}")
        for key in ("q_c", "q_h", "w", "efficiency", "cop"):
            if not (_is_number(cell[key]) or key in ("efficiency", "cop") and cell[key] is None):
                raise DomainError(f"cell {k}: {key} is {cell[key]!r}, not a number")


def read_json(path) -> SweepGrid:
    """Inverse of write_json; DomainError naming path if the file holds no sweep grid."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise OSError(f"failed reading JSON from {path}: {exc}") from exc
    try:
        spec = SweepSpec.from_dict(doc["spec"])
        shape = (spec.tau_h_range[2], spec.lambda_h_range[2])

        def column(key, dtype=float):
            values = [math.nan if d[key] is None else d[key] for d in doc["cells"]]
            return np.array(values, dtype=dtype).reshape(shape)

        grid = SweepGrid(
            spec=spec,
            q_c=column("q_c"),
            q_h=column("q_h"),
            w=column("w"),
            mode=column("mode", dtype=str),
            efficiency=column("efficiency"),
            cop=column("cop"),
            boundary_engine=[[tuple(p) for p in line] for line in doc["boundary_engine"]],
            boundary_fridge=[[tuple(p) for p in line] for line in doc["boundary_fridge"]],
        )
        unknown = set(np.unique(grid.mode).tolist()) - {MODE_ENGINE, MODE_REFRIGERATOR, MODE_HEATER}
        if unknown:
            raise DomainError(f"unknown mode {sorted(unknown)[0]!r}")
        _check_cells(doc["cells"], spec)
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"{path} holds no sweep grid: {type(exc).__name__}: {exc}") from exc
    return grid
