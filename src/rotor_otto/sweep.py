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
import re
from dataclasses import dataclass, field, fields

import numpy as np

from . import classical, qelectric, qmagnetic
from .cycle import (
    _MODES,
    JSON_KEYS,
    MACHINE_ELECTRIC,
    MODEL_CLASSICAL,
    CycleReport,
    assemble_cycle,
    check_tags,
    classify_modes,
    json_float,
)
from .units import SCALE_LINEAR, CyclePoint, DomainError, grid_axis, validate_control


@dataclass(frozen=True)
class SweepSpec:
    """Axes and fixed parameters of a (lambda_h, tau_h) sweep.

    Every cell of a spec is a valid CyclePoint: construction raises
    DomainError otherwise, so the domain is checked once, here.
    """

    lambda_h_range: tuple[float, float, int]
    tau_h_range: tuple[float, float, int]
    lambda_c: float
    tau_c: float
    machine: str
    model: str
    lambda_scale: str = SCALE_LINEAR
    tau_scale: str = SCALE_LINEAR

    def __post_init__(self) -> None:
        check_tags(self.machine, self.model)
        lams = grid_axis(self.lambda_h_range, "lambda_h axis", self.lambda_scale)
        taus = grid_axis(self.tau_h_range, "tau_h axis", self.tau_scale)
        # Counts kept as plain ints: a numpy integer does not serialize to JSON.
        object.__setattr__(self, "lambda_h_range", (*self.lambda_h_range[:2], len(lams)))
        object.__setattr__(self, "tau_h_range", (*self.tau_h_range[:2], len(taus)))
        # With finite axes, the cell at the lowest tau_h checks the rest of the domain.
        CyclePoint(lams[0], self.lambda_c, taus.min(), self.tau_c)
        if self.machine == MACHINE_ELECTRIC:  # whose lambda is a field strength
            for lam in (lams[0], self.lambda_c):
                validate_control(lam, require_nonnegative=True)
        object.__setattr__(self, "_axes", (lams, taus))
        # The axes as Python floats, one object per point, shared by the grid's reports.
        object.__setattr__(self, "_axis_floats", (lams.tolist(), taus.tolist()))

    def lambda_axis(self) -> np.ndarray:
        return self._axes[0]

    def tau_axis(self) -> np.ndarray:
        return self._axes[1]

    def to_dict(self) -> dict:
        """The fields by name, the two ranges (the tuples) as lists, as JSON writes them."""
        return {f.name: list(v) if type(v := getattr(self, f.name)) is tuple else v for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "SweepSpec":
        return cls(**{f.name: d[f.name] for f in fields(cls)})


@dataclass(eq=False)
class SweepGrid:
    """Evaluated sweep: arrays of shape (n_tau, n_lambda), tau rows and lambda columns.

    Entry [i_tau, i_lambda] belongs to (lambda_axis[i_lambda], tau_axis[i_tau]);
    an absent efficiency or COP is NaN; mode holds the cycle.MODE_* constants
    themselves, 8 bytes per cell.  cell() and cells build CycleReports from
    the arrays and the spec's axes on each call: the reports of a tau_h row
    share one tau_h float, those of a lambda_h column one lambda_h float.
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
        lams, taus = self.spec._axis_floats
        return self._report(lams[i_lambda], taus[i_tau], (i_tau, i_lambda))

    @property
    def cells(self) -> list[CycleReport]:
        """Reports of every cell in row-major order (tau rows, lambda columns)."""
        lams, taus = self.spec._axis_floats
        return [self._report(lam, tau, (j, i))
                for j, tau in enumerate(taus) for i, lam in enumerate(lams)]

    def _report(self, lam_h: float, tau_h: float, index) -> CycleReport:
        # item() gives Python floats and the mode constants: no numpy scalar per entry.
        spec = self.spec
        point = CyclePoint(lam_h, spec.lambda_c, tau_h, spec.tau_c)
        entries = (a.item(index) for a in (self.q_c, self.q_h, self.w, self.mode, self.efficiency, self.cop))
        return assemble_cycle(spec.machine, spec.model, point, *entries)


def _cycle_arrays(machine, model, lam_h, tau_h, lam_c, tau_c):
    """(q_c, q_h, w, mode, efficiency, cop) of the broadcast shape of lam_h and tau_h.

    The kernel contract of cycle.py, elementwise; the cold stroke is solved once per call.
    """
    check_tags(machine, model)
    if machine == MACHINE_ELECTRIC and model == MODEL_CLASSICAL:
        q_c, q_h, w = classical.classical_cycle_electric(lam_h, tau_h, lam_c, tau_c)
    elif machine == MACHINE_ELECTRIC:
        q_c, q_h, w = qelectric.cycle_heats_electric(lam_h, tau_h, lam_c, tau_c)
    elif model == MODEL_CLASSICAL:
        q_c, q_h, w = classical.classical_cycle_magnetic(lam_h, tau_h, lam_c, tau_c)
    else:
        q_c, q_h, w = qmagnetic.cycle_heats_magnetic(lam_h, tau_h, lam_c, tau_c)
    return (q_c, q_h, w) + classify_modes(q_c, q_h, w, tau_h, tau_c)


def evaluate_point(machine: str, model: str, point: CyclePoint) -> CycleReport:
    """Single-cycle evaluation: the sweep's kernels on a one-cell list."""
    entries = _cycle_arrays(machine, model, np.array([point.lambda_h]), np.array([point.tau_h]),
                            point.lambda_c, point.tau_c)
    return assemble_cycle(machine, model, point, *(a[0] for a in entries))


def run_sweep(spec: SweepSpec) -> SweepGrid:
    """Evaluate every cell of the sweep and extract regime boundaries.

    The spec's cells are valid cycle points, so a DomainError or
    ConvergenceError comes from a kernel, with the kernel's own message: it
    names the stroke that failed (the pendulum its lambda and tau, the
    magnetic momentum window its tau, a row in which every cell fails).
    """
    grid = SweepGrid(spec, *_cycle_arrays(spec.machine, spec.model, spec.lambda_axis(),
                                          spec.tau_axis()[:, None], spec.lambda_c, spec.tau_c))
    grid.boundary_engine, grid.boundary_fridge = extract_boundaries(grid)
    return grid


def momentum_curve(
    lambda_range: tuple[float, float, int], taus: list[float]
) -> list[tuple[float, float, float, float]]:
    """Rows (lambda, tau, <L_z>/hbar, epsilon) of the thermal momentum curve."""
    lams, taus = grid_axis(lambda_range, "lambda range"), np.asarray(taus, dtype=float)[:, None]
    mu = qmagnetic.momentum_moments(lams, taus)[0]
    lam, tau = np.broadcast_arrays(lams, taus)
    center = np.round(lam)
    return list(zip(*(a.ravel().tolist() for a in (lam, tau, center + mu, mu - (lam - center)))))


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

    An edge whose ends differ in sign (f > 0 against f <= 0) holds one
    crossing: the end where f == 0 if there is one, else the point
    interpolated linearly from its lower node.  Vertices are numbered by
    node or by edge, and segments are joined by these numbers; a segment
    whose two ends are one vertex (the zero corner of a cell whose other
    corners are positive) is dropped, so an isolated zero node makes no
    polyline.
    """
    nx, ny = f.shape
    pos = f > 0.0
    a, b = pos[:-1] != pos[1:], pos[:, :-1] != pos[:, 1:]  # sign changes along x, along y
    # The cells in row-major order, the edges of cell (i, j) in the order
    # along x at j, along y at i + 1, along x at j + 1, along y at i.  A cell
    # holds two crossings, one segment, or four (a saddle), paired in order.
    i, j, e = np.nonzero(np.stack((a[:, :-1], b[1:], a[:, 1:], b[:-1]), axis=-1))
    along_y = e % 2
    lo = (i + (e == 1), j + (e == 2))  # the lower node of each crossing's edge
    hi = (lo[0] + 1 - along_y, lo[1] + along_y)
    hi_zero = f[hi] == 0.0
    node = tuple(np.where(hi_zero, h, l) for h, l in zip(hi, lo))  # a zero end, else the lower node
    with np.errstate(divide="ignore", invalid="ignore"):  # an infinite or NaN f
        t = np.where(hi_zero, 0.0, f[lo] / (f[lo] - f[hi]))
    x = xs[node[0]] + t * (xs[hi[0]] - xs[lo[0]])
    y = ys[node[1]] + t * (ys[hi[1]] - ys[lo[1]])
    # Vertex numbers: k = i * ny + j for node (i, j) where f == 0, and
    # k + nx ny or k + 2 nx ny for the edge along x or y from node k.
    ids = np.where(f[node] == 0.0, 0, 1 + along_y) * nx * ny + node[0] * ny + node[1]
    vertices = dict(zip(ids.tolist(), zip(x.tolist(), y.tolist())))
    segments = ids.reshape(-1, 2)
    segments = segments[segments[:, 0] != segments[:, 1]]
    return [[vertices[v] for v in line] for line in _chain_segments(segments.tolist())]


def _chain_segments(segments: list[list[int]]) -> list[list[int]]:
    """Join segments that share a vertex number into polylines (greedy walk)."""
    adjacency: dict[int, list[int]] = {}
    for s, ends in enumerate(segments):
        for v in ends:
            adjacency.setdefault(v, []).append(s)
    used = [False] * len(segments)
    polylines = []
    for s, (head, tail) in enumerate(segments):
        if used[s]:
            continue
        used[s] = True
        forward, backward = [tail], [head]
        for half in (forward, backward):  # extend forward from the tail, then backward from the head
            while (nxt := next((t for t in adjacency[half[-1]] if not used[t]), None)) is not None:
                used[nxt] = True
                a, b = segments[nxt]
                half.append(b if a == half[-1] else a)
        polylines.append(backward[::-1] + forward)
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


# One cell of each file format, a text with a {key} field for each of
# CSV_COLUMNS, and the texts that stand for NaN (an absent efficiency or COP)
# and +-inf in place of their repr.  Each JSON cell is preceded by ", " (cut
# before the first); machine and model names (check_tags) and modes
# (classify_modes) need no quoting or escaping.
_CSV_CELL = ",".join(f"{{{key}}}" for key in CSV_COLUMNS) + "\r\n"
_CSV_NONFINITE = {"nan": ""}
_JSON_CELL = ", {" + ", ".join(
    f'"{key}": "{{{key}}}"' if key in ("mode", "machine", "model") else f'"{key}": {{{key}}}'
    for key in JSON_KEYS) + "}"
_JSON_NONFINITE = {"nan": "null"} | {repr(x): json_float(x) for x in (math.inf, -math.inf)}


def _row_texts(grid: SweepGrid, template: str, nonfinite: dict):
    """Per tau_h row, the text of its cells through template, in one join.

    The template is cut once at the fields that differ between cells, with
    the grid's constant fields (lambda_c, tau_c, machine, model) formatted
    into its pieces; each row's tau_h is formatted once.  A row's text
    interleaves the pieces with its cells' texts, column by column: the
    shortest round-trip decimals of a column's values, with those of NaN and
    +-inf replaced by their texts in nonfinite where a row holds any.  One
    row at a time is held.
    """
    spec = grid.spec
    fixed = {"lambda_c": repr(float(spec.lambda_c)), "tau_c": repr(float(spec.tau_c)),
             "machine": spec.machine, "model": spec.model}
    cut = re.split(r"{(\w+)}", template)  # literal text at even positions, keys at odd ones
    pieces, columns = [cut[0]], []  # constant text around the per-cell fields, and their keys
    for key, literal in zip(cut[1::2], cut[2::2]):
        if key in fixed:
            pieces[-1] += fixed[key] + literal
        else:
            columns.append(key)
            pieces.append(literal)
    n, k = spec.lambda_h_range[2], len(pieces) + len(columns)
    parts = [""] * (n * k)
    for p, piece in enumerate(pieces):
        parts[2 * p::k] = [piece] * n
    values = {key: getattr(grid, key) for key in ("q_c", "q_h", "w", "efficiency", "cop")}
    finite = {key: np.isfinite(a).all(axis=1).tolist() for key, a in values.items()}
    texts = {"lambda_h": list(map(repr, spec.lambda_axis().tolist()))}
    for j, tau_h in enumerate(spec.tau_axis().tolist()):
        texts.update(tau_h=[repr(tau_h)] * n, mode=grid.mode[j].tolist())
        for key, a in values.items():
            # tolist(): the repr of a numpy float names its type.
            texts[key] = column = list(map(repr, a[j].tolist()))
            if not finite[key][j]:
                texts[key] = list(map(nonfinite.get, column, column))
        for c, key in enumerate(columns):
            parts[2 * c + 1::k] = texts[key]
        yield "".join(parts)


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
    (check_tags) or a mode (classify_modes).  Each tau_h row of the grid is
    formatted column by column and written in one piece (_row_texts).
    """

    def emit(fh):
        fh.write(",".join(CSV_COLUMNS) + "\r\n")
        fh.writelines(_row_texts(grid, _CSV_CELL, _CSV_NONFINITE))

    _write(path, "CSV", emit)


def write_json(grid: SweepGrid, path) -> None:
    """JSON: the spec, the cells in the CycleReport schema (row-major), the boundaries.

    The document is written as json.dump would write it, one tau_h row at a
    time, formatted column by column (_row_texts), except that an infinite
    heat, work or COP is written 1e999 (json_float).
    """

    def emit(fh):
        rows = _row_texts(grid, _JSON_CELL, _JSON_NONFINITE)
        fh.write('{"spec": ' + json.dumps(grid.spec.to_dict()) + ', "cells": [' + next(rows)[2:])
        fh.writelines(rows)
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
    for k, cell in enumerate(cells[: len(lams) * len(taus)]):  # a surplus cell fails read_json's reshape
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
        _check_cells(doc["cells"], spec)
        shape = (spec.tau_h_range[2], spec.lambda_h_range[2])

        def column(key):
            values = [math.nan if d[key] is None else d[key] for d in doc["cells"]]
            return np.array(values, dtype=float).reshape(shape)

        modes = [_MODES.get(d["mode"]) for d in doc["cells"]]  # the constants themselves
        if None in modes:
            raise DomainError(f"unknown mode {doc['cells'][modes.index(None)]['mode']!r}")
        grid = SweepGrid(
            spec=spec,
            q_c=column("q_c"),
            q_h=column("q_h"),
            w=column("w"),
            mode=np.array(modes, dtype=object).reshape(shape),
            efficiency=column("efficiency"),
            cop=column("cop"),
            boundary_engine=[[tuple(p) for p in line] for line in doc["boundary_engine"]],
            boundary_fridge=[[tuple(p) for p in line] for line in doc["boundary_fridge"]],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"{path} holds no sweep grid: {type(exc).__name__}: {exc}") from exc
    return grid
