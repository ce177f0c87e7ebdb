"""Independent references and the checks the benchmark applies to outputs.

Nothing here imports rotor_otto.  The references are:

- the magnetic rotor's momentum moments, summed in float64 over a window
  around round(lambda) with the weights written in the central variable
  x = m - lambda (cancellation-free at any |lambda|), and at 30 significant
  digits with mpmath;
- the quantum pendulum quartet as dense-matrix traces Tr[rho_j H_i];
- the classical electric quartet in closed form with scipy.special.i1e/i0e;
- the classical magnetic theorem and the classical electric engine
  condition, as stated in the paper.

Each check returns (ok, detail).  The checks take plain arrays, so a test
can feed them perturbed outputs (see test_checks.py).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.special

MODE_TOL = 1e-12
ENGINE, FRIDGE, HEATER = "Engine", "Refrigerator", "Heater"

# Working precision of the mpmath sums, in significant digits.
MP_DPS = 30


@dataclass
class Cells:
    """Outputs of a set of cycle evaluations, one entry per cell or query.

    Grids are stored in the program's row-major order (tau_h rows, lambda_h
    columns) with shape (n_tau, n_lambda); query sets are 1-D.
    Absent efficiency or COP is NaN.
    """

    lambda_h: np.ndarray
    lambda_c: np.ndarray
    tau_h: np.ndarray
    tau_c: np.ndarray
    q_c: np.ndarray
    q_h: np.ndarray
    w: np.ndarray
    mode: np.ndarray
    efficiency: np.ndarray
    cop: np.ndarray
    boundary_engine: list = field(default_factory=list)
    boundary_fridge: list = field(default_factory=list)

    def take(self, index) -> "Cells":
        """Entries at a flat index array, as a 1-D Cells."""
        pick = [np.ravel(a)[index] for a in self._arrays()]
        return Cells(*pick)

    def _arrays(self):
        return (self.lambda_h, self.lambda_c, self.tau_h, self.tau_c, self.q_c,
                self.q_h, self.w, self.mode, self.efficiency, self.cop)


def cells_from_reports(reports, shape) -> Cells:
    """Cells from objects with the CycleReport attributes, reshaped."""
    def col(get, dtype=float):
        return np.array([get(r) for r in reports], dtype=dtype).reshape(shape)

    def opt(v):
        return math.nan if v is None else v

    return Cells(
        lambda_h=col(lambda r: r.point.lambda_h),
        lambda_c=col(lambda r: r.point.lambda_c),
        tau_h=col(lambda r: r.point.tau_h),
        tau_c=col(lambda r: r.point.tau_c),
        q_c=col(lambda r: r.q_c),
        q_h=col(lambda r: r.q_h),
        w=col(lambda r: r.w),
        mode=col(lambda r: r.mode, dtype=object),
        efficiency=col(lambda r: opt(r.efficiency)),
        cop=col(lambda r: opt(r.cop)),
    )


def cells_from_grid(grid) -> Cells:
    """Cells of a SweepGrid in row-major order, with its boundaries."""
    n_lam = grid.spec.lambda_h_range[2]
    n_tau = grid.spec.tau_h_range[2]
    reports = [grid.cell(i, j) for j in range(n_tau) for i in range(n_lam)]
    cells = cells_from_reports(reports, (n_tau, n_lam))
    cells.boundary_engine = [[(float(x), float(y)) for x, y in line] for line in grid.boundary_engine]
    cells.boundary_fridge = [[(float(x), float(y)) for x, y in line] for line in grid.boundary_fridge]
    return cells


def _worst(excess, c: Cells, what: str):
    """(ok, detail) from a per-entry excess array; ok when every excess <= 0."""
    excess = np.ravel(np.asarray(excess, dtype=float))
    bad = np.count_nonzero(~(excess <= 0.0))
    if excess.size == 0:
        return True, f"{what}: nothing to compare"
    k = int(np.nanargmax(np.where(np.isnan(excess), np.inf, excess)))
    at = (f"(lambda_h={np.ravel(c.lambda_h)[k]!r}, lambda_c={np.ravel(c.lambda_c)[k]!r}, "
          f"tau_h={np.ravel(c.tau_h)[k]!r}, tau_c={np.ravel(c.tau_c)[k]!r})")
    return bad == 0, f"{what}: {bad} of {excess.size} off, worst excess {excess[k]:.3g} at {at}"


# ---------------------------------------------------------------- references


def _window_half(tau: float, nats: float) -> int:
    return int(math.ceil(math.sqrt(2.0 * tau * nats))) + 2


def magnetic_moments(lam: np.ndarray, tau: np.ndarray):
    """(eps, s) = (<x>, <x^2>) with x = m - lambda, float64, vectorized.

    <L_z> = lambda + eps and <L_z^2> = lambda^2 + 2 lambda eps + s.
    """
    lam = np.asarray(lam, dtype=float)
    tau = np.asarray(tau, dtype=float)
    half = _window_half(float(tau.max()), 60.0)
    k = np.arange(-half, half + 1, dtype=float)
    center = np.round(lam)
    x = (center - lam)[..., None] + k          # m - lambda, exact for |lambda| < 2^52
    logw = -x * x / (2.0 * tau[..., None])
    wgt = np.exp(logw - logw.max(axis=-1, keepdims=True))
    norm = wgt.sum(axis=-1)
    eps = (wgt * x).sum(axis=-1) / norm
    s = (wgt * x * x).sum(axis=-1) / norm
    return eps, s


def magnetic_cycle_float(lam_h, lam_c, tau_h, tau_c):
    """(Q_c, W) of the quantum magnetic cycle from central moments.

    Q_c = -(dl)^2/2 - dl eps_h + (s_c - s_h)/2 and W = dl (dl + eps_h - eps_c)
    with dl = lambda_h - lambda_c: the lambda^2 terms cancel algebraically.
    """
    eps_h, s_h = magnetic_moments(lam_h, tau_h)
    eps_c, s_c = magnetic_moments(lam_c, tau_c)
    dl = np.asarray(lam_h, dtype=float) - np.asarray(lam_c, dtype=float)
    q_c = -0.5 * dl * dl - dl * eps_h + 0.5 * (s_c - s_h)
    w = dl * (dl + eps_h - eps_c)
    return q_c, w


def momentum_moments_mp(lam: float, tau: float):
    """(<L_z>, <L_z^2>) at MP_DPS digits, summed over a window that closes."""
    import mpmath

    half = _window_half(tau, (MP_DPS + 5) * math.log(10.0))
    with mpmath.workdps(MP_DPS):
        lam_mp = mpmath.mpf(lam)
        two_tau = 2 * mpmath.mpf(tau)
        ms = range(round(lam) - half, round(lam) + half + 1)
        weights = [mpmath.exp(-((m - lam_mp) ** 2) / two_tau) for m in ms]
        norm = mpmath.fsum(weights)
        mean = mpmath.fsum(w * m for w, m in zip(weights, ms)) / norm
        second = mpmath.fsum(w * m * m for w, m in zip(weights, ms)) / norm
        return +mean, +second


def magnetic_cycle_mp(lam_h: float, lam_c: float, tau_h: float, tau_c: float):
    """(Q_c, W) of the quantum magnetic cycle at MP_DPS digits, as floats."""
    import mpmath

    l_h, l2_h = momentum_moments_mp(lam_h, tau_h)
    l_c, l2_c = momentum_moments_mp(lam_c, tau_c)
    with mpmath.workdps(MP_DPS):
        lc = mpmath.mpf(lam_c)
        q_c = (l2_c / 2 - lc * l_c) - (l2_h / 2 - lc * l_h)
        w = (mpmath.mpf(lam_h) - lc) * (l_h - l_c)
        return float(q_c), float(w)


def _dense_pendulum(lam: float, cutoff: int) -> np.ndarray:
    # <m|L_z^2/2 + lambda sin^2(alpha/2)|m'>: sin^2(alpha/2) = 1/2 - cos(alpha)/2,
    # and cos(alpha) couples m to m +- 1 with amplitude 1/2.
    m = np.arange(-cutoff, cutoff + 1, dtype=float)
    h = np.diag(0.5 * m * m + 0.5 * lam)
    idx = np.arange(2 * cutoff)
    h[idx, idx + 1] = h[idx + 1, idx] = -0.25 * lam
    return h


def dense_quartet_electric(lam_h, lam_c, tau_h, tau_c):
    """(hh, hc, ch, cc) = Tr[rho_j H_i] of the quantum pendulum, dense.

    The cutoff grows with the temperature so that the Gibbs states put no
    weight on the truncation edge; raises ValueError if one does.
    """
    cutoff = 40 + _window_half(max(tau_h, tau_c), 60.0)
    ham = {"h": _dense_pendulum(lam_h, cutoff), "c": _dense_pendulum(lam_c, cutoff)}
    taus = {"h": tau_h, "c": tau_c}
    out = {}
    for j in "hc":
        energies, vecs = np.linalg.eigh(ham[j])
        p = np.exp(-(energies - energies[0]) / taus[j])
        p /= p.sum()
        rho = (vecs * p) @ vecs.T
        if max(rho[0, 0], rho[-1, -1]) > 1e-20:
            raise ValueError(f"cutoff {cutoff} too small at tau_{j}={taus[j]}")
        for i in "hc":
            out[i + j] = float(np.sum(rho * ham[i]))
    return out["hh"], out["hc"], out["ch"], out["cc"]


def classical_electric_quartet(lam_h, lam_c, tau_h, tau_c):
    """(hh, hc, ch, cc) of the classical electric machine, vectorized.

    <H_i>_j = tau_j/2 + (lambda_i/2)(1 - I1(x_j)/I0(x_j)), x_j = lambda_j/(2 tau_j),
    with the ratio taken as i1e/i0e (the exponential scaling cancels).
    """
    lam_h, lam_c, tau_h, tau_c = (np.asarray(a, dtype=float) for a in (lam_h, lam_c, tau_h, tau_c))
    x_h = lam_h / (2.0 * tau_h)
    x_c = lam_c / (2.0 * tau_c)
    r_h = scipy.special.i1e(x_h) / scipy.special.i0e(x_h)
    r_c = scipy.special.i1e(x_c) / scipy.special.i0e(x_c)
    return (
        0.5 * tau_h + 0.5 * lam_h * (1.0 - r_h),
        0.5 * tau_c + 0.5 * lam_h * (1.0 - r_c),
        0.5 * tau_h + 0.5 * lam_c * (1.0 - r_h),
        0.5 * tau_c + 0.5 * lam_c * (1.0 - r_c),
    )


def _heats(quartet):
    hh, hc, ch, cc = (np.asarray(v, dtype=float) for v in quartet)
    q_c = cc - ch
    q_h = hh - hc
    return q_c, q_h, -(q_c + q_h)


# ---------------------------------------------------------------- checks


def check_cycle_consistency(c: Cells):
    """First law, mode classification, efficiency and COP, on every entry."""
    w, q_c, q_h = c.w, c.q_c, c.q_h
    engine = w < -MODE_TOL
    fridge = ~engine & (q_c > MODE_TOL)
    expected = np.where(engine, ENGINE, np.where(fridge, FRIDGE, HEATER))
    carnot = 1.0 - c.tau_c / c.tau_h
    with np.errstate(divide="ignore", invalid="ignore"):
        eff = np.where(engine, -w / q_h, np.nan)
        cop = np.where(fridge, q_c / w, np.nan)
    excess = np.maximum.reduce([
        np.abs(q_c + q_h + w) - 1e-10,
        np.where(c.mode == expected, -1.0, np.inf),
        np.where(engine, c.efficiency - carnot - 1e-9, -1.0),
        np.where(engine, np.abs(c.efficiency - eff) - 1e-12 * np.abs(eff), -1.0),
        np.where(fridge, np.abs(c.cop - cop) - 1e-12 * np.abs(cop), -1.0),
        np.where(engine | np.isnan(c.efficiency), -1.0, np.inf),
        np.where(fridge | np.isnan(c.cop), -1.0, np.inf),
    ])
    return _worst(excess, c, "first law, mode, efficiency <= Carnot, COP")


def check_magnetic_quantum_float(c: Cells, tol: float = 1e-9):
    """Q_c and W against the float64 central-moment sums, every entry."""
    q_c, w = magnetic_cycle_float(c.lambda_h, c.lambda_c, c.tau_h, c.tau_c)
    excess = np.maximum(np.abs(c.q_c - q_c), np.abs(c.w - w)) - tol
    return _worst(excess, c, f"quantum magnetic Q_c, W vs central-moment sums (tol {tol:g})")


def magnetic_mp_miss(c: Cells) -> np.ndarray:
    """max(|dQ_c|, |dW|) against the 30-digit sums, per entry of a 1-D Cells."""
    miss = np.empty(len(c.q_c))
    for k in range(len(c.q_c)):
        q_c, w = magnetic_cycle_mp(float(c.lambda_h[k]), float(c.lambda_c[k]),
                                   float(c.tau_h[k]), float(c.tau_c[k]))
        miss[k] = max(abs(c.q_c[k] - q_c), abs(c.w[k] - w))
    return miss


def check_magnetic_quantum_mp(c: Cells, tol: float = 1e-9):
    """Q_c and W against the 30-digit mpmath sums, on a 1-D sample."""
    return _worst(magnetic_mp_miss(c) - tol, c, f"quantum magnetic Q_c, W vs 30-digit sums (tol {tol:g})")


def check_electric_quantum_dense(c: Cells, tol: float = 1e-8):
    """Q_c, Q_h and W against dense-matrix traces, on a 1-D sample."""
    excess = np.empty(len(c.q_c))
    for k in range(len(c.q_c)):
        quartet = dense_quartet_electric(float(c.lambda_h[k]), float(c.lambda_c[k]),
                                         float(c.tau_h[k]), float(c.tau_c[k]))
        q_c, q_h, w = _heats(quartet)
        scale = 1.0 + abs(c.lambda_h[k]) + abs(c.lambda_c[k])
        excess[k] = max(abs(c.q_c[k] - q_c), abs(c.q_h[k] - q_h), abs(c.w[k] - w)) - tol * scale
    return _worst(excess, c, f"quantum electric Q_c, Q_h, W vs dense traces (tol {tol:g} x (1+|lambda|))")


def check_electric_classical(c: Cells, tol: float = 1e-12):
    """Q_c, Q_h and W against the i1e/i0e closed form, every entry."""
    q_c, q_h, w = _heats(classical_electric_quartet(c.lambda_h, c.lambda_c, c.tau_h, c.tau_c))
    scale = 1.0 + np.abs(c.lambda_h) + np.abs(c.lambda_c) + c.tau_h
    diff = np.maximum.reduce([np.abs(c.q_c - q_c), np.abs(c.q_h - q_h), np.abs(c.w - w)])
    return _worst(diff - tol * scale, c, "classical electric vs i1e/i0e closed form")


def check_magnetic_classical(c: Cells, tol: float = 1e-12):
    """W = (dl)^2, Q_c = -(tau_h - tau_c)/2 - (dl)^2/2 and mode Heater."""
    dl2 = (c.lambda_h - c.lambda_c) ** 2
    scale = 1.0 + dl2 + c.tau_h
    excess = np.maximum.reduce([
        np.abs(c.w - dl2) - tol * scale,
        np.abs(c.q_c - (-(c.tau_h - c.tau_c) / 2 - dl2 / 2)) - tol * scale,
        np.where(c.mode == HEATER, -1.0, np.inf),
    ])
    return _worst(excess, c, "classical magnetic theorem (W=(dl)^2, Q_c, Heater)")


def check_engine_condition(c: Cells, w_band: float = 1e-9):
    """Classical electric: W < 0 iff tau_h/tau_c > lambda_h/lambda_c > 1.

    Entries with |W| < w_band sit on the boundary and are not compared.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = c.lambda_h / c.lambda_c
        expected = (c.lambda_c > 0) & (c.tau_h / c.tau_c > ratio) & (ratio > 1.0)
    compared = np.abs(c.w) >= w_band
    excess = np.where(compared & ((c.w < 0) != expected), np.inf, -1.0)
    return _worst(excess, c, "classical electric engine condition")


def check_quantum_disadvantage(classical: Cells, quantum: Cells, slack: float = 1e-9):
    """Quantum regimes within the classical ones; quantum output no larger.

    Work output -W is compared where either model runs an Engine, heat
    extracted Q_c where either runs a Refrigerator.
    """
    cm, qm = classical.mode, quantum.mode
    either_engine = (cm == ENGINE) | (qm == ENGINE)
    either_fridge = (cm == FRIDGE) | (qm == FRIDGE)
    excess = np.maximum.reduce([
        np.where(either_engine, classical.w - quantum.w - slack, -1.0),
        np.where(either_fridge, quantum.q_c - classical.q_c - slack, -1.0),
        np.where((qm != HEATER) & (qm != cm), np.inf, -1.0),
        np.where((classical.lambda_h == quantum.lambda_h) & (classical.tau_h == quantum.tau_h)
                 & (classical.lambda_c == quantum.lambda_c) & (classical.tau_c == quantum.tau_c),
                 -1.0, np.inf),
    ])
    return _worst(excess, quantum, "quantum regime within classical, output no larger")


def check_optimum(scans, hot_lambda_axis: np.ndarray, tol: float = 1e-9):
    """W_min along a cold sequence lambda_c -> 1/2, tau_c -> 0.

    scans: [(lambda_c, tau_c, lambda_h of the minimizer, W_min)] in sequence
    order.  Each W_min is >= -1/16, lies within tol of -lambda_c^2/4 + d^2
    (d: distance from lambda_c/2 to the nearest grid lambda_h), and the
    sequence falls strictly.
    """
    bad = []
    prev = math.inf
    worst = 0.0
    for lam_c, tau_c, lam_h, w_min in scans:
        d = float(np.abs(hot_lambda_axis - lam_c / 2).min())
        miss = abs(w_min - (-lam_c * lam_c / 4 + d * d))
        worst = max(worst, miss)
        if not (w_min >= -1.0 / 16.0 and miss <= tol and w_min < prev
                and abs(lam_h - lam_c / 2) <= d + 1e-12):
            bad.append((lam_c, tau_c, w_min))
        prev = w_min
    return not bad, (f"optimum along the cold sequence: {len(bad)} of {len(scans)} off "
                     f"{bad}, worst miss of -lambda_c^2/4 + d^2 {worst:.3g}")


def check_momentum_curve(rows, tol: float = 1e-9):
    """Rows (lambda, tau, <L_z>, epsilon): |eps| <= 1/2, eps = 0 at half-integers.

    Also compares <L_z> and epsilon with the central-moment sums.
    """
    rows = np.asarray(rows, dtype=float)
    lam, tau, mean, eps = rows.T
    ref_eps, _ = magnetic_moments(lam, tau)
    half_integer = (2.0 * lam) == np.round(2.0 * lam)
    excess = np.maximum.reduce([
        np.abs(eps) - 0.5,
        np.where(half_integer, np.abs(eps) - 1e-12, -1.0),
        np.abs(eps - ref_eps) - tol,
        np.abs(mean - (lam + ref_eps)) - tol * (1.0 + np.abs(lam)),
    ])
    where = Cells(lam, lam, tau, tau, *([np.zeros_like(lam)] * 6))  # locates the worst row
    return _worst(excess, where, "momentum curve: |eps| <= 1/2, eps = 0 at half-integers, vs sums")


def _crossing_edges(xs, ys, f):
    pos = f > 0.0  # f has shape (n_tau, n_lambda): rows follow ys
    return pos[:, 1:] != pos[:, :-1], pos[1:, :] != pos[:-1, :]


def check_boundaries(c: Cells, xs: np.ndarray, ys: np.ndarray):
    """Every boundary vertex lies on a grid edge whose end values differ in sign.

    The engine boundary is the zero level of -W, the refrigerator boundary
    that of Q_c; xs is the lambda_h axis, ys the tau_h axis.
    """
    total = 0
    bad = []
    for name, lines, f in (("engine", c.boundary_engine, -c.w), ("fridge", c.boundary_fridge, c.q_c)):
        along_x, along_y = _crossing_edges(xs, ys, f)
        tol_x = 1e-9 * float(np.diff(xs).min())
        tol_y = 1e-9 * float(np.diff(ys).min())
        for line in lines:
            for x, y in line:
                total += 1
                ok = False
                i = int(np.abs(xs - x).argmin())
                j = int(np.abs(ys - y).argmin())
                if abs(xs[i] - x) <= tol_x:   # on the vertical line lambda_h = xs[i]
                    jj = int(np.searchsorted(ys, y - tol_y)) - 1
                    for jl in (jj, jj + 1):
                        if 0 <= jl < len(ys) - 1 and ys[jl] - tol_y <= y <= ys[jl + 1] + tol_y:
                            ok |= bool(along_y[jl, i])
                if abs(ys[j] - y) <= tol_y:   # on the horizontal line tau_h = ys[j]
                    ii = int(np.searchsorted(xs, x - tol_x)) - 1
                    for il in (ii, ii + 1):
                        if 0 <= il < len(xs) - 1 and xs[il] - tol_x <= x <= xs[il + 1] + tol_x:
                            ok |= bool(along_x[j, il])
                if not ok:
                    bad.append((name, x, y))
    return not bad, (f"boundary vertices on sign-changing grid edges: {len(bad)} of {total} off"
                     + (f", first {bad[0]}" if bad else ""))


_NUMBERS = ("lambda_h", "lambda_c", "tau_h", "tau_c", "q_c", "q_h", "w", "efficiency", "cop")


def _flat(c: Cells) -> dict:
    """Field name -> flat array, in the order the writers emit the cells."""
    names = ("lambda_h", "lambda_c", "tau_h", "tau_c", "q_c", "q_h", "w", "mode", "efficiency", "cop")
    return {k: np.ravel(v) for k, v in zip(names, c._arrays())}


def _same(a: str, value: float) -> bool:
    if math.isnan(value):
        return a == ""
    return a != "" and float(a) == value


def check_csv(path, c: Cells, spec: dict):
    """The CSV re-read with the csv module equals the grid bit for bit."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    flat = _flat(c)
    n = flat["w"].size
    bad = 0 if len(rows) == n else n
    for k, row in enumerate(rows[:n]):
        same = all(_same(row[key], flat[key][k]) for key in _NUMBERS)
        same &= row["mode"] == flat["mode"][k]
        same &= row["machine"] == spec["machine"] and row["model"] == spec["model"]
        bad += not same
    return bad == 0, f"CSV round trip: {bad} of {n} rows differ ({len(rows)} rows read)"


def check_json(path, c: Cells, spec: dict):
    """The JSON re-read equals the grid and its boundaries bit for bit."""
    with open(path) as fh:
        doc = json.load(fh)
    flat = _flat(c)
    cells = doc["cells"]
    n = flat["w"].size
    bad = 0 if len(cells) == n else n
    for k, d in enumerate(cells[:n]):
        same = all((d[key] is None and math.isnan(flat[key][k])) or d[key] == flat[key][k]
                   for key in _NUMBERS)
        same &= d["mode"] == flat["mode"][k]
        same &= d["machine"] == spec["machine"] and d["model"] == spec["model"]
        bad += not same
    lines_same = (
        doc["boundary_engine"] == [[list(p) for p in line] for line in c.boundary_engine]
        and doc["boundary_fridge"] == [[list(p) for p in line] for line in c.boundary_fridge]
    )
    spec_same = all(doc["spec"].get(k) == v for k, v in spec.items())
    ok = bad == 0 and lines_same and spec_same
    return ok, (f"JSON round trip: {bad} of {n} cells differ, boundaries "
                f"{'equal' if lines_same else 'differ'}, spec {'equal' if spec_same else 'differs'}")


def check_axes(c: Cells, lam_range, tau_range):
    """The grid's lambda_h and tau_h values are the requested linear axes."""
    xs = np.linspace(*lam_range)
    ys = np.linspace(*tau_range)
    if c.w.shape != (len(ys), len(xs)):
        return False, f"grid axes: shape {c.w.shape}, expected {(len(ys), len(xs))}"
    dx = np.abs(c.lambda_h - xs[None, :]).max()
    dy = np.abs(c.tau_h - ys[:, None]).max()
    ok = dx <= 1e-14 * max(1.0, abs(xs).max()) and dy <= 1e-14 * max(1.0, abs(ys).max())
    return ok, f"grid axes: max offset lambda {dx:.3g}, tau {dy:.3g}"
