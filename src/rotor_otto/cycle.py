"""Cycle reports: mode classification, efficiency, COP.

Each machine/model kernel is elementwise over the hot strokes of its cells,
    kernel(lam_h, tau_h, lam_c, tau_c) -> (Q_c, Q_h, W),
    Q_c = <H_c>_c - <H_c>_h,   Q_h = <H_h>_h - <H_h>_c,   W = -(Q_c + Q_h),
each of the broadcast shape of the numpy arrays lam_h and tau_h (0-d too),
with the same bits whatever other cells share the call; a sweep lays out its
(n_tau, n_lam) grid as lam_h[n_lam], tau_h[n_tau, 1].  The heats each hold about
(tau_h - tau_c)/2, so no kernel sums them for W: each takes W from a form in
which the tau terms have cancelled, with d = lambda_h - lambda_c,
    classical electric:  W = d (r_h - r_c)/2,  r_j = I1/I0(lambda_j/(2 tau_j)),
    quantum electric:    W = -d (<S>_h - <S>_c),  S = sin^2(alpha/2),
    classical magnetic:  W = d^2,
    quantum magnetic:    W = d (mu_h - mu_c + D)  (qmagnetic.cycle_heats_magnetic).
A zero W is +0.0, never -0.0: a product or negation can give -0.0, as
-d (<S>_h - <S>_c) does at d = 0, so each kernel adds 0.0 to W.  That leaves
every other value, NaN and inf too, as it is.
Every cell must be a valid cycle point (see CyclePoint); no term grows as
lambda^2 (the magnetic kernels cancel them algebraically).  Here the results
are classified, elementwise:
Engine:       W < -tol          (net work output), efficiency |W|/Q_h
Refrigerator: Q_c > tol, W >= -tol, COP Q_c/W
Heater:       anything else (the paper treats strict inequalities only, so
              numerical zeros fall here; tol = MODE_TOL = 1e-12 E).
assemble_cycle packs one cell's entries into a CycleReport.

The COP is an extension beyond the three paper-defined modes; it is the
standard figure of merit for refrigerators and is flagged as such in the
package documentation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .units import CyclePoint, DomainError

MODE_ENGINE = "Engine"
MODE_REFRIGERATOR = "Refrigerator"
MODE_HEATER = "Heater"

MACHINE_ELECTRIC = "electric"
MACHINE_MAGNETIC = "magnetic"
MODEL_CLASSICAL = "classical"
MODEL_QUANTUM = "quantum"

MODE_TOL = 1e-12
# Each mode name by itself, so that a report holds one of the constants above
# and not a fresh str per report; and each as a 0-d object array, from which
# np.where fills a mode array with references to the constants.
_MODES = {mode: mode for mode in (MODE_ENGINE, MODE_REFRIGERATOR, MODE_HEATER)}
_ENGINE, _REFRIGERATOR, _HEATER = (np.array(mode, dtype=object) for mode in _MODES)


@dataclass(frozen=True, slots=True)
class CycleReport:
    """Per-cycle heats, work (units of E), operation mode and figures of merit.

    Slotted, as CyclePoint is: a report holds no per-instance dict, so no
    attribute can be added to it; dataclasses.replace makes a changed copy.
    mode is one of MODE_ENGINE, MODE_REFRIGERATOR and MODE_HEATER, the
    objects themselves.
    """

    q_c: float
    q_h: float
    w: float
    mode: str
    efficiency: float | None
    cop: float | None
    machine: str
    model: str
    point: CyclePoint

    def to_json_dict(self) -> dict:
        """The report as one flat dict, keys in JSON_KEYS order."""
        return {key: getattr(self, key) for key in _FIELD_KEYS} | self.point.to_dict()

    def to_json(self) -> str:
        """to_json_dict as one JSON object, the text of json.dumps with floats by json_float."""
        return "{" + ", ".join(f'"{key}": {json_float(v) if type(v) is float else json.dumps(v)}'
                               for key, v in self.to_json_dict().items()) + "}"


# The JSON schema of a report, and so of a sweep file's cells: the report's
# fields in declaration order, then its point's (the order of CyclePoint.to_dict).
_FIELD_KEYS = tuple(f.name for f in fields(CycleReport) if f.name != "point")
JSON_KEYS = _FIELD_KEYS + tuple(f.name for f in fields(CyclePoint))


def json_float(x: float) -> str:
    """JSON text of a float: its shortest round-trip repr, and 1e999 for inf.

    json.dumps writes an infinity as the token Infinity, which RFC 8259
    parsers reject; 1e999 is valid number syntax and reads back as inf.
    """
    return repr(x) if math.isfinite(x) else json.dumps(x).replace("Infinity", "1e999")


def check_tags(machine: str, model: str) -> None:
    """Reject a machine or model name outside the four supported pairs."""
    if machine not in (MACHINE_ELECTRIC, MACHINE_MAGNETIC):
        raise DomainError(f"unknown machine {machine!r}")
    if model not in (MODEL_CLASSICAL, MODEL_QUANTUM):
        raise DomainError(f"unknown model {model!r}")


def classify_modes(q_c, q_h, w, tau_h, tau_c):
    """Mode, efficiency and COP arrays of cycles with heats q_c, q_h and work w.

    q_c, q_h and w share one shape, with which tau_h and tau_c broadcast; mode
    holds the MODE_* constants themselves.  Efficiency and COP are divided only
    where reported, NaN elsewhere (a COP at W = 0 is +inf).  Raises
    DomainError on NaN heat, on a simultaneous engine+refrigerator
    classification (second-law violation under full thermalization), and on
    an engine efficiency beyond the Carnot bound.
    """
    q_c, q_h, w = np.asarray(q_c), np.asarray(q_h), np.asarray(w)
    if np.isnan(q_c).any() or np.isnan(q_h).any():
        raise DomainError("kernel produced NaN heat")
    engine = w < -MODE_TOL
    fridge = q_c > MODE_TOL
    both = engine & fridge
    if both.any():
        raise DomainError(
            f"second-law violation: W={w[both].flat[0]} < 0 and Q_c={q_c[both].flat[0]} > 0"
        )
    efficiency = np.full(w.shape, np.nan)
    cop = efficiency.copy()
    with np.errstate(divide="ignore", over="ignore"):  # q_c / 0.0 is +inf, as is a COP past the float range
        np.divide(w, q_h, out=efficiency, where=engine)
        np.negative(efficiency, out=efficiency, where=engine)
        np.divide(q_c, w, out=cop, where=fridge)
    off = engine & ~((efficiency > 0.0) & (efficiency <= 1.0 - tau_c / tau_h + 1e-9))
    if off.any():
        raise DomainError(f"engine efficiency {efficiency[off].flat[0]} outside (0, Carnot]")
    mode = np.where(engine, _ENGINE, np.where(fridge, _REFRIGERATOR, _HEATER))
    return mode, efficiency, cop


def assemble_cycle(
    machine: str, model: str, point: CyclePoint, q_c, q_h, w, mode, efficiency, cop
) -> CycleReport:
    """CycleReport of one cycle from its kernel and classify_modes entries; NaN means absent.

    The report's mode is the module constant equal to mode.
    """
    return CycleReport(
        q_c=float(q_c),
        q_h=float(q_h),
        w=float(w),
        mode=_MODES[str(mode)],
        efficiency=None if math.isnan(efficiency) else float(efficiency),
        cop=None if math.isnan(cop) else float(cop),
        machine=machine,
        model=model,
        point=point,
    )
