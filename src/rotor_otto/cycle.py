"""Cycle reports: mode classification, efficiency, COP.

Each machine/model kernel takes a sweep's two axes and its cold stroke,
    kernel(lam_h[n_lam], tau_h[n_tau], lam_c, tau_c) -> (Q_c, Q_h, W),
    Q_c = <H_c>_c - <H_c>_h,   Q_h = <H_h>_h - <H_h>_c,   W = -(Q_c + Q_h),
each of shape (n_tau, n_lam), entry [i_tau, i_lam] at (lam_h[i_lam],
tau_h[i_tau]); one cycle is the 1x1 case.  Every cell must be a valid cycle
point (see CyclePoint); no term grows as lambda^2 (the magnetic kernels cancel
them algebraically).  Here the results are classified, elementwise:
Engine:       W < -tol          (net work output), efficiency |W|/Q_h
Refrigerator: Q_c > tol, W >= -tol, COP Q_c/W
Heater:       anything else (the paper treats strict inequalities only, so
              numerical zeros fall here; default band tol = 1e-12 E).
assemble_cycle packs one cell's entries into a CycleReport.

The COP is an extension beyond the three paper-defined modes; it is the
standard figure of merit for refrigerators and is flagged as such in the
package documentation.
"""

from __future__ import annotations

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

DEFAULT_MODE_TOL = 1e-12


@dataclass(frozen=True)
class CycleReport:
    """Per-cycle heats, work (units of E), operation mode and figures of merit."""

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

    @classmethod
    def from_json_dict(cls, d: dict) -> "CycleReport":
        return cls(*(d[key] for key in _FIELD_KEYS), point=CyclePoint.from_dict(d))


# The JSON schema of a report, and so of a sweep file's cells: the report's
# fields in declaration order, then its point's (the order of CyclePoint.to_dict).
_FIELD_KEYS = tuple(f.name for f in fields(CycleReport) if f.name != "point")
JSON_KEYS = _FIELD_KEYS + tuple(f.name for f in fields(CyclePoint))


def carnot_bound(point: CyclePoint) -> float:
    """1 - tau_c/tau_h, the efficiency ceiling used as a sanity check."""
    return 1.0 - point.tau_c / point.tau_h


def check_tags(machine: str, model: str) -> None:
    """Reject a machine or model name outside the four supported pairs."""
    if machine not in (MACHINE_ELECTRIC, MACHINE_MAGNETIC):
        raise DomainError(f"unknown machine {machine!r}")
    if model not in (MODEL_CLASSICAL, MODEL_QUANTUM):
        raise DomainError(f"unknown model {model!r}")


def heats(hh, hc, ch, cc):
    """(Q_c, Q_h, W) from the mean-energy quartet entries <H_i>_j, elementwise.

    For the electric machines, whose entries grow only as lambda.
    """
    q_c = cc - ch
    q_h = hh - hc
    return q_c, q_h, -(q_c + q_h)


def classify_modes(q_c, q_h, w, tau_h, tau_c, tol: float = DEFAULT_MODE_TOL):
    """Mode, efficiency and COP arrays of cycles with heats q_c, q_h and work w.

    The arguments broadcast; an absent efficiency or COP is NaN.  Raises
    DomainError on NaN heat, on a simultaneous engine+refrigerator
    classification (second-law violation under full thermalization), and on
    an engine efficiency beyond the Carnot bound.
    """
    q_c, q_h, w = np.asarray(q_c), np.asarray(q_h), np.asarray(w)
    if np.isnan(q_c).any() or np.isnan(q_h).any():
        raise DomainError("kernel produced NaN heat")
    engine = w < -tol
    fridge = q_c > tol
    both = engine & fridge
    if both.any():
        raise DomainError(
            f"second-law violation: W={w[both].flat[0]} < 0 and Q_c={q_c[both].flat[0]} > 0"
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        efficiency = np.where(engine, -w / q_h, np.nan)
        cop = np.where(fridge, np.where(w != 0.0, q_c / w, np.inf), np.nan)
    off = engine & ~((efficiency > 0.0) & (efficiency <= 1.0 - tau_c / tau_h + 1e-9))
    if off.any():
        raise DomainError(f"engine efficiency {efficiency[off].flat[0]} outside (0, Carnot]")
    mode = np.where(engine, MODE_ENGINE, np.where(fridge, MODE_REFRIGERATOR, MODE_HEATER))
    return mode, efficiency, cop


def assemble_cycle(
    machine: str, model: str, point: CyclePoint, q_c, q_h, w, mode, efficiency, cop
) -> CycleReport:
    """CycleReport of one cycle from its kernel and classify_modes entries; NaN means absent."""
    return CycleReport(
        q_c=float(q_c),
        q_h=float(q_h),
        w=float(w),
        mode=str(mode),
        efficiency=None if math.isnan(efficiency) else float(efficiency),
        cop=None if math.isnan(cop) else float(cop),
        machine=machine,
        model=model,
        point=point,
    )
