"""Reduced-unit conventions and the value types shared by every module.

All physics is computed in reduced units: energies in E = hbar^2/I (the
rotational energy quantum), temperatures as tau = k_B T / E, and angular
momentum in units of hbar.  Absolute constants cancel from every observable,
so no SI conversion is provided anywhere in the package.  The domain checks
of a value and of a grid axis live here, with the value types.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields

import numpy as np

SCALE_LINEAR = "linear"
SCALE_LOG = "log"


class DomainError(ValueError):
    """Input lies outside the physical domain of an operation."""


class ConvergenceError(RuntimeError):
    """An iterative numerical scheme failed to reach its target tolerance."""


def validate_temperature(tau: float) -> float:
    """Check a reduced temperature tau = k_B T / E (must be finite, > 0)."""
    tau = float(tau)
    if not math.isfinite(tau) or tau <= 0.0:
        raise DomainError(f"reduced temperature must be finite and > 0, got {tau}")
    return tau


def validate_count(count, minimum: int, what: str) -> int:
    """Check the point count of a grid axis: an integer (numpy's too) >= minimum."""
    try:
        count = operator.index(count)
    except TypeError:
        raise DomainError(f"{what} needs an integer count, got {count!r}") from None
    if count < minimum:
        raise DomainError(f"{what} needs count >= {minimum}, got {count}")
    return count


def grid_axis(rng: tuple[float, float, int], what: str, scale: str = SCALE_LINEAR,
              minimum: int = 2) -> np.ndarray:
    """Read-only points of rng = (min, max, count); DomainError unless min < max are
    finite, count >= minimum and every point is finite (linspace overflows where max - min does)."""
    lo, hi, count = rng
    count = validate_count(count, minimum, what)
    if not -math.inf < lo < hi < math.inf:
        raise DomainError(f"{what} needs finite min < max, got ({lo}, {hi})")
    if scale not in (SCALE_LINEAR, SCALE_LOG):
        raise DomainError(f"unknown scale {scale!r}")
    if scale == SCALE_LOG and lo <= 0.0:
        raise DomainError(f"log-scaled {what} needs min > 0, got {lo}")
    with np.errstate(over="ignore", invalid="ignore"):
        axis = (np.geomspace if scale == SCALE_LOG else np.linspace)(lo, hi, count)
    if not np.isfinite(axis).all():
        raise DomainError(f"{what} has non-finite points between {lo} and {hi}")
    axis.flags.writeable = False
    return axis


def validate_control(lam: float, require_nonnegative: bool = False) -> float:
    """Check a dimensionless control parameter lambda.

    The electric machine uses lambda as a field strength and requires
    lambda >= 0; the magnetic machine allows any sign (momentum displacement).
    """
    lam = float(lam)
    if not math.isfinite(lam):
        raise DomainError(f"control parameter must be finite, got {lam}")
    if require_nonnegative and lam < 0.0:
        raise DomainError(f"control parameter must be >= 0 here, got {lam}")
    return lam


@dataclass(frozen=True, slots=True)
class CyclePoint:
    """The four control coordinates of an ideal Otto cycle, in reduced units.

    The labels h/c are semantic: the hot reservoir is not colder, so
    tau_h >= tau_c is enforced (equality gives a degenerate cycle).
    No lambda normalization (e.g. integer-offset reduction) happens here.
    Slotted: a point holds no per-instance dict, as a CycleReport holds none.
    """

    lambda_h: float
    lambda_c: float
    tau_h: float
    tau_c: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "lambda_h", validate_control(self.lambda_h))
        object.__setattr__(self, "lambda_c", validate_control(self.lambda_c))
        object.__setattr__(self, "tau_h", validate_temperature(self.tau_h))
        object.__setattr__(self, "tau_c", validate_temperature(self.tau_c))
        if self.tau_c > self.tau_h:
            raise DomainError(
                f"hot reservoir colder than cold one: tau_h={self.tau_h} < tau_c={self.tau_c}"
            )

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}
