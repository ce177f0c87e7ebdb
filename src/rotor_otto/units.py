"""Reduced-unit conventions and the value types shared by every module.

All physics is computed in reduced units: energies in E = hbar^2/I (the
rotational energy quantum), temperatures as tau = k_B T / E, and angular
momentum in units of hbar.  Absolute constants cancel from every observable,
so no SI conversion is provided anywhere in the package.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass


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


def validate_tolerance(tol: float) -> float:
    """Check a convergence tolerance (must be finite and > 0)."""
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tol must be finite and > 0, got {tol}")
    return tol


def validate_count(count, minimum: int, what: str) -> int:
    """Check the point count of a grid axis: an integer (numpy's too) >= minimum."""
    try:
        count = operator.index(count)
    except TypeError:
        raise DomainError(f"{what} needs an integer count, got {count!r}") from None
    if count < minimum:
        raise DomainError(f"{what} needs count >= {minimum}, got {count}")
    return count


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


@dataclass(frozen=True)
class CyclePoint:
    """The four control coordinates of an ideal Otto cycle, in reduced units.

    The labels h/c are semantic: the hot reservoir is not colder, so
    tau_h >= tau_c is enforced (equality gives a degenerate cycle).
    No lambda normalization (e.g. integer-offset reduction) happens here.
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
        return {
            "lambda_h": self.lambda_h,
            "lambda_c": self.lambda_c,
            "tau_h": self.tau_h,
            "tau_c": self.tau_c,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CyclePoint":
        return cls(d["lambda_h"], d["lambda_c"], d["tau_h"], d["tau_c"])
