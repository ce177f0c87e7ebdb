"""Closed-form classical thermodynamics of both machines.

Electric machine (rotating dipole in an in-plane field):
    H(lambda) = L_z^2/2 + lambda sin^2(alpha/2)       [reduced units]
    <H_i>_j = tau_j/2 + (lambda_i/2) [1 - I1(x_j)/I0(x_j)],  x_j = lambda_j/(2 tau_j)

Magnetic machine (charged rotor in a perpendicular field):
    H(lambda) = L_z^2/2 - lambda L_z
    <H_i>_j = tau_j/2 + (lambda_j/2)(lambda_j - 2 lambda_i)

The magnetic quartet yields, with d = lambda_h - lambda_c,
    W = d^2 >= 0,   Q_c = -(tau_h - tau_c)/2 - d^2/2 <= 0,   Q_h = (tau_h - tau_c)/2 - d^2/2
for every parameter choice: the classical magnetic rotor is only ever a
heater.  classical_cycle_magnetic returns this closed form, so no term of
order lambda^2 is formed.
"""

from __future__ import annotations

import numpy as np

from .cycle import heats
from .specfun import bessel_ratio_i1_i0
from .units import CyclePoint, validate_control, validate_temperature


def bessel_argument(lam: float, tau: float) -> float:
    """x = lambda / (2 tau), the argument of the I1/I0 ratio."""
    return validate_control(lam, require_nonnegative=True) / (2.0 * validate_temperature(tau))


def _mean_energy_electric(lam_i, lam_j, tau_j):
    # Elementwise over arrays; lambda >= 0 is checked here, tau by the caller.
    validate_control(np.min(lam_i), require_nonnegative=True)
    return 0.5 * tau_j + 0.5 * lam_i * (1.0 - bessel_ratio_i1_i0(lam_j / (2.0 * tau_j)))


def classical_mean_energy_electric(lam_i: float, lam_j: float, tau_j: float) -> float:
    """<H_i>_j of the classical electric machine, in units of E."""
    bessel_argument(lam_j, tau_j)
    return float(_mean_energy_electric(lam_i, lam_j, tau_j))


def classical_mean_energy_magnetic(lam_i: float, lam_j: float, tau_j: float) -> float:
    """<H_i>_j of the classical magnetic machine, in units of E."""
    lam_i = validate_control(lam_i)
    lam_j = validate_control(lam_j)
    tau_j = validate_temperature(tau_j)
    return 0.5 * tau_j + 0.5 * lam_j * (lam_j - 2.0 * lam_i)


def classical_cycle_electric(lam_h, tau_h, lam_c: float, tau_c: float):
    """(Q_c, Q_h, W) of the classical electric machine, elementwise over lam_h, tau_h.

    The coordinates must be valid cycle points (see CyclePoint); negative
    lambda raises DomainError.
    """
    m = _mean_energy_electric
    return heats(m(lam_h, lam_h, tau_h), m(lam_h, lam_c, tau_c), m(lam_c, lam_h, tau_h),
                 m(lam_c, lam_c, tau_c))


def classical_cycle_magnetic(lam_h, tau_h, lam_c: float, tau_c: float):
    """(Q_c, Q_h, W) of the classical magnetic machine, elementwise over lam_h, tau_h.

    lam_h and tau_h are scalars or arrays of one shape.  The no-go closed form
    of the module docstring: no lambda^2 term is formed, so the heats keep
    full precision at any |lambda|.
    """
    d2 = (lam_h - lam_c) ** 2
    return 0.5 * (tau_c - tau_h) - 0.5 * d2, 0.5 * (tau_h - tau_c) - 0.5 * d2, d2


def classical_engine_condition_electric(point: CyclePoint) -> bool:
    """W < 0 iff tau_h/tau_c > lambda_h/lambda_c > 1 (strict inequalities)."""
    if point.lambda_c <= 0.0:
        return False
    ratio = point.lambda_h / point.lambda_c
    return point.tau_h / point.tau_c > ratio > 1.0


def classical_fridge_condition_electric(point: CyclePoint) -> bool:
    """Q_c > 0 iff I1/I0(x_h) - I1/I0(x_c) > (tau_h - tau_c)/lambda_c."""
    if point.lambda_c <= 0.0:
        return False
    r_h = bessel_ratio_i1_i0(bessel_argument(point.lambda_h, point.tau_h))
    r_c = bessel_ratio_i1_i0(bessel_argument(point.lambda_c, point.tau_c))
    return bool(r_h - r_c > (point.tau_h - point.tau_c) / point.lambda_c)
