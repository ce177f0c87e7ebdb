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


def _mean_energy_electric(lam_i, ratio_j, tau_j):
    # <H_i>_j from stroke j's ratio I1/I0(x_j), broadcast over arrays.
    return 0.5 * tau_j + 0.5 * lam_i * (1.0 - ratio_j)


def classical_mean_energy_electric(lam_i: float, lam_j: float, tau_j: float) -> float:
    """<H_i>_j of the classical electric machine, in units of E."""
    lam_i = validate_control(lam_i, require_nonnegative=True)
    ratio = bessel_ratio_i1_i0(bessel_argument(lam_j, tau_j))
    return float(_mean_energy_electric(lam_i, ratio, tau_j))


def classical_mean_energy_magnetic(lam_i: float, lam_j: float, tau_j: float) -> float:
    """<H_i>_j of the classical magnetic machine, in units of E."""
    lam_i = validate_control(lam_i)
    lam_j = validate_control(lam_j)
    tau_j = validate_temperature(tau_j)
    return 0.5 * tau_j + 0.5 * lam_j * (lam_j - 2.0 * lam_i)


def classical_cycle_electric(lam_h, tau_h, lam_c: float, tau_c: float):
    """(Q_c, Q_h, W) of the classical electric machine on the lam_h x tau_h grid.

    The kernel contract of cycle.py; negative lambda raises DomainError.  One
    Bessel ratio per stroke serves both of its quartet entries.
    """
    validate_control(min(lam_h.min(), lam_c), require_nonnegative=True)
    m, lam, tau = _mean_energy_electric, lam_h[None, :], tau_h[:, None]
    r_h, r_c = bessel_ratio_i1_i0(lam / (2.0 * tau)), bessel_ratio_i1_i0(lam_c / (2.0 * tau_c))
    return heats(m(lam, r_h, tau), m(lam_h, r_c, tau_c), m(lam_c, r_h, tau), m(lam_c, r_c, tau_c))


def classical_cycle_magnetic(lam_h, tau_h, lam_c: float, tau_c: float):
    """(Q_c, Q_h, W) of the classical magnetic machine on the lam_h x tau_h grid.

    The kernel contract of cycle.py.  The no-go closed form of the module
    docstring: no lambda^2 term is formed, so the heats keep full precision
    at any |lambda|.
    """
    d2 = (lam_h - lam_c) ** 2 + np.zeros((len(tau_h), 1))  # one W row per tau_h
    return 0.5 * (tau_c - tau_h)[:, None] - 0.5 * d2, 0.5 * (tau_h - tau_c)[:, None] - 0.5 * d2, d2


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
