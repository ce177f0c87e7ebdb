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
order lambda^2 is formed.  Both kernels take their (lambda_h, tau_h) cells
elementwise (cycle.py): a grid is one layout of cells among others.
"""

from __future__ import annotations

import numpy as np

from .specfun import bessel_ratio_i1_i0
from .units import validate_control


def _mean_energy_electric(lam_i, ratio_j, tau_j):
    # <H_i>_j from stroke j's ratio I1/I0(x_j), broadcast over arrays.
    return 0.5 * tau_j + 0.5 * lam_i * (1.0 - ratio_j)


def classical_cycle_electric(lam_h, tau_h, lam_c: float, tau_c: float):
    """(Q_c, Q_h, W) of the classical electric machine, elementwise over lam_h and tau_h.

    The kernel contract of cycle.py; negative lambda raises DomainError.  One
    Bessel ratio r_j = I1/I0(x_j) per stroke serves both of its quartet
    entries and W = (lambda_h - lambda_c)(r_h - r_c)/2.
    """
    validate_control(min(lam_h.min(), lam_c), require_nonnegative=True)
    m = _mean_energy_electric
    with np.errstate(over="ignore"):  # an x past the float range is capped: i1e/i0e is 1.0 there, as I1/I0 -> 1
        x_h, x_c = lam_h / (2.0 * tau_h), lam_c / (2.0 * tau_c)
    r_h, r_c = (bessel_ratio_i1_i0(np.minimum(x, np.finfo(float).max)) for x in (x_h, x_c))
    w = 0.5 * (lam_h - lam_c) * (r_h - r_c)  # -(Q_c + Q_h), its tau/2 terms cancelled
    w += 0.0
    return m(lam_c, r_c, tau_c) - m(lam_c, r_h, tau_h), m(lam_h, r_h, tau_h) - m(lam_h, r_c, tau_c), w


def classical_cycle_magnetic(lam_h, tau_h, lam_c: float, tau_c: float):
    """(Q_c, Q_h, W) of the classical magnetic machine, elementwise over lam_h and tau_h.

    The kernel contract of cycle.py.  The no-go closed form of the module
    docstring: no lambda^2 term is formed, so the heats keep full precision
    at any |lambda|.
    """
    with np.errstate(over="ignore"):  # past the float range, W = +inf and Q_c = Q_h = -inf (a Heater)
        d2 = (lam_h - lam_c) ** 2 + np.zeros(np.shape(tau_h))  # W in the broadcast shape
    return 0.5 * (tau_c - tau_h) - 0.5 * d2, 0.5 * (tau_h - tau_c) - 0.5 * d2, d2
