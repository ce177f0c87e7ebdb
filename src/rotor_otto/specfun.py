"""Special functions: the Bessel ratio I1/I0 and the Jacobi theta function.

The ratio I1/I0 is taken from scipy's exponentially scaled Bessel functions
i1e/i0e, whose common factor e^(-x) cancels, so it neither overflows nor
loses precision at large argument.  scipy.special is imported on the first
call: only the classical electric machine needs it, and a magnetic process
never loads it.  theta_3 is an oracle for the magnetic
partition function.  All routines are pure and thread-safe.
"""

from __future__ import annotations

import math

import numpy as np

from .units import ConvergenceError, DomainError


def bessel_ratio_i1_i0(x):
    """I1(x)/I0(x) in [0, 1) for x >= 0, elementwise over an array or a float."""
    from scipy.special import i0e, i1e

    x = np.asarray(x, dtype=float)
    bad = ~((x >= 0.0) & (x < math.inf))
    if bad.any():
        raise DomainError(f"bessel_ratio_i1_i0 requires finite x >= 0, got {x[bad].flat[0]}")
    return i1e(x) / i0e(x)


def jacobi_theta3(z: float, log_q: float) -> float:
    """theta_3(z, q) = 1 + 2 sum_{v>=1} q^(v^2) cos(2 v z), q = e^log_q.

    The nome is passed in log form to avoid underflow at large temperature;
    log_q < 0 is required (the series diverges at q = 1).  Evaluated via the
    triple product

        theta_3 = prod_{n>=1} (1 - q^(2n)) (1 + 2 q^(2n-1) cos 2z + q^(4n-2)),

    writing the quadratic factor as (1 - q^(2n-1))^2 + 4 q^(2n-1) cos^2 z so
    every piece is nonnegative: near z = pi/2 with q close to 1 the defining
    cosine series loses ~4 digits to cancellation, while the product keeps
    full relative precision.  1 - q^k is taken through expm1.
    """
    if not (log_q < 0.0):
        raise DomainError(f"jacobi_theta3 requires log_q < 0, got {log_q}")
    cos_z = math.cos(z)
    s = 1.0
    n = 0
    while True:
        n += 1
        odd_log = (2 * n - 1) * log_q
        if odd_log < -40.0:
            return s
        r = math.exp(odd_log)
        a = -math.expm1(odd_log)
        s *= (a * a + 4.0 * r * cos_z * cos_z) * -math.expm1(2 * n * log_q)
        if n > 100000:
            raise ConvergenceError(f"theta product did not converge, log_q={log_q}")
