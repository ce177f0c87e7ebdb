"""The Bessel ratio I1/I0, the special function of the classical electric machine.

It is taken from scipy's exponentially scaled Bessel functions i1e/i0e,
whose common factor e^(-x) cancels, so it neither overflows nor loses
precision at large argument.  scipy.special is imported on the first call,
so a magnetic process never loads it.  The routine is pure and thread-safe.
The Jacobi theta function, an oracle of the magnetic partition function,
lives in selftest.
"""

from __future__ import annotations

import math

import numpy as np

from .units import DomainError


def bessel_ratio_i1_i0(x):
    """I1(x)/I0(x) in [0, 1) for x >= 0, elementwise over an array or a float."""
    from scipy.special import i0e, i1e

    x = np.asarray(x, dtype=float)
    bad = ~((x >= 0.0) & (x < math.inf))
    if bad.any():
        raise DomainError(f"bessel_ratio_i1_i0 requires finite x >= 0, got {x[bad].flat[0]}")
    return i1e(x) / i0e(x)
