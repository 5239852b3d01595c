"""Exactly rounded floating-point sums.

Plain left-to-right summation loses digits when terms span many orders of
magnitude, which happens here once 1/gamma_i^2 enters an objective (the
spread reaches 1e14 on the harder deconvolution instances). math.fsum
returns the correctly rounded sum of its terms instead.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["neumaier_sum"]


def square(x) -> float:
    # x * x instead of x ** 2: Python's float pow raises OverflowError,
    # the product overflows to inf and the non-finite checks report it
    v = float(x)
    return v * v


def neumaier_sum(values) -> float:
    """Exactly rounded sum of an array of floats (any shape, summed flat).

    The name is kept from the compensated (Neumaier) loop this replaced.
    Where fsum raises (terms holding both +inf and -inf, or partial sums
    that overflow) the plain sum is returned, which is then not finite
    either, so the callers' non-finite checks still see it.
    """
    terms = np.asarray(values, dtype=float).ravel().tolist()
    try:
        return math.fsum(terms)
    except (OverflowError, ValueError):
        with np.errstate(over="ignore", invalid="ignore"):
            return float(np.sum(terms))
