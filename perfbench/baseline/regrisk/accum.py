"""Compensated floating-point accumulation.

Plain left-to-right summation loses digits when terms span many orders of
magnitude, which happens here once 1/gamma_i^2 enters an objective (the
spread reaches 1e14 on the harder deconvolution instances). The Neumaier
variant of Kahan's algorithm carries a running correction term and
recovers those digits at O(n) cost.
"""

from __future__ import annotations

import numpy as np

__all__ = ["NeumaierAccumulator", "neumaier_sum", "square"]


def square(x) -> float:
    # x * x instead of x ** 2: Python's float pow raises OverflowError,
    # the product overflows to inf and the non-finite checks report it
    v = float(x)
    return v * v


class NeumaierAccumulator:
    """Running compensated sum. Feed terms through add(), read value."""

    __slots__ = ("_s", "_c")

    def __init__(self) -> None:
        self._s = 0.0
        self._c = 0.0

    def add(self, x: float) -> None:
        t = self._s + x
        if abs(self._s) >= abs(x):
            self._c += (self._s - t) + x
        else:
            self._c += (x - t) + self._s
        self._s = t

    @property
    def value(self) -> float:
        return self._s + self._c


def neumaier_sum(values) -> float:
    """Compensated sum of an array of floats (any shape, summed flat)."""
    acc = NeumaierAccumulator()
    for x in np.asarray(values, dtype=float).ravel():
        acc.add(float(x))
    return acc.value
