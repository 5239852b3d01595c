"""Shared exception types."""


class NumericError(ArithmeticError):
    """A numerical routine could not deliver a trustworthy result.

    Raised for SVD non-convergence, diverging iterates, non-finite
    objective values and similar conditions. Parameter misuse raises
    ValueError instead. column is the index of the grid column a failure
    belongs to, where the raising routine knows it.
    """

    column = None
