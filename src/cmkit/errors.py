"""Exception types shared across the package."""

from functools import cached_property

import numpy as np


class DomainError(ValueError):
    """A field violates a pointwise domain requirement (e.g. h <= 0 at a node)."""

    def __init__(self, message, node=None, value=None):
        super().__init__(message)
        self.node = node
        self.value = value


class AdmissibilityError(ValueError):
    """b(h) left the Gamma_k cone somewhere; carries the worst node and margin."""

    def __init__(self, message, node=None, margin=None):
        super().__init__(message)
        self.node = node
        self.margin = margin


class UnsupportedParameterError(ValueError):
    """Parameter combination outside what the discretization supports."""


class SingularJacobianError(RuntimeError):
    """Linearization is numerically singular; may carry a near-null direction.

    Raised with the dense matrix, direction is the right singular vector of
    its smallest singular value, computed on first read; otherwise None.
    """

    def __init__(self, message, matrix=None):
        super().__init__(message)
        self._matrix = matrix

    @cached_property
    def direction(self):
        if self._matrix is None:
            return None
        return np.linalg.svd(self._matrix)[2][-1]


class ConfigError(ValueError):
    """Malformed run configuration; messages carry the offending line number."""
