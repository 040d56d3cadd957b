"""Exception types shared across the package."""


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
    """ProblemSpec parameters outside what the solver supports; fields
    names the fields at fault, the likeliest first."""

    def __init__(self, message, fields=()):
        super().__init__(message)
        self.fields = fields


class SingularJacobianError(RuntimeError):
    """The Newton step failed: a preconditioner pivot below the pivot
    floor, a GMRES miss, or a step that meets neither the backward-error
    bound nor the forcing term.  iterations counts the GMRES iterations
    of a miss."""

    def __init__(self, message, iterations=0):
        super().__init__(message)
        self.iterations = iterations


class ConfigError(ValueError):
    """Malformed run configuration; messages carry the offending line number."""
