"""Exception types shared across the package."""


class RabiStarkError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(RabiStarkError, ValueError):
    """A physical or truncation parameter violates its allowed range."""


class InvalidInputError(RabiStarkError, ValueError):
    """An operator/state argument violates a structural precondition."""


class NumericFailureError(RabiStarkError, RuntimeError):
    """A numerical routine failed or produced an inconsistent result."""


class ZeroFluxError(RabiStarkError):
    """Emission flux is (numerically) zero, so correlation ratios are 0/0.

    Raised for steady states that do not emit, e.g. the ground state at
    zero temperature.
    """

    def __init__(self, flux, threshold):
        super().__init__(f"<X^- X^+> = {flux:.3e} is below {threshold}; the correlation "
                         "ratio is 0/0 (non-emitting steady state)")


class MultipleSteadyStateError(RabiStarkError):
    """The transition graph is disconnected; the steady state is not unique."""

    def __init__(self, components):
        self.components = [sorted(c) for c in components]
        parts = "; ".join("{" + ", ".join(str(i) for i in c) + "}" for c in self.components)
        super().__init__(f"transition graph is disconnected: components {parts}")


class ConfigError(RabiStarkError, ValueError):
    """A run configuration failed strict validation."""

    def __init__(self, message, fields=()):
        self.fields = list(fields)
        if self.fields:
            message = f"{message} (fields: {', '.join(self.fields)})"
        super().__init__(message)
