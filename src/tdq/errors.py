"""Exception types shared across the package."""


class DomainError(ValueError):
    """Argument outside the mathematical domain of a function."""


class EnvelopeError(DomainError):
    """Argument outside the supported accuracy envelope."""


class ConvergenceError(RuntimeError):
    """A series or iteration failed to converge within its term budget."""


class StepSizeUnderflowError(RuntimeError):
    """Adaptive integrator drove the step size below the representable floor."""

    def __init__(self, t: float, message: str = ""):
        self.t = t
        super().__init__(message or f"step size underflow at t={t!r}")


class PinneySingularityError(RuntimeError):
    """Pinney amplitude crossed the positivity guard during integration."""

    def __init__(self, t: float, sigma0: float | None = None):
        self.t, self.sigma0 = t, sigma0
        named = "" if sigma0 is None else f" (sigma0={sigma0!r})"
        super().__init__(f"rho fell below the singularity guard at t={t!r}{named}")


class TimeMismatchError(ValueError):
    """Two states that must share a common time do not."""


class NormalizationError(RuntimeError):
    """A probability density failed its unit-norm guard."""


class ConfigError(ValueError):
    """Invalid run configuration."""
