"""Exception types shared across the package."""


class TdqError(Exception):
    """Base of every error the package raises, which the CLI maps to exit 2;
    each subclass also keeps a ValueError or RuntimeError base."""


class DomainError(TdqError, ValueError):
    """Argument outside the mathematical domain of a function."""


class EnvelopeError(DomainError):
    """Argument outside the supported accuracy envelope."""


class ConvergenceError(TdqError, RuntimeError):
    """A series or iteration failed to converge within its term budget."""


class StepSizeUnderflowError(TdqError, RuntimeError):
    """Adaptive integrator drove the step size below the representable floor."""

    def __init__(self, t: float):
        self.t = t
        super().__init__(f"step size underflow at t={t!r}")


class PinneySingularityError(TdqError, RuntimeError):
    """Pinney amplitude crossed the positivity guard during integration."""

    def __init__(self, t: float, sigma0: float | None = None):
        self.t, self.sigma0 = t, sigma0
        named = "" if sigma0 is None else f" (sigma0={sigma0!r})"
        super().__init__(f"rho fell below the singularity guard at t={t!r}{named}")


class TimeMismatchError(TdqError, ValueError):
    """Two states that must share a common time do not."""


class NormalizationError(TdqError, RuntimeError):
    """A probability density failed its unit-norm guard."""


class ConfigError(TdqError, ValueError):
    """Invalid run configuration."""
