"""Exception types shared across the package."""


class DepthCapError(RuntimeError):
    """Cut-set expansion hit the enumeration depth cap.

    Carries the depth at which the expansion was abandoned.
    """

    def __init__(self, message, depth=None):
        super().__init__(message)
        self.depth = depth


class BranchBudgetError(RuntimeError):
    """Enumerating words exceeded the configured word-count budget."""


class IncompleteSchemeError(KeyError):
    """An explicit translation table lacks a required word prefix."""

    def __str__(self):
        # the message itself, without the quotes KeyError puts around it
        return str(self.args[0]) if self.args else ""


class SingularMatrixError(ValueError):
    """A matrix is numerically singular or too ill-conditioned to decompose."""


class InsufficientScalesError(ValueError):
    """Too few usable scales remain for a log-log dimension fit, or a scale is
    too fine to bin the points' coordinates."""


class IndeterminateTrendError(RuntimeError):
    """A boundedness trend could not be classified; carries both brackets."""

    def __init__(self, message, bracket_lower=None, bracket_upper=None):
        super().__init__(message)
        self.bracket_lower = bracket_lower
        self.bracket_upper = bracket_upper


class SampleError(ValueError):
    """A sample file cannot be read or does not hold a finite weighted sample."""


class ConfigError(ValueError):
    """An experiment configuration is inconsistent or unsupported."""
