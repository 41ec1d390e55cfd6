"""Exception types shared across the package."""


class FedfallError(Exception):
    """Base class for all package-specific errors."""


class ShapeMismatchError(FedfallError, ValueError):
    """Inputs whose shapes or lengths are mutually inconsistent."""


class NumericalFailureError(FedfallError, FloatingPointError):
    """A non-finite value appeared where finite math was required.

    ``layer`` names the computation stage that produced the value.
    """

    def __init__(self, message: str, layer: str = ""):
        super().__init__(message)
        self.layer = layer


class AggregationInfeasibleError(FedfallError, ValueError):
    """Trimming would leave no clients to average."""

    def __init__(self, n: int, beta: float, m: int):
        super().__init__(
            f"cannot trim {m} from each end of {n} client updates "
            f"(beta={beta}): {n} - 2*{m} < 1"
        )
        self.n = n
        self.beta = beta
        self.m = m

    def __reduce__(self):
        return type(self), (self.n, self.beta, self.m), self.__dict__


class ConfigError(FedfallError, ValueError):
    """Invalid or unknown configuration."""


class MissingSensorError(FedfallError, ValueError):
    """A sequence lacks a required sensor stream entirely."""


class PrivacyViolationError(FedfallError, RuntimeError):
    """Code outside a client's own execution scope touched its raw data."""
