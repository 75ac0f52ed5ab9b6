"""Exception types and process exit codes shared across the package.

A grid function (``estimate_curve``, ``band_companions``,
``confidence_band``) never raises because a point failed, even if every
point did: it records each point's reason and NaN there.  A one-point
function (``local_linear_fit``, ``estimate_second_derivative``,
``estimate_density``) raises that point's error.  An argument error
(negative bandwidth, non-finite evaluation point) raises ``ValueError``.
The classes below cover failures that depend on the data rather than on
the call signature, so callers can distinguish "your input is unusable"
from "the estimator has nothing to work with here".
"""

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4


class JdsmoothError(Exception):
    """Base class for package-specific failures."""

    exit_code = EXIT_NUMERICAL


class ConfigError(JdsmoothError):
    """Invalid configuration file or command-line usage."""

    exit_code = EXIT_CONFIG


class DataError(JdsmoothError):
    """Unusable input data: bad CSV rows, nonpositive prices, NaNs."""

    exit_code = EXIT_DATA


class SparseRegionError(JdsmoothError):
    """No usable kernel mass near the requested evaluation point."""

    def __init__(self, x: float, message: str | None = None):
        self.x = x
        super().__init__(message or f"no usable kernel mass near x={x:g}")


class DegenerateDesignError(JdsmoothError):
    """Weighted design matrix is numerically singular at this point."""


class NotIdentifiableError(JdsmoothError):
    """Jump components cannot be recovered from the supplied moments."""
