"""Exception taxonomy shared by all modules.

The CLI maps these onto exit codes: ConfigError and its subclass
SizeError -> 2, InfeasibleProblemError -> 3, everything else
unexpected -> 4.
"""


class ConfigError(ValueError):
    """Invalid configuration or invalid constructor arguments."""


class DataError(ValueError):
    """Malformed input data (history samples, files)."""


class ShapeError(ValueError):
    """Dimension mismatch between coupled arrays."""


class SizeError(ConfigError):
    """Instance too large for an enumeration-based routine (a bad method choice)."""


class SolverError(RuntimeError):
    """Numerical failure or iteration blow-up inside the LP solver."""


class InfeasibleProblemError(RuntimeError):
    """The optimization model admits no feasible decision."""
