"""Exception types shared across the package.

Each type carries the exit code the CLI returns for it, so the split is
by failure mode: state/parameter validation (2), numerical trouble such
as truncation or positivity (3), and unsupported state/operation
combinations (4).
"""


class QdistError(Exception):
    """Base class for all package-specific errors."""
    exit_code = 3


class StateValidationError(QdistError):
    """A state object violates one of its defining invariants."""
    exit_code = 2


class SpecParseError(QdistError):
    """A textual state description does not match the grammar."""
    exit_code = 2


class DimensionMismatchError(QdistError):
    """Two operands live in truncated spaces of different size."""


class NotHermitianError(QdistError):
    """An operator expected to be Hermitian is not, beyond tolerance."""


class NotPositiveSemidefiniteError(QdistError):
    """An eigenvalue fell below the -1e-10 clamping floor."""


class NumericalToleranceError(QdistError):
    """An internal consistency check (imaginary part, clamp size) failed."""


class TailMassError(QdistError):
    """A requested truncation discards more probability than allowed."""


class TruncationInfeasibleError(QdistError):
    """No admissible truncation dimension exists below the configured cap."""


class DegenerateStateError(QdistError):
    """State parameters hit a removable singularity of the defining formula."""


class UndefinedQuantityError(QdistError):
    """The requested quantity is undefined for this input (e.g. 0/0)."""


class InsufficientCutoffError(QdistError):
    """A series reconstruction was truncated too early to be trusted."""


class GridError(QdistError):
    """A phase-space or quadrature grid is too small or too coarse."""


class UnsupportedCombinationError(QdistError):
    """The operation is not defined for this combination of inputs."""
    exit_code = 4
