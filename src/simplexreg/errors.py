"""Exception hierarchy shared by all simplexreg modules."""


class SimplexregError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(SimplexregError, ValueError):
    """A point lies outside the simplex beyond the validation tolerance."""


class PoleError(SimplexregError, ValueError):
    """A Dirichlet density with a negative exponent was evaluated at a zero
    coordinate, where the density diverges."""


class DegenerateSiteError(SimplexregError, ValueError):
    """Two partition sites coincide within tolerance."""


class MismatchError(SimplexregError, ValueError):
    """Paired inputs (points/responses, integrand/points) have inconsistent
    lengths or shapes."""


class AllWeightsVanishedError(SimplexregError, ArithmeticError):
    """Every kernel weight underflowed; the weighted average is undefined."""


class InsufficientDataError(SimplexregError, ValueError):
    """Fewer observations than the estimator requires."""


class MissingDerivativesError(SimplexregError, ValueError):
    """A derivative-based quantity was requested for a target function that
    provides no value callback to differentiate."""


class BoundaryError(SimplexregError, ValueError):
    """A boundary-singular quantity was evaluated at a boundary point."""


class ZeroBiasError(SimplexregError, ArithmeticError):
    """The squared-bias term vanishes, so no finite optimal bandwidth exists."""


class AllInfiniteError(SimplexregError, ArithmeticError):
    """No bandwidth on the search grid produced a finite objective value."""


class UnknownFunctionError(SimplexregError, KeyError):
    """Unrecognized target-function identifier."""


class ParseError(SimplexregError, ValueError):
    """A data file could not be parsed; carries the offending row number."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message if row is None else f"row {row}: {message}")
        self.row = row


class EmptyDatasetError(SimplexregError, ValueError):
    """No usable rows remained after loading a dataset."""


class DegenerateIqrWarning(UserWarning):
    """The response spread is zero, so the simulated noise variance is zero."""
