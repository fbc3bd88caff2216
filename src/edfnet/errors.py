"""Exception types raised across the package.

Every package-specific failure derives from EdfnetError, so callers
can catch them with a single except clause; the CLI maps these to exit
code 2.  A bad argument to a library call, such as a run time that is
not finite or lies before the clock, raises a plain ValueError instead;
the config parser reports such values as ValidationError naming their
path.
"""

__all__ = [
    "EdfnetError",
    "RouteRepeatsStation",
    "EmptyStation",
    "DisconnectedNetwork",
    "ClassDoesNotVisitStation",
    "NegativeWorkload",
    "ZeroIntensity",
    "SolverDivergence",
    "NoConsistentRegion",
    "ParseError",
    "ValidationError",
    "NoSnapshots",
    "GridMismatch",
]


class EdfnetError(Exception):
    """Base class for all package-specific errors."""


# -------- network / topology --------

class RouteRepeatsStation(EdfnetError):
    """A class route visits the same station twice."""


class EmptyStation(EdfnetError):
    """A station is visited by no class."""


class DisconnectedNetwork(EdfnetError):
    """The station graph induced by the routes is not connected."""


class ClassDoesNotVisitStation(EdfnetError):
    """A (class, station) query for a pair that is not on the route."""


# -------- frontier solving --------

class NegativeWorkload(EdfnetError):
    """A frontier inversion was requested for a negative load vector."""


class ZeroIntensity(EdfnetError):
    """A class weight or rate that must be positive is zero."""


class SolverDivergence(EdfnetError):
    """A stage solve found no root that reproduces its load, a placed
    value rose along the stage order, or the residual check failed."""


class NoConsistentRegion(EdfnetError):
    """No closed-form region reproduces the observed queue lengths."""


# -------- harness --------

class ParseError(EdfnetError):
    """A config or report file could not be parsed; carries location."""


class ValidationError(EdfnetError):
    """A parsed config violates the documented schema."""


class NoSnapshots(EdfnetError):
    """Band computation was asked for with an empty snapshot pool."""


class GridMismatch(EdfnetError):
    """Two profiles were compared on different evaluation grids."""
