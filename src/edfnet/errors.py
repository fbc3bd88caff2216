"""Exception types raised across the package, and the scalar readers.

Every package-specific failure derives from EdfnetError, so callers
can catch them with a single except clause; the CLI maps these to exit
code 2.  A bad argument to a library call, such as a run time that is
not finite or lies before the clock, raises a plain ValueError instead;
the config parser reports such values as ValidationError naming their
path.

The number readers ``_whole``, ``_real``, ``_positive``, ``_reals`` and
``_flag`` live here too: this module imports no other package module, so
every module reads its spec fields and call arguments through them.
"""

import numpy as np

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
    """A class weight or rate that must be positive and finite is not."""


class SolverDivergence(EdfnetError):
    """A placed frontier rose along the stage order, or a solved vector
    missed a station's load by more than its roundoff allowance."""


class NoConsistentRegion(EdfnetError):
    """No closed-form region reproduces the loads within roundoff."""


# -------- harness --------

class ParseError(EdfnetError):
    """A config or report file could not be parsed; carries location."""


class ValidationError(EdfnetError):
    """A parsed config violates the documented schema."""


class NoSnapshots(EdfnetError):
    """Band computation was asked for with an empty snapshot pool."""


class GridMismatch(EdfnetError):
    """Two profiles were compared on different evaluation grids, or on
    a grid that does not strictly increase, or with a value (grid
    point or curve value) that is not finite."""


# -------- scalar readers --------

def _whole(value, what: str) -> int:
    """A Python or numpy integer as an int; a float, a bool or anything
    else raises ValueError naming the value, where ``int()`` would
    have truncated it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _real(value, what: str) -> float:
    """A Python or numpy real as a float; a bool, a string or anything
    else raises ValueError naming the value, where ``float()`` would
    have read it."""
    if type(value) is float:   # the common case, read on every prediction
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{what} must be a real number, got {value!r}")
    return float(value)


def _positive(value, what: str, error=ValueError) -> float:
    """``_real(value)``; ``error`` names it unless positive and finite."""
    value = _real(value, what)
    if not 0.0 < value < np.inf:
        raise error(f"{what} must be positive and finite, got {value!r}")
    return value


def _reals(values, what: str, error=ValueError) -> np.ndarray:
    """A real or a sequence of reals as a float64 array; ``error`` names
    a bool, a string or anything else ``np.asarray`` would have cast."""
    out = np.asarray(values)
    if out.dtype.kind not in "iuf":
        raise error(f"{what} must be real numbers, got {values!r}")
    return out.astype(float, copy=False)


def _flag(value, what: str) -> bool:
    """``True`` or ``False`` itself; anything else, a numpy bool or a
    truthy number or string too, raises ValueError naming the value."""
    if value is not True and value is not False:
        raise ValueError(f"{what} must be True or False, got {value!r}")
    return value
