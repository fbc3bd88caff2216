"""Exception types raised across the package, and the scalar readers.

Every package-specific failure derives from EdfnetError, so callers
can catch them with a single except clause; the CLI maps these to exit
code 2.  A bad argument to a library call, such as a run time that is
not finite or lies before the clock, raises a plain ValueError instead;
the config parser reports such values as ValidationError naming their
path.

The number readers ``_whole``, ``_real``, ``_positive``, ``_reals`` and
``_flag``, and ``_echo``, the one clip on a bad value an error message
shows, live here too: this module imports no other package module.
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
    """A config, report or profile file, or the text of a number flag,
    could not be parsed (a file that is not UTF-8 text too); carries the
    location."""


class ValidationError(EdfnetError):
    """A parsed config violates the documented schema."""


class NoSnapshots(EdfnetError):
    """Band computation was asked for with an empty snapshot pool."""


class GridMismatch(EdfnetError):
    """Two profiles were compared on different evaluation grids, or on
    a grid that does not strictly increase, or with a value (grid
    point or curve value) that is not finite."""


# -------- scalar readers --------

_ECHO = 40   # characters of a bad value an error message shows


def _echo(value) -> str:
    """``repr(value)``, past ``_ECHO`` characters its first ``_ECHO`` and
    its length; a string is clipped before it is quoted."""
    text, show = (value, repr) if isinstance(value, str) else (repr(value), str)
    if len(text) <= _ECHO:
        return show(text)
    return f"{show(text[:_ECHO])}... ({len(text)} characters)"


def _whole(value, what: str) -> int:
    """A Python or numpy integer as an int; a float, a bool or anything
    else raises ValueError naming the value, where ``int()`` would
    have truncated it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {_echo(value)}")
    return int(value)


def _real(value, what: str) -> float:
    """A Python or numpy real as a float; a bool, a string, an int too
    large for a float or anything else raises ValueError naming the
    value, where ``float()`` would have read the first two and raised
    OverflowError on the third."""
    if type(value) is float:   # the common case, read on every prediction
        return value
    try:
        if not isinstance(value, bool) and isinstance(value, (int, float, np.integer, np.floating)):
            return float(value)
    except OverflowError:
        pass
    raise ValueError(f"{what} must be a real number, got {_echo(value)}")


def _positive(value, what: str, error=ValueError) -> float:
    """``_real(value)``; ``error`` names it unless positive and finite."""
    value = _real(value, what)
    if not 0.0 < value < np.inf:
        raise error(f"{what} must be positive and finite, got {_echo(value)}")
    return value


def _reals(values, what: str, error=ValueError) -> np.ndarray:
    """A real or a sequence of reals as a float64 array; ``error`` names
    a bool, a string or anything else ``np.asarray`` would have cast, a
    bool among numbers at any depth too.  An ndarray's dtype says whether
    it holds bools, so only the items of other sequences are looked at:
    a flat one's directly, a nested one's through an object array."""
    out = np.asarray(values)
    items = None
    if out.ndim and not isinstance(values, np.ndarray):
        items = values if out.ndim == 1 else np.asarray(values, dtype=object).flat
    if out.dtype.kind not in "iuf" or (items is not None
                                       and {bool, np.bool_} & set(map(type, items))):
        raise error(f"{what} must be real numbers, got {_echo(values)}")
    return out.astype(float, copy=False)


def _flag(value, what: str) -> bool:
    """``True`` or ``False`` itself; anything else, a numpy bool or a
    truthy number or string too, raises ValueError naming the value."""
    if value is not True and value is not False:
        raise ValueError(f"{what} must be True or False, got {_echo(value)}")
    return value
