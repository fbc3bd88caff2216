"""Toolkit for multiclass queueing networks under deadline-ordered service.

Two halves, meant to be used against each other:

* an event-level simulator of acyclic route networks where every
  station serves by earliest deadline first, tracking per-class
  lead-time frontiers, workloads, and lateness diagnostics;

* a predictor that inverts the frontier equations — the critically
  loaded limit relations tying observed station loads to frontier
  positions — and turns the result into per-station lead-time
  profiles.

The harness runs both sides on a shared config and reports how close
the simulated profiles come to the predicted ones.  Each module's
``__all__`` lists its public names, and the package republishes them;
the sampling laws stay under ``edfnet.dists``.
"""

from . import dists
from .errors import *
from .frontier import *
from .harness import *
from .leadtime import *
from .simulator import *
from .topology import *

__version__ = "0.1.0"
