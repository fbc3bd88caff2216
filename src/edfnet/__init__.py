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
the simulated profiles come to the predicted ones.
"""

from . import dists
from .errors import (
    ClassDoesNotVisitStation,
    DisconnectedNetwork,
    EdfnetError,
    EmptyStation,
    GridMismatch,
    NegativeWorkload,
    NoConsistentRegion,
    NoSnapshots,
    ParseError,
    RouteRepeatsStation,
    SolverDivergence,
    ValidationError,
    ZeroIntensity,
)
from .frontier import (
    FrontierSolution,
    TwoStationSolution,
    WeightedModel,
    count_model,
    frontier_loads,
    normalize_by_intensity,
    predict_profile,
    solve_frontiers,
    two_station_closed_form,
    work_model,
)
from .harness import (
    CSV_HEADER,
    ExperimentConfig,
    ProfileReport,
    StationProfile,
    compare_profiles,
    config_from_dict,
    config_to_dict,
    empirical_bands,
    export_report,
    parse_config,
    parse_report,
    read_profile_csv,
    run_experiment,
)
from .leadtime import LeadTimeDist, PiecewiseLinearCDF, PointMass, Uniform
from .simulator import (
    BehindStats,
    CountBands,
    ExactCounts,
    SampleResult,
    SimState,
    Snapshot,
    TotalCounts,
    behind_frontier_stats,
    class_counts,
    class_frontier,
    conditional_sample,
    idleness,
    mean_queue_length,
    netput,
    new_sim,
    queue_length,
    run_until,
    snapshot_profiles,
    station_frontier,
    utilization,
    workload,
)
from .topology import (
    ClassSpec,
    NetworkSpec,
    Topology,
    build_topology,
    in_frontier_domain,
    traffic_intensity,
)

__version__ = "0.1.0"
