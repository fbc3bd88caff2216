"""Correctness checks computed apart from the program.

Nothing here calls edfnet: the load map is written out from the
lead-time laws' parameters, the desk frontiers are derived by hand, and
the free-run check uses M/M/1 theory.  Each check returns a list of
failure messages, empty when the check passes.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Sequence, Tuple

# The desk network (configs/desk_experiment.yaml) under its normalized
# count model: every class has rate 0.32 and both stations intensity
# 0.96, so every weight is 1/3.  With frontiers (y1, y2) = (265, 217):
#   station 1: (400-265) + 0 + (280-265) = 150, and 150/3 = 50
#              (class 2 has drained past y2 = 217 < 265 at station 2)
#   station 2: (183-135) + (300-217) + (260-217) = 174, and 174/3 = 58
DESK_RATES = (0.32 / 0.96,) * 4
DESK_DEADLINES = (400.0, 300.0, 280.0, 260.0)
DESK_LOADS = (50.0, 58.0)
DESK_FRONTIERS = (265.0, 217.0)
DESK_COUNTS = {1: 50, 2: 58}     # the conditioning totals of every snapshot
DESK_MAX_LEAD = 400.0            # no customer is born with a longer lead
DESK_SUP_BOUND = 0.10            # the config's calibrated per-station bound

# The crossing config (configs/crossing_base.yaml) at loads (50, 58),
# deadlines (400, 300, 200, 100), weights 1/3 again:
#   station 1: (400-250) + 0 + 0 = 150, and 150/3 = 50
#   station 2: (212-150) + (300-188) + 0 = 174, and 174/3 = 58
CROSSING_LOADS = (50.0, 58.0)
CROSSING_FRONTIERS = (250.0, 188.0)
CROSSING_ORDER = (1, 2)


def integrated_tail(law: tuple, y: float) -> float:
    """Integral of P(lead > x) over x in (y, infinity), from the law's
    parameters: ("point", v), ("uniform", lo, hi) or ("piecewise",
    knots) with the CDF linear between knots and zero below the first."""
    if y == math.inf:
        return 0.0
    kind = law[0]
    if kind == "point":
        return max(law[1] - y, 0.0)
    if kind == "uniform":
        lo, hi = law[1], law[2]
        if y >= hi:
            return 0.0
        if y <= lo:
            return (lo - y) + 0.5 * (hi - lo)
        return 0.5 * (hi - y) ** 2 / (hi - lo)
    knots = law[1]
    total = max(knots[0][0] - y, 0.0)
    for (a, ga), (b, gb) in zip(knots, knots[1:]):
        start = max(a, y)
        if start >= b:
            continue
        g_start = ga + (gb - ga) * (start - a) / (b - a)
        total += (b - start) * (1.0 - 0.5 * (g_start + gb))
    return total


def load_map(routes: Sequence[Sequence[int]], rates: Sequence[float],
             laws: Sequence[tuple], mu: Mapping[Tuple[int, int], float],
             frontiers: Sequence[float]) -> List[float]:
    """Station loads of a frontier vector under the normalized count
    model: class k at station j weighs rate_k / rho_j and contributes
    its integrated tail between the station's frontier and the lowest
    frontier it has already cleared, clipped at zero."""
    J = len(frontiers)
    rho = [0.0] * (J + 1)
    for k, route in enumerate(routes):
        for j in route:
            rho[j] += rates[k] / mu[(k, j)]
    loads = [0.0] * J
    for k, route in enumerate(routes):
        for pos, j in enumerate(route):
            floor = min((frontiers[i - 1] for i in route[:pos]), default=math.inf)
            tail = integrated_tail(laws[k], frontiers[j - 1]) - integrated_tail(laws[k], floor)
            if tail > 0.0:
                loads[j - 1] += rates[k] / rho[j] * tail
    return loads


def check_load_map(what: str, ref_loads: Sequence[float], loads: Sequence[float],
                   rel: float = 1e-6) -> List[str]:
    scale = max(1.0, max(abs(v) for v in loads))
    err = max(abs(a - b) for a, b in zip(ref_loads, loads))
    if err > rel * scale:
        return [f"{what}: reference load map is off by {err:.3g} at loads {tuple(loads)}"]
    return []


def check_close(what: str, got: Sequence[float], want: Sequence[float],
                rel: float = 1e-9) -> List[str]:
    scale = max(1.0, max(abs(v) for v in want))
    if len(got) != len(want) or any(abs(a - b) > rel * scale for a, b in zip(got, want)):
        return [f"{what}: got {tuple(got)}, expected {tuple(want)}"]
    return []


def check_cdf(what: str, curve: Sequence[float]) -> List[str]:
    if any(not 0.0 <= v <= 1.0 for v in curve):
        return [f"{what}: CDF leaves [0, 1]"]
    if any(b < a for a, b in zip(curve, curve[1:])):
        return [f"{what}: CDF decreases"]
    return []


def check_bands(what: str, lo: Sequence[float], mean: Sequence[float],
                hi: Sequence[float]) -> List[str]:
    errs = check_cdf(f"{what} emp_min", lo) + check_cdf(f"{what} emp_mean", mean) \
        + check_cdf(f"{what} emp_max", hi)
    # the mean of finitely many curves can round a hair past its extremes
    if any(not a - 1e-12 <= m <= b + 1e-12 for a, m, b in zip(lo, mean, hi)):
        errs.append(f"{what}: emp_mean leaves [emp_min, emp_max]")
    return errs


# -------- free-running M/M/1 stations --------

# The time average of an M/M/1 queue over a few relaxation times
# (about 380 service times at rho = 0.9) is skewed: its right tail
# follows the queue's geometric tail, not a normal one.  Simulating the
# queue from empty gave P(z > 5) near 1e-3 at 1000 service times and no
# z above 3.6 in 20000 runs at 8000.  Below LONG_RUN service times the
# upper side is held only to a gross bound; the lower side is light-tailed
# at every length.
JACKSON_Z = 5.0          # standard errors allowed on a long run, and below on any run
JACKSON_Z_SHORT = 20.0   # standard errors allowed above on a short run
LONG_RUN = 8000.0        # service times in the measured window


def mm1_time_average_se(rho: float, mu: float, duration: float) -> float:
    """Standard error of the time-average number in an M/M/1 system
    over ``duration``: its asymptotic variance constant is
    2 rho (1 + rho) / (mu (1 - rho)^4) (Whitt, 1989)."""
    return math.sqrt(2.0 * rho * (1.0 + rho) / (mu * (1.0 - rho) ** 4) / duration)


def jackson_check(what: str, rho: float, mu: Dict[int, float],
                  batches: Dict[int, List[float]], duration: float) -> List[str]:
    """Each station's mean number in system against rho / (1 - rho).

    ``batches[j]`` holds the time-average count at station j over
    equal batches after the warm-up.  The standard error is the larger
    of the batch-means estimate and the M/M/1 value: batches much
    shorter than a station's relaxation time understate the error.
    """
    target = rho / (1.0 - rho)
    errs = []
    for j, means in sorted(batches.items()):
        B = len(means)
        avg = sum(means) / B
        var = sum((m - avg) ** 2 for m in means) / (B - 1)
        se = max(math.sqrt(var / B), mm1_time_average_se(rho, mu[j], duration))
        z = (avg - target) / se
        upper = JACKSON_Z if mu[j] * duration >= LONG_RUN else JACKSON_Z_SHORT
        if not -JACKSON_Z <= z <= upper:
            errs.append(f"{what} station {j}: mean number {avg:.3f} is {z:.1f} "
                        f"standard errors from {target:.3f}")
    return errs


def workload_identity_check(what: str, j: int, workload: float, netput: float,
                            idleness: float, clock: float) -> List[str]:
    """W = netput + idleness; accumulated roundoff grows with the clock."""
    gap = abs(workload - (netput + idleness))
    if gap > 1e-9 * max(1.0, clock):
        return [f"{what} station {j}: W - (netput + idleness) = {gap:.3g} at t={clock:.6g}"]
    return []
