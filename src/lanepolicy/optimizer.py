"""Nested optimization of bus frequency and mode split for one policy.

The inner search over frequency F scans the integer lattice subject to the
service-capacity floor F >= Q_bus(0)/capacity, then one 0.1-wide refinement
window around the incumbent.  The outer search walks the bus share s = 1 - R
on a coarse lattice and one refined window, so the deterministic
smallest-argument tie-break prefers the largest auto share, which keeps the
degenerate zero-demand case at R = 1.

Each split lattice is priced in two batched calls on one
:class:`~lanepolicy._fsweep.FrequencySweep` over its feasible shares: every
share's integer-F row masked below its floor, then every share's refinement
window (ragged rows, NaN-padded).  :func:`optimize_frequency` is the
one-share case.

Two diagnostics are computed for the winning optimum only: a central
finite-difference of total cost in F (stationarity check at interior optima)
and the demand-weighted disutility gap between the two modes (how far the
cost-minimizing split sits from a user equilibrium).  The ``equilibrium``
split rule replaces the outer cost scan with a root solve on the signed gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._fsweep import FrequencySweep
from .config import Scenario
from .costmodel import (
    CostBreakdown,
    Policy,
    auto_disutility,
    build_context,
    bus_disutility,
    cost_breakdown,
)
from .errors import InfeasibleError, ValidationError
from .numeric import find_root, integrate_values

__all__ = [
    "PolicyOptimum",
    "min_frequency",
    "optimize_frequency",
    "optimize_policy",
    "foc_residual",
    "equilibrium_gap",
]


@dataclass(frozen=True)
class PolicyOptimum:
    """Optimized operating point for one policy at one demand density."""

    policy: Policy
    q0: float
    r_star: float  # auto share of demand
    f_star: float  # buses/hr
    breakdown: CostBreakdown
    foc_residual: float  # $/(bus/hr); finite-difference dTotal/dF at f_star
    equilibrium_gap: float | None  # $; None when one mode carries no demand
    constraint_binding: bool  # service-capacity floor active at f_star


def min_frequency(scenario: Scenario, q0: float, auto_share):
    """Lowest frequency able to carry all bus boardings, buses/hr.

    The onboard load peaks at the inner end of the corridor where it equals
    all bus demand, (1-R)*q0*A/2; dividing by bus capacity gives the floor.
    ``auto_share`` may be an array of shares.
    """
    shares = np.asarray(auto_share, dtype=float)
    if not np.all((0 <= shares) & (shares <= 1)):
        raise ValidationError(f"auto_share must lie in [0, 1], got {auto_share}")
    geom = scenario.geometry
    peak_load = (1.0 - auto_share) * q0 * geom.length_mi / 2.0
    return peak_load / scenario.bus.capacity_pax


def _refine_candidates(center, lower, upper, step: float, half_width: float) -> np.ndarray:
    """Rows of ``step``-spaced points on [center +/- half_width], clipped to
    [lower, upper]; a clipped window starts exactly at the bound.  One row per
    center, NaN-padded; an empty window or a NaN center gives an all-NaN row."""
    center = np.asarray(center, dtype=float)
    start = np.maximum(lower, center - half_width)
    end = np.minimum(upper, center + half_width)
    n = np.where(end >= start, np.floor((end - start) / step + 1e-9), -1.0)
    tail = (n >= 0) & (start + step * n < end - 1e-12)
    cols = np.arange(int(np.max(n + tail)) + 1)
    pts = np.where(cols <= n[:, None], start[:, None] + step * cols, np.nan)
    pts[tail, n[tail].astype(int) + 1] = end[tail]
    return pts


def _scan_rows(candidates: np.ndarray, values: np.ndarray):
    """Per row, the first minimum over finite values (smallest argument on
    ties); cost inf for a row with no finite value."""
    values = np.where(np.isfinite(values), values, np.inf)
    k = np.argmin(values, axis=1)
    rows = np.arange(k.shape[0])
    return candidates[rows, k], values[rows, k]


def _frequency_optima(scenario: Scenario, policy: Policy, q0: float, auto_shares, evaluate=None):
    """:func:`optimize_frequency` for an array of shares in two batched passes.

    ``evaluate`` maps NaN-padded (n_shares, n_F) candidate rows to costs and
    defaults to one :class:`FrequencySweep` over the feasible shares.
    Returns each share's best frequency and cost; the cost is inf for a share
    whose floor exceeds the cap or whose candidates all evaluated non-finite.
    """
    solver = scenario.solver
    cap = solver.f_cap
    f_min = min_frequency(scenario, q0, auto_shares)
    ok = f_min <= cap
    best_f, best_cost = np.full(f_min.shape, np.nan), np.full(f_min.shape, np.inf)
    if not ok.any():
        return best_f, best_cost
    if evaluate is None:
        evaluate = FrequencySweep(scenario, policy, q0, auto_shares[ok]).totals
    f_min = f_min[ok]
    first = np.maximum(1.0, np.ceil(f_min - 1e-9))
    lattice = np.arange(first.min(), cap + 1e-9, 1.0)
    on = lattice >= first[:, None]
    coarse = np.where(on, lattice, np.nan)
    if not on.any(axis=1).all():  # a floor above the last lattice point: the cap alone
        coarse = np.column_stack([coarse, np.where(on.any(axis=1), np.nan, cap)])
    f1, c1 = _scan_rows(coarse, evaluate(coarse))

    window = _refine_candidates(
        np.where(np.isfinite(c1), f1, np.nan), np.maximum(1.0, f_min), cap,
        solver.f_refine_step, half_width=1.0,
    )
    if window.shape[1]:
        f2, c2 = _scan_rows(window, evaluate(window))
        searched = ~np.isnan(window).all(axis=1)
        better = searched & ((c2 < c1) | ((c2 == c1) & (f2 < f1)))
        f1 = np.where(better, f2, f1)
        # a window that evaluated nothing finite makes the share infeasible
        c1 = np.where(better | (searched & np.isinf(c2)), c2, c1)
    best_f[ok], best_cost[ok] = f1, c1
    return best_f, best_cost


def optimize_frequency(
    scenario: Scenario,
    policy: Policy,
    q0: float,
    auto_share: float,
    cost_fn=None,
) -> tuple[float, float]:
    """Best frequency and its total cost for a fixed mode split.

    Integer-lattice scan over [max(1, ceil(F_min)), cap], then one refinement
    pass at ``solver.f_refine_step`` resolution around the incumbent, clipped
    to the exact feasibility floor.  ``cost_fn`` (frequency -> cost) replaces
    the model evaluation when given; tests use it to inject synthetic costs.

    :raises InfeasibleError: when the capacity floor exceeds the search cap.
    """
    f_min = min_frequency(scenario, q0, auto_share)
    cap = scenario.solver.f_cap
    if f_min > cap:
        raise InfeasibleError(
            f"service-capacity constraint is infeasible: carrying the bus demand at "
            f"auto share {auto_share:g} needs at least {f_min:.2f} buses/hr, above the "
            f"search cap {cap:g}"
        )
    evaluate = None
    if cost_fn is not None:
        def evaluate(rows: np.ndarray) -> np.ndarray:
            return np.array(
                [[np.nan if np.isnan(f) else float(cost_fn(float(f))) for f in row] for row in rows]
            )

    f, cost = _frequency_optima(scenario, policy, q0, np.array([auto_share]), evaluate)
    if np.isinf(cost[0]):
        raise InfeasibleError("every candidate evaluated non-finite")
    return float(f[0]), float(cost[0])


def foc_residual(
    scenario: Scenario, policy: Policy, q0: float, auto_share: float, frequency: float,
    step: float = 0.01,
) -> float:
    """Central finite difference of total cost in frequency, $/(bus/hr)."""
    if frequency - step <= 0:
        raise ValidationError(f"frequency must exceed the step {step}, got {frequency}")
    up = cost_breakdown(scenario, policy, q0, auto_share, frequency + step).total
    down = cost_breakdown(scenario, policy, q0, auto_share, frequency - step).total
    return (up - down) / (2.0 * step)


def equilibrium_gap(
    scenario: Scenario, policy: Policy, q0: float, auto_share: float, frequency: float,
    signed: bool = False,
) -> float | None:
    """Demand-weighted mean auto-minus-bus disutility difference, $ per trip.

    A diagnostic of how far a scalar split is from user equilibrium: zero
    means travelers at every location are indifferent on average.  Returns
    None when either mode carries no demand (the comparison is vacuous).
    """
    if q0 <= 0 or not 0 < auto_share < 1:
        return None
    ctx = build_context(scenario, q0, auto_share, frequency)
    nodes = ctx.grid.nodes
    if policy is Policy.HOVLP:
        auto_cost = ctx.split.low_fraction * auto_disutility(
            ctx, policy, "low_occ_auto", nodes
        ) + ctx.split.high_fraction * auto_disutility(ctx, policy, "high_occ_auto", nodes)
    else:
        auto_cost = auto_disutility(ctx, policy, "auto", nodes)
    diff = auto_cost - bus_disutility(ctx, policy, nodes)
    weight = 1.0 - nodes / ctx.grid.length  # linear demand density, q0 cancels
    if not signed:
        diff = np.abs(diff)
    return float(integrate_values(diff * weight, ctx.grid) / integrate_values(weight, ctx.grid))


def _split_lattice(solver, center: float | None = None) -> np.ndarray:
    """Bus-share lattice on [0, 1]; refined around ``center`` when given."""
    if center is None:
        n = int(round(1.0 / solver.r_step))
        return np.arange(n + 1) * solver.r_step
    step = solver.r_step / solver.r_refine_factor
    row = _refine_candidates(np.array([center]), 0.0, 1.0, step, half_width=solver.r_step)[0]
    return row[~np.isnan(row)]


def _best_split_cost_min(scenario: Scenario, policy: Policy, q0: float):
    def scan(bus_shares: np.ndarray):
        """(cost, bus share, frequency) of the cheapest share, the smallest
        share on ties; None when no share is feasible."""
        f_star, cost = _frequency_optima(scenario, policy, q0, 1.0 - bus_shares)
        k = int(np.argmin(cost))
        if np.isinf(cost[k]):
            return None
        return float(cost[k]), float(bus_shares[k]), float(f_star[k])

    best = scan(_split_lattice(scenario.solver))
    if best is None:
        raise InfeasibleError(
            f"no feasible mode split at q0={q0:g}: the service-capacity floor exceeds "
            f"the frequency cap {scenario.solver.f_cap:g} for every split"
        )
    refined = scan(_split_lattice(scenario.solver, center=best[1]))
    return refined if refined is not None and refined[:2] < best[:2] else best


def _best_split_equilibrium(scenario: Scenario, policy: Policy, q0: float):
    """Mode split where auto and bus disutilities balance, frequency re-optimized."""
    solver = scenario.solver

    def signed_gap(auto_share: float) -> float:
        f_star, _ = optimize_frequency(scenario, policy, q0, auto_share)
        gap = equilibrium_gap(scenario, policy, q0, auto_share, f_star, signed=True)
        return gap if gap is not None else 0.0

    # the service-capacity floor makes low auto shares infeasible; the
    # feasible region is an upper interval of R, so consecutive feasible
    # samples still bracket any interior root
    lo, hi = solver.r_step, 1.0 - solver.r_step
    samples = []
    values = []
    for r in np.arange(lo, hi + 1e-12, solver.r_step):
        try:
            values.append(signed_gap(float(r)))
        except InfeasibleError:
            continue
        samples.append(float(r))
    if not samples:
        raise InfeasibleError(
            f"no feasible interior mode split at q0={q0:g} for the equilibrium rule"
        )
    root = None
    for i in range(len(samples) - 1):
        if values[i] == 0.0:
            root = samples[i]
            break
        if values[i] * values[i + 1] < 0:
            root = find_root(
                signed_gap,
                samples[i],
                samples[i + 1],
                tol=solver.r_step / solver.r_refine_factor,
            )
            break
    if root is None:
        # no interior equilibrium: report the corner-most sampled split
        k = int(np.argmin(np.abs(values)))
        root = samples[k]
    f_star, cost = optimize_frequency(scenario, policy, q0, root)
    return cost, 1.0 - root, f_star


@lru_cache(maxsize=65536)
def _optimize_policy_cached(scenario: Scenario, policy: Policy, q0: float) -> PolicyOptimum:
    if scenario.solver.split_rule == "equilibrium" and q0 > 0:
        cost, bus_share, f_star = _best_split_equilibrium(scenario, policy, q0)
    else:
        cost, bus_share, f_star = _best_split_cost_min(scenario, policy, q0)
    auto_share = 1.0 - bus_share
    f_min = min_frequency(scenario, q0, auto_share)
    if f_star < f_min - 1e-9:
        raise InfeasibleError(
            f"internal error: optimized frequency {f_star} violates the capacity floor {f_min}"
        )
    breakdown = cost_breakdown(scenario, policy, q0, auto_share, f_star)
    binding = abs(f_star - f_min) <= scenario.solver.f_refine_step / 2.0 + 1e-9
    return PolicyOptimum(
        policy=policy,
        q0=q0,
        r_star=auto_share,
        f_star=f_star,
        breakdown=breakdown,
        foc_residual=foc_residual(scenario, policy, q0, auto_share, f_star),
        equilibrium_gap=equilibrium_gap(scenario, policy, q0, auto_share, f_star),
        constraint_binding=binding,
    )


def optimize_policy(scenario: Scenario, policy: Policy, q0: float) -> PolicyOptimum:
    """Jointly optimize mode split and frequency; returns the full optimum.

    Outer scan over the mode split (coarse lattice plus one refinement, ties
    to the largest auto share), inner :func:`optimize_frequency` per split.
    Results are memoized on (scenario, policy, q0); all three are immutable.
    """
    if q0 < 0:
        raise ValidationError(f"q0 must be >= 0, got {q0}")
    if not isinstance(policy, Policy):
        policy = Policy.parse(str(policy))
    return _optimize_policy_cached(scenario, policy, float(q0))
