"""Nested optimization of bus frequency and mode split for one policy: it
searches, and :mod:`lanepolicy._fsweep` and :mod:`lanepolicy.costmodel` price.

The inner search over frequency F scans the integer lattice subject to the
service-capacity floor F >= Q_bus(0)/capacity, then one 0.1-wide refinement
window around the incumbent.  The outer search walks the bus share s = 1 - R
on a coarse lattice and one refined window, so the deterministic
smallest-argument tie-break prefers the largest auto share, which keeps the
degenerate zero-demand case at R = 1.

The cost-minimizing split is searched for a block of densities at once.
Every density's coarse split lattice is stacked into one set of (q0, R) rows
and priced by one :func:`_frequency_optima` call; every density's refined
window around its coarse winner is priced by one more.  Each call is two
batched :meth:`~lanepolicy._fsweep.FrequencySweep.row_minima` calls on one
sweep over the feasible rows: every row's integer-F lattice masked below its
floor, then every row's refinement window (NaN-padded).  Each prices signal
delay only where its F = 0 lower bound cannot prune.  Before either pass,
each density's shares are bounded below over their whole frequency range
(:meth:`~lanepolicy._fsweep.FrequencySweep.lower_bounds`), the lowest-bound
share is priced at its first candidate, and only the shares whose bound does
not exceed that total are searched (:func:`_winnable`); every dropped share
costs more than a total already priced for its density, so neither the
coarse first minimum nor the refined one can change.  Rows are priced
elementwise and no bound crosses densities, so an optimum does not depend
on the block it was solved in.
:func:`optimize_frequency` is the one-share case and :func:`optimize_policy`
the one-density case of :func:`optimize_policies`; ``_best_split_at_fixed_f``
is the split scan at a frequency the caller pins (``lanepolicy cost --F``).  The winning operating
points of a call are then priced by one
:func:`~lanepolicy.costmodel.cost_breakdowns` call, which gives every float
of the one-point :func:`~lanepolicy.costmodel.cost_breakdown`.

Two diagnostics are functions that callers evaluate at an optimum: a
central finite difference of total cost in F (:func:`foc_residual`) and the
demand-weighted disutility gap between the modes (:func:`equilibrium_gap`).
The ``equilibrium`` split rule replaces the outer cost scan with a root solve
on the signed gap, bracketed on one batched scan of the interior shares whose
gaps, each at its share's optimal frequency, the cost model prices in one
call; each bisection call prices its up to three shares the same way.
"""

from __future__ import annotations

from collections import OrderedDict, namedtuple
from dataclasses import dataclass

import numpy as np

from ._fsweep import FrequencySweep, _candidates, _scan_rows
from .config import Scenario
from .costmodel import CostBreakdown, Policy, _equilibrium_gaps, cost_breakdowns
from .demand import _operating_point
from .errors import InfeasibleError, NumericDomainError, ValidationError
from .numeric import find_root

__all__ = [
    "PolicyOptimum",
    "min_frequency",
    "optimize_frequency",
    "optimize_policy",
    "optimize_policies",
    "foc_residual",
    "equilibrium_gap",
]

_FLOOR_SLACK = 1e-9  # rounding allowance on the service-capacity floor, buses/hr


@dataclass(frozen=True)
class PolicyOptimum:
    """Optimized operating point for one policy at one demand density; its
    diagnostics are :func:`foc_residual` and :func:`equilibrium_gap`."""

    policy: Policy
    q0: float
    r_star: float  # auto share of demand
    f_star: float  # buses/hr
    breakdown: CostBreakdown
    constraint_binding: bool  # service-capacity floor active at f_star


def min_frequency(scenario: Scenario, q0, auto_share):
    """Lowest frequency able to carry all bus boardings, buses/hr.

    The onboard load peaks at the inner end of the corridor where it equals
    all bus demand, (1-R)*q0*A/2; dividing by bus capacity gives the floor.
    Each of ``q0`` and ``auto_share`` is one value or a 1-D array aligned
    with the other, one entry per operating point.
    """
    densities, shares = _operating_point(q0, auto_share)
    peak_load = (1.0 - shares) * densities * scenario.geometry.length_mi / 2.0
    out = peak_load / scenario.bus.capacity_pax
    return float(out) if out.ndim == 0 else out


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


def _frequency_optima(
    scenario: Scenario, policy: Policy, q0, auto_shares, search=None, groups=None
):
    """:func:`optimize_frequency` for an array of shares in two batched passes.

    ``q0`` is one density or an array with one density per share.  ``search``
    maps NaN-padded (n_shares, n_F) rows to each row's best frequency and
    cost; it defaults to :meth:`FrequencySweep.row_minima` over the feasible
    shares.  ``groups`` labels each share with the density whose cheapest
    share is sought; a share that cannot be it is then not searched (see
    :func:`_winnable`).  Returns each share's best frequency and cost; the
    cost is inf for a share whose floor exceeds the cap, whose candidates all
    evaluated non-finite, or that was not searched.
    """
    solver = scenario.solver
    cap = solver.f_cap
    f_min = min_frequency(scenario, q0, auto_shares)
    ok = f_min <= cap
    best_f, best_cost = np.full(f_min.shape, np.nan), np.full(f_min.shape, np.inf)
    if not ok.any():
        return best_f, best_cost
    first = np.maximum(1.0, np.ceil(f_min - _FLOOR_SLACK))  # each share's first integer candidate
    if search is None:
        sweep = FrequencySweep(scenario, policy, np.full(ok.shape, q0)[ok], auto_shares[ok])
        if groups is not None:
            keep = _winnable(sweep, groups[ok], f_min[ok], first[ok], cap)
            ok[ok] = keep
            sweep = sweep.subset(keep)
        search = sweep.row_minima
    f_min, first = f_min[ok], first[ok]
    lattice = np.arange(first.min(), cap + 1e-9, 1.0)
    on = lattice >= first[:, None]
    coarse = np.where(on, lattice, np.nan)
    if not on.any(axis=1).all():  # a floor above the last lattice point: the cap alone
        coarse = np.column_stack([coarse, np.where(on.any(axis=1), np.nan, cap)])
    f1, c1 = search(coarse)

    window = _refine_candidates(
        np.where(np.isfinite(c1), f1, np.nan), np.maximum(1.0, f_min), cap,
        solver.f_refine_step, half_width=1.0,
    )
    if window.shape[1]:
        f2, c2 = search(window)
        searched = ~np.isnan(window).all(axis=1)
        better = searched & ((c2 < c1) | ((c2 == c1) & (f2 < f1)))
        f1 = np.where(better, f2, f1)
        # a window that evaluated nothing finite makes the share infeasible
        c1 = np.where(better | (searched & np.isinf(c2)), c2, c1)
    best_f[ok], best_cost[ok] = f1, c1
    return best_f, best_cost


def _winnable(sweep: FrequencySweep, groups, f_min, first, cap) -> np.ndarray:
    """Which rows of ``sweep`` can hold their group's cheapest optimum.

    A row's bound is :meth:`FrequencySweep.lower_bounds` over [max(1, f_min -
    s), cap] for the floor slack s, which holds every coarse candidate (the
    first, ``first`` = max(1, ceil(f_min - s)), may sit s below it), the cap-only
    column and every refinement candidate.  Per group, the row with the lowest
    bound is priced exactly at its first coarse candidate, min(``first``,
    cap); call that total U.  Every candidate of a row whose bound exceeds U
    costs more than U, which is at least the group's minimum, so the row can
    neither be the group's first minimum nor tie with it.  The slack
    1e-9*|U| on U absorbs the rounding of bound and totals: they add the
    same terms in different orders, and with the model's nonnegative cost
    rates each sum is within a few ulps of exact.  A NaN bound or U keeps the
    row.
    """
    bounds = sweep.lower_bounds(np.maximum(1.0, f_min - _FLOOR_SLACK), cap)
    order = np.lexsort((bounds, groups))
    lowest = order[np.r_[True, np.diff(groups[order]) != 0]]
    upper = sweep.subset(lowest).totals(np.minimum(first[lowest], cap)[:, None])[:, 0]
    limit = np.empty(groups.max() + 1)
    limit[groups[lowest]] = upper + 1e-9 * np.abs(upper)
    return ~(bounds > limit[groups])


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
    search = None
    if cost_fn is not None:
        def search(rows: np.ndarray):
            costs = [[np.nan if np.isnan(f) else cost_fn(float(f)) for f in row] for row in rows]
            return _scan_rows(rows, np.array(costs, dtype=float))

    f, cost = _frequency_optima(scenario, policy, q0, np.array([auto_share]), search)
    if np.isinf(cost[0]):
        raise InfeasibleError("every candidate evaluated non-finite")
    return float(f[0]), float(cost[0])


def _best_split_at_fixed_f(
    scenario: Scenario, policy: Policy, q0: float, frequency: float
) -> float:
    """Cheapest auto share on the split lattice at a frequency the caller
    pins.

    Only shares whose bus demand fits the pinned frequency are admissible;
    R = 1 always is.  Ties prefer the larger auto share.

    :raises InfeasibleError: when no admissible share prices to a finite cost.
    """
    _candidates(frequency)  # before the floor filter, which a NaN would empty
    shares = 1.0 - _split_lattice(scenario.solver)  # descending from R = 1
    shares = shares[min_frequency(scenario, q0, shares) <= frequency + _FLOOR_SLACK]
    totals = FrequencySweep(scenario, policy, q0, shares).totals([frequency])[:, 0]
    share, cost = _scan_rows(shares[None, :], totals[None, :])
    if np.isinf(cost[0]):
        raise _no_finite_split(q0)
    return float(share[0])


def _no_finite_split(q0: float) -> InfeasibleError:
    return InfeasibleError(f"no feasible mode split at q0={q0:g}: no split priced to a finite cost")


def foc_residual(
    scenario: Scenario, policy: Policy, q0: float, auto_share: float, frequency: float,
    step: float = 0.01,
) -> float:
    """Central finite difference of total cost in frequency, $/(bus/hr)."""
    if frequency - step <= 0:
        raise ValidationError(f"frequency must exceed the step {step}, got {frequency}")
    points = [q0] * 2, [auto_share] * 2, [frequency + step, frequency - step]
    up, down = cost_breakdowns(scenario, policy, *points)
    return (up.total - down.total) / (2.0 * step)


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
    return float(_equilibrium_gaps(scenario, policy, [q0], [auto_share], [frequency], signed)[0])


def _split_lattice(solver, centers=None) -> np.ndarray:
    """Bus-share lattice on [0, 1]; with ``centers``, one NaN-padded refined
    window around each center."""
    if centers is None:
        n = int(round(1.0 / solver.r_step))
        return np.minimum(np.arange(n + 1) * solver.r_step, 1.0)
    step = solver.r_step / solver.r_refine_factor
    return _refine_candidates(centers, 0.0, 1.0, step, half_width=solver.r_step)


def _split_minima(scenario: Scenario, policy: Policy, q0s: np.ndarray, bus_shares: np.ndarray):
    """Per density, (cost, bus share, frequency) of the cheapest share in its
    NaN-padded row of ``bus_shares``, the first on ties; None when no share is
    feasible.  Every real (density, share) pair is one row of one search."""
    real = ~np.isnan(bus_shares)
    f_star, cost = np.full(real.shape, np.nan), np.full(real.shape, np.inf)
    groups = np.repeat(np.arange(q0s.size), real.sum(axis=1))
    f_star[real], cost[real] = _frequency_optima(
        scenario, policy, q0s[groups], 1.0 - bus_shares[real], groups=groups
    )
    best = np.arange(real.shape[0]), np.argmin(cost, axis=1)
    return [
        None if np.isinf(c) else (float(c), float(share), float(f))
        for c, share, f in zip(cost[best], bus_shares[best], f_star[best])
    ]


def _best_split_cost_min(scenario: Scenario, policy: Policy, q0s: np.ndarray) -> list:
    """Cost-minimizing (cost, bus share, frequency) at each density of a block,
    or the :class:`InfeasibleError` of a density with no feasible split.

    One search over every density's coarse split lattice, then one over every
    feasible density's refined window; ties go to the smallest bus share.
    """
    solver = scenario.solver
    lattice = _split_lattice(solver)
    coarse = _split_minima(scenario, policy, q0s, np.tile(lattice, (q0s.size, 1)))
    out = [
        best if best is not None else _no_finite_split(q0)
        for q0, best in zip(q0s, coarse)
    ]
    solved = [i for i, best in enumerate(coarse) if best is not None]
    if solved:
        windows = _split_lattice(solver, centers=np.array([coarse[i][1] for i in solved]))
        for i, refined in zip(solved, _split_minima(scenario, policy, q0s[solved], windows)):
            if refined is not None and refined[:2] < coarse[i][:2]:
                out[i] = refined
    return out


def _signed_gaps(scenario: Scenario, policy: Policy, q0: float, auto_shares: np.ndarray):
    """Signed :func:`equilibrium_gap` at each interior share's optimal
    frequency, NaN where the share is infeasible: one
    :func:`_frequency_optima` call, then one stacked pricing of the gaps."""
    f_star, cost = _frequency_optima(scenario, policy, q0, auto_shares)
    gaps, ok = np.full(auto_shares.shape, np.nan), np.isfinite(cost)
    gaps[ok] = _equilibrium_gaps(scenario, policy, q0, auto_shares[ok], f_star[ok], signed=True)
    return gaps


def _best_split_equilibrium(scenario: Scenario, policy: Policy, q0: float):
    """Mode split where auto and bus disutilities balance, frequency re-optimized."""
    solver = scenario.solver
    # the service-capacity floor makes low auto shares infeasible; the
    # feasible region is an upper interval of R, so consecutive feasible
    # samples still bracket any interior root
    lattice = np.arange(solver.r_step, 1.0 - solver.r_step + 1e-12, solver.r_step)
    gaps = _signed_gaps(scenario, policy, q0, lattice)
    feasible = ~np.isnan(gaps)
    if not feasible.any():
        raise InfeasibleError(
            f"no feasible interior mode split at q0={q0:g} for the equilibrium rule"
        )
    samples = [float(r) for r in lattice[feasible]]
    values = [float(gap) for gap in gaps[feasible]]
    root = None
    for i in range(len(samples) - 1):
        if values[i] == 0.0:
            root = samples[i]
            break
        if values[i] * values[i + 1] < 0:
            try:
                root = find_root(
                    lambda shares: _signed_gaps(scenario, policy, q0, shares),
                    samples[i],
                    samples[i + 1],
                    tol=solver.r_step / solver.r_refine_factor,
                )
            except NumericDomainError as exc:
                # a visited share without an optimal frequency: raise its error
                optimize_frequency(scenario, policy, q0, exc.x)
                raise
            break
    if root is None:
        # no interior equilibrium: take the sampled split with the smallest |gap|
        k = int(np.argmin(np.abs(values)))
        root = samples[k]
    f_star, cost = optimize_frequency(scenario, policy, q0, root)
    return cost, 1.0 - root, f_star


# Lattice cells (density x coarse share x integer frequency) per cost-min
# search block, to bound the search's temporaries: nine densities on the
# default 101-share, 120-bus/hr lattice.  Only shares that can win build a
# frequency lattice, so most of a block's temporaries are its refined
# windows' lattices and its shares' bound terms.  On the `schedule` benchmark
# this size keeps peak RSS at the unpruned 3-density search's; each further
# 40,000 cells added about 0.6 MiB.
_CELL_BLOCK = 120_000

_CacheInfo = namedtuple("CacheInfo", ["hits", "misses", "maxsize", "currsize"])


class _BatchMemo:
    """Bounded LRU memo of per-density results for a batch solver.

    Calling it with (scenario, policy, densities) looks every density up
    first and hands only the missing ones, once each, to one ``solve`` call.
    Hits and misses count densities, as ``functools.lru_cache`` counts calls.
    A density whose result is an exception is not stored.
    """

    def __init__(self, solve, maxsize: int):
        self._solve = solve
        self._maxsize = maxsize
        self._memo: OrderedDict = OrderedDict()
        self._hits = self._misses = 0

    def __call__(self, scenario: Scenario, policy: Policy, q0s: list[float]) -> list:
        memo = self._memo
        found, missing = {}, []
        for q0 in q0s:
            if q0 in found:
                self._hits += 1
            elif (key := (scenario, policy, q0)) in memo:
                self._hits += 1
                memo.move_to_end(key)
                found[q0] = memo[key]
            else:
                self._misses += 1
                found[q0] = None  # solved below
                missing.append(q0)
        if missing:
            for q0, result in zip(missing, self._solve(scenario, policy, np.array(missing))):
                found[q0] = result
                if not isinstance(result, Exception):
                    memo[(scenario, policy, q0)] = result
                    if len(memo) > self._maxsize:
                        memo.popitem(last=False)
        return [found[q0] for q0 in q0s]

    def cache_info(self) -> _CacheInfo:
        return _CacheInfo(self._hits, self._misses, self._maxsize, len(self._memo))

    def cache_clear(self) -> None:
        self._memo.clear()
        self._hits = self._misses = 0


def _solve_policies(scenario: Scenario, policy: Policy, q0s: np.ndarray) -> list:
    """Each density's :class:`PolicyOptimum`, or the :class:`InfeasibleError`
    that stopped its search.  Cost-min splits are searched in blocks of
    :data:`_CELL_BLOCK` lattice cells; the ``equilibrium`` rule solves each
    positive density on its own.  The winners are priced in one
    :func:`~lanepolicy.costmodel.cost_breakdowns` call."""
    solver = scenario.solver
    splits: list = [None] * q0s.size
    cost_min = []
    for i, q0 in enumerate(q0s):
        if solver.split_rule == "equilibrium" and q0 > 0:
            try:
                splits[i] = _best_split_equilibrium(scenario, policy, float(q0))
            except InfeasibleError as exc:
                splits[i] = exc
        else:
            cost_min.append(i)
    step = max(1, _CELL_BLOCK // (_split_lattice(solver).size * (int(solver.f_cap) + 1)))
    for start in range(0, len(cost_min), step):
        block = cost_min[start : start + step]
        for i, split in zip(block, _best_split_cost_min(scenario, policy, q0s[block])):
            splits[i] = split
    solved = [i for i, split in enumerate(splits) if not isinstance(split, Exception)]
    optima = _optima(scenario, policy, q0s[solved], [splits[i] for i in solved]) if solved else []
    for i, optimum in zip(solved, optima):
        splits[i] = optimum
    return splits


def _optima(scenario: Scenario, policy: Policy, q0s: np.ndarray, splits: list) -> list:
    """The optima at densities ``q0s`` from their (cost, bus share, frequency)
    splits, the winners priced together."""
    _, bus_shares, f_stars = (np.array(column) for column in zip(*splits))
    auto_shares = 1.0 - bus_shares
    f_mins = min_frequency(scenario, q0s, auto_shares)
    for f_star, f_min in zip(f_stars, f_mins):
        if f_star < f_min - _FLOOR_SLACK:
            raise InfeasibleError(
                f"internal error: optimized frequency {f_star} violates the capacity floor {f_min}"
            )
    breakdowns = cost_breakdowns(scenario, policy, q0s, auto_shares, f_stars)
    binding = np.abs(f_stars - f_mins) <= scenario.solver.f_refine_step / 2.0 + _FLOOR_SLACK
    return [
        PolicyOptimum(
            policy=policy,
            q0=float(q0),
            r_star=float(auto_share),
            f_star=float(f_star),
            breakdown=breakdown,
            constraint_binding=bool(bound),
        )
        for q0, auto_share, f_star, breakdown, bound in zip(
            q0s, auto_shares, f_stars, breakdowns, binding
        )
    ]


# Memoized on (scenario, policy, q0); all three are immutable.
_optimize_policy_cached = _BatchMemo(_solve_policies, maxsize=65536)


def _lookup(scenario: Scenario, policy, q0s) -> list:
    """Each density's optimum from the memo, solving the missing ones in one
    batch; an :class:`InfeasibleError` stands for a density without one."""
    densities, _ = _operating_point(q0s, 1.0)  # any share: the densities alone
    if densities.ndim != 1:
        raise ValidationError(f"q0s must be a 1-D sequence of densities, got {q0s!r}")
    return _optimize_policy_cached(scenario, Policy.parse(policy), densities.tolist())


def optimize_policies(scenario: Scenario, policy: Policy, q0s) -> list[PolicyOptimum]:
    """:func:`optimize_policy` at each density of ``q0s``, in order.

    Densities already in the memo are not solved again; the rest are solved
    together, a block of densities per batched split search.

    :raises InfeasibleError: for the first density in ``q0s`` without an optimum.
    """
    optima = _lookup(scenario, policy, q0s)
    for optimum in optima:
        if isinstance(optimum, InfeasibleError):
            raise optimum
    return optima


def optimize_policy(scenario: Scenario, policy: Policy, q0: float) -> PolicyOptimum:
    """Jointly optimize mode split and frequency; returns the full optimum.

    Outer scan over the mode split (coarse lattice plus one refinement, ties
    to the largest auto share), inner :func:`optimize_frequency` per split.
    Results are memoized on (scenario, policy, q0); all three are immutable.
    This is the one-density case of :func:`optimize_policies`.
    """
    return optimize_policies(scenario, policy, [q0])[0]
