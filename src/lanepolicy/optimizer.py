"""Nested optimization of bus frequency and mode split for one policy: it
searches, and :mod:`lanepolicy._fsweep` and :mod:`lanepolicy.costmodel` price.

The inner search over frequency F scans the integer candidates from the
service-capacity floor F >= Q_bus(0)/capacity up to the cap, never above
it, then one refinement window of +-1 around the incumbent at
``solver.f_refine_step``.  The outer search walks the bus share s = 1 - R on
a coarse lattice, which holds both s = 0 and s = 1, and one refined window,
so the deterministic smallest-argument tie-break prefers the largest auto
share, which keeps the degenerate zero-demand case at R = 1.  Every one of
these grids is a row of :func:`~lanepolicy.numeric._lattice`.

The cost-minimizing split is searched for a block of densities at once.
Every density's coarse split lattice is stacked into one set of (q0, R) rows
and priced by one :func:`_frequency_optima` call; every density's refined
window around its coarse winner is priced by one more.  Each call scans
every feasible row up from its floor (:func:`_floor_first_minima`): one
batched :meth:`~lanepolicy._fsweep.FrequencySweep.row_minima` call prices
each row's first :data:`_HEAD` integer candidates,
:meth:`~lanepolicy._fsweep.FrequencySweep.lower_bounds` bounds the rest of
its lattice, and only the rows whose bound does not exceed their head's
minimum have that tail priced; one more call prices every row's refinement
window (NaN-padded).  Each prices signal delay only where its F = 0 lower
bound cannot prune.  Before the coarse pass, each density's shares are
bounded below over their whole frequency range in two stages
(:func:`_winnable`).  Stage 1 bounds every share without signal delay, its
coefficients from one product of the block's density powers with a share
table (:meth:`~lanepolicy._fsweep.FrequencySweep.rough`); the lowest-bound
share is priced at its first candidate.  Stage 2 adds the F = 0 delay to
the shares whose stage-1 bound does not exceed that total, and only the
shares whose bound still does not are searched, their exact share terms
built for them alone.  Every dropped share costs more than a total already
priced for its density, so the coarse first minimum cannot change.  The
refined pass's shares nearly tie, so it searches
them all and leaves the pruning to each row's tail bound.  Rows are priced
elementwise and no bound crosses densities, so an optimum does not depend
on the block it was solved in.  :func:`optimize_frequency` and the
``equilibrium`` rule's scan price each row's whole lattice in one
:meth:`~lanepolicy._fsweep.FrequencySweep.row_minima` call instead: on a
one-row call the head, its bound and the extra calls cost more than the
cells they save.
:func:`optimize_frequency` is the one-share case and :func:`optimize_policy`
the one-density case of :func:`optimize_policies`; ``_best_split_at_fixed_f``
is the split scan at a frequency the caller pins (``lanepolicy cost --F``).  The winning operating
points of a call are then priced from the same moment table, by one
:meth:`~lanepolicy._fsweep.FrequencySweep.breakdowns` call that sums each
cost component on its own; it works cell by cell, so an optimum's breakdown
does not depend on the batch either.  :func:`foc_residual` prices its two
frequencies through :func:`~lanepolicy.costmodel.cost_breakdowns`, which
reads the same table.

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
from .costmodel import CostBreakdown, Policy, _equilibrium_gaps, _require_scalars, cost_breakdowns
from .demand import _operating_point
from .errors import InfeasibleError, NumericDomainError, ValidationError
from .numeric import _lattice, _overflow_unwarned, find_root

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


def _frequency_optima(scenario: Scenario, policy: Policy, q0, auto_shares, groups=None,
                      floor_first=False):
    """:func:`optimize_frequency` for an array of shares in two batched passes.

    ``q0`` is one density or an array with one density per share.  Each pass
    prices NaN-padded (n_shares, n_F) candidate rows by
    :meth:`FrequencySweep.row_minima` over the feasible shares.  The first
    prices each share's integer candidates, ``_lattice(first, max(first,
    floor(cap)), 1)`` for its first candidate ``first``, clipped at the cap:
    never above the cap, and the cap alone where no integer fits between
    the floor and the cap.  The second prices one refinement window around
    its minimum, its ends clipped to [max(1, F_min), cap].  ``floor_first``
    scans the integer candidates up from the floor and bounds the rest
    (:func:`_floor_first_minima`) instead of pricing all of them; the first
    minima are the same.  ``groups`` labels each share with the density
    whose cheapest share is sought; a share that cannot be it is then not
    searched (see :func:`_winnable`).  Returns each share's best frequency
    and cost; the cost is inf for a share whose floor exceeds the cap, whose
    candidates all evaluated non-finite, or that was not searched.
    """
    solver = scenario.solver
    cap = solver.f_cap
    f_min = min_frequency(scenario, q0, auto_shares)
    ok = f_min <= cap
    best_f, best_cost = np.full(f_min.shape, np.nan), np.full(f_min.shape, np.inf)
    if not ok.any():
        return best_f, best_cost
    # each share's first integer candidate, or the cap where that is above it
    first = np.minimum(np.maximum(1.0, np.ceil(f_min - _FLOOR_SLACK)), cap)
    sweep = FrequencySweep(scenario, policy, np.full(ok.shape, q0)[ok], auto_shares[ok])
    if groups is not None:
        keep = _winnable(sweep, groups[ok], f_min[ok], first[ok], cap)
        ok[ok] = keep
        sweep = sweep.subset(keep)
    f_min, first = f_min[ok], first[ok]
    last = np.maximum(first, np.floor(cap))
    if floor_first:
        f1, c1 = _floor_first_minima(sweep, first, last)
    else:
        f1, c1 = sweep.row_minima(_lattice(first, last, 1.0))

    center = np.where(np.isfinite(c1), f1, np.nan)
    window = _lattice(np.maximum(np.maximum(1.0, f_min), center - 1.0),
                      np.minimum(cap, center + 1.0), solver.f_refine_step)
    if window.shape[1]:
        f2, c2 = sweep.row_minima(window)
        searched = ~np.isnan(window).all(axis=1)
        better = searched & ((c2 < c1) | ((c2 == c1) & (f2 < f1)))
        f1 = np.where(better, f2, f1)
        # a window that evaluated nothing finite makes the share infeasible
        c1 = np.where(better | (searched & np.isinf(c2)), c2, c1)
    best_f[ok], best_cost[ok] = f1, c1
    return best_f, best_cost


# Integer candidates priced per row before its tail is bounded.  The floor
# decides F* at nearly every optimum, so the head's minimum almost always
# certifies the row: with 8, no tail needed pricing among 20,246 bounded rows
# on the `schedule` benchmark (seeds 0-4) and 9,429 on `sweep` (seeds 0-2);
# with 4, 31 and 1,202 rows did.
_HEAD = 8


def _floor_first_minima(sweep: FrequencySweep, first, last):
    """Each row's first minimum over its integer candidates ``_lattice(first,
    last, 1)``, most of them bounded instead of priced.

    Each row's head, its first :data:`_HEAD` candidates, is priced.  Its
    tail, the candidates from first + _HEAD to ``last``, is bounded by
    :meth:`FrequencySweep.lower_bounds` and priced only where that bound
    does not exceed the head's minimum (:func:`_exceeds`; a NaN bound or an
    inf minimum prices it).  A tail point wins only when strictly cheaper.
    Every cell is priced elementwise to the float that one
    :meth:`FrequencySweep.row_minima` call over the whole rows gives it, and
    an unpriced tail holds no point that can tie the head's minimum, so
    every first minimum is that whole-row scan's.
    """
    f, cost = sweep.row_minima(_lattice(first, np.minimum(first + _HEAD - 1, last), 1.0))
    tailed = first + _HEAD <= last
    if not tailed.any():
        return f, cost
    bounds = sweep.lower_bounds(np.minimum(first + _HEAD, last), last)
    tail = np.flatnonzero(tailed & ~_exceeds(bounds, cost))
    if tail.size:
        rows = _lattice(first[tail] + _HEAD, last[tail], 1.0)
        f_tail, c_tail = sweep.subset(tail).row_minima(rows)
        wins = c_tail < cost[tail]
        f[tail[wins]], cost[tail[wins]] = f_tail[wins], c_tail[wins]
    return f, cost


def _exceeds(bounds, cost):
    """Where a lower bound proves every cost it bounds dearer than ``cost``.
    The slack 1e-9*|cost| absorbs the rounding of bound and totals: they add
    the same terms in different orders, and with the model's nonnegative cost
    rates each sum is within a few ulps of exact.  False where either is NaN."""
    return bounds > cost + 1e-9 * np.abs(cost)


def _winnable(sweep: FrequencySweep, groups, f_min, first, cap) -> np.ndarray:
    """Which rows of ``sweep`` can hold their group's cheapest optimum; the
    coarse split pass searches only those, and builds exact share terms for
    no other row.

    A row's bound covers [max(1, f_min - s), cap] for the floor slack s,
    which holds every integer candidate (the first, ``first`` =
    min(max(1, ceil(f_min - s)), cap), may sit s below f_min) and every
    refinement candidate.  Both stages read
    :meth:`FrequencySweep.lower_bounds`.  Stage 1 bounds every row from
    ``sweep.rough()``: coefficients from the share table, no signal delay.
    Per group, the row with the lowest stage-1 bound is priced exactly at
    its first candidate ``first``; call that total U.  Stage 2 adds the F = 0
    delay column, which no delay at a higher F undercuts, to the rows that
    stage 1 keeps, and tests them again against U.  Every candidate of a row
    whose bound exceeds U (:func:`_exceeds`) costs more than U, which is at
    least the group's minimum, so the row can neither be the group's first
    minimum nor tie with it.  A NaN bound or U keeps the row, and so does a
    non-finite stage-1 bound: the table's powers of q0 can overflow where a
    row's own a^j b^m do not.
    """
    bounds = sweep.rough().lower_bounds(np.maximum(1.0, f_min - _FLOOR_SLACK), cap)
    order = np.lexsort((bounds, groups))
    lowest = order[np.r_[True, np.diff(groups[order]) != 0]]
    upper = sweep.subset(lowest).totals(first[lowest][:, None])[:, 0]
    limit = np.empty(groups.max() + 1)
    limit[groups[lowest]] = upper
    limit = limit[groups]
    rough = ~np.isfinite(bounds)
    keep = rough | ~_exceeds(bounds, limit)
    delay = sweep.subset(keep)._delay[:, 0]
    keep[keep] = rough[keep] | ~_exceeds(bounds[keep] + delay, limit[keep])
    return keep


def optimize_frequency(
    scenario: Scenario, policy: Policy, q0: float, auto_share: float
) -> tuple[float, float]:
    """Best frequency and its total cost for a fixed mode split.

    Scan of the integer candidates from max(1, ceil(F_min - s)) for the
    floor slack s (``_FLOOR_SLACK``) up to the cap, never above it (the cap
    alone where that first candidate exceeds it), priced whole, then one
    refinement pass at ``solver.f_refine_step`` resolution around the
    incumbent, clipped to the exact feasibility floor and to the cap; both
    passes price the scenario's moment table
    (:meth:`~lanepolicy._fsweep.FrequencySweep.row_minima`).

    :raises InfeasibleError: when the capacity floor exceeds the search cap,
        or when every candidate evaluates non-finite.
    """
    _require_scalars(q0=q0, auto_share=auto_share)
    f_min = min_frequency(scenario, q0, auto_share)
    cap = scenario.solver.f_cap
    if f_min > cap:
        raise InfeasibleError(
            f"service-capacity constraint is infeasible: carrying the bus demand at "
            f"auto share {auto_share:g} needs at least {f_min:.2f} buses/hr, above the "
            f"search cap {cap:g}"
        )
    f, cost = _frequency_optima(scenario, policy, q0, np.array([auto_share]))
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
    """Central finite difference of total cost in frequency, $/(bus/hr), over
    the spread between the two frequencies as rounded."""
    if not 0 < step < np.inf:
        raise ValidationError(f"step must be finite and > 0, got {step}")
    if frequency - step <= 0:
        raise ValidationError(f"frequency must exceed the step {step}, got {frequency}")
    f_up, f_down = frequency + step, frequency - step
    up, down = cost_breakdowns(scenario, policy, [q0] * 2, [auto_share] * 2, [f_up, f_down])
    if f_up == f_down:  # after the pricing has checked the point
        raise ValidationError(f"step {step} is too small to move frequency {frequency}")
    return (up.total - down.total) / (f_up - f_down)


def equilibrium_gap(
    scenario: Scenario, policy: Policy, q0: float, auto_share: float, frequency: float,
    signed: bool = False,
) -> float | None:
    """Demand-weighted mean auto-minus-bus disutility difference, $ per trip.

    A diagnostic of how far a scalar split is from user equilibrium: zero
    means travelers at every location are indifferent on average.  Returns
    None when either mode carries no demand (the comparison is vacuous);
    the point is checked first, so a bad one raises instead.
    """
    _require_scalars(q0=q0, auto_share=auto_share)
    _operating_point(q0, auto_share)
    if q0 <= 0 or not 0 < auto_share < 1:
        return None
    return float(_equilibrium_gaps(scenario, policy, [q0], [auto_share], [frequency], signed)[0])


def _split_lattice(solver, centers=None) -> np.ndarray:
    """Bus-share lattice on [0, 1], which holds both 0 and 1; with
    ``centers``, one NaN-padded refined window of ``2*r_refine_factor + 1``
    shares at most around each center, its ends clipped to [0, 1]."""
    if centers is None:
        return _lattice(0.0, 1.0, solver.r_step)
    ends = np.maximum(0.0, centers - solver.r_step), np.minimum(1.0, centers + solver.r_step)
    return _lattice(*ends, solver.r_step / solver.r_refine_factor)


def _split_minima(
    scenario: Scenario, policy: Policy, q0s: np.ndarray, bus_shares: np.ndarray, prune: bool
):
    """Per density, the (cost, bus share, frequency) row of the cheapest share in
    its NaN-padded row of ``bus_shares``, the first on ties, cost inf where none
    is feasible: an (n, 3) array.  Every real (density, share) is one search row,
    scanned up from its floor; ``prune`` first drops the rows that cannot win
    (:func:`_winnable`)."""
    real = ~np.isnan(bus_shares)
    f_star, cost = np.full(real.shape, np.nan), np.full(real.shape, np.inf)
    groups = np.repeat(np.arange(q0s.size), real.sum(axis=1))
    f_star[real], cost[real] = _frequency_optima(
        scenario, policy, q0s[groups], 1.0 - bus_shares[real],
        groups=groups if prune else None, floor_first=True,
    )
    best = np.arange(real.shape[0]), np.argmin(cost, axis=1)
    return np.column_stack([cost[best], bus_shares[best], f_star[best]])


def _best_split_cost_min(
    scenario: Scenario, policy: Policy, q0s: np.ndarray, coarse: np.ndarray
) -> np.ndarray:
    """Cost-minimizing (cost, bus share, frequency) row at each density of a
    block, as in :func:`_split_minima`: cost inf where no split is feasible.

    One search over every density's ``coarse`` split lattice, its shares
    pruned by their bounds, then one over every feasible density's refined
    window, whose near-tied shares a bound would rarely drop; a refined row
    wins when it costs less, or as much at a smaller bus share.
    """
    solver = scenario.solver
    lattices = np.tile(coarse, (q0s.size, 1))
    best = _split_minima(scenario, policy, q0s, lattices, prune=True)
    solved = np.isfinite(best[:, 0])
    if solved.any():
        coarse = best[solved]
        windows = _split_lattice(solver, centers=coarse[:, 1])
        refined = _split_minima(scenario, policy, q0s[solved], windows, prune=False)
        (cost, share), (coarse_cost, coarse_share) = refined[:, :2].T, coarse[:, :2].T
        better = (cost < coarse_cost) | ((cost == coarse_cost) & (share < coarse_share))
        best[solved] = np.where(better[:, None], refined, coarse)
    return best


def _signed_gaps(scenario: Scenario, policy: Policy, q0: float, auto_shares: np.ndarray):
    """Signed :func:`equilibrium_gap` at each interior share's optimal
    frequency, NaN where the share is infeasible: one
    :func:`_frequency_optima` call, then one stacked pricing of the gaps."""
    f_star, cost = _frequency_optima(scenario, policy, q0, auto_shares)
    gaps, ok = np.full(auto_shares.shape, np.nan), np.isfinite(cost)
    gaps[ok] = _equilibrium_gaps(scenario, policy, q0, auto_shares[ok], f_star[ok], signed=True)
    return gaps


@_overflow_unwarned  # a product of two gaps overflows to inf, as Python floats do
def _best_split_equilibrium(scenario: Scenario, policy: Policy, q0: float):
    """Mode split where auto and bus disutilities balance, frequency re-optimized."""
    solver = scenario.solver
    # the service-capacity floor makes low auto shares infeasible; the
    # feasible region is an upper interval of R, so consecutive feasible
    # samples still bracket any interior root
    lattice = _lattice(solver.r_step, 1.0 - solver.r_step, solver.r_step)
    gaps = _signed_gaps(scenario, policy, q0, lattice)
    feasible = ~np.isnan(gaps)
    if not feasible.any():
        raise InfeasibleError(
            f"no feasible interior mode split at q0={q0:g} for the equilibrium rule"
        )
    samples, values = lattice[feasible], gaps[feasible]
    # the first sample that is a root or opens a sign change to the next; with
    # none there is no interior equilibrium: take the sample with the smallest |gap|
    found = np.flatnonzero((values[:-1] == 0) | (values[:-1] * values[1:] < 0))
    i = found[0] if found.size else np.argmin(np.abs(values))
    root = float(samples[i])
    if found.size and values[i] != 0:
        try:
            root = find_root(
                lambda shares: _signed_gaps(scenario, policy, q0, shares),
                float(samples[i]),
                float(samples[i + 1]),
                tol=solver.r_step / solver.r_refine_factor,
            )
        except NumericDomainError as exc:
            # a visited share without an optimal frequency: raise its error
            optimize_frequency(scenario, policy, q0, exc.x)
            raise
    f_star, cost = optimize_frequency(scenario, policy, q0, root)
    return cost, 1.0 - root, f_star


# Lattice cells per cost-min search block, to bound the search's
# temporaries.  A density counts its coarse shares times every integer
# frequency, or its refined window's shares times twice the cells each of
# them prices, whichever is more: 19 densities on the default 101-share,
# 121-frequency lattice, where the coarse count decides.  With r_step 0.5
# and r_refine_factor 1000 (3 coarse shares, 2,001 in a window), on 19
# densities over linspace(200, 2200) for MTP: counting the coarse lattice
# alone made 661-density blocks, and one cold 76-density call peaked at 68
# MiB traced; a refined row's whole integer lattice made one-density
# blocks, 2.4 MiB traced; its priced cells once, 4-density blocks at 6.2
# MiB; twice, 2-density blocks at 3.6 MiB, and the cold 76-density call
# fell from 0.40 to 0.34 s.  A default block's peak is the coarse pass's
# stage-1 share bounds (_winnable's lower_bounds over every share's rows x 9
# block ends), not its exact share terms: one cold 19-density HOVLP call on
# the contrast scenario peaks at 0.96 MiB traced whether every share's
# exact terms are built or only the kept ones', and one block of 39
# densities at 1.87 MiB, of 59 at 2.75 MiB.  On the `schedule` benchmark
# this size read 38.6 MiB peak RSS against 9-density blocks' 38.8; 300,000
# cells read 38.75 and were no faster, 360,000 read 38.9.
_CELL_BLOCK = 240_000

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
    that stopped its search.  One (n, 3) array holds every (cost, bus share,
    frequency), cost inf without a split.  Cost-min splits are searched in
    blocks of :data:`_CELL_BLOCK` lattice cells, a density counting its
    coarse lattice or the cells its refined window prices, whichever is more
    (19 densities by default; the coarse pass's stage-1 share bounds set a
    block's peak, 0.96 MiB traced at 19); the ``equilibrium`` rule solves
    each positive density on its own.  The
    winners' components are priced from the moment table in one
    :meth:`~lanepolicy._fsweep.FrequencySweep.breakdowns` call
    (:func:`_optima`)."""
    solver = scenario.solver
    splits, errors = np.full((q0s.size, 3), np.inf), {}
    equilibrium = (q0s > 0) & (solver.split_rule == "equilibrium")
    for i in np.flatnonzero(equilibrium):
        try:
            splits[i] = _best_split_equilibrium(scenario, policy, float(q0s[i]))
        except InfeasibleError as exc:
            errors[i] = exc
    cost_min = np.flatnonzero(~equilibrium)
    coarse = _split_lattice(solver)
    # a coarse row counts its whole integer lattice; a refined row, one of at
    # most 2*r_refine_factor + 1 in a window, counts the cells it prices, its
    # head and its refinement window, twice (see _CELL_BLOCK)
    priced = _HEAD + _lattice(-1.0, 1.0, solver.f_refine_step).size
    refined = 2 * priced * (2 * solver.r_refine_factor + 1)
    cells = max(coarse.size * (int(solver.f_cap) + 1), refined)
    step = max(1, _CELL_BLOCK // cells)
    for start in range(0, cost_min.size, step):
        block = cost_min[start : start + step]
        splits[block] = _best_split_cost_min(scenario, policy, q0s[block], coarse)
    solved = np.isfinite(splits[:, 0])
    optima = iter(_optima(scenario, policy, q0s[solved], splits[solved]) if solved.any() else ())
    return [
        next(optima) if ok else errors[i] if i in errors else _no_finite_split(q0)
        for i, (q0, ok) in enumerate(zip(q0s, solved))
    ]


def _optima(scenario: Scenario, policy: Policy, q0s: np.ndarray, splits: np.ndarray) -> list:
    """The optima at densities ``q0s`` from the bus-share and frequency columns
    of their (cost, bus share, frequency) rows, the winners' components priced
    together from the moment table."""
    auto_shares, f_stars = 1.0 - splits[:, 1], splits[:, 2]
    f_mins = min_frequency(scenario, q0s, auto_shares)
    for f_star, f_min in zip(f_stars, f_mins):
        if f_star < f_min - _FLOOR_SLACK:
            raise InfeasibleError(
                f"internal error: optimized frequency {f_star} violates the capacity floor {f_min}"
            )
    components = FrequencySweep(scenario, policy, q0s, auto_shares).breakdowns(f_stars)
    binding = np.abs(f_stars - f_mins) <= scenario.solver.f_refine_step / 2.0 + _FLOOR_SLACK
    return [
        PolicyOptimum(
            policy=policy,
            q0=float(q0),
            r_star=float(auto_share),
            f_star=float(f_star),
            breakdown=CostBreakdown(*row),
            constraint_binding=bool(bound),
        )
        for q0, auto_share, f_star, row, bound in zip(
            q0s, auto_shares, f_stars, components, binding
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
