"""Policy-selection analysis over demand density.

Sweeps optimized total cost against demand density for each lane policy,
locates pairwise switching thresholds (the density where two policies' costs
cross), and decomposes a density range into best-policy regions.

Both searches are one: the pointwise winner on a density lattice, ties going
to the policy listed first, with each winner change bisected within its
lattice cell.  policy_regions bisects every change on its lattice;
find_threshold only its pair's first on 33 densities; regions_and_thresholds
does both for every pair of the policies, with the same results.  A
search's lattices are solved first, one memo lookup per policy over the
lattices of the scans it is in (:func:`_prefetch`); `lanepolicy sweep` puts
its cost curves' densities, which are the regions' lattice, in the same
lookup.  Then a search's cells are bisected in lock-step
(:func:`~lanepolicy.numeric.find_roots`): each round prices every density
that each open cell's next two steps could visit, in one memo lookup per
policy over the cells it is a side of.  So a 62.5-wide cell at the default
1.0 tolerance takes 3 rounds, and a `sweep` of the occupancy-skewed
scenario on [185, 2181] at 11 samples solves its curves and scans in 3
solver calls and bisects its one region boundary and two threshold
crossings in 11 more over 4 rounds, where solving the curves apart took 3
more calls and bisecting one crossing at a time took 20.  Each walk makes the
one-point bisection's decisions, so each boundary is that search's bit for
bit.  Two crossings inside one lattice cell leave the winner at both its
ends the same, so no search sees them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _files, numeric
from .config import Scenario
from .costmodel import POLICY_ORDER, Policy
from .errors import InfeasibleError, NumericDomainError, ValidationError
from .numeric import _as_index, _lattice_steps, find_roots
from .optimizer import _MEMO_SIZE, PolicyOptimum, _lookup, optimize_policies

__all__ = [
    "CostCurve",
    "ThresholdResult",
    "PolicyRegion",
    "cost_curve",
    "find_threshold",
    "policy_regions",
    "regions_and_thresholds",
    "write_curves_csv",
    "CURVE_CSV_COLUMNS",
]

_SCAN_POINTS = 33
_PAIRS = list(itertools.combinations(POLICY_ORDER, 2))  # regions_and_thresholds' pairs
# densities per lattice (cost_curve's n_samples, policy_regions' range over
# resolution): every one is an optimum per policy, and the memo keeps _MEMO_SIZE
_MAX_SAMPLES = 100_000


@dataclass(frozen=True)
class CostCurve:
    """Optimized operating points for one policy over increasing density."""

    policy: Policy
    samples: tuple[tuple[float, PolicyOptimum], ...]
    failures: tuple[tuple[float, str], ...] = ()  # (q0, reason) for skipped samples

    def totals(self) -> np.ndarray:
        return np.array([opt.breakdown.total for _, opt in self.samples])

    def densities(self) -> np.ndarray:
        return np.array([q0 for q0, _ in self.samples])


@dataclass(frozen=True)
class ThresholdResult:
    """Switching density for a policy pair, or the uniform winner if none."""

    pair: tuple[Policy, Policy]
    q0_star: float | None
    cheaper_below: Policy
    cheaper_above: Policy


@dataclass(frozen=True)
class PolicyRegion:
    """Maximal density interval on which one policy has the lowest total cost."""

    q0_lo: float
    q0_hi: float
    policy: Policy


def _validate_range(q0_lo: float, q0_hi: float) -> tuple[float, float]:
    lo, hi = float(q0_lo), float(q0_hi)
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValidationError(f"demand range must be finite, got [{q0_lo}, {q0_hi}]")
    if lo < 0:
        raise ValidationError(f"demand range must be non-negative, got lower end {q0_lo}")
    if not lo < hi:
        raise ValidationError(f"demand range must satisfy lo < hi, got [{q0_lo}, {q0_hi}]")
    return lo, hi


def _lattice(lo: float, hi: float, resolution: float) -> list[float]:
    """The densities of :func:`~lanepolicy.numeric._lattice` on [lo, hi] at
    ``resolution``: lo + resolution*k for each k with that density more than
    1e-9 steps below hi, then hi.

    With resolution = (hi - lo)/(n - 1) these are np.linspace(lo, hi, n)'s
    densities, bit for bit.  At most :data:`_MAX_SAMPLES` densities.
    """
    n_below = _lattice_steps(lo, hi, resolution)
    if not n_below < _MAX_SAMPLES:
        raise ValidationError(
            f"a density lattice holds at most {_MAX_SAMPLES} samples (n_samples, or range / "
            f"resolution); [{lo:g}, {hi:g}] at resolution {resolution:g} gives {n_below + 1:g}"
        )
    return numeric._lattice(lo, hi, resolution).tolist()


def cost_curve(
    scenario: Scenario, policy: Policy, q0_range: tuple[float, float], n_samples: int
) -> CostCurve:
    """Optimize one policy at ``n_samples`` evenly spaced densities.

    Densities where the optimization is infeasible are recorded on
    ``failures`` instead of raising.
    """
    policy = Policy.parse(policy)
    samples: list[tuple[float, PolicyOptimum]] = []
    failures: list[tuple[float, str]] = []
    densities = _curve_lattice(q0_range, n_samples)
    for q0, optimum in zip(densities, _lookup(scenario, policy, densities)):
        if isinstance(optimum, InfeasibleError):
            failures.append((q0, str(optimum)))
        else:
            samples.append((q0, optimum))
    return CostCurve(policy=policy, samples=tuple(samples), failures=tuple(failures))


def _curve_lattice(q0_range: tuple[float, float], n_samples: int) -> list[float]:
    """:func:`cost_curve`'s densities, once its range and sample count are checked."""
    lo, hi = _validate_range(*q0_range)
    n = _as_index(n_samples)
    if n is None or n < 2:
        raise ValidationError(f"n_samples must be an integer >= 2, got {n_samples!r}")
    return _lattice(lo, hi, (hi - lo) / (n - 1))


def _totals(scenario: Scenario, policy: Policy, q0s) -> list[float]:
    return [opt.breakdown.total for opt in optimize_policies(scenario, policy, q0s)]


def _total(optimum) -> float:
    return np.nan if isinstance(optimum, InfeasibleError) else optimum.breakdown.total


def _boundaries(scenario: Scenario, cells: list) -> list[float]:
    """For each cell (below, above, q0_lo, q0_hi), where ``below``'s total, no
    dearer at q0_lo, stops being cheaper than ``above``'s, dearer or tied at
    q0_hi: every cell bisected to the threshold tolerance in the same
    :func:`find_roots` rounds, each round priced by one memo lookup per
    policy over the midpoints of the open cells it is a side of."""
    policies = list(dict.fromkeys(p for below, above, _, _ in cells for p in (below, above)))

    def gaps(q0s: np.ndarray, owners: np.ndarray) -> list[float]:
        points = list(zip(q0s.tolist(), (cells[k] for k in owners.tolist())))
        totals = {}
        for policy in policies:
            mine = [q0 for q0, cell in points if policy in cell[:2]]
            if mine:
                totals[policy] = dict(zip(mine, map(_total, _lookup(scenario, policy, mine))))
        return [totals[below][q0] - totals[above][q0] for q0, (below, above, _, _) in points]

    try:
        return find_roots(gaps, [cell[2:] for cell in cells], tol=scenario.solver.threshold_tol)
    except NumericDomainError as exc:
        # a visited density without an optimum: raise its InfeasibleError
        below, above, _, _ = cells[exc.bracket]
        optimize_policies(scenario, below, [exc.x])
        optimize_policies(scenario, above, [exc.x])
        raise


def _winners(scenario: Scenario, lattice: list[float], policies: tuple[Policy, ...]) -> list:
    """The cheapest policy at each density of ``lattice``, ties going to the
    policy listed first."""
    totals = [_totals(scenario, p, lattice) for p in policies]
    return [policies[min((t, k) for k, t in enumerate(column))[1]] for column in zip(*totals)]


class _Scan(NamedTuple):
    """Pointwise winners among ``policies`` on ``lattice``, ties going to
    the policy listed first; with ``first_only`` only the first winner
    change is bisected."""

    lattice: list[float]
    policies: tuple[Policy, ...]
    first_only: bool


def _prefetch(scenario: Scenario, scans: list[_Scan]) -> None:
    """Solve every scan's lattice with one memo lookup per policy, over the
    lattices of the scans it is in.  A density without an optimum is only
    looked up: the scans raise its error in their own order.  Densities
    that the memo cannot hold all at once are left to the scans, which
    would solve the evicted ones again."""
    wanted: dict[Policy, dict[float, None]] = {}
    for scan in scans:
        for policy in scan.policies:
            wanted.setdefault(policy, {}).update(dict.fromkeys(scan.lattice))
    if sum(map(len, wanted.values())) <= _MEMO_SIZE:
        for policy, densities in wanted.items():
            _lookup(scenario, policy, list(densities))


def _switches(scenario: Scenario, scans: list[_Scan]) -> list:
    """For each scan, its winner at the low end and its winner changes from
    the low end as crossings (density, policy below, policy above), each
    bisected within its lattice cell.

    Every scan's lattice is solved first (:func:`_prefetch`), and every
    scan's cells are bisected together (:func:`_boundaries`).  The error
    raised is the one that the scans made one after another would raise
    first: a scan's lattice, then its bisections, then the next scan.
    """
    _prefetch(scenario, scans)
    found, pending = [], None
    for lattice, policies, first_only in scans:
        try:
            winners = _winners(scenario, lattice, policies)
        except InfeasibleError as exc:
            pending = exc  # raised once the cells of the scans before it are bisected
            break
        changes = [i for i in range(1, len(lattice)) if winners[i - 1] != winners[i]]
        # below is no dearer at lattice[i - 1], above at lattice[i]: a bracket
        cells = [(winners[i - 1], winners[i], lattice[i - 1], lattice[i]) for i in changes]
        found.append((winners[0], cells[:1] if first_only else cells))
    roots = iter(_boundaries(scenario, [cell for _, cells in found for cell in cells]))
    if pending is not None:
        raise pending
    return [
        (first, [(next(roots), below, above) for below, above, _, _ in cells])
        for first, cells in found
    ]


def _pair_scan(lo: float, hi: float, pair: tuple[Policy, Policy]) -> _Scan:
    return _Scan(_lattice(lo, hi, (hi - lo) / (_SCAN_POINTS - 1)), pair, first_only=True)


def _threshold(pair: tuple[Policy, Policy], first: Policy, crossings: list) -> ThresholdResult:
    # no crossing: one policy is cheaper throughout
    q0_star, below, above = crossings[0] if crossings else (None, first, first)
    return ThresholdResult(pair=pair, q0_star=q0_star, cheaper_below=below, cheaper_above=above)


def find_threshold(
    scenario: Scenario, p1: Policy, p2: Policy, q0_lo: float, q0_hi: float
) -> ThresholdResult:
    """Density where the optimized totals of two policies cross.

    The first crossing of the pair's winners on 33 evenly spaced densities,
    ties going to ``p1``, bisected to the solver's threshold tolerance with
    two bisection levels per round and one solver call per policy and
    round; no later crossing is bisected.
    Without one the uniformly cheaper policy fills both sides and q0_star
    is None.  At an exact tie the pair's order still matters: with zero
    lane costs EBLP and HOVLP tie in the all-bus regime at 200, so
    (EBLP, HOVLP) on [200, 1000] reports the crossing near 569 but
    (HOVLP, EBLP) reports the tie point 200, HOVLP cheaper below.
    """
    pair = Policy.parse(p1), Policy.parse(p2)
    lo, hi = _validate_range(q0_lo, q0_hi)
    if pair[0] == pair[1]:
        return _threshold(pair, pair[0], [])
    ((first, crossings),) = _switches(scenario, [_pair_scan(lo, hi, pair)])
    return _threshold(pair, first, crossings)


def _region_scan(q0_range, resolution: float, policies) -> _Scan:
    lo, hi = _validate_range(*q0_range)
    if resolution <= 0 or not np.isfinite(resolution):
        raise ValidationError(f"resolution must be positive, got {resolution}")
    if not policies:
        raise ValidationError("policies must be non-empty")
    policies = tuple(Policy.parse(p) for p in policies)
    return _Scan(_lattice(lo, hi, resolution), policies, first_only=False)


def _regions(lattice: list[float], first: Policy, crossings: list) -> list[PolicyRegion]:
    bounds = [lattice[0], *(q0 for q0, _, _ in crossings), lattice[-1]]
    owners = [first, *(above for _, _, above in crossings)]
    return [PolicyRegion(*region) for region in zip(bounds, bounds[1:], owners)]


def policy_regions(
    scenario: Scenario,
    q0_range: tuple[float, float],
    resolution: float,
    policies: tuple[Policy, ...] = POLICY_ORDER,
) -> list[PolicyRegion]:
    """Decompose a density range into maximal best-policy intervals.

    Pointwise winners on the lattice lo + resolution*k below hi, then hi
    (cost_curve's densities when resolution = (hi-lo)/(n-1)), ties going to
    the policy listed first; every boundary is bisected to the threshold
    tolerance within its lattice cell, all of them in the same rounds: two
    bisection levels per round, one solver call per policy and round.

    :raises InfeasibleError: when a lattice density, or a density that a
        bisection visits, has no optimum for one of the policies.
    """
    scan = _region_scan(q0_range, resolution, policies)
    ((first, crossings),) = _switches(scenario, [scan])
    return _regions(scan.lattice, first, crossings)


def _sweep_scans(q0_range: tuple[float, float], resolution: float) -> list[_Scan]:
    """:func:`regions_and_thresholds`' scans: the regions' lattice, then each
    pair's 33 densities on its ends, which are the range's."""
    scan = _region_scan(q0_range, resolution, POLICY_ORDER)
    lo, hi = scan.lattice[0], scan.lattice[-1]
    return [scan, *(_pair_scan(lo, hi, pair) for pair in _PAIRS)]


def _prefetch_sweep(scenario: Scenario, q0_range: tuple[float, float], n_samples: int) -> None:
    """Solve every density that each policy's :func:`cost_curve` on
    ``q0_range`` at ``n_samples`` and :func:`regions_and_thresholds` at that
    lattice's resolution scan, one memo lookup per policy.  The curves'
    densities are the regions' lattice, so both then read the memo.
    Checks its arguments as :func:`cost_curve` does, then as
    :func:`regions_and_thresholds` does."""
    _curve_lattice(q0_range, n_samples)
    (lo, hi), n = q0_range, _as_index(n_samples)
    _prefetch(scenario, _sweep_scans(q0_range, (hi - lo) / (n - 1)))


def regions_and_thresholds(
    scenario: Scenario, q0_range: tuple[float, float], resolution: float
) -> tuple[list[PolicyRegion], list[ThresholdResult]]:
    """:func:`policy_regions` and :func:`find_threshold` over ``q0_range`` for
    every pair of :data:`POLICY_ORDER` in listed order, equal to theirs bit
    for bit.

    The regions' boundaries and each pair's first crossing are bisected in
    the same rounds, one solver call per policy and round.  The error raised
    is the one that those calls made one after another would raise first.
    """
    scans = _sweep_scans(q0_range, resolution)
    (first, crossings), *found = _switches(scenario, scans)
    thresholds = [_threshold(pair, *switches) for pair, switches in zip(_PAIRS, found)]
    return _regions(scans[0].lattice, first, crossings), thresholds


CURVE_CSV_COLUMNS = (
    "q0",
    "policy",
    "total",
    "bus_user",
    "bus_operator",
    "auto_user",
    "signal",
    "R_star",
    "F_star",
)


def write_curves_csv(curves, file) -> None:
    """Write one or more cost curves as CSV rows under CURVE_CSV_COLUMNS.

    ``file`` is a path or a text file object; rows are ordered by policy
    then density.
    """
    rows = []
    for curve in curves:
        for q0, opt in curve.samples:
            b = opt.breakdown
            values = (b.total, b.bus_user, b.bus_operator, b.auto_user, b.signal, opt.r_star, opt.f_star)
            rows.append([f"{q0:.6g}", curve.policy.value, *(f"{v:.6f}" for v in values)])
    _files.write_csv(CURVE_CSV_COLUMNS, rows, file)
