"""Policy-selection analysis over demand density.

Sweeps optimized total cost against demand density for each lane policy,
locates pairwise switching thresholds (the density where two policies' costs
cross), and decomposes a density range into best-policy regions.

Both searches are one: the pointwise winner on a density lattice, ties going
to the policy listed first, with each winner change bisected within its
lattice cell.  The bisection (:func:`~lanepolicy.numeric.find_root`) prices
every density that its next two steps could visit in one memo lookup per
policy, so a 62.5-wide cell at the default 1.0 tolerance takes 3 solver
calls per policy instead of 6.  It makes the one-point bisection's
decisions, so each boundary is that search's bit for bit.  Both walk the
winner changes from the low end as crossings (density, policy below, policy
above): policy_regions builds every region from them; find_threshold stops
at its pair's first one on 33 densities, and bisects no later one.  Two
crossings inside one lattice cell leave the winner at both its ends the
same, so neither search sees them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _files
from .config import Scenario
from .costmodel import POLICY_ORDER, Policy
from .errors import InfeasibleError, NumericDomainError, ValidationError
from .numeric import _as_index, find_root
from .optimizer import PolicyOptimum, _lookup, optimize_policies

__all__ = [
    "CostCurve",
    "ThresholdResult",
    "PolicyRegion",
    "cost_curve",
    "find_threshold",
    "policy_regions",
    "write_curves_csv",
    "CURVE_CSV_COLUMNS",
]

_SCAN_POINTS = 33
# densities per lattice (cost_curve's n_samples, policy_regions' range over
# resolution): every one is an optimum per policy, and the memo keeps 65,536
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
    """lo + resolution*k for each k with that density below hi, then hi.

    With resolution = (hi - lo)/(n - 1) these are np.linspace(lo, hi, n)'s
    densities, bit for bit.  At most :data:`_MAX_SAMPLES` densities.
    """
    n_below = np.ceil((hi - lo) / resolution - 1e-9)
    if not n_below < _MAX_SAMPLES:
        raise ValidationError(
            f"a density lattice holds at most {_MAX_SAMPLES} samples (n_samples, or range / "
            f"resolution); [{lo:g}, {hi:g}] at resolution {resolution:g} gives {n_below + 1:g}"
        )
    n_below = int(n_below)
    return [float(q0) for q0 in np.arange(n_below) * resolution + lo] + [hi]


def cost_curve(
    scenario: Scenario, policy: Policy, q0_range: tuple[float, float], n_samples: int
) -> CostCurve:
    """Optimize one policy at ``n_samples`` evenly spaced densities.

    Densities where the optimization is infeasible are recorded on
    ``failures`` instead of raising.
    """
    policy = Policy.parse(policy)
    lo, hi = _validate_range(*q0_range)
    n = _as_index(n_samples)
    if n is None or n < 2:
        raise ValidationError(f"n_samples must be an integer >= 2, got {n_samples!r}")
    samples: list[tuple[float, PolicyOptimum]] = []
    failures: list[tuple[float, str]] = []
    densities = _lattice(lo, hi, (hi - lo) / (n - 1))
    for q0, optimum in zip(densities, _lookup(scenario, policy, densities)):
        if isinstance(optimum, InfeasibleError):
            failures.append((q0, str(optimum)))
        else:
            samples.append((q0, optimum))
    return CostCurve(policy=policy, samples=tuple(samples), failures=tuple(failures))


def _totals(scenario: Scenario, policy: Policy, q0s) -> list[float]:
    return [opt.breakdown.total for opt in optimize_policies(scenario, policy, q0s)]


def _total(optimum) -> float:
    return np.nan if isinstance(optimum, InfeasibleError) else optimum.breakdown.total


def _boundary(
    scenario: Scenario, below: Policy, above: Policy, q0_lo: float, q0_hi: float
) -> float:
    """Where ``below``'s total, no dearer at ``q0_lo``, stops being cheaper
    than ``above``'s, dearer or tied at ``q0_hi``: bisected to the threshold
    tolerance, each :func:`find_root` call priced by one memo lookup per
    policy."""

    def gap(q0s: np.ndarray) -> list[float]:
        columns = zip(_lookup(scenario, below, q0s), _lookup(scenario, above, q0s))
        return [_total(b) - _total(a) for b, a in columns]

    try:
        return find_root(gap, q0_lo, q0_hi, tol=scenario.solver.threshold_tol)
    except NumericDomainError as exc:
        # a visited density without an optimum: raise its InfeasibleError
        optimize_policies(scenario, below, [exc.x])
        optimize_policies(scenario, above, [exc.x])
        raise


def _winners(scenario: Scenario, lattice: list[float], policies: tuple[Policy, ...]) -> list:
    """The cheapest policy at each density of ``lattice``, ties going to the
    policy listed first."""
    totals = [_totals(scenario, p, lattice) for p in policies]
    return [policies[min((t, k) for k, t in enumerate(column))[1]] for column in zip(*totals)]


def _crossings(scenario: Scenario, lattice: list[float], winners: list):
    """Yield each winner change over ``lattice`` from its low end as (density,
    policy below, policy above), the density bisected within its cell.

    Lazy: a caller that stops early bisects no later crossing.
    """
    for i in range(1, len(lattice)):
        below, above = winners[i - 1], winners[i]
        if below != above:
            # below is no dearer at lattice[i - 1], above at lattice[i]: a bracket.
            yield _boundary(scenario, below, above, lattice[i - 1], lattice[i]), below, above


def find_threshold(
    scenario: Scenario, p1: Policy, p2: Policy, q0_lo: float, q0_hi: float
) -> ThresholdResult:
    """Density where the optimized totals of two policies cross.

    The first crossing of the pair's winners on 33 evenly spaced densities,
    ties going to ``p1``, bisected to the solver's threshold tolerance with
    two bisection levels priced per solver call and policy.
    Without one the uniformly cheaper policy fills both sides and q0_star
    is None.  At an exact tie the pair's order still matters: with zero
    lane costs EBLP and HOVLP tie in the all-bus regime at 200, so
    (EBLP, HOVLP) on [200, 1000] reports the crossing near 569 but
    (HOVLP, EBLP) reports the tie point 200, HOVLP cheaper below.
    """
    p1, p2 = Policy.parse(p1), Policy.parse(p2)
    lo, hi = _validate_range(q0_lo, q0_hi)
    if p1 == p2:
        return ThresholdResult(pair=(p1, p2), q0_star=None, cheaper_below=p1, cheaper_above=p1)
    lattice = _lattice(lo, hi, (hi - lo) / (_SCAN_POINTS - 1))
    winners = _winners(scenario, lattice, (p1, p2))
    uniform = None, winners[0], winners[0]  # no crossing: one policy is cheaper throughout
    q0_star, below, above = next(_crossings(scenario, lattice, winners), uniform)
    return ThresholdResult(pair=(p1, p2), q0_star=q0_star, cheaper_below=below, cheaper_above=above)


def policy_regions(
    scenario: Scenario,
    q0_range: tuple[float, float],
    resolution: float,
    policies: tuple[Policy, ...] = POLICY_ORDER,
) -> list[PolicyRegion]:
    """Decompose a density range into maximal best-policy intervals.

    Pointwise winners on the lattice lo + resolution*k below hi, then hi
    (cost_curve's densities when resolution = (hi-lo)/(n-1)), ties going to
    the policy listed first; each boundary is bisected to the threshold
    tolerance within its lattice cell, two bisection levels per solver call
    and policy.

    :raises InfeasibleError: when a lattice density, or a density that a
        bisection visits, has no optimum for one of the policies.
    """
    lo, hi = _validate_range(*q0_range)
    if resolution <= 0 or not np.isfinite(resolution):
        raise ValidationError(f"resolution must be positive, got {resolution}")
    if not policies:
        raise ValidationError("policies must be non-empty")
    lattice = _lattice(lo, hi, resolution)
    winners = _winners(scenario, lattice, tuple(Policy.parse(p) for p in policies))
    crossings = list(_crossings(scenario, lattice, winners))
    bounds = [lattice[0], *(q0 for q0, _, _ in crossings), lattice[-1]]
    owners = [winners[0], *(above for _, _, above in crossings)]
    return [PolicyRegion(*region) for region in zip(bounds, bounds[1:], owners)]


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
