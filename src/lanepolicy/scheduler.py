"""Demand-triggered lane-policy switching timetables.

Given a simulated demand trajectory and a set of allowed policies (members of
Policy or their names), each time step is assigned the policy whose optimized
total system cost is lowest at that step's demand density (ties broken by the
fixed order MTP, EBLP, HOVLP).  Runs of identical assignments become
timetable entries; cumulative costs use a left-endpoint rectangle rule
(hourly cost x step length), and Schedule.savings_vs holds the saving against
each policy operated alone over the whole horizon.

Per-step optima are shared within demand-density buckets 1 pax/hr/mi wide:
each allowed policy is optimized once at every distinct bucket, all of them
in one batched call, and the induced cost error is estimated from the local
slope of the sampled cost curves and reported on the step table.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import IO, Iterable, Mapping, Sequence

import numpy as np

from . import _files
from .config import Scenario
from .costmodel import POLICY_ORDER, Policy
from .errors import NumericDomainError, ValidationError
from .optimizer import optimize_policies
from .stochastic import Trajectory, clock_label

SCHEDULE_CSV_COLUMNS = (
    "entry_clock",
    "exit_clock",
    "policy",
    "entry_t_hr",
    "exit_t_hr",
    "duration_min",
)

# Demand buckets are 1 pax/hr/mi wide; per-step optima are shared within a
# bucket because a cold optimum per distinct density is the dominant cost.
_BUCKET_WIDTH = 1.0


@dataclass(frozen=True)
class StepTable:
    """Per-step policy costs and the pointwise-cheapest assignment.

    totals[p][k] is the optimized total system cost ($/hr) of policy p at
    step k's (bucketed) demand density; best[k] is the argmin with ties
    going to the policy listed first in POLICY_ORDER.  quantization_bound
    estimates the worst-case cost error ($/hr) introduced by bucketing.
    """

    t0_clock: float
    dt: float
    q0: np.ndarray
    totals: Mapping[Policy, np.ndarray]
    best: tuple[Policy, ...]
    quantization_bound: float

    @property
    def policies(self) -> tuple[Policy, ...]:
        return tuple(self.totals.keys())

    @property
    def n_steps(self) -> int:
        return len(self.best) - 1


@dataclass(frozen=True)
class ScheduleEntry:
    """One timetable row: operate `policy` from t_entry to t_exit (clock hours)."""

    t_entry: float
    t_exit: float
    policy: Policy

    @property
    def duration_hr(self) -> float:
        return self.t_exit - self.t_entry


@dataclass(frozen=True)
class Schedule:
    """A switching timetable with its cost accounting.

    per_policy_cumulative[p] is the cost of running p alone over the horizon;
    combined_cumulative is the cost under the timetable; savings_vs[p] is the
    fraction (per_policy - combined) / per_policy.
    """

    entries: tuple[ScheduleEntry, ...]
    per_policy_cumulative: Mapping[Policy, float]
    combined_cumulative: float
    savings_vs: Mapping[Policy, float]
    quantization_bound: float = 0.0


def _ordered_allowed(allowed: Iterable[Policy | str]) -> tuple[Policy, ...]:
    allowed_set = {Policy.parse(item) for item in allowed}
    if not allowed_set:
        raise ValidationError("allowed policy set must not be empty")
    return tuple(p for p in POLICY_ORDER if p in allowed_set)


def evaluate_trajectory(
    scenario: Scenario, traj: Trajectory, allowed: Iterable[Policy | str]
) -> StepTable:
    """Optimize each allowed policy at each trajectory step.

    Returns the per-step cost table and pointwise-cheapest policy labels.
    Infeasibility of any policy at any visited demand level propagates.
    """
    order = _ordered_allowed(allowed)
    buckets = np.rint(np.asarray(traj.values, dtype=float) / _BUCKET_WIDTH)
    buckets = np.maximum(buckets * _BUCKET_WIDTH, _BUCKET_WIDTH)
    distinct, step_bucket = np.unique(buckets, return_inverse=True)

    # curve[k, j]: optimized total of order[k] at distinct bucket j.
    curve = np.array(
        [[opt.breakdown.total for opt in optimize_policies(scenario, p, distinct)] for p in order]
    )
    per_step = curve[:, step_bucket]
    per_step.setflags(write=False)
    best = tuple(order[k] for k in np.argmin(per_step, axis=0))

    if len(distinct) > 1:
        slopes = np.abs(np.diff(curve, axis=1)) / np.diff(distinct)
        bound = float(np.max(slopes)) * (_BUCKET_WIDTH / 2.0)
    else:
        bound = 0.0

    return StepTable(
        t0_clock=traj.t0_clock,
        dt=traj.dt,
        q0=np.asarray(traj.values, dtype=float),
        totals=dict(zip(order, per_step)),
        best=best,
        quantization_bound=bound,
    )


def _runs(labels: Sequence[Policy]) -> list[list]:
    """Coalesce step labels into [start, length, policy] runs."""
    runs: list[list] = []
    for k, policy in enumerate(labels):
        if runs and runs[-1][2] is policy:
            runs[-1][1] += 1
        else:
            runs.append([k, 1, policy])
    return runs


def _interval_cost(table: StepTable, policy: Policy, start: int, length: int) -> float:
    return float(np.sum(table.totals[policy][start : start + length])) * table.dt


def _merge_short_runs(
    table: StepTable, labels: list[Policy], min_dwell_minutes: float
) -> list[Policy]:
    """Reassign runs shorter than the dwell floor to their cheaper neighbor."""
    if min_dwell_minutes <= 0.0:
        return labels
    step_minutes = table.dt * 60.0
    while True:
        runs = _runs(labels)
        if len(runs) <= 1:
            return labels
        short = [
            (length, start, i)
            for i, (start, length, _) in enumerate(runs)
            if length * step_minutes < min_dwell_minutes - 1e-9
        ]
        if not short:
            return labels
        _, start, i = min(short)
        length = runs[i][1]
        candidates = []
        if i > 0:
            candidates.append(runs[i - 1][2])
        if i + 1 < len(runs):
            candidates.append(runs[i + 1][2])
        # Lowest recomputed cost over the short run wins; on a tie the left
        # neighbor (listed first) is kept.
        new_policy = min(candidates, key=lambda p: _interval_cost(table, p, start, length))
        labels[start : start + length] = [new_policy] * length


def build_schedule(table: StepTable, min_dwell: float = 0.0) -> Schedule:
    """Fold a step table into a timetable with cumulative cost accounting.

    min_dwell is the shortest admissible entry duration in minutes; shorter
    runs of the pointwise assignment are absorbed by whichever neighboring
    policy costs less over those steps.
    """
    if not min_dwell >= 0.0:  # also rejects NaN
        raise ValidationError("min_dwell must be >= 0 minutes")
    n = table.n_steps
    if n < 1:
        raise ValidationError("step table must span at least one step")

    # Interval k = [t_k, t_{k+1}) is charged at its left-endpoint cost.
    labels = _merge_short_runs(table, list(table.best[:n]), min_dwell)
    runs = _runs(labels)
    entries = tuple(
        ScheduleEntry(
            t_entry=table.t0_clock + start * table.dt,
            t_exit=table.t0_clock + (start + length) * table.dt,
            policy=policy,
        )
        for start, length, policy in runs
    )
    combined = sum(
        _interval_cost(table, policy, start, length)
        for start, length, policy in runs
    )
    per_policy = {
        p: float(np.sum(table.totals[p][:n])) * table.dt for p in table.policies
    }
    return Schedule(
        entries=entries,
        per_policy_cumulative=per_policy,
        combined_cumulative=combined,
        savings_vs=_savings(per_policy, combined),
        quantization_bound=table.quantization_bound,
    )


def _savings(per_policy: Mapping[Policy, float], combined: float) -> dict[Policy, float]:
    report: dict[Policy, float] = {}
    for policy, single in per_policy.items():
        if single <= 0.0:
            raise NumericDomainError(
                f"single-policy cumulative cost for {policy.value} is not positive"
            )
        report[policy] = (single - combined) / single
    return report


def format_timetable(schedule: Schedule) -> str:
    """Render the schedule as an aligned human-readable table with a summary."""
    lines = ["  #  entry  exit   policy  duration_min"]
    for k, entry in enumerate(schedule.entries, start=1):
        lines.append(
            "%3d  %s  %s  %-6s  %12.1f"
            % (
                k,
                clock_label(entry.t_entry),
                clock_label(entry.t_exit),
                entry.policy.name,
                entry.duration_hr * 60.0,
            )
        )
    lines.append("")
    lines.append("combined cumulative cost: $%.2f" % schedule.combined_cumulative)
    for policy in schedule.per_policy_cumulative:
        lines.append(
            "%-6s alone: $%.2f  (saving %.1f%%)"
            % (
                policy.name,
                schedule.per_policy_cumulative[policy],
                schedule.savings_vs[policy] * 100.0,
            )
        )
    return "\n".join(lines)


def schedule_summary(schedule: Schedule) -> dict:
    """JSON-ready summary: entries, cumulative costs, and savings fractions."""
    return {
        "entries": [
            {
                "entry_clock": clock_label(e.t_entry),
                "exit_clock": clock_label(e.t_exit),
                "entry_t_hr": e.t_entry,
                "exit_t_hr": e.t_exit,
                "policy": e.policy.value,
                "duration_min": e.duration_hr * 60.0,
            }
            for e in schedule.entries
        ],
        "combined_cumulative": schedule.combined_cumulative,
        "per_policy_cumulative": {
            p.value: w for p, w in schedule.per_policy_cumulative.items()
        },
        "savings_vs": {p.value: s for p, s in schedule.savings_vs.items()},
        "cost_units": "$ over the horizon",
        "quantization_bound_per_hr": schedule.quantization_bound,
    }


def write_schedule_csv(schedule: Schedule, file: str | os.PathLike | IO[str]) -> None:
    """Write timetable rows as CSV (clock times, policy, duration)."""
    rows = (
        (clock_label(e.t_entry), clock_label(e.t_exit), e.policy.value,
         "%.6f" % e.t_entry, "%.6f" % e.t_exit, "%.1f" % (e.duration_hr * 60.0))
        for e in schedule.entries
    )
    _files.write_csv(SCHEDULE_CSV_COLUMNS, rows, file)


def write_schedule_json(schedule: Schedule, file: str | os.PathLike | IO[str]) -> None:
    """Write the schedule summary as JSON."""
    _files.write_json(schedule_summary(schedule), file)
