"""Seeded mean-reverting simulation of CBD demand density.

Demand density q0 evolves as a discretized mean-reverting diffusion.  Over a
step of length dt the update is

    q(t + dt) = q(t) * exp(-theta * dt + volatility * dW) + drift_gain * (1 - exp(-theta * dt))

with theta = mean_reversion + volatility**2 / 2, drift_gain =
mean_reversion * long_run_level / theta, and dW a fresh N(0, dt) draw.  With
zero volatility the path relaxes exponentially toward long_run_level; with
mean_reversion = volatility = 0 it is constant.

Reproducibility contract: a trajectory with integer seed s >= 0 consumes
exactly n_steps standard normal variates, in step order, from
``numpy.random.Generator(numpy.random.Philox(key=s))``.  Ensembles use keys
base_seed, base_seed + 1, ...  Same seed and parameters give bitwise-identical
values.

A trajectory file is one CSV (clock_time, t_hours, q0) whose first clock_time
is the start of day as HH:MM, and whose every later label is that start plus
the sample's elapsed time, to the minute; ``lanepolicy simulate`` writes an
ensemble as one such file per seed in its run directory.

The default experiment parameters (rate 1.5/hr, level 1500 pax/hr/mi,
volatility 0.3, initial 1000, horizon 12 hr from 07:00, 1-minute steps) are
synthetic placeholders, not calibrated values; outputs label them as such.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import asdict, dataclass
from typing import IO

import numpy as np

from . import _files
from .errors import ValidationError
from .numeric import _as_index

DEFAULT_HORIZON_HR = 12.0
DEFAULT_DT_HR = 1.0 / 60.0
DEFAULT_CLOCK_START_HR = 7.0

# Demand densities below this floor (pax/hr/mi) make downstream cost
# evaluation degenerate; simulated values are clamped here and the
# clamp events counted.
DEMAND_FLOOR = 1.0

TRAJECTORY_CSV_COLUMNS = ("clock_time", "t_hours", "q0")

# Steps per trajectory: about 694 days of one-minute steps.  A schedule
# optimizes every step's density, so this also bounds its work.
_MAX_STEPS = 1_000_000


@dataclass(frozen=True)
class OUParams:
    """Mean-reverting demand process parameters.

    mean_reversion: pull rate toward the long-run level (1/hr).
    long_run_level: stationary demand level (pax/hr/mi).
    volatility: multiplicative noise intensity (1/sqrt(hr)).
    q0_init: demand density at the start of the horizon (pax/hr/mi).
    """

    mean_reversion: float = 1.5
    long_run_level: float = 1500.0
    volatility: float = 0.3
    q0_init: float = 1000.0

    def __post_init__(self) -> None:
        for name, value in asdict(self).items():
            if not math.isfinite(value):
                raise ValidationError(f"{name} must be finite, got {value}")
        if self.mean_reversion < 0.0:
            raise ValidationError("mean_reversion must be >= 0")
        if self.volatility < 0.0:
            raise ValidationError("volatility must be >= 0")
        if self.long_run_level <= 0.0:
            raise ValidationError("long_run_level must be > 0")
        if self.q0_init <= 0.0:
            raise ValidationError("q0_init must be > 0")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """One simulated demand-density path.

    values[k] is the density at t = k * dt hours after t0_clock.
    floor_events counts samples clamped up to DEMAND_FLOOR.
    """

    t0_clock: float
    dt: float
    values: np.ndarray
    seed: int
    floor_events: int = 0

    @property
    def n_steps(self) -> int:
        return len(self.values) - 1

    @property
    def horizon(self) -> float:
        return self.n_steps * self.dt

    @property
    def t_hours(self) -> np.ndarray:
        return np.arange(len(self.values)) * self.dt

    def clock_labels(self) -> list[str]:
        return [clock_label(self.t0_clock + t) for t in self.t_hours]


def clock_label(hours: float) -> str:
    """Render a time-of-day in hours as HH:MM, wrapping at midnight."""
    minutes = int(round(hours * 60.0))
    return "%02d:%02d" % ((minutes // 60) % 24, minutes % 60)


def _step_count(horizon: float, dt: float) -> int:
    if not (math.isfinite(horizon) and math.isfinite(dt)):
        raise ValidationError(f"horizon and dt must be finite, got {horizon} and {dt}")
    if dt <= 0.0:
        raise ValidationError("dt must be > 0")
    if horizon <= 0.0:
        raise ValidationError("horizon must be > 0")
    if dt > horizon * (1.0 + 1e-12):
        raise ValidationError("dt must not exceed the horizon")
    # Tolerate horizons that are integer multiples of dt up to roundoff.
    steps = horizon / dt + 1e-9
    if not steps < _MAX_STEPS + 1:
        raise ValidationError(
            f"horizon / dt must give at most {_MAX_STEPS} steps, got {steps:.6g} "
            f"(horizon {horizon:g}, dt {dt:g})"
        )
    return math.floor(steps)


def _check_seed(seed) -> int:
    """``seed`` as a Python int: a non-negative Python or NumPy integer, not a bool."""
    value = _as_index(seed)
    if value is None or value < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed!r}")
    return value


def simulate(
    params: OUParams,
    horizon: float = DEFAULT_HORIZON_HR,
    dt: float = DEFAULT_DT_HR,
    seed: int = 0,
    t0_clock: float = DEFAULT_CLOCK_START_HR,
) -> Trajectory:
    """Simulate one demand trajectory over `horizon` hours in steps of `dt`.

    Deterministic in (params, horizon, dt, seed): repeated calls return
    bitwise-identical values.
    """
    n_steps = _step_count(horizon, dt)
    seed = _check_seed(seed)
    if not math.isfinite(t0_clock):
        raise ValidationError(f"t0_clock must be finite, got {t0_clock}")

    theta = params.mean_reversion + 0.5 * params.volatility**2
    if theta > 0.0:
        drift = params.mean_reversion * params.long_run_level / theta
        drift_term = drift * -math.expm1(-theta * dt)
    else:
        drift_term = 0.0
    sig_sqrt_dt = params.volatility * math.sqrt(dt)

    gen = np.random.Generator(np.random.Philox(key=seed))
    shocks = gen.standard_normal(n_steps)

    values = np.empty(n_steps + 1)
    floors = 0
    q = params.q0_init
    if q < DEMAND_FLOOR:
        q = DEMAND_FLOOR
        floors += 1
    values[0] = q
    for k in range(n_steps):
        q = q * math.exp(-theta * dt + sig_sqrt_dt * shocks[k]) + drift_term
        if q < DEMAND_FLOOR:
            q = DEMAND_FLOOR
            floors += 1
        values[k + 1] = q
    values.setflags(write=False)
    return Trajectory(
        t0_clock=t0_clock, dt=dt, values=values, seed=seed, floor_events=floors
    )


def simulate_ensemble(
    params: OUParams,
    horizon: float = DEFAULT_HORIZON_HR,
    dt: float = DEFAULT_DT_HR,
    n: int = 10,
    base_seed: int = 0,
    t0_clock: float = DEFAULT_CLOCK_START_HR,
) -> list[Trajectory]:
    """Simulate n independent trajectories with seeds base_seed, base_seed+1, ..."""
    if n < 1:
        raise ValidationError(f"ensemble size must be >= 1, got {n}")
    base_seed = _check_seed(base_seed)
    return [
        simulate(params, horizon=horizon, dt=dt, seed=base_seed + i, t0_clock=t0_clock)
        for i in range(n)
    ]


def write_trajectory_csv(traj: Trajectory, file: str | os.PathLike | IO[str]) -> None:
    """Write one trajectory as CSV with columns clock_time, t_hours, q0."""
    samples = zip(traj.clock_labels(), traj.t_hours, traj.values)
    rows = ((label, "%.6f" % t, "%.6f" % q) for label, t, q in samples)
    _files.write_csv(TRAJECTORY_CSV_COLUMNS, rows, file)


def read_trajectory_csv(file: str | os.PathLike | IO[str]) -> Trajectory:
    """Load a trajectory written by :func:`write_trajectory_csv`.

    Comment lines starting with ``#`` are skipped.  The step size is taken
    from the t_hours column (which must be uniform) and the clock start from
    the first clock_time label.  Every label must be HH:MM from 00:00 to 23:59
    and lie within a minute, mod 24 h, of the clock start plus its sample's
    elapsed t_hours.  The returned trajectory carries seed -1 to mark an
    external source.
    """
    rows = _files.read_csv(file)
    if not rows or tuple(rows[0]) != TRAJECTORY_CSV_COLUMNS:
        raise ValidationError(
            "trajectory file must start with columns %s" % ",".join(TRAJECTORY_CSV_COLUMNS)
        )
    body = rows[1:]
    if len(body) < 2:
        raise ValidationError("trajectory file needs at least two samples")
    try:
        t = np.array([float(row[1]) for row in body])
        q = np.array([float(row[2]) for row in body])
    except (IndexError, ValueError) as err:
        raise ValidationError(f"malformed trajectory row: {err}") from None
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(q))):
        raise ValidationError("trajectory t_hours and q0 values must be finite")
    # The writer rounds t_hours to 6 decimals, so each step may be off the
    # mean step by up to (1 + 1/n_steps) * 1e-6 h.
    dt = float((t[-1] - t[0]) / (len(t) - 1))
    if dt <= 0.0 or np.any(np.abs(np.diff(t) - dt) > 1.5e-6):
        raise ValidationError("trajectory t_hours column must be uniformly spaced")
    if np.any(q <= 0.0):
        raise ValidationError("trajectory q0 values must be positive")
    clocks = []
    for row in body:
        clock = re.fullmatch(r"([01]?[0-9]|2[0-3]):([0-5][0-9])", row[0], re.ASCII)
        if clock is None:
            raise ValidationError(
                f"bad clock_time label {row[0]!r}; expected HH:MM from 00:00 to 23:59"
            )
        clocks.append((int(clock[1]), int(clock[2])))
    t0_clock = clocks[0][0] + clocks[0][1] / 60.0
    # Each label rounds its own time to the minute, as does the first, so a
    # label may sit up to a minute from the first label plus its elapsed
    # time; the slack covers the 6-decimal rounding of t_hours.
    minutes = np.array([60 * hh + mm for hh, mm in clocks])
    drift = (minutes - minutes[0] - 60.0 * (t - t[0]) + 720.0) % 1440.0 - 720.0
    late = np.flatnonzero(np.abs(drift) > 1.0 + 1e-3)
    if late.size:
        i = late[0]
        expected = clock_label(t0_clock + t[i] - t[0])
        raise ValidationError(
            f"clock_time label {body[i][0]!r} at t_hours {body[i][1]} is out of sequence: "
            f"the first label {body[0][0]!r} puts that sample at {expected}"
        )
    floors = int(np.sum(q <= DEMAND_FLOOR))
    q.setflags(write=False)
    return Trajectory(t0_clock=t0_clock, dt=dt, values=q, seed=-1, floor_events=floors)
