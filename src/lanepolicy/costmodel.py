"""Policy-specific cost physics for the three lane policies.

For one (scenario, q0, R, F) operating point, or a stacked 1-D array of
points, this module tabulates per-mile travel times along the corridor,
accumulates them into line-haul times, adds waiting, crowding,
signalized-intersection delay, fares and operating expenses, and rolls
everything into the four system-cost components:

* bus users, bus operator, auto users, and lane-policy signal cost.

The policies differ only in how the lanes are divided, and
:data:`LANE_TABLE` states that once: one builder per policy turns a scenario
into :class:`Lanes`, its lane-conversion cost and its traffic streams.  A
stream has a capacity (all lanes, one reserved lane, or the rest), may carry
the buses, and carries the auto classes listed with it, each with its share
of auto travelers and its occupancy:

* MTP  - all lanes shared; one traffic stream carries autos plus bus PCEs.
* EBLP - one lane exclusive to buses, the rest carry all autos.
* HOVLP - one lane for buses plus high-occupancy autos, the rest carry
  low-occupancy autos.

Each stream's loads on the corridor and at the signals (:func:`_loads`),
the money rates (:func:`_rates`) and :mod:`lanepolicy._fsweep` read it.
The BPR law a traveler class rides on (:func:`_time_law`), the stop-wait
law (:func:`_wait`) and every money rate are stated here once too:
:func:`_rates` reads each value of time, the crowding rates, the fare, the
auto money costs, the operating costs and the signage cost, and both the
node-level functions below and ``_fsweep``'s moment tables price from it.

Every cost component comes from the moment table that the optimizer
searches: :func:`cost_breakdowns` prices a 1-D array of (q0, R, F) points
through :meth:`~lanepolicy._fsweep.FrequencySweep.breakdowns`, cell by cell,
and :func:`cost_breakdown` is its one-point case.

The node-level functions (travel times, waiting, crowding, the
disutilities, signal delay) price at the grid nodes only: each returns its
profile at the nodes of ``scenario.grid()``.  Each of q0, R and F may be one
value or a 1-D array aligned with the others; with any array every node
profile is (n_points, nodes), one row per point, each row priced by exactly
the arithmetic of its one-point case.  In the package they price the
equilibrium gap, in bounded passes (:func:`_in_passes`); the tests contract
them into the reference evaluator that the moment table is held to.

Positions are miles from the outer boundary; all travelers move toward the
inner end, so flows at x accumulate demand from [x, length].
"""

from __future__ import annotations

import enum
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .config import BusServiceParams, Scenario, SignalParams
from .demand import DemandField, _per_point, cumulative_demand, density, occupancy_split
from .errors import NumericDomainError, UndefinedServiceError, ValidationError
from .numeric import (
    CorridorGrid,
    _overflow_unwarned,
    cumulative_values,
    dot_rows,
    integrate_values,
)

__all__ = [
    "Policy",
    "POLICY_ORDER",
    "LANE_TABLE",
    "Lanes",
    "Stream",
    "CostBreakdown",
    "EvaluationContext",
    "build_context",
    "bpr_time",
    "unit_time_profile",
    "line_haul_time",
    "waiting_time",
    "discomfort_cost",
    "intersection_delay",
    "signal_auto_pax",
    "total_intersection_delay",
    "bus_disutility",
    "auto_disutility",
    "mean_auto_disutility",
    "cost_breakdown",
    "cost_breakdowns",
]


class Policy(enum.Enum):
    """The three lane policies; declaration order is the fixed tie-break order."""

    MTP = "mtp"
    EBLP = "eblp"
    HOVLP = "hovlp"

    @classmethod
    def parse(cls, name: "Policy | str") -> "Policy":
        """A policy as given, or the one named ``name`` (case and surrounding
        blanks ignored)."""
        if isinstance(name, cls):
            return name
        try:
            return cls(name.strip().lower())
        except (AttributeError, ValueError):
            raise ValidationError(
                f"unknown policy {name!r}; expected one of "
                f"{', '.join(p.value for p in cls)}"
            ) from None


POLICY_ORDER: tuple[Policy, ...] = (Policy.MTP, Policy.EBLP, Policy.HOVLP)


class Stream(NamedTuple):
    """Lanes that form one traffic stream on one scenario.

    Buses, where they run, add their PCEs (see :func:`_loads`).  Each auto
    class is (name, share of auto travelers, occupancy); the occupancy
    divides both the class's vehicle volume and its money cost per traveler.
    """

    capacity: float  # veh/hr
    buses: bool
    autos: tuple[tuple[str, float, float], ...] = ()

    def vehicles(self, auto_pax):
        """Auto veh/hr in this stream where ``auto_pax`` auto travelers pass."""
        out = np.zeros(np.shape(auto_pax))
        for _, share, occupancy in self.autos:
            out = out + share * auto_pax / occupancy
        return out


class Lanes(NamedTuple):
    """One policy's division of the lanes on one scenario."""

    streams: tuple[Stream, ...]
    signage: float  # lane-conversion cost, $/hr


def _mtp_lanes(scenario: Scenario) -> Lanes:
    geom = scenario.geometry
    average = occupancy_split(scenario.occupancy).average_occupancy
    shared = Stream(geom.n_lanes * geom.lane_capacity_vph, True, (("auto", 1.0, average),))
    return Lanes((shared,), 0.0)


def _eblp_lanes(scenario: Scenario) -> Lanes:
    geom, costs = scenario.geometry, scenario.lane_costs
    average = occupancy_split(scenario.occupancy).average_occupancy
    bus_lane = Stream(geom.lane_capacity_vph, True)
    rest = Stream((geom.n_lanes - 1) * geom.lane_capacity_vph, False, (("auto", 1.0, average),))
    return Lanes((bus_lane, rest), costs.ebl_fixed + costs.ebl_variable_per_mi * geom.length_mi)


def _hovlp_lanes(scenario: Scenario) -> Lanes:
    geom, occ, costs = scenario.geometry, scenario.occupancy, scenario.lane_costs
    split = occupancy_split(occ)
    hov_lane = Stream(
        geom.lane_capacity_vph, True, (("high_occ_auto", split.high_fraction, occ.high_occupancy),)
    )
    rest = Stream(
        (geom.n_lanes - 1) * geom.lane_capacity_vph,
        False,
        (("low_occ_auto", split.low_fraction, occ.low_occupancy),),
    )
    return Lanes((hov_lane, rest), costs.hovl_fixed + costs.hovl_variable_per_mi * geom.length_mi)


# policy -> its lanes on a scenario
LANE_TABLE: dict[Policy, Callable[[Scenario], Lanes]] = {
    Policy.MTP: _mtp_lanes,
    Policy.EBLP: _eblp_lanes,
    Policy.HOVLP: _hovlp_lanes,
}


def _group_of(ctx: EvaluationContext, policy: Policy, traveler_class: str) -> int:
    """Index of the stream a traveler class uses under ``policy``."""
    streams = LANE_TABLE[policy](ctx.scenario).streams
    groups = {name: k for k, s in enumerate(streams) for name, _, _ in s.autos}
    groups["bus"] = next(k for k, s in enumerate(streams) if s.buses)
    if traveler_class not in groups:
        raise ValidationError(
            f"traveler class {traveler_class!r} is not defined under {policy.value}; "
            f"valid classes: {', '.join(groups)}"
        )
    return groups[traveler_class]


_COMPONENTS = ("bus_user", "bus_operator", "auto_user", "signal")


def _payer(who: str) -> str:
    """The cost component that pays ``who``'s costs: a traveler class's or a
    mode's own (bus riders' in bus_user, every auto class's in auto_user), or
    the operator's and each fixed cost's, which a component name keys."""
    if who in _COMPONENTS:
        return who
    return "bus_user" if who == "bus" else "auto_user"


def _checked(name: str, value) -> float:
    """A cost component with roundoff-scale negatives clipped to 0."""
    v = float(value)
    if not -1e-9 <= v < np.inf:
        raise ValidationError(f"cost component {name} must be >= 0, got {v}")
    return 0.0 if v < 0 else v


@dataclass(frozen=True)
class CostBreakdown:
    """Hourly system-cost components for one policy at one operating point."""

    bus_user: float
    bus_operator: float
    auto_user: float
    signal: float
    total: float = field(init=False)

    def __post_init__(self) -> None:
        for name in _COMPONENTS:
            object.__setattr__(self, name, _checked(name, getattr(self, name)))
        object.__setattr__(
            self, "total", self.bus_user + self.bus_operator + self.auto_user + self.signal
        )


@dataclass(frozen=True)
class EvaluationContext:
    """One (scenario, q0, R, F) operating point with tabulated node profiles.

    The equilibrium gap's passes also build one over a stack of points: each
    of q0, R and F is then a scalar or a 1-D array aligned with the others.
    Every node profile is (nodes,) for one point and (n_points, nodes), one
    row per point, for a stack.

    Profiles are computed lazily per (policy, class) and memoized, so nested
    integrals reuse a single tabulation pass.
    """

    scenario: Scenario
    q0: float | np.ndarray
    auto_share: float | np.ndarray
    frequency: float | np.ndarray
    grid: CorridorGrid
    demand_field: DemandField
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def _cached(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    @property
    def f_col(self):
        """Frequency shaped to broadcast against node profiles: the scalar
        itself, or an (n_points, 1) column."""
        return _per_point(self.frequency, self.grid.nodes)


def build_context(
    scenario: Scenario, q0: float, auto_share: float, frequency: float
) -> EvaluationContext:
    """One operating point: q0, auto share and bus frequency are scalars."""
    _require_scalars(q0=q0, auto_share=auto_share, frequency=frequency)
    return _context(scenario, q0, auto_share, frequency)


def _require_scalars(**values) -> None:
    """Each of ``values`` is one value, not an array; the error names it."""
    for name, value in values.items():
        if np.ndim(value) != 0:
            raise ValidationError(f"{name} must be a scalar, got shape {np.shape(value)}")


def _context(scenario: Scenario, q0, auto_share, frequency) -> EvaluationContext:
    """One operating point, or a stack of them: each of q0, auto share and
    frequency is a scalar or a 1-D array aligned with the others."""
    demand_field = DemandField(q0=q0, length_mi=scenario.geometry.length_mi, auto_share=auto_share)
    f = np.asarray(frequency, dtype=float)
    shapes = {np.shape(v) for v in (q0, auto_share) if np.ndim(v)}
    if f.ndim > 1 or (f.ndim and shapes - {f.shape}):
        raise ValidationError(
            f"frequency must be a scalar or a 1-D array aligned with q0 and auto_share, "
            f"got shape {f.shape}"
        )
    bad = ~(np.isfinite(f) & (f >= 0))
    if bad.any():
        raise ValidationError(f"frequency must be finite and >= 0, got {f[bad][0]}")
    return EvaluationContext(
        scenario=scenario,
        q0=q0,
        auto_share=auto_share,
        frequency=frequency,
        grid=scenario.grid(),
        demand_field=demand_field,
    )


@_overflow_unwarned
def bpr_time(t0: float, alpha: float, beta: float, volume, capacity: float):
    """Congested per-mile travel time t0*(1 + alpha*(volume/capacity)^beta), hr/mi."""
    if capacity <= 0:
        raise ValidationError(f"capacity must be > 0, got {capacity}")
    v = np.asarray(volume, dtype=float)
    if np.any(v < 0):
        raise ValidationError("volume must be >= 0")
    out = t0 * (1.0 + alpha * (v / capacity) ** beta)
    return float(out) if np.isscalar(volume) else out


def _time_law(scenario: Scenario, traveler_class: str) -> tuple[float, float, float]:
    """The (t0, alpha, beta) of :func:`bpr_time` for ``"bus"`` or an auto class."""
    bpr = scenario.bpr
    if traveler_class == "bus":
        return bpr.t0_bus, bpr.alpha_bus, bpr.beta_bus
    return bpr.t0_auto, bpr.alpha_auto, bpr.beta_auto


class _Rates(NamedTuple):
    aboard: dict  # class -> $/hr aboard per power p of the bus's onboard load Q: rate*Q^p
    stop: float  # $/hr at a stop
    bus_trip: float  # $ per bus trip: the fare
    auto_trip: tuple  # $ per auto trip, fixed and per mile, split among its occupants
    round_trip: float  # operator $ per bus/hr per hour of one-way line haul: both ways
    fixed: dict  # cost component -> fixed $/hr
    delay: dict  # mode -> $ per passenger-hour of signal delay: its in-vehicle value of time


@lru_cache(maxsize=64)
def _rates(scenario: Scenario, policy: Policy) -> _Rates:
    """Every money rate of ``policy`` on ``scenario``, each field read here once;
    a bus rider pays vot + lin*Q + quad*Q^2 per hour aboard at onboard load Q."""
    bus, econ, (streams, signage) = scenario.bus, scenario.econ, LANE_TABLE[policy](scenario)
    delay = {"auto": econ.vot_auto, "bus": econ.vot_bus}
    aboard = {name: (delay["auto"],) for s in streams for name, _, _ in s.autos}
    aboard["bus"] = (delay["bus"], bus.discomfort_lin, bus.discomfort_quad)
    auto_trip = econ.auto_fixed_cost, econ.auto_cost_per_mi
    fixed = {"bus_operator": bus.fixed_operating_cost, "signal": signage}
    round_trip = 2.0 * bus.variable_operating_cost
    return _Rates(aboard, econ.vot_wait, bus.fare, auto_trip, round_trip, fixed, delay)


@_overflow_unwarned
def unit_time_profile(ctx: EvaluationContext, policy: Policy, traveler_class: str) -> np.ndarray:
    """Per-mile travel time at every grid node for one policy and traveler class."""
    k = _group_of(ctx, policy, traveler_class)
    key = ("unit", policy, traveler_class)

    def build() -> np.ndarray:
        phi, slope, capacity = _loads(ctx.scenario, policy).corridor[k]
        volume = _per_point(ctx.q0 * ctx.auto_share, phi) * phi + slope * ctx.f_col
        return _frozen(bpr_time(*_time_law(ctx.scenario, traveler_class), volume, capacity))

    return ctx._cached(key, build)


def _frozen(values: np.ndarray) -> np.ndarray:
    values.setflags(write=False)
    return values


@_overflow_unwarned
def line_haul_time(ctx: EvaluationContext, policy: Policy, traveler_class: str) -> np.ndarray:
    """In-vehicle time from the boundary to every grid node (hours)."""
    key = ("cum", policy, traveler_class)
    return ctx._cached(
        key,
        lambda: _frozen(cumulative_values(unit_time_profile(ctx, policy, traveler_class), ctx.grid)),
    )


def _wait(bus: BusServiceParams, f, load):
    """Stop wait (hours) at frequency f with ``load`` riders aboard,
    (g1 + g2*(load/(capacity*f))^g3)/f; besides capacity*f it makes one array
    of the broadcast shape, and a power too large for a float gives inf."""
    out = np.divide(load, bus.capacity_pax * f)  # NumPy, so its power overflows to inf
    out **= bus.wait_gamma3
    out *= bus.wait_gamma2
    out += bus.wait_gamma1
    out /= f
    return out


def _wait_load(bus: BusServiceParams, load: np.ndarray, weights: np.ndarray) -> float:
    """The g3-power mean of ``load`` under boarding ``weights``: the one load
    at which :func:`_wait` gives the boardings' mean wait."""
    return float((load**bus.wait_gamma3 @ weights / np.sum(weights)) ** (1.0 / bus.wait_gamma3))


@_overflow_unwarned
def waiting_time(ctx: EvaluationContext) -> np.ndarray:
    """Expected stop waiting time at every grid node (hours): headway term
    plus crowding term.

    w(x) = g1/F + (g2/F) * (Q_bus(x) / (capacity*F))^g3.  Decreasing in F.
    """
    if np.any(np.asarray(ctx.frequency) <= 0):
        raise UndefinedServiceError("waiting time is undefined at zero bus frequency")
    riders = cumulative_demand(ctx.demand_field, "bus", ctx.grid.nodes)
    return _wait(ctx.scenario.bus, ctx.f_col, riders)


@_overflow_unwarned
def discomfort_cost(ctx: EvaluationContext, policy: Policy) -> np.ndarray:
    """Crowding discomfort accumulated over the ride to every grid node, $ per
    passenger."""
    key = ("discomfort", policy)

    def build() -> np.ndarray:
        # discomfort per onboard hour, $/hr: the aboard rate's terms in Q_bus^p, p >= 1
        q_bus = cumulative_demand(ctx.demand_field, "bus", ctx.grid.nodes)
        aboard = _rates(ctx.scenario, policy).aboard["bus"]
        crowding = sum(rate * q_bus**p for p, rate in enumerate(aboard) if p)
        return _frozen(cumulative_values(crowding * unit_time_profile(ctx, policy, "bus"), ctx.grid))

    return ctx._cached(key, build)


@_overflow_unwarned
def intersection_delay(signal: SignalParams, arriving_vph, capacity_vph):
    """Average signal delay in seconds per vehicle (uniform plus overflow term).

    Control delay for a pre-timed signal: a uniform term from the red phase,
    capped at saturation, plus an overflow term that grows with the
    volume-to-capacity ratio X and stays finite and continuous across X = 1.
    ``capacity_vph`` may be an array that broadcasts against ``arriving_vph``.
    """
    if np.any(np.asarray(capacity_vph) <= 0):
        raise ValidationError(f"intersection capacity must be > 0, got {capacity_vph}")
    x_ratio = np.asarray(arriving_vph, dtype=float) / capacity_vph
    if np.any(x_ratio < 0):
        raise ValidationError("arriving volume must be >= 0")
    g = signal.green_ratio
    uniform = (
        signal.cycle_s * (1.0 - g) ** 2 / (2.0 * (1.0 - np.minimum(1.0, x_ratio) * g))
    )
    t_i = signal.analysis_period_hr
    spare = 8.0 * signal.incremental_delay_factor * signal.upstream_filter * x_ratio
    overflow = 900.0 * t_i * (
        (x_ratio - 1.0) + np.sqrt((x_ratio - 1.0) ** 2 + spare / (capacity_vph * t_i))
    )
    out = uniform + overflow
    return float(out) if np.isscalar(arriving_vph) and np.isscalar(capacity_vph) else out


def signal_auto_pax(scenario: Scenario, demand_field: DemandField) -> np.ndarray:
    """Auto travelers per hour counted at each intersection.

    ``segment`` volume mode counts those entering between an intersection and
    the next; ``cumulative`` counts every one still upstream.  A stacked
    ``demand_field`` gives one row per point.
    """
    geom = scenario.geometry
    n = geom.n_intersections
    bounds = geom.length_mi * np.arange(1, n + 2) / (n + 1)
    upstream = cumulative_demand(demand_field, "auto", bounds)
    if scenario.solver.delay_volume_mode == "segment":
        return upstream[..., :-1] - upstream[..., 1:]
    return upstream[..., :-1]


class _Loads(NamedTuple):
    """Each stream's loads and the demand profiles at the nodes, per unit demand."""
    corridor: tuple  # per stream (phi, slope, capacity): a*phi(x) + slope*F veh/hr
    signals: np.ndarray  # rows autos, buses, capacity, auto_share, bus_share, riders
    upstream: np.ndarray  # travelers upstream of each node per unit demand scale
    origins: np.ndarray  # trip origins per mile at each node per unit demand scale


@lru_cache(maxsize=64)
def _loads(scenario: Scenario, policy: Policy) -> _Loads:
    """Each lane stream's loads under ``policy``, per unit auto demand a = q0*R
    and per bus/hr: buses add PCE*F veh/hr on the corridor and PCE*F/(n+1) at
    each signal.  A signal column's delay is paid by the riders upstream per unit
    of a mode's demand, times the stream's share of them (bus_share: 1 or 0)."""
    geom, pce, nodes = scenario.geometry, scenario.bpr.bus_pce, scenario.grid().nodes
    unit = DemandField(q0=1.0, length_mi=geom.length_mi, auto_share=1.0)
    upstream = cumulative_demand(unit, "total", nodes)
    streams = LANE_TABLE[policy](scenario).streams
    corridor = tuple((_frozen(s.vehicles(upstream)), pce * s.buses, s.capacity) for s in streams)
    entering, slope = signal_auto_pax(scenario, unit), pce / (geom.n_intersections + 1)
    riders = cumulative_demand(unit, "total", geom.intersection_positions)
    signals = np.hstack([np.vstack(np.broadcast_arrays(
        s.vehicles(entering), slope * s.buses, s.capacity,
        sum(share for _, share, _ in s.autos), float(s.buses), riders,
    )) for s in streams])
    return _Loads(corridor, _frozen(signals), _frozen(upstream), _frozen(density(unit, nodes)))


def _arriving(ctx: EvaluationContext, policy: Policy) -> np.ndarray:
    """Arriving veh/hr in every signal column of :func:`_loads`."""
    autos, buses = _loads(ctx.scenario, policy).signals[:2]
    return _per_point(ctx.q0 * ctx.auto_share, autos) * autos + buses * ctx.f_col


@_overflow_unwarned
def total_intersection_delay(ctx: EvaluationContext, policy: Policy, mode: str):
    """Passenger-hours of signal delay per hour for one mode under a policy.

    Each intersection's per-vehicle delay is charged to every passenger still
    upstream of it (the cumulative mode demand at the intersection).  Every
    signal column is priced in one call, shared by both modes.
    """
    if mode not in ("auto", "bus"):
        raise ValidationError(f"mode must be 'auto' or 'bus', got {mode!r}")
    if ctx.scenario.geometry.n_intersections == 0:
        return 0.0
    _, _, capacity, auto_share, bus_share, riders = _loads(ctx.scenario, policy).signals
    seconds = ctx._cached(
        ("delay", policy),
        lambda: intersection_delay(ctx.scenario.signal, _arriving(ctx, policy), capacity),
    )
    share = auto_share if mode == "auto" else bus_share
    scale = ctx.q0 * ctx.auto_share if mode == "auto" else ctx.q0 * (1.0 - ctx.auto_share)
    paying = _per_point(scale, riders) * (share * riders)
    # a column no one pays for adds nothing, even where its delay overflows
    out = dot_rows(np.where(share > 0, seconds, 0.0), paying) / 3600.0
    return float(out) if np.ndim(out) == 0 else out


@_overflow_unwarned
def bus_disutility(ctx: EvaluationContext, policy: Policy) -> np.ndarray:
    """Generalized cost of one bus trip boarding at every grid node, $ per
    passenger."""
    rates = _rates(ctx.scenario, policy)
    return (
        rates.stop * waiting_time(ctx)
        + rates.aboard["bus"][0] * line_haul_time(ctx, policy, "bus")
        + discomfort_cost(ctx, policy)
        + rates.bus_trip
    )


@_overflow_unwarned
def auto_disutility(ctx: EvaluationContext, policy: Policy, traveler_class: str) -> np.ndarray:
    """Generalized cost of one auto trip from every grid node, $ per passenger.

    Monetary costs are shared by the vehicle's occupants, so the divisor is
    the class occupancy (fleet average under shared-lane policies).
    """
    k = _group_of(ctx, policy, traveler_class)
    if traveler_class == "bus":
        raise ValidationError("auto_disutility does not apply to the bus class")
    streams = LANE_TABLE[policy](ctx.scenario).streams
    divisor = next(o for name, _, o in streams[k].autos if name == traveler_class)
    rates = _rates(ctx.scenario, policy)
    fixed, per_mi = rates.auto_trip
    ride = line_haul_time(ctx, policy, traveler_class)
    return rates.aboard[traveler_class][0] * ride + (fixed + per_mi * ctx.grid.nodes) / divisor


@_overflow_unwarned
def mean_auto_disutility(ctx: EvaluationContext, policy: Policy) -> np.ndarray:
    """Auto disutility at every grid node averaged over the policy's auto
    classes by their shares of auto travelers, $ per passenger."""
    return sum(
        share * auto_disutility(ctx, policy, name)
        for stream in LANE_TABLE[policy](ctx.scenario).streams
        for name, share, _ in stream.autos
    )


@_overflow_unwarned
def _disutility_gap(ctx: EvaluationContext, policy: Policy, signed: bool):
    """Demand-weighted mean auto-minus-bus disutility difference, $ per trip,
    at the operating point of ``ctx`` or at each of its stacked points."""
    weight = _loads(ctx.scenario, policy).origins  # q0 cancels
    diff = mean_auto_disutility(ctx, policy) - bus_disutility(ctx, policy)
    diff = diff if signed else np.abs(diff)
    return integrate_values(diff * weight, ctx.grid) / integrate_values(weight, ctx.grid)


def cost_breakdown(
    scenario: Scenario, policy: Policy, q0: float, auto_share: float, frequency: float
) -> CostBreakdown:
    """Hourly system cost of running ``policy`` at one (q0, R, F) point.

    Defined for any F > 0 (and for F = 0 when no one rides the bus), whether
    or not F satisfies the service-capacity constraint; the optimizer is
    responsible for feasibility.
    """
    _require_scalars(q0=q0, auto_share=auto_share, frequency=frequency)
    return cost_breakdowns(scenario, policy, [q0], [auto_share], [frequency])[0]


def cost_breakdowns(
    scenario: Scenario, policy: Policy, q0, auto_share, frequency
) -> list[CostBreakdown]:
    """:func:`cost_breakdown` at each of a 1-D array of operating points.

    Each of ``q0``, ``auto_share`` and ``frequency`` is a scalar or a 1-D
    array aligned with the others.  The moment table that the optimizer
    searches prices every point
    (:meth:`~lanepolicy._fsweep.FrequencySweep.breakdowns`) cell by cell, so
    a point gets the same floats in any batch, and an optimum those of its
    own search.

    :raises UndefinedServiceError: at F = 0 where someone rides the bus.
    :raises NumericDomainError: where a component is not finite; the message
        names the first such component and its point.
    """
    from ._fsweep import FrequencySweep  # imported here, as _fsweep imports this module

    q0s, shares, fs = _points(scenario, q0, auto_share, frequency)
    if np.any((fs == 0) & ((1.0 - shares) * q0s > 0)):
        raise UndefinedServiceError(
            "bus demand is positive but frequency is zero; waiting time is undefined"
        )
    rows = FrequencySweep(scenario, policy, q0s, shares).breakdowns(fs)
    bad = np.argwhere(~np.isfinite(rows))
    if bad.size:
        i, k = bad[0]
        raise NumericDomainError(
            f"cost component {_COMPONENTS[k]} is not finite at q0={q0s[i]:g}, "
            f"R={shares[i]:g}, F={fs[i]:g} (value {rows[i, k]})"
        )
    return [CostBreakdown(*row) for row in rows]


def _points(scenario: Scenario, q0, auto_share, frequency) -> list[np.ndarray]:
    """q0, auto share and frequency broadcast to one 1-D array each, once a
    context has checked every point."""
    values = (q0, auto_share, frequency)
    _context(scenario, *values)
    points = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in values))
    shape = points[0].shape
    if len(shape) != 1:
        raise ValidationError(f"operating points must form a 1-D array, got shape {shape}")
    return points


def _equilibrium_gaps(scenario: Scenario, policy: Policy, q0, auto_share, frequency, signed):
    """:func:`_disutility_gap` at each of a 1-D array of operating points."""
    return _in_passes(scenario, q0, auto_share, frequency,
                      lambda ctx: _disutility_gap(ctx, policy, signed))


# Operating points per stacked gap pass, to bound its (points x nodes)
# profiles: on the default 600-cell grid 2,048 HOVLP gaps peak at 1.0 MiB
# (tracemalloc) in passes of 16, and at 122 MiB in one pass.
_PRICE_BLOCK = 16


def _in_passes(scenario: Scenario, q0, auto_share, frequency, price) -> np.ndarray:
    """``price``'s value at each point of a 1-D array of operating points, once
    :func:`_points` has checked them all, each pass a stacked context of the
    next :data:`_PRICE_BLOCK` points."""
    points = _points(scenario, q0, auto_share, frequency)
    out = np.empty(points[0].size)
    for start in range(0, out.size, _PRICE_BLOCK):
        cells = slice(start, start + _PRICE_BLOCK)
        out[cells] = price(_context(scenario, *(v[cells] for v in points)))
    return out
