"""Corridor lane-policy cost evaluation, optimization, and scheduling.

A linear many-to-one travel corridor is operated under one of three lane
policies: mixed traffic (MTP), an exclusive bus lane (EBLP), or a shared
bus/high-occupancy-vehicle lane (HOVLP).  This package evaluates total system
cost per policy, jointly optimizes bus frequency and mode split, locates the
demand densities at which the cheapest policy changes, simulates stochastic
intraday demand, and emits demand-triggered switching timetables with their
cost savings.
"""

from ._version import __version__
from .errors import (
    BracketError,
    InfeasibleError,
    LanePolicyError,
    NumericDomainError,
    UndefinedServiceError,
    ValidationError,
)
from .config import (
    BprParams,
    BusServiceParams,
    EconParams,
    Geometry,
    LanePolicyCosts,
    OccupancyParams,
    Scenario,
    SignalParams,
    SolverSettings,
    load_scenario,
    preset,
    preset_demand_reference,
    preset_names,
    scenario_fingerprint,
    serialize,
)
from .demand import (
    DemandField,
    OccupancySplit,
    cumulative_demand,
    density,
    occupancy_split,
)
from .costmodel import (
    POLICY_ORDER,
    CostBreakdown,
    Policy,
    auto_disutility,
    bpr_time,
    bus_disutility,
    cost_breakdown,
    cost_breakdowns,
    discomfort_cost,
    intersection_delay,
    line_haul_time,
    total_intersection_delay,
    unit_time_profile,
    waiting_time,
)
from .optimizer import (
    PolicyOptimum,
    equilibrium_gap,
    foc_residual,
    min_frequency,
    optimize_frequency,
    optimize_policies,
    optimize_policy,
)
from .threshold import (
    CostCurve,
    PolicyRegion,
    ThresholdResult,
    cost_curve,
    find_threshold,
    policy_regions,
    regions_and_thresholds,
    write_curves_csv,
)
from .stochastic import (
    OUParams,
    Trajectory,
    read_trajectory_csv,
    simulate,
    simulate_ensemble,
    write_trajectory_csv,
)
from .scheduler import (
    Schedule,
    ScheduleEntry,
    StepTable,
    build_schedule,
    evaluate_trajectory,
    format_timetable,
    schedule_summary,
    write_schedule_csv,
    write_schedule_json,
)

__all__ = [
    "__version__",
    # errors
    "LanePolicyError",
    "ValidationError",
    "NumericDomainError",
    "BracketError",
    "InfeasibleError",
    "UndefinedServiceError",
    # configuration
    "Geometry",
    "SignalParams",
    "BprParams",
    "BusServiceParams",
    "EconParams",
    "OccupancyParams",
    "LanePolicyCosts",
    "SolverSettings",
    "Scenario",
    "load_scenario",
    "serialize",
    "scenario_fingerprint",
    "preset",
    "preset_names",
    "preset_demand_reference",
    # demand
    "DemandField",
    "OccupancySplit",
    "density",
    "cumulative_demand",
    "occupancy_split",
    # cost model
    "Policy",
    "POLICY_ORDER",
    "CostBreakdown",
    "bpr_time",
    "unit_time_profile",
    "line_haul_time",
    "waiting_time",
    "discomfort_cost",
    "intersection_delay",
    "total_intersection_delay",
    "bus_disutility",
    "auto_disutility",
    "cost_breakdown",
    "cost_breakdowns",
    # optimization
    "PolicyOptimum",
    "min_frequency",
    "optimize_frequency",
    "optimize_policy",
    "optimize_policies",
    "foc_residual",
    "equilibrium_gap",
    # thresholds
    "CostCurve",
    "ThresholdResult",
    "PolicyRegion",
    "cost_curve",
    "find_threshold",
    "policy_regions",
    "regions_and_thresholds",
    "write_curves_csv",
    # demand simulation
    "OUParams",
    "Trajectory",
    "simulate",
    "simulate_ensemble",
    "read_trajectory_csv",
    "write_trajectory_csv",
    # scheduling
    "StepTable",
    "ScheduleEntry",
    "Schedule",
    "evaluate_trajectory",
    "build_schedule",
    "format_timetable",
    "schedule_summary",
    "write_schedule_csv",
    "write_schedule_json",
]
