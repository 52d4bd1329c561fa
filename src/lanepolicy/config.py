"""Scenario parameters: definition, validation, JSON loading, and presets.

A scenario is an immutable bundle of eight sections (geometry, signal, bpr,
bus, econ, occupancy, lane_costs, solver).  The file format is a JSON object
with those section names; any subset of keys may be given and the rest fall
back to the baseline preset, so a two-line document is a valid override file.
Unknown keys are rejected with their dotted paths.  All values must already
be in the declared units; nothing is converted.

Two parameters the cost model needs are not part of the published baseline
table (``n_intersections`` and ``vot_wait``).  Their defaults (10 and 15 $/hr)
are therefore deliberately loud: they are echoed into every output header
written by the CLI so a run can always be traced back to them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field

from . import _files
from .errors import ValidationError
from .numeric import CorridorGrid

__all__ = [
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
    "preset",
    "preset_names",
    "preset_demand_reference",
    "scenario_fingerprint",
]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValidationError(message)


@dataclass(frozen=True)
class Geometry:
    """Corridor layout: length, lane count, per-lane capacity, intersections."""

    length_mi: float = 30.0
    n_lanes: int = 3
    lane_capacity_vph: float = 1500.0
    n_intersections: int = 10

    def __post_init__(self) -> None:
        _require(self.length_mi > 0, f"length_mi must be > 0, got {self.length_mi}")
        # exclusive-lane policies reserve one lane, so at least two must exist
        _require(self.n_lanes >= 2, f"n_lanes must be >= 2, got {self.n_lanes}")
        _require(
            self.lane_capacity_vph > 0,
            f"lane_capacity_vph must be > 0, got {self.lane_capacity_vph}",
        )
        _require(
            self.n_intersections >= 0,
            f"n_intersections must be >= 0, got {self.n_intersections}",
        )

    @property
    def intersection_positions(self) -> tuple[float, ...]:
        """Evenly spaced signal locations, miles from the outer boundary."""
        n = self.n_intersections
        return tuple(self.length_mi * i / (n + 1) for i in range(1, n + 1))


@dataclass(frozen=True)
class SignalParams:
    """Pre-timed signal description feeding the intersection-delay formula."""

    cycle_s: float = 130.0
    green_ratio: float = 0.7
    incremental_delay_factor: float = 0.5
    upstream_filter: float = 1.0
    analysis_period_hr: float = 1.0

    def __post_init__(self) -> None:
        _require(self.cycle_s > 0, f"cycle_s must be > 0, got {self.cycle_s}")
        _require(
            0 < self.green_ratio < 1,
            f"green_ratio must lie strictly between 0 and 1, got {self.green_ratio}",
        )
        _require(
            self.incremental_delay_factor > 0,
            f"incremental_delay_factor must be > 0, got {self.incremental_delay_factor}",
        )
        _require(
            self.upstream_filter > 0,
            f"upstream_filter must be > 0, got {self.upstream_filter}",
        )
        _require(
            self.analysis_period_hr > 0,
            f"analysis_period_hr must be > 0, got {self.analysis_period_hr}",
        )


@dataclass(frozen=True)
class BprParams:
    """Volume-delay curve coefficients per mode, plus the bus PCE factor."""

    t0_auto: float = 0.05  # free-flow hr/mi
    t0_bus: float = 0.025
    alpha_auto: float = 0.15
    beta_auto: float = 4.0
    alpha_bus: float = 0.15
    beta_bus: float = 4.0
    bus_pce: float = 3.0  # one bus counts as this many autos in a shared lane

    def __post_init__(self) -> None:
        _require(self.t0_auto > 0, f"t0_auto must be > 0, got {self.t0_auto}")
        _require(self.t0_bus > 0, f"t0_bus must be > 0, got {self.t0_bus}")
        for name in ("alpha_auto", "alpha_bus"):
            _require(getattr(self, name) >= 0, f"{name} must be >= 0, got {getattr(self, name)}")
        for name in ("beta_auto", "beta_bus"):
            _require(getattr(self, name) >= 1, f"{name} must be >= 1, got {getattr(self, name)}")
        _require(self.bus_pce >= 1, f"bus_pce must be >= 1, got {self.bus_pce}")


@dataclass(frozen=True)
class BusServiceParams:
    """Bus fleet, fare, waiting-time calibration, crowding, operating costs."""

    capacity_pax: float = 70.0
    fare: float = 1.0
    wait_gamma1: float = 0.5
    wait_gamma2: float = 0.05
    wait_gamma3: float = 2.0
    discomfort_quad: float = 1e-6  # $/hr weight on squared onboard load
    discomfort_lin: float = 0.005  # $/hr weight on onboard load
    fixed_operating_cost: float = 300.0  # $ per analysis hour
    variable_operating_cost: float = 20.0  # $ per bus-hour of round-trip fleet time

    def __post_init__(self) -> None:
        _require(self.capacity_pax > 0, f"capacity_pax must be > 0, got {self.capacity_pax}")
        _require(self.fare >= 0, f"fare must be >= 0, got {self.fare}")
        for name in ("wait_gamma1", "wait_gamma2", "wait_gamma3"):
            _require(getattr(self, name) > 0, f"{name} must be > 0, got {getattr(self, name)}")
        for name in ("discomfort_quad", "discomfort_lin"):
            _require(getattr(self, name) >= 0, f"{name} must be >= 0, got {getattr(self, name)}")
        _require(
            self.fixed_operating_cost >= 0,
            f"fixed_operating_cost must be >= 0, got {self.fixed_operating_cost}",
        )
        _require(
            self.variable_operating_cost >= 0,
            f"variable_operating_cost must be >= 0, got {self.variable_operating_cost}",
        )


@dataclass(frozen=True)
class EconParams:
    """Values of time and out-of-pocket auto costs."""

    vot_auto: float = 20.0  # $/hr in an auto
    vot_bus: float = 15.0  # $/hr in a bus
    vot_wait: float = 15.0  # $/hr at a stop; no published baseline, default = vot_bus
    auto_fixed_cost: float = 2.0  # $ per auto trip
    auto_cost_per_mi: float = 0.3

    def __post_init__(self) -> None:
        for f_ in dataclasses.fields(self):
            _require(
                getattr(self, f_.name) >= 0,
                f"{f_.name} must be >= 0, got {getattr(self, f_.name)}",
            )


@dataclass(frozen=True)
class OccupancyParams:
    """Low/high auto-occupancy mix among auto travelers."""

    low_share: float = 0.6  # fraction of low-occupancy vehicles among autos
    low_occupancy: float = 1.0  # pax/veh
    high_occupancy: float = 3.0  # pax/veh

    def __post_init__(self) -> None:
        _require(
            0 <= self.low_share <= 1,
            f"low_share must lie in [0, 1], got {self.low_share}",
        )
        _require(
            0 < self.low_occupancy <= self.high_occupancy,
            "occupancies must satisfy 0 < low_occupancy <= high_occupancy, got "
            f"low={self.low_occupancy}, high={self.high_occupancy}",
        )


@dataclass(frozen=True)
class LanePolicyCosts:
    """Signal/segregation implementation costs for the exclusive-lane policies."""

    ebl_fixed: float = 100.0  # $ per analysis hour
    ebl_variable_per_mi: float = 5.0  # $ per analysis hour per corridor mile
    hovl_fixed: float = 500.0
    hovl_variable_per_mi: float = 10.0

    def __post_init__(self) -> None:
        for f_ in dataclasses.fields(self):
            _require(
                getattr(self, f_.name) >= 0,
                f"{f_.name} must be >= 0, got {getattr(self, f_.name)}",
            )


VALID_DELAY_VOLUME_MODES = ("segment", "cumulative")
VALID_SPLIT_RULES = ("cost_min", "equilibrium")


@dataclass(frozen=True)
class SolverSettings:
    """Numerical resolutions and rule variants used by the optimizer layers."""

    # at most 100,000: a costmodel._PRICE_BLOCK-point cost pass's node profiles are 13 MB there
    n_cells: int = 600
    r_step: float = 0.01  # coarse mode-split lattice
    r_refine_factor: int = 10  # one refinement round shrinks the step by this
    f_cap: float = 120.0  # buses/hr search ceiling
    f_refine_step: float = 0.1  # frequency refinement resolution
    threshold_tol: float = 1.0  # pax/hr/mi bisection width for switching points
    delay_volume_mode: str = "segment"  # intersection volume accounting variant
    split_rule: str = "cost_min"  # mode split chosen by cost or by equal disutility

    def __post_init__(self) -> None:
        _require(self.n_cells >= 2, f"n_cells must be >= 2, got {self.n_cells}")
        _require(self.n_cells <= 100_000, f"n_cells must be <= 100000, got {self.n_cells}")
        _require(self.n_cells % 2 == 0, f"n_cells must be even, got {self.n_cells}")
        # the lower bounds on the steps and the upper bounds on f_cap and the
        # refine factor bound the split and frequency lattices a search builds
        _require(
            0.001 <= self.r_step <= 0.5, f"r_step must lie in [0.001, 0.5], got {self.r_step}"
        )
        _require(
            2 <= self.r_refine_factor <= 1000,
            f"r_refine_factor must lie in [2, 1000], got {self.r_refine_factor}",
        )
        _require(
            1 <= self.f_cap <= 12_000, f"f_cap must lie in [1, 12000] buses/hr, got {self.f_cap}"
        )
        _require(
            0.001 <= self.f_refine_step <= 1,
            f"f_refine_step must lie in [0.001, 1], got {self.f_refine_step}",
        )
        _require(self.threshold_tol > 0, f"threshold_tol must be > 0, got {self.threshold_tol}")
        _require(
            self.delay_volume_mode in VALID_DELAY_VOLUME_MODES,
            f"delay_volume_mode must be one of {VALID_DELAY_VOLUME_MODES}, "
            f"got {self.delay_volume_mode!r}",
        )
        _require(
            self.split_rule in VALID_SPLIT_RULES,
            f"split_rule must be one of {VALID_SPLIT_RULES}, got {self.split_rule!r}",
        )


@dataclass(frozen=True)
class Scenario:
    """Complete, validated parameter set for one corridor."""

    geometry: Geometry = field(default_factory=Geometry)
    signal: SignalParams = field(default_factory=SignalParams)
    bpr: BprParams = field(default_factory=BprParams)
    bus: BusServiceParams = field(default_factory=BusServiceParams)
    econ: EconParams = field(default_factory=EconParams)
    occupancy: OccupancyParams = field(default_factory=OccupancyParams)
    lane_costs: LanePolicyCosts = field(default_factory=LanePolicyCosts)
    solver: SolverSettings = field(default_factory=SolverSettings)

    def grid(self) -> CorridorGrid:
        return CorridorGrid(self.geometry.length_mi, self.solver.n_cells)


_SECTIONS: dict[str, type] = {
    "geometry": Geometry,
    "signal": SignalParams,
    "bpr": BprParams,
    "bus": BusServiceParams,
    "econ": EconParams,
    "occupancy": OccupancyParams,
    "lane_costs": LanePolicyCosts,
    "solver": SolverSettings,
}


def _coerce(path: str, value: object, target: type) -> object:
    # bool is an int subclass; never silently accept it as a number
    if isinstance(value, bool):
        raise ValidationError(f"{path}: expected {target.__name__}, got boolean {value}")
    if isinstance(value, int):
        try:
            float(value)
        except OverflowError:
            raise ValidationError(f"{path}: integer too large for a float") from None
    if target is float:
        if not isinstance(value, (int, float)):
            raise ValidationError(f"{path}: expected a number, got {type(value).__name__}")
        if not math.isfinite(value):
            raise ValidationError(f"{path}: expected a finite number, got {value}")
        return float(value)
    if target is int:
        if isinstance(value, int):
            return value
        if isinstance(value, float) and value.is_integer():
            return int(value)
        raise ValidationError(f"{path}: expected an integer, got {value!r}")
    if target is str:
        if isinstance(value, str):
            return value
        raise ValidationError(f"{path}: expected a string, got {type(value).__name__}")
    raise ValidationError(f"{path}: unsupported field type {target.__name__}")


def _build_section(name: str, cls: type, doc: dict) -> object:
    defaults = cls()
    known = {f_.name for f_ in dataclasses.fields(cls)}
    unknown = sorted(set(doc) - known)
    if unknown:
        paths = ", ".join(f"{name}.{key}" for key in unknown)
        raise ValidationError(f"unknown key(s): {paths}")
    kwargs = {}
    for key, value in doc.items():
        target = type(getattr(defaults, key))
        kwargs[key] = _coerce(f"{name}.{key}", value, target)
    try:
        return cls(**kwargs)
    except ValidationError as err:
        raise ValidationError(f"{name}: {err}") from None


def load_scenario(source: str | bytes | dict) -> Scenario:
    """Build a validated :class:`Scenario` from a JSON document.

    ``source`` may be JSON text/bytes or an already-parsed mapping.  Sections
    and keys not present fall back to the baseline preset; unknown sections or
    keys fail with their dotted paths.
    """
    if isinstance(source, (str, bytes)):
        try:
            document = json.loads(source)
        except json.JSONDecodeError as err:
            raise ValidationError(
                f"scenario document is not valid JSON: {err.msg} "
                f"(line {err.lineno}, column {err.colno})"
            ) from None
        except UnicodeDecodeError as err:
            raise ValidationError(f"scenario document is not UTF-8 text ({err.reason})") from None
    elif isinstance(source, dict):
        document = source
    else:
        raise ValidationError(
            f"scenario source must be JSON text or a mapping, got {type(source).__name__}"
        )
    if not isinstance(document, dict):
        raise ValidationError(
            f"scenario document must be a JSON object, got {type(document).__name__}"
        )

    unknown_sections = sorted(set(document) - set(_SECTIONS))
    if unknown_sections:
        raise ValidationError(f"unknown key(s): {', '.join(unknown_sections)}")

    sections = {}
    for name, cls in _SECTIONS.items():
        body = document.get(name, {})
        if not isinstance(body, dict):
            raise ValidationError(f"{name}: expected an object, got {type(body).__name__}")
        sections[name] = _build_section(name, cls, body)
    return Scenario(**sections)


def serialize(scenario: Scenario) -> str:
    """Canonical JSON text for ``scenario``; re-loading it round-trips exactly."""
    return _files.json_text(dataclasses.asdict(scenario))


def scenario_fingerprint(scenario: Scenario) -> str:
    """Stable hex digest identifying the full parameter set."""
    return hashlib.sha256(serialize(scenario).encode("utf-8")).hexdigest()


# Case-study corridors: geometry and free-flow speeds differ from baseline,
# everything else is inherited.  Bus free-flow time keeps the baseline
# bus/auto ratio (0.025/0.05) because only auto speeds are documented.
_PRESET_OVERRIDES: dict[str, dict] = {
    "baseline": {},
    "seattle_i5": {
        "geometry": {"length_mi": 27.7},
        "bpr": {"t0_auto": 1 / 60, "t0_bus": 1 / 120},
    },
    "seattle_sr99": {
        "geometry": {"length_mi": 26.9},
        "bpr": {"t0_auto": 1 / 35, "t0_bus": 1 / 70},
    },
}

# Observed peak CBD-bound demand for the case-study corridors, pax/hr.
_DEMAND_REFERENCE: dict[str, float] = {
    "seattle_i5": 1476.0,
    "seattle_sr99": 1245.0,
}


def preset_names() -> tuple[str, ...]:
    return tuple(_PRESET_OVERRIDES)


def preset(name: str, *overrides: dict) -> Scenario:
    """Named scenario: ``baseline``, ``seattle_i5``, or ``seattle_sr99``.

    Each override document's sections are merged key by key over the
    preset's, in order, so later documents win.
    """
    document = {section: dict(body) for section, body in _preset_overrides(name).items()}
    for override in overrides:
        for section, body in override.items():
            if not isinstance(body, dict):
                raise ValidationError(f"{section}: expected an object")
            document.setdefault(section, {}).update(body)
    return load_scenario(document)


def preset_demand_reference(name: str) -> float | None:
    """Reference total demand (pax/hr) for a preset, when one is documented."""
    _preset_overrides(name)  # an unknown name fails here
    return _DEMAND_REFERENCE.get(name)


def _preset_overrides(name: str) -> dict:
    """The named preset's override document; every preset lookup goes here."""
    try:
        return _PRESET_OVERRIDES[name]
    except KeyError:
        raise ValidationError(
            f"unknown preset {name!r}; known presets: {', '.join(_PRESET_OVERRIDES)}"
        ) from None
