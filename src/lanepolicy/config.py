"""Scenario parameters: definition, validation, JSON loading, and presets.

A scenario is an immutable bundle of eight sections (geometry, signal, bpr,
bus, econ, occupancy, lane_costs, solver).  The file format is a JSON object
with those section names; any subset of keys may be given and the rest fall
back to the baseline preset, so a two-line document is a valid override file.
Unknown keys are rejected with their dotted paths.  All values must already
be in the declared units; nothing is converted.

Each field declares its one rule beside its default (:func:`_param`): an int
field takes an integer, a float field a finite number, neither a bool, inside
the declared range; a string field takes one of its declared choices.  Every
section, and the demand process of :mod:`lanepolicy.stochastic`, checks its
fields by these rules when it is built, whether from JSON or in Python, so a
section that exists is valid.  Only two rules span fields: low occupancy <=
high occupancy, and an even cell count.

Two parameters the cost model needs are not part of the published baseline
table (``n_intersections`` and ``vot_wait``).  Their defaults (10 and 15 $/hr)
are therefore deliberately loud: they are echoed into every output header
written by the CLI so a run can always be traced back to them.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import _files
from .errors import ValidationError
from .numeric import CorridorGrid, _as_index

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


# what a numeric field takes: a bool is an int, but never a number here
_NUMBERS = (int, float, np.integer, np.floating)


@dataclass(frozen=True)
class _Rule:
    """What one field admits: a value of ``kind`` in [lo, hi] (strictly
    inside with ``strict``; no upper bound when ``hi`` is None), or, for a
    string field, one of ``choices``."""

    kind: type
    lo: float | None
    hi: float | None
    strict: bool
    choices: tuple[str, ...]

    def check(self, name: str, value):
        """``value`` as a ``kind``, once it passes; the error names ``name``."""
        if self.choices:
            if isinstance(value, str) and value in self.choices:
                return value
            raise ValidationError(f"{name} must be one of {self.choices}, got {value!r}")
        if isinstance(value, bool) or not isinstance(value, _NUMBERS):
            noun = "an integer" if self.kind is int else "a number"
            raise ValidationError(f"{name} must be {noun}, got {value!r}")
        try:
            number = float(value)
        except OverflowError:
            raise ValidationError(
                f"{name} must be finite, got an integer too large for a float"
            ) from None
        if not math.isfinite(number):
            raise ValidationError(f"{name} must be finite, got {value}")
        if self.kind is int:
            number = _as_index(value)
            if number is None:
                raise ValidationError(f"{name} must be an integer, got {value}")
        lo, hi = self.lo, self.hi
        if self.strict:
            inside = lo < number and (hi is None or number < hi)
        else:
            inside = lo <= number and (hi is None or number <= hi)
        if not inside:
            if hi is None:
                bounds = f"be {'>' if self.strict else '>='} {lo}"
            elif self.strict:
                bounds = f"lie strictly between {lo} and {hi}"
            else:
                bounds = f"lie in [{lo}, {hi}]"
            raise ValidationError(f"{name} must {bounds}, got {value}")
        return number


def _param(default, lo=None, hi=None, strict=False, choices=()):
    """A dataclass field with ``default`` and the one rule that checks it;
    the field's type is the default's."""
    return field(default=default, metadata={"rule": _Rule(type(default), lo, hi, strict, choices)})


@functools.cache
def _rules(cls: type) -> tuple[tuple[str, _Rule], ...]:
    """Each field of the parameter dataclass ``cls`` with its declared rule."""
    return tuple((f_.name, f_.metadata["rule"]) for f_ in dataclasses.fields(cls))


class _Params:
    """Base of the parameter dataclasses: building one checks each field by
    its declared rule and stores it as its field's type."""

    def __post_init__(self) -> None:
        for name, rule in _rules(type(self)):
            value = getattr(self, name)
            checked = rule.check(name, value)
            if checked is not value:
                object.__setattr__(self, name, checked)


@dataclass(frozen=True)
class Geometry(_Params):
    """Corridor layout: length, lane count, per-lane capacity, intersections."""

    length_mi: float = _param(30.0, lo=0, strict=True)
    # exclusive-lane policies reserve one lane, so at least two must exist
    n_lanes: int = _param(3, lo=2)
    lane_capacity_vph: float = _param(1500.0, lo=0, strict=True)
    # at most 10,000: each signal is one delay column per stream in every pricing;
    # there, three optima at q0 = 1000 take 0.5 s and 58 MiB peak RSS on a 2-vCPU host
    n_intersections: int = _param(10, lo=0, hi=10_000)

    @property
    def intersection_positions(self) -> tuple[float, ...]:
        """Evenly spaced signal locations, miles from the outer boundary."""
        n = self.n_intersections
        return tuple(self.length_mi * i / (n + 1) for i in range(1, n + 1))


@dataclass(frozen=True)
class SignalParams(_Params):
    """Pre-timed signal description feeding the intersection-delay formula."""

    cycle_s: float = _param(130.0, lo=0, strict=True)
    green_ratio: float = _param(0.7, lo=0, hi=1, strict=True)
    incremental_delay_factor: float = _param(0.5, lo=0, strict=True)
    upstream_filter: float = _param(1.0, lo=0, strict=True)
    analysis_period_hr: float = _param(1.0, lo=0, strict=True)


@dataclass(frozen=True)
class BprParams(_Params):
    """Volume-delay curve coefficients per mode, plus the bus PCE factor."""

    t0_auto: float = _param(0.05, lo=0, strict=True)  # free-flow hr/mi
    t0_bus: float = _param(0.025, lo=0, strict=True)
    alpha_auto: float = _param(0.15, lo=0)
    beta_auto: float = _param(4.0, lo=1)
    alpha_bus: float = _param(0.15, lo=0)
    beta_bus: float = _param(4.0, lo=1)
    bus_pce: float = _param(3.0, lo=1)  # one bus counts as this many autos in a shared lane


@dataclass(frozen=True)
class BusServiceParams(_Params):
    """Bus fleet, fare, waiting-time calibration, crowding, operating costs."""

    capacity_pax: float = _param(70.0, lo=0, strict=True)
    fare: float = _param(1.0, lo=0)
    wait_gamma1: float = _param(0.5, lo=0, strict=True)
    wait_gamma2: float = _param(0.05, lo=0, strict=True)
    wait_gamma3: float = _param(2.0, lo=0, strict=True)
    discomfort_quad: float = _param(1e-6, lo=0)  # $/hr weight on squared onboard load
    discomfort_lin: float = _param(0.005, lo=0)  # $/hr weight on onboard load
    fixed_operating_cost: float = _param(300.0, lo=0)  # $ per analysis hour
    variable_operating_cost: float = _param(20.0, lo=0)  # $ per bus-hour of round-trip fleet time


@dataclass(frozen=True)
class EconParams(_Params):
    """Values of time and out-of-pocket auto costs."""

    vot_auto: float = _param(20.0, lo=0)  # $/hr in an auto
    vot_bus: float = _param(15.0, lo=0)  # $/hr in a bus
    vot_wait: float = _param(15.0, lo=0)  # $/hr at a stop; no published baseline, default = vot_bus
    auto_fixed_cost: float = _param(2.0, lo=0)  # $ per auto trip
    auto_cost_per_mi: float = _param(0.3, lo=0)


@dataclass(frozen=True)
class OccupancyParams(_Params):
    """Low/high auto-occupancy mix among auto travelers."""

    low_share: float = _param(0.6, lo=0, hi=1)  # fraction of low-occupancy vehicles among autos
    low_occupancy: float = _param(1.0, lo=0, strict=True)  # pax/veh
    high_occupancy: float = _param(3.0, lo=0, strict=True)  # pax/veh

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.low_occupancy > self.high_occupancy:
            raise ValidationError(
                "occupancies must satisfy low_occupancy <= high_occupancy, got "
                f"low={self.low_occupancy}, high={self.high_occupancy}"
            )


@dataclass(frozen=True)
class LanePolicyCosts(_Params):
    """Signal/segregation implementation costs for the exclusive-lane policies."""

    ebl_fixed: float = _param(100.0, lo=0)  # $ per analysis hour
    ebl_variable_per_mi: float = _param(5.0, lo=0)  # $ per analysis hour per corridor mile
    hovl_fixed: float = _param(500.0, lo=0)
    hovl_variable_per_mi: float = _param(10.0, lo=0)


@dataclass(frozen=True)
class SolverSettings(_Params):
    """Numerical resolutions and rule variants used by the optimizer layers."""

    # at most 100,000: a costmodel._PRICE_BLOCK-point gap pass's node profiles are 13 MB there
    n_cells: int = _param(600, lo=2, hi=100_000)
    # the lower bounds on the steps and the upper bounds on f_cap and the
    # refine factor bound the split and frequency lattices a search builds;
    # the optimizer sizes its density blocks by the larger of the coarse
    # split lattice and a refined window's 2*r_refine_factor + 1 shares
    r_step: float = _param(0.01, lo=0.001, hi=0.5)  # coarse mode-split lattice
    # one refinement round shrinks the step by this
    r_refine_factor: int = _param(10, lo=2, hi=1000)
    f_cap: float = _param(120.0, lo=1, hi=12_000)  # buses/hr search ceiling
    f_refine_step: float = _param(0.1, lo=0.001, hi=1)  # frequency refinement resolution
    # pax/hr/mi bisection width for switching points
    threshold_tol: float = _param(1.0, lo=0, strict=True)
    # intersection volume accounting variant
    delay_volume_mode: str = _param("segment", choices=("segment", "cumulative"))
    # mode split chosen by cost or by equal disutility
    split_rule: str = _param("cost_min", choices=("cost_min", "equilibrium"))

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.n_cells % 2:
            raise ValidationError(f"n_cells must be even, got {self.n_cells}")


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


def _coerce(value: object, kind: type) -> object:
    """A JSON value for a field of type ``kind``: JSON does not tell 4.0
    from 4, so an integral float counts as an int.  The section checks the
    result."""
    if kind is int and isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def _build_section(name: str, cls: type, doc: dict) -> object:
    rules = dict(_rules(cls))
    unknown = sorted(set(doc) - set(rules))
    if unknown:
        paths = ", ".join(f"{name}.{key}" for key in unknown)
        raise ValidationError(f"unknown key(s): {paths}")
    kwargs = {key: _coerce(value, rules[key].kind) for key, value in doc.items()}
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
            document = _files.parse_json(source, "scenario document")
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
    return _fingerprint(dataclasses.asdict(scenario))


def _fingerprint(document: dict) -> str:
    """:func:`scenario_fingerprint` of the scenario whose
    ``dataclasses.asdict`` document is ``document``."""
    return hashlib.sha256(_files.json_text(document).encode("utf-8")).hexdigest()


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
