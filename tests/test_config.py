"""Scenario schema: defaults, validation, serialization, presets."""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest

from lanepolicy import (
    BprParams,
    BusServiceParams,
    EconParams,
    Geometry,
    LanePolicyCosts,
    OccupancyParams,
    OUParams,
    Scenario,
    SignalParams,
    SolverSettings,
    ValidationError,
    load_scenario,
    preset,
    preset_demand_reference,
    preset_names,
    scenario_fingerprint,
    serialize,
)


class TestDefaults:
    def test_headline_defaults(self, baseline: Scenario):
        assert baseline.geometry.length_mi == pytest.approx(30.0)
        assert baseline.geometry.n_lanes == 3
        assert baseline.geometry.lane_capacity_vph == pytest.approx(1500.0)
        assert baseline.geometry.n_intersections == 10
        assert baseline.econ.vot_wait == pytest.approx(15.0)
        assert baseline.bus.capacity_pax == pytest.approx(70.0)
        assert baseline.bpr.bus_pce == pytest.approx(3.0)

    def test_occupancy_defaults_average(self, baseline: Scenario):
        occ = baseline.occupancy
        assert occ.low_share == pytest.approx(0.6)
        # implied fleet average occupancy used by shared-lane policies
        mu, ol, oh = occ.low_share, occ.low_occupancy, occ.high_occupancy
        ql = mu * ol / (mu * ol + (1.0 - mu) * oh)
        avg = ol * oh / (oh * ql + ol * (1.0 - ql))
        assert avg == pytest.approx(1.8)

    def test_signal_program_defaults(self, baseline: Scenario):
        assert baseline.signal.cycle_s == pytest.approx(130.0)
        assert baseline.signal.green_ratio == pytest.approx(0.7)

    def test_frozen(self, baseline: Scenario):
        with pytest.raises(AttributeError):
            baseline.geometry.length_mi = 11.0  # type: ignore[misc]


class TestLoadScenario:
    def test_empty_document_gives_defaults(self):
        assert load_scenario({}) == Scenario()

    def test_round_trip_preserves_scenario(self, baseline: Scenario):
        again = load_scenario(serialize(baseline))
        assert again == baseline
        assert scenario_fingerprint(again) == scenario_fingerprint(baseline)

    def test_partial_section_merges_with_defaults(self):
        scen = load_scenario({"geometry": {"length_mi": 12.5}})
        assert scen.geometry.length_mi == pytest.approx(12.5)
        assert scen.geometry.n_lanes == Scenario().geometry.n_lanes

    def test_accepts_json_text_and_bytes(self):
        doc = json.dumps({"econ": {"vot_auto": 21.0}})
        assert load_scenario(doc).econ.vot_auto == pytest.approx(21.0)
        assert load_scenario(doc.encode()).econ.vot_auto == pytest.approx(21.0)

    def test_bytes_that_are_not_utf8(self):
        with pytest.raises(
            ValidationError, match=r"^scenario document is not UTF-8 text \(invalid start byte\)$"
        ):
            load_scenario(b"\xff{}")

    @pytest.mark.parametrize("encode", [False, True])
    def test_integer_past_the_digit_limit(self, encode):
        # Python converts at most 4,300 digits of a string to an int
        doc = '{"solver": {"n_cells": 1' + "0" * 5000 + "}}"
        with pytest.raises(
            ValidationError,
            match=r"^scenario document: an integer is too long to read \(Exceeds the limit "
                  r"\(4300 digits\) for integer string conversion: value has 5001 digits\)$",
        ):
            load_scenario(doc.encode() if encode else doc)

    def test_nesting_past_the_recursion_limit(self):
        doc = "[" * 100_000 + "]" * 100_000
        with pytest.raises(
            ValidationError,
            match=r"^scenario document: nested too deeply to read \(maximum recursion depth ",
        ):
            load_scenario(doc)

    def test_malformed_text_keeps_its_message(self):
        with pytest.raises(
            ValidationError,
            match=r"^scenario document is not valid JSON: Expecting value \(line 1, column 7\)$",
        ):
            load_scenario('{"a": ')

    def test_unknown_key_reported_with_dotted_path(self):
        with pytest.raises(ValidationError, match=r"geometry\.lenght_mi"):
            load_scenario({"geometry": {"lenght_mi": 10.0}})
        with pytest.raises(ValidationError, match="geometri"):
            load_scenario({"geometri": {}})

    def test_int_field_accepts_integral_float_only(self):
        scen = load_scenario({"geometry": {"n_lanes": 4.0}})
        assert scen.geometry.n_lanes == 4
        with pytest.raises(ValidationError):
            load_scenario({"geometry": {"n_lanes": 3.5}})

    def test_bools_rejected_for_numeric_fields(self):
        with pytest.raises(ValidationError):
            load_scenario({"geometry": {"n_lanes": True}})

    @pytest.mark.parametrize(
        "document",
        [
            {"solver": {"f_cap": float("inf")}},
            {"econ": {"vot_wait": float("inf")}},
            {"bpr": {"alpha_auto": float("nan")}},
            '{"geometry": {"n_lanes": Infinity}}',
            pytest.param('{"econ": {"vot_wait": 1%s}}' % ("0" * 400), id="huge_int"),
        ],
    )
    def test_non_finite_numbers_rejected(self, document):
        with pytest.raises(ValidationError):
            load_scenario(document)

    def test_invariant_violations(self):
        with pytest.raises(ValidationError):
            load_scenario({"geometry": {"n_lanes": 1}})  # reserving a lane needs >= 2
        with pytest.raises(ValidationError):
            load_scenario({"occupancy": {"low_share": 1.5}})
        with pytest.raises(ValidationError):
            load_scenario(
                {"occupancy": {"low_occupancy": 3.0, "high_occupancy": 2.0}}
            )
        with pytest.raises(ValidationError):
            load_scenario({"signal": {"green_ratio": 0.0}})
        with pytest.raises(ValidationError):
            load_scenario({"solver": {"r_step": 0.0}})

    def test_cell_count_bounded(self):
        assert load_scenario({"solver": {"n_cells": 100_000}}).solver.n_cells == 100_000
        with pytest.raises(ValidationError, match="n_cells"):
            load_scenario({"solver": {"n_cells": 100_002}})

    @pytest.mark.parametrize(
        "name,legal,too_far",
        [
            ("f_cap", [120.0, 400.0, 12_000.0], 12_000.5),
            ("r_step", [0.001, 0.01, 0.5], 0.000999),
            ("f_refine_step", [0.001, 0.1, 1.0], 0.000999),
            ("r_refine_factor", [2, 10, 1000], 1001),
        ],
    )
    def test_lattice_sizes_bounded(self, name, legal, too_far):
        for value in legal:
            assert getattr(load_scenario({"solver": {name: value}}).solver, name) == value
        with pytest.raises(ValidationError, match=name):
            load_scenario({"solver": {name: too_far}})

    def test_fingerprint_changes_with_content(self, baseline: Scenario):
        other = load_scenario({"econ": {"vot_auto": 18.5}})
        assert scenario_fingerprint(other) != scenario_fingerprint(baseline)

    def test_default_fingerprint_is_pinned(self):
        # run manifests record it, so its bytes must not change
        assert scenario_fingerprint(Scenario()) == (
            "9e923190e2cd8ef391aac82af5726342bd3d2f1ccb8a93b29627cf8bff4719eb"
        )

    def test_serialize_is_canonical_json(self, baseline: Scenario):
        text = serialize(baseline)
        doc = json.loads(text)
        assert set(doc) == {
            "geometry",
            "signal",
            "bpr",
            "bus",
            "econ",
            "occupancy",
            "lane_costs",
            "solver",
        }
        assert serialize(load_scenario(text)) == text


class TestPresets:
    def test_names(self):
        assert set(preset_names()) == {"baseline", "seattle_i5", "seattle_sr99"}

    def test_baseline_is_default(self):
        assert preset("baseline") == Scenario()

    def test_corridor_presets(self):
        i5 = preset("seattle_i5")
        assert i5.geometry.length_mi == pytest.approx(27.7)
        assert i5.bpr.t0_auto == pytest.approx(1.0 / 60.0)
        assert i5.bpr.t0_bus == pytest.approx(1.0 / 120.0)
        sr99 = preset("seattle_sr99")
        assert sr99.geometry.length_mi == pytest.approx(26.9)
        assert sr99.bpr.t0_auto == pytest.approx(1.0 / 35.0)
        assert sr99.bpr.t0_bus == pytest.approx(1.0 / 70.0)

    def test_overrides_merge_over_the_preset_in_order(self):
        scen = preset(
            "seattle_i5",
            {"bpr": {"t0_bus": 0.01}, "econ": {"vot_auto": 25.0}},
            {"econ": {"vot_auto": 30.0}},
        )
        assert scen.geometry.length_mi == pytest.approx(27.7)  # preset key kept
        assert scen.bpr.t0_auto == pytest.approx(1.0 / 60.0)  # sibling of an override kept
        assert scen.bpr.t0_bus == 0.01
        assert scen.econ.vot_auto == 30.0  # the later document wins
        assert preset("seattle_i5").bpr.t0_bus == pytest.approx(1.0 / 120.0)  # table untouched

    def test_override_section_must_be_an_object(self):
        with pytest.raises(ValidationError, match=r"^geometry: expected an object$"):
            preset("baseline", {"geometry": 5})

    def test_demand_reference_levels(self):
        assert preset_demand_reference("seattle_i5") == pytest.approx(1476.0)
        assert preset_demand_reference("seattle_sr99") == pytest.approx(1245.0)
        assert preset_demand_reference("baseline") is None

    def test_unknown_preset(self):
        known = "baseline, seattle_i5, seattle_sr99"
        for lookup in (preset, preset_demand_reference):
            with pytest.raises(ValidationError, match=f"^unknown preset 'nope'; known presets: {known}$"):
                lookup("nope")


# Every field of every parameter dataclass with what it admits: (lowest,
# highest or None, whether both bounds are excluded), or a string field's
# choices.
_POSITIVE, _NON_NEGATIVE = (0, None, True), (0, None, False)
_RULES = {
    Geometry: {
        "length_mi": _POSITIVE,
        "n_lanes": (2, None, False),
        "lane_capacity_vph": _POSITIVE,
        "n_intersections": (0, 10_000, False),
    },
    SignalParams: {
        "cycle_s": _POSITIVE,
        "green_ratio": (0, 1, True),
        "incremental_delay_factor": _POSITIVE,
        "upstream_filter": _POSITIVE,
        "analysis_period_hr": _POSITIVE,
    },
    BprParams: {
        "t0_auto": _POSITIVE,
        "t0_bus": _POSITIVE,
        "alpha_auto": _NON_NEGATIVE,
        "beta_auto": (1, None, False),
        "alpha_bus": _NON_NEGATIVE,
        "beta_bus": (1, None, False),
        "bus_pce": (1, None, False),
    },
    BusServiceParams: {
        "capacity_pax": _POSITIVE,
        "fare": _NON_NEGATIVE,
        "wait_gamma1": _POSITIVE,
        "wait_gamma2": _POSITIVE,
        "wait_gamma3": _POSITIVE,
        "discomfort_quad": _NON_NEGATIVE,
        "discomfort_lin": _NON_NEGATIVE,
        "fixed_operating_cost": _NON_NEGATIVE,
        "variable_operating_cost": _NON_NEGATIVE,
    },
    EconParams: dict.fromkeys(
        ("vot_auto", "vot_bus", "vot_wait", "auto_fixed_cost", "auto_cost_per_mi"), _NON_NEGATIVE
    ),
    OccupancyParams: {
        "low_share": (0, 1, False),
        "low_occupancy": _POSITIVE,
        "high_occupancy": _POSITIVE,
    },
    LanePolicyCosts: dict.fromkeys(
        ("ebl_fixed", "ebl_variable_per_mi", "hovl_fixed", "hovl_variable_per_mi"), _NON_NEGATIVE
    ),
    SolverSettings: {
        "n_cells": (2, 100_000, False),
        "r_step": (0.001, 0.5, False),
        "r_refine_factor": (2, 1000, False),
        "f_cap": (1, 12_000, False),
        "f_refine_step": (0.001, 1, False),
        "threshold_tol": _POSITIVE,
        "delay_volume_mode": ("segment", "cumulative"),
        "split_rule": ("cost_min", "equilibrium"),
    },
    OUParams: {
        "mean_reversion": _NON_NEGATIVE,
        "long_run_level": _POSITIVE,
        "volatility": _NON_NEGATIVE,
        "q0_init": _POSITIVE,
    },
}
_SECTION_NAMES = {type(getattr(Scenario(), f.name)): f.name for f in dataclasses.fields(Scenario)}
_FIELDS = [(cls, name) for cls, fields in _RULES.items() for name in fields]


def _rejected(cls: type, name: str) -> list:
    """Values the field must reject: a bool, a string, NaN, inf, a value
    just past each bound and, for an int field, a non-integral float."""
    values = [True, "1", math.nan, math.inf]
    rule = _RULES[cls][name]
    if isinstance(rule[0], str):
        return values
    lo, hi, strict = rule
    if isinstance(getattr(cls(), name), int):
        values += [lo - 1, lo + 0.5] + ([] if hi is None else [hi + 1])
    else:
        values.append(lo if strict else math.nextafter(lo, -math.inf))
        if hi is not None:
            values.append(hi if strict else math.nextafter(hi, math.inf))
    return values


@pytest.mark.parametrize("cls,name", _FIELDS, ids=[f"{c.__name__}.{n}" for c, n in _FIELDS])
def test_every_field_checks_its_rule(cls, name):
    section = _SECTION_NAMES.get(cls)  # the demand process is built in Python only
    for value in _rejected(cls, name):
        with pytest.raises(ValidationError, match=f"^{name} "):
            cls(**{name: value})
        if section is not None:
            with pytest.raises(ValidationError, match=f"^{section}: {name} "):
                load_scenario({section: {name: value}})
    rule = _RULES[cls][name]  # and it takes each choice, and each bound it includes
    if isinstance(rule[0], str):
        included = rule
    else:
        lo, hi, strict = rule
        included = [] if strict else [lo] + ([] if hi is None else [hi])
    for value in included:
        assert getattr(cls(**{name: value}), name) == value


@pytest.mark.parametrize("cls", list(_RULES), ids=lambda cls: cls.__name__)
def test_every_field_declares_its_rule(cls):
    # a field added without a range or choices would go unchecked
    assert [f.name for f in dataclasses.fields(cls)] == list(_RULES[cls])
    for f in dataclasses.fields(cls):
        rule = f.metadata["rule"]
        assert rule.choices or rule.lo is not None, f.name


@pytest.mark.parametrize(
    "build",
    [
        lambda: Geometry(n_intersections=1.5),
        lambda: Geometry(n_lanes=2.5),
        lambda: Geometry(lane_capacity_vph=math.inf),
        lambda: BprParams(beta_auto=math.inf),
        lambda: OccupancyParams(low_share=True),
        lambda: Geometry(length_mi="30"),
    ],
    ids=["fractional_intersections", "fractional_lanes", "inf_capacity", "inf_beta",
         "bool_share", "string_length"],
)
def test_section_built_in_python_is_checked(build):
    with pytest.raises(ValidationError):
        build()


def test_section_built_in_python_reloads_from_its_text():
    # every field is stored as its own type, so the text reloads to itself
    scenario = Scenario(
        geometry=Geometry(length_mi=30, n_lanes=np.int64(4)),
        solver=SolverSettings(n_cells=np.int64(400), f_cap=np.float32(100.0)),
    )
    text = serialize(scenario)
    assert load_scenario(text) == scenario
    assert serialize(load_scenario(text)) == text
    assert scenario_fingerprint(Scenario(geometry=Geometry(length_mi=30))) == scenario_fingerprint(
        Scenario()
    )
