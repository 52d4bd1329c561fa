"""Scenario schema: defaults, validation, serialization, presets."""

from __future__ import annotations

import json

import pytest

from lanepolicy import (
    Scenario,
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
