"""Travel times, stop waiting, crowding, signal delay, and the cost breakdown."""

from __future__ import annotations

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lanepolicy import (
    POLICY_ORDER,
    LanePolicyError,
    Policy,
    Scenario,
    UndefinedServiceError,
    ValidationError,
    DemandField,
    auto_disutility,
    bpr_time,
    bus_disutility,
    cost_breakdown,
    discomfort_cost,
    intersection_delay,
    line_haul_time,
    load_scenario,
    total_intersection_delay,
    unit_time_profile,
    waiting_time,
)
from lanepolicy.costmodel import (
    LANE_TABLE,
    _arriving,
    _context,
    _loads,
    build_context,
    cost_breakdowns,
    mean_auto_disutility,
    signal_auto_pax,
)
from lanepolicy import _fsweep
from lanepolicy._fsweep import FrequencySweep, _scan_rows
from lanepolicy.numeric import _lattice
from lanepolicy.optimizer import (
    _best_split_at_fixed_f,
    equilibrium_gap,
    foc_residual,
    min_frequency,
)

import _reference
from _oracle import oracle_breakdown


class TestPolicyEnum:
    def test_parse(self):
        assert Policy.parse("mtp") is Policy.MTP
        assert Policy.parse("EBLP") is Policy.EBLP
        assert Policy.parse(" hovlp ") is Policy.HOVLP
        with pytest.raises(ValidationError):
            Policy.parse("busway")

    def test_parse_returns_a_policy_as_given(self):
        assert Policy.parse(Policy.MTP) is Policy.MTP
        for other in (3, None, 1.5):
            with pytest.raises(ValidationError):
                Policy.parse(other)

    def test_canonical_order(self):
        assert POLICY_ORDER == (Policy.MTP, Policy.EBLP, Policy.HOVLP)


class TestBprTime:
    def test_free_flow_and_capacity_points(self, baseline: Scenario):
        b = baseline.bpr
        assert bpr_time(b.t0_auto, b.alpha_auto, b.beta_auto, 0.0, 1500.0) == pytest.approx(0.05)
        # at volume == capacity the congestion factor is 1 + alpha
        assert bpr_time(b.t0_auto, b.alpha_auto, b.beta_auto, 1500.0, 1500.0) == pytest.approx(
            0.0575
        )
        assert bpr_time(b.t0_bus, b.alpha_bus, b.beta_bus, 1500.0, 1500.0) == pytest.approx(
            0.02875
        )

    def test_strictly_increasing_in_volume(self, baseline: Scenario):
        b = baseline.bpr
        vols = np.linspace(0.0, 3000.0, 13)
        times = bpr_time(b.t0_auto, b.alpha_auto, b.beta_auto, vols, 1500.0)
        assert np.all(np.diff(times) > 0)

    def test_guards(self):
        with pytest.raises(ValidationError):
            bpr_time(0.05, 0.15, 4.0, 100.0, 0.0)
        with pytest.raises(ValidationError):
            bpr_time(0.05, 0.15, 4.0, -5.0, 1500.0)


class TestTimeProfiles:
    def test_reserved_lane_bus_profile_is_flat(self, baseline: Scenario):
        # with a lane to itself the bus sees only its own frequency, which
        # does not vary along the corridor
        ctx = build_context(baseline, 1000.0, 0.75, 16.0)
        prof = unit_time_profile(ctx, Policy.EBLP, "bus")
        assert np.ptp(prof) == 0.0
        assert prof[0] == pytest.approx(
            bpr_time(
                baseline.bpr.t0_bus,
                baseline.bpr.alpha_bus,
                baseline.bpr.beta_bus,
                baseline.bpr.bus_pce * 16.0,
                baseline.geometry.lane_capacity_vph,
            )
        )

    def test_shared_lane_time_decreases_downstream(self, baseline: Scenario):
        # demand thins toward the corridor end, so congestion eases
        ctx = build_context(baseline, 1500.0, 0.8, 10.0)
        prof = unit_time_profile(ctx, Policy.MTP, "auto")
        assert np.all(np.diff(prof) <= 0)
        assert prof[0] > prof[-1]

    def test_all_riders_high_occupancy_matches_reserved_lane_bus(self, baseline: Scenario):
        # when every auto is high-occupancy the reserved lane carries
        # exactly the same traffic under either reserved-lane policy
        scen = Scenario(
            occupancy=type(baseline.occupancy)(
                low_share=0.0, low_occupancy=1.0, high_occupancy=1.8
            )
        )
        ctx = build_context(scen, 1000.0, 0.75, 16.0)
        bus_hov = unit_time_profile(ctx, Policy.HOVLP, "bus")
        # bus shares the reserved lane with all autos now
        from lanepolicy.demand import DemandField, cumulative_demand

        field = DemandField(q0=1000.0, length_mi=scen.geometry.length_mi, auto_share=0.75)
        vol = cumulative_demand(field, "auto", ctx.grid.nodes) / 1.8 + 3.0 * 16.0
        expect = bpr_time(
            scen.bpr.t0_bus, scen.bpr.alpha_bus, scen.bpr.beta_bus, vol,
            scen.geometry.lane_capacity_vph,
        )
        np.testing.assert_allclose(bus_hov, expect, rtol=1e-12)

    def test_invalid_class_for_policy(self, baseline: Scenario):
        ctx = build_context(baseline, 1000.0, 0.75, 16.0)
        with pytest.raises(ValidationError):
            unit_time_profile(ctx, Policy.MTP, "low_occ_auto")
        with pytest.raises(ValidationError):
            unit_time_profile(ctx, Policy.HOVLP, "auto")


class TestLineHaul:
    def test_reserved_lane_bus_round_trip(self, baseline: Scenario):
        ctx = build_context(baseline, 1000.0, 0.75, 16.0)
        t_end = line_haul_time(ctx, Policy.EBLP, "bus")[-1]
        flat = bpr_time(
            baseline.bpr.t0_bus, baseline.bpr.alpha_bus, baseline.bpr.beta_bus,
            48.0, 1500.0,
        )
        assert t_end == pytest.approx(flat * 30.0, rel=1e-9)

    def test_zero_at_origin_and_monotone(self, baseline: Scenario):
        ctx = build_context(baseline, 1200.0, 0.7, 12.0)
        times = line_haul_time(ctx, Policy.MTP, "bus")
        assert times[0] == 0.0
        assert np.all(np.diff(times) > 0)


class TestWaiting:
    def test_headway_term_only_when_no_riders_left(self, baseline: Scenario):
        ctx = build_context(baseline, 1000.0, 0.75, 16.0)
        assert waiting_time(ctx)[-1] == pytest.approx(0.5 / 16.0)

    def test_crowding_term_at_boundary(self, baseline: Scenario):
        ctx = build_context(baseline, 1000.0, 0.75, 16.0)
        q_bus = 0.25 * 1000.0 * 30.0 / 2.0
        expect = 0.5 / 16.0 + (0.05 / 16.0) * (q_bus / (70.0 * 16.0)) ** 2.0
        assert waiting_time(ctx)[0] == pytest.approx(expect, rel=1e-12)

    def test_decreasing_in_frequency(self, baseline: Scenario):
        waits = [
            waiting_time(build_context(baseline, 1000.0, 0.75, f))[0]
            for f in (4.0, 8.0, 16.0, 32.0)
        ]
        assert all(a > b for a, b in zip(waits, waits[1:]))

    def test_zero_frequency_service_undefined(self, baseline: Scenario):
        ctx = build_context(baseline, 1000.0, 0.75, 0.0)
        with pytest.raises(UndefinedServiceError):
            waiting_time(ctx)


class TestDiscomfort:
    def test_zero_at_origin_and_increasing(self, baseline: Scenario):
        ctx = build_context(baseline, 1000.0, 0.5, 16.0)
        costs = discomfort_cost(ctx, Policy.MTP)
        assert costs[0] == 0.0
        assert np.all(np.diff(costs) >= 0)

    def test_no_riders_no_discomfort(self, baseline: Scenario):
        ctx = build_context(baseline, 1000.0, 1.0, 16.0)
        assert discomfort_cost(ctx, Policy.MTP)[-1] == pytest.approx(0.0, abs=1e-12)


class TestIntersectionDelay:
    def test_empty_approach_gives_uniform_term(self, baseline: Scenario):
        # cycle*(1-g)^2/2 with no saturation correction
        sig = baseline.signal
        expect = sig.cycle_s * (1.0 - sig.green_ratio) ** 2 / 2.0
        assert intersection_delay(sig, 0.0, 1500.0) == pytest.approx(expect)

    def test_reference_points(self, baseline: Scenario):
        sig = baseline.signal
        assert intersection_delay(sig, 750.0, 1500.0) == pytest.approx(10.198404252, rel=1e-9)
        assert intersection_delay(sig, 1350.0, 1500.0) == pytest.approx(26.030569342, rel=1e-9)

    def test_defined_and_increasing_through_saturation(self, baseline: Scenario):
        sig = baseline.signal
        vols = np.linspace(0.0, 2250.0, 10)  # crosses v/c = 1
        delays = intersection_delay(sig, vols, 1500.0)
        assert np.all(np.isfinite(delays))
        assert np.all(np.diff(delays) > 0)

    def test_negative_volume_rejected(self, baseline: Scenario):
        with pytest.raises(ValidationError):
            intersection_delay(baseline.signal, -1.0, 1500.0)

    def test_stacked_capacities_match_scalar_calls(self, baseline: Scenario):
        sig = baseline.signal
        arriving = np.array([[0.0, 750.0, 1600.0, 2900.0], [200.0, 1350.0, 3300.0, 4800.0]])
        capacity = np.array([[1500.0], [3000.0]])
        scalar = [
            [intersection_delay(sig, float(v), float(c[0])) for v in row]
            for row, c in zip(arriving, capacity)
        ]
        np.testing.assert_array_equal(intersection_delay(sig, arriving, capacity), scalar)

    @pytest.mark.parametrize("capacity", [0.0, [1500.0, 0.0], [[-1.0], [1500.0]]])
    def test_nonpositive_capacity_rejected(self, baseline: Scenario, capacity):
        with pytest.raises(ValidationError, match="capacity"):
            intersection_delay(baseline.signal, np.array([100.0, 200.0]), np.array(capacity))


class TestSignalColumns:
    # one column per (lane stream, intersection), streams in LANE_TABLE order
    def test_reserved_bus_lane_sees_only_buses(self, baseline: Scenario):
        ctx = build_context(baseline, 1000.0, 0.75, 16.0)
        arriving, cap = _arriving(ctx, Policy.EBLP), _loads(baseline, Policy.EBLP).signals[2]
        # bus flow spread uniformly across the 10 intersections (11 spacings)
        assert arriving[:10] == pytest.approx(np.full(10, 3.0 * 16.0 / 11.0), rel=1e-12)
        assert list(cap) == [1500.0] * 10 + [3000.0] * 10

    def test_mixed_lane_counts_autos_and_buses(self, baseline: Scenario):
        ctx = build_context(baseline, 1000.0, 0.75, 16.0)
        arriving, cap = _arriving(ctx, Policy.MTP), _loads(baseline, Policy.MTP).signals[2]
        # segment volume between consecutive intersections plus the bus slice
        q0, a, r = 1000.0, 30.0, 0.75
        q = lambda x: r * q0 * (a - x) ** 2 / (2.0 * a)
        seg = [(q(a * i / 11) - q(a * (i + 1) / 11)) / 1.8 for i in range(1, 11)]
        assert arriving == pytest.approx(np.add(seg, 48.0 / 11.0), rel=1e-12)
        assert list(cap) == [3 * 1500.0] * 10


class TestTotalIntersectionDelay:
    def test_no_intersections_no_delay(self):
        from lanepolicy import Geometry

        scen = Scenario(geometry=Geometry(n_intersections=0))
        ctx = build_context(scen, 1000.0, 0.75, 16.0)
        assert total_intersection_delay(ctx, Policy.MTP, "auto") == 0.0

    def test_brute_force_match(self, baseline: Scenario):
        from lanepolicy.demand import cumulative_demand

        ctx = build_context(baseline, 1000.0, 0.75, 16.0)
        expect = 0.0
        arriving = _arriving(ctx, Policy.MTP)  # the one shared stream's 10 intersections
        for i in range(1, 11):
            pos = 30.0 * i / 11.0
            d = intersection_delay(baseline.signal, float(arriving[i - 1]), 3 * 1500.0)
            expect += d * cumulative_demand(ctx.demand_field, "bus", pos) / 3600.0
        got = total_intersection_delay(ctx, Policy.MTP, "bus")
        assert got == pytest.approx(expect, rel=1e-12)

    def test_mode_validated(self, baseline: Scenario):
        ctx = build_context(baseline, 1000.0, 0.75, 16.0)
        with pytest.raises(ValidationError):
            total_intersection_delay(ctx, Policy.MTP, "walk")


class TestDisutilities:
    def test_bus_disutility_at_origin(self, baseline: Scenario):
        # no ride, no crowding yet: value of waiting plus the fare
        ctx = build_context(baseline, 1000.0, 0.75, 16.0)
        expect = 15.0 * waiting_time(ctx)[0] + 1.0
        assert bus_disutility(ctx, Policy.MTP)[0] == pytest.approx(expect, rel=1e-12)

    def test_auto_disutility_at_origin_shares_fixed_cost(self, baseline: Scenario):
        ctx = build_context(baseline, 1000.0, 0.75, 16.0)
        assert auto_disutility(ctx, Policy.MTP, "auto")[0] == pytest.approx(2.0 / 1.8)

    def test_occupancy_class_divisors(self, baseline: Scenario):
        ctx = build_context(baseline, 1000.0, 0.75, 16.0)
        low = auto_disutility(ctx, Policy.HOVLP, "low_occ_auto")[0]
        high = auto_disutility(ctx, Policy.HOVLP, "high_occ_auto")[0]
        assert low == pytest.approx(2.0 / 1.0)
        assert high == pytest.approx(2.0 / 3.0)

    def test_bus_class_rejected(self, baseline: Scenario):
        ctx = build_context(baseline, 1000.0, 0.75, 16.0)
        with pytest.raises(ValidationError):
            auto_disutility(ctx, Policy.MTP, "bus")


# Every public function that takes a context or a volume, at a valid operating
# point (q0 = 1e300) or volume whose costs overflow.
_OVERFLOWING = {
    "bpr_time": lambda ctx: bpr_time(1 / 60, 0.15, 4.0, 1e300, 1500.0),
    "bpr_time on an array": lambda ctx: bpr_time(1 / 60, 0.15, 4.0, np.array([1e300]), 1500.0),
    "intersection_delay": lambda ctx: intersection_delay(ctx.scenario.signal, 1e300, 1500.0),
    "intersection_delay at the signal columns": lambda ctx: intersection_delay(
        ctx.scenario.signal, _arriving(ctx, Policy.MTP), _loads(ctx.scenario, Policy.MTP).signals[2]
    ),
    "total_intersection_delay": lambda ctx: total_intersection_delay(ctx, Policy.MTP, "auto"),
    "unit_time_profile": lambda ctx: unit_time_profile(ctx, Policy.MTP, "bus"),
    "line_haul_time": lambda ctx: line_haul_time(ctx, Policy.MTP, "bus"),
    "waiting_time": waiting_time,
    "discomfort_cost": lambda ctx: discomfort_cost(ctx, Policy.MTP),
    "bus_disutility": lambda ctx: bus_disutility(ctx, Policy.MTP),
    "auto_disutility": lambda ctx: auto_disutility(ctx, Policy.HOVLP, "low_occ_auto"),
    "mean_auto_disutility": lambda ctx: mean_auto_disutility(ctx, Policy.EBLP),
}


@pytest.mark.parametrize("name", list(_OVERFLOWING))
def test_overflow_gives_a_non_finite_value_or_a_package_error(name):
    ctx = build_context(Scenario(), 1e300, 0.5, 10.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            value = _OVERFLOWING[name](ctx)
        except LanePolicyError:
            return
    assert not np.all(np.isfinite(value))


def test_delay_on_the_bus_lane_stays_finite_when_the_auto_lanes_overflow():
    # EBLP's general lanes overflow at q0 = 1e300; bus riders pay only the bus lane's delay
    ctx = build_context(Scenario(), 1e300, 0.5, 10.0)
    assert np.isfinite(total_intersection_delay(ctx, Policy.EBLP, "bus"))
    assert total_intersection_delay(ctx, Policy.EBLP, "auto") == np.inf


class TestCostBreakdown:
    def test_components_nonnegative_and_sum(self, baseline: Scenario):
        for policy in POLICY_ORDER:
            bd = cost_breakdown(baseline, policy, 1000.0, 0.75, 16.0)
            for part in (bd.bus_user, bd.bus_operator, bd.auto_user, bd.signal):
                assert part >= 0.0
            assert bd.total == pytest.approx(
                bd.bus_user + bd.bus_operator + bd.auto_user + bd.signal
            )

    def test_lane_conversion_charges(self, baseline: Scenario):
        args = (baseline, 1000.0, 0.75, 16.0)
        assert cost_breakdown(args[0], Policy.MTP, *args[1:]).signal == 0.0
        assert cost_breakdown(args[0], Policy.EBLP, *args[1:]).signal == pytest.approx(
            100.0 + 5.0 * 30.0
        )
        assert cost_breakdown(args[0], Policy.HOVLP, *args[1:]).signal == pytest.approx(
            500.0 + 10.0 * 30.0
        )

    def test_operator_cost_round_trip(self, baseline: Scenario):
        ctx = build_context(baseline, 1000.0, 0.75, 16.0)
        bd = cost_breakdown(baseline, Policy.EBLP, 1000.0, 0.75, 16.0)
        round_trip = 2.0 * line_haul_time(ctx, Policy.EBLP, "bus")[-1]
        assert bd.bus_operator == pytest.approx(300.0 + 20.0 * round_trip * 16.0, rel=1e-9)

    def test_no_bus_riders_no_bus_user_cost(self, baseline: Scenario):
        bd = cost_breakdown(baseline, Policy.MTP, 1000.0, 1.0, 8.0)
        assert bd.bus_user == 0.0
        assert bd.bus_operator > 0.0  # service still runs

    def test_no_auto_travelers_no_auto_cost(self, baseline: Scenario):
        bd = cost_breakdown(baseline, Policy.MTP, 1000.0, 0.0, 20.0)
        assert bd.auto_user == 0.0
        assert bd.bus_user > 0.0

    @pytest.mark.parametrize("policy", POLICY_ORDER)
    def test_batched_totals_match_breakdowns(self, baseline: Scenario, policy):
        fs = np.array([0.5, 16.0, 37.3, 120.0])
        got = [b.total for b in cost_breakdowns(baseline, policy, 1000.0, 0.75, fs)]
        expected = [cost_breakdown(baseline, policy, 1000.0, 0.75, f).total for f in fs]
        np.testing.assert_allclose(got, expected, rtol=5e-12)

    def test_batched_totals_keep_the_checks(self, baseline: Scenario):
        with pytest.raises(UndefinedServiceError):
            cost_breakdowns(baseline, Policy.MTP, 1000.0, 0.75, np.array([8.0, 0.0]))
        with pytest.raises(ValidationError):
            cost_breakdowns(baseline, Policy.MTP, 1000.0, 0.75, np.array([8.0, -1.0]))
        # F = 0 is defined when no one rides the bus
        no_bus = cost_breakdowns(baseline, Policy.EBLP, 1000.0, 1.0, np.array([0.0, 4.0]))
        expected = cost_breakdown(baseline, Policy.EBLP, 1000.0, 1.0, 0.0).total
        assert no_bus[0].total == pytest.approx(expected, rel=5e-12)

    def test_public_context_takes_one_frequency(self, baseline: Scenario):
        # a public context is one operating point; cost_breakdowns prices stacks
        for frequencies in (np.array([8.0, 16.0]), [16.0]):
            with pytest.raises(ValidationError, match="scalar"):
                build_context(baseline, 1000.0, 0.75, frequencies)

    @pytest.mark.parametrize(
        "policy,q0,r,f",
        [
            (Policy.MTP, 1000.0, 0.75, 16.0),
            (Policy.EBLP, 700.0, 0.6, 30.0),
            (Policy.HOVLP, 1400.0, 0.85, 22.0),
            (Policy.MTP, 50.0, 0.0, 2.0),
            (Policy.EBLP, 2500.0, 1.0, 5.0),
        ],
    )
    def test_against_independent_quadrature(self, baseline: Scenario, policy, q0, r, f):
        got = cost_breakdown(baseline, policy, q0, r, f)
        ora = oracle_breakdown(baseline, policy, q0, r, f, factor=10)
        for key in ("bus_user", "bus_operator", "auto_user", "signal", "total"):
            assert getattr(got, key) == pytest.approx(ora[key], rel=5e-3, abs=1e-6), key

    def test_oracle_agreement_on_contrast_scenario(self, contrast: Scenario):
        got = cost_breakdown(contrast, Policy.HOVLP, 900.0, 0.7, 12.0)
        ora = oracle_breakdown(contrast, Policy.HOVLP, 900.0, 0.7, 12.0, factor=10)
        assert got.total == pytest.approx(ora["total"], rel=5e-3)

    def test_cumulative_delay_volume_mode(self):
        from lanepolicy import load_scenario

        scen = load_scenario({"solver": {"delay_volume_mode": "cumulative"}})
        got = cost_breakdown(scen, Policy.MTP, 1000.0, 0.75, 16.0)
        ora = oracle_breakdown(scen, Policy.MTP, 1000.0, 0.75, 16.0, factor=10)
        assert got.total == pytest.approx(ora["total"], rel=5e-3)
        # charging all upstream autos at each signal costs more than
        # charging only the entering segment
        seg = cost_breakdown(Scenario(), Policy.MTP, 1000.0, 0.75, 16.0)
        assert got.total > seg.total


# Every layer that prices a frequency: a NaN or infinite F fails there with
# ValidationError, before any pricing.  A lone NaN candidate pads nothing.
_PRICED_AT_F = {
    "cost_breakdown": lambda scen, f: cost_breakdown(scen, Policy.MTP, 1000.0, 0.5, f),
    "cost_breakdowns": lambda scen, f: cost_breakdowns(
        scen, Policy.MTP, 1000.0, 0.5, np.array([20.0, f])
    ),
    "totals": lambda scen, f: FrequencySweep(scen, Policy.MTP, 1000.0, 0.5).totals([f]),
    "row_minima": lambda scen, f: FrequencySweep(scen, Policy.MTP, 1000.0, 0.5).row_minima([[f]]),
    "_best_split_at_fixed_f": lambda scen, f: _best_split_at_fixed_f(scen, Policy.MTP, 1000.0, f),
    "foc_residual": lambda scen, f: foc_residual(scen, Policy.MTP, 1000.0, 0.5, f),
    "equilibrium_gap": lambda scen, f: equilibrium_gap(scen, Policy.MTP, 1000.0, 0.5, f),
}


@pytest.mark.parametrize("f", [np.nan, np.inf])
@pytest.mark.parametrize("layer", list(_PRICED_AT_F))
def test_every_layer_rejects_a_non_finite_frequency(baseline: Scenario, layer, f):
    with pytest.raises(ValidationError, match=f"finite and .* got {f}$"):
        _PRICED_AT_F[layer](baseline, f)


# Stacked operating points (q0, R, F): rows with R = 0, R = 1 and q0 = 0
# share a batch with interior points, so each user cost mixes priced and
# zero rows; the last two run no buses where no one rides them.
_POINTS = (
    np.array([1000.0, 700.0, 1400.0, 50.0, 0.0, 900.0, 2214.0, 300.0, 1000.0, 0.0]),
    np.array([0.75, 0.0, 1.0, 0.0, 1.0, 0.6, 0.748, 0.25, 1.0, 0.5]),
    np.array([16.0, 30.0, 22.0, 2.0, 1.0, 45.5, 119.556, 7.25, 0.0, 0.0]),
)


class TestStackedPoints:
    @pytest.mark.parametrize("n_intersections", [0, 3, 10])
    @pytest.mark.parametrize("mode", ["segment", "cumulative"])
    @pytest.mark.parametrize("policy", POLICY_ORDER)
    def test_every_component_matches_one_point_breakdowns(self, policy, mode, n_intersections):
        scen = load_scenario({
            "solver": {"delay_volume_mode": mode},
            "geometry": {"n_intersections": n_intersections},
        })
        got = [dataclasses.astuple(b) for b in cost_breakdowns(scen, policy, *_POINTS)]
        expected = [cost_breakdown(scen, policy, *map(float, point)) for point in zip(*_POINTS)]
        assert got == [dataclasses.astuple(b) for b in expected]
        reference = _reference.cost_breakdowns(scen, policy, *_POINTS)
        np.testing.assert_allclose(got, [dataclasses.astuple(b) for b in reference], rtol=5e-12)

    @pytest.mark.parametrize("beta_auto", [4.0, 4.5])
    @pytest.mark.parametrize("policy", POLICY_ORDER)
    def test_totals_equal_breakdown_totals(self, policy, beta_auto):
        scen = load_scenario({"bpr": {"beta_auto": beta_auto}})
        fs = np.array([0.5, 16.0, 37.3, 120.0])
        got = [b.total for b in cost_breakdowns(scen, policy, 1000.0, 0.75, fs)]
        assert got == [cost_breakdown(scen, policy, 1000.0, 0.75, f).total for f in fs]

    def test_scalar_inputs_broadcast_against_arrays(self, baseline: Scenario):
        q0s = np.array([400.0, 800.0, 1600.0])
        got = [b.total for b in cost_breakdowns(baseline, Policy.HOVLP, q0s, 0.7, 24.0)]
        expected = [cost_breakdown(baseline, Policy.HOVLP, q0, 0.7, 24.0).total for q0 in q0s]
        assert got == expected

    def test_point_shapes_validated(self, baseline: Scenario):
        two, three = np.array([500.0, 600.0]), np.array([8.0, 9.0, 10.0])
        with pytest.raises(ValidationError, match="aligned"):
            cost_breakdowns(baseline, Policy.MTP, two, 0.5, three)
        with pytest.raises(ValidationError, match="1-D"):
            cost_breakdowns(baseline, Policy.MTP, 500.0, 0.5, np.ones((2, 2)))
        with pytest.raises(ValidationError, match="1-D"):
            cost_breakdowns(baseline, Policy.MTP, 500.0, 0.5, 8.0)
        for name, point in (("q0", (two, 0.5, 8.0)), ("auto_share", (500.0, [0.5], 8.0))):
            with pytest.raises(ValidationError, match=f"{name} must be a scalar"):
                build_context(baseline, *point)

    def test_many_points_are_priced_in_bounded_passes(self, baseline: Scenario):
        shares = np.linspace(0.0, 1.0, 2048)
        cost_breakdowns(baseline, Policy.HOVLP, 800.0, shares[:2], 60.0)  # cached tables
        tracemalloc.start()
        try:
            got = cost_breakdowns(baseline, Policy.HOVLP, 800.0, shares, 60.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20, peak
        assert got == [cost_breakdown(baseline, Policy.HOVLP, 800.0, r, 60.0) for r in shares]

    def test_stacked_points_keep_the_checks(self, baseline: Scenario):
        q0s, shares = np.array([500.0, 500.0]), np.array([1.0, 0.5])
        with pytest.raises(UndefinedServiceError):
            cost_breakdowns(baseline, Policy.MTP, q0s, shares, 0.0)
        with pytest.raises(ValidationError, match="auto_share"):
            cost_breakdowns(baseline, Policy.MTP, 500.0, np.array([0.5, 1.5]), 8.0)
        # F = 0 is defined at the points without bus riders
        zero = cost_breakdowns(baseline, Policy.EBLP, np.array([500.0, 0.0]), 1.0, 0.0)
        assert zero == [cost_breakdown(baseline, Policy.EBLP, q0, 1.0, 0.0) for q0 in (500.0, 0.0)]

    @pytest.mark.parametrize("policy", POLICY_ORDER)
    def test_every_node_profile_row_is_its_one_point_profile(self, baseline: Scenario, policy):
        q0s = np.array([300.0, 1000.0, 1800.0])
        shares, fs = np.array([0.4, 0.75, 0.9]), np.array([6.0, 16.0, 45.5])
        autos = [name for s in LANE_TABLE[policy](baseline).streams for name, _, _ in s.autos]
        profiles = {
            "unit_time_profile": lambda ctx: [
                unit_time_profile(ctx, policy, name) for name in ("bus", *autos)
            ],
            "line_haul_time": lambda ctx: [
                line_haul_time(ctx, policy, name) for name in ("bus", *autos)
            ],
            "waiting_time": lambda ctx: [waiting_time(ctx)],
            "discomfort_cost": lambda ctx: [discomfort_cost(ctx, policy)],
            "bus_disutility": lambda ctx: [bus_disutility(ctx, policy)],
            "auto_disutility": lambda ctx: [auto_disutility(ctx, policy, name) for name in autos],
            "mean_auto_disutility": lambda ctx: [mean_auto_disutility(ctx, policy)],
            "total_intersection_delay": lambda ctx: [
                total_intersection_delay(ctx, policy, mode) for mode in ("auto", "bus")
            ],
        }
        stacked = _context(baseline, q0s, shares, fs)
        for k, point in enumerate(zip(q0s, shares, fs)):
            one = build_context(baseline, *map(float, point))
            for name, profile in profiles.items():
                for got, want in zip(profile(stacked), profile(one), strict=True):
                    assert np.shape(got) == (3, *np.shape(want)), name
                    np.testing.assert_array_equal(got[k], want, err_msg=name)

    @pytest.mark.parametrize("mode", ["segment", "cumulative"])
    def test_signal_auto_pax_takes_rows_of_a_stacked_field(self, mode):
        scen = load_scenario({"solver": {"delay_volume_mode": mode}})
        q0s, shares = np.array([300.0, 1200.0, 0.0]), np.array([0.4, 0.9, 0.5])
        length = scen.geometry.length_mi
        got = signal_auto_pax(scen, DemandField(q0=q0s, length_mi=length, auto_share=shares))
        assert got.shape == (3, scen.geometry.n_intersections)
        for row, q0, share in zip(got, q0s, shares):
            one = signal_auto_pax(scen, DemandField(q0=q0, length_mi=length, auto_share=share))
            assert list(row) == list(one)


class TestFrequencySweep:
    @settings(max_examples=25, deadline=None)
    @given(
        q0=st.floats(50.0, 2500.0),
        r=st.floats(0.0, 1.0),
        f=st.floats(1.0, 120.0),
        policy=st.sampled_from(POLICY_ORDER),
    )
    def test_matches_direct_evaluation(self, baseline: Scenario, q0, r, f, policy):
        sweep = FrequencySweep(baseline, policy, q0, r)
        direct = _reference.cost_breakdown(baseline, policy, q0, r, f).total
        fast = float(sweep.totals([f])[0])
        assert fast == pytest.approx(direct, rel=5e-12, abs=1e-8)

    _BETAS = st.sampled_from([1.0, 2.0, 4.0, 4.5, 13.0])  # 4.5 and 13 have no binomial degree

    @settings(max_examples=60, deadline=None)
    @given(
        gammas=st.tuples(st.floats(0.05, 2.0), st.floats(0.005, 0.5), st.floats(0.3, 3.0)),
        discomfort=st.tuples(st.floats(0.0, 1e-4), st.floats(0.0, 0.05)),
        fare=st.floats(0.0, 5.0),
        vots=st.tuples(st.floats(1.0, 60.0), st.floats(1.0, 60.0), st.floats(1.0, 60.0)),
        auto_money=st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 2.0)),
        operating=st.tuples(st.floats(0.0, 1000.0), st.floats(0.0, 100.0)),
        occupancy=st.tuples(st.floats(0.0, 1.0), st.floats(1.0, 2.0), st.floats(0.0, 3.0)),
        lane_costs=st.tuples(*(st.floats(0.0, top) for top in (1000.0, 50.0, 1000.0, 50.0))),
        alphas=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
        pce=st.floats(1.0, 15.0),
        betas=st.tuples(_BETAS, _BETAS, st.booleans()),
        policy=st.sampled_from(POLICY_ORDER),
        q0=st.floats(50.0, 2500.0),
        r=st.floats(0.0, 1.0),
    )
    @example(  # equal exponents without a degree share MTP's one kernel group
        gammas=(0.5, 0.05, 0.7), discomfort=(1e-6, 0.005), fare=1.0, vots=(20.0, 15.0, 15.0),
        auto_money=(2.0, 0.3), operating=(300.0, 20.0), occupancy=(0.6, 1.0, 2.0),
        lane_costs=(100.0, 5.0, 500.0, 10.0), alphas=(0.15, 0.4), pce=3.0,
        betas=(4.5, 4.5, True), policy=Policy.MTP, q0=1500.0, r=0.6,
    )
    def test_matches_direct_evaluation_at_any_rates(
        self, gammas, discomfort, fare, vots, auto_money, operating, occupancy, lane_costs,
        alphas, pce, betas, policy, q0, r,
    ):
        # every rate of costmodel._rates is drawn, and the occupancy mix
        # that divides auto money and auto volumes
        beta_auto, beta_bus, same = betas
        low_share, low_occupancy, extra_occupancy = occupancy
        scen = load_scenario({
            "bus": {"wait_gamma1": gammas[0], "wait_gamma2": gammas[1], "wait_gamma3": gammas[2],
                    "discomfort_quad": discomfort[0], "discomfort_lin": discomfort[1],
                    "fare": fare, "fixed_operating_cost": operating[0],
                    "variable_operating_cost": operating[1]},
            "econ": {"vot_auto": vots[0], "vot_bus": vots[1], "vot_wait": vots[2],
                     "auto_fixed_cost": auto_money[0], "auto_cost_per_mi": auto_money[1]},
            "occupancy": {"low_share": low_share, "low_occupancy": low_occupancy,
                          "high_occupancy": low_occupancy + extra_occupancy},
            "lane_costs": dict(zip(
                ("ebl_fixed", "ebl_variable_per_mi", "hovl_fixed", "hovl_variable_per_mi"),
                lane_costs,
            )),
            "bpr": {"alpha_auto": alphas[0], "alpha_bus": alphas[1], "bus_pce": pce,
                    "beta_auto": beta_auto, "beta_bus": beta_auto if same else beta_bus},
            "solver": {"n_cells": 60},
        })
        fs = np.array([1.0, 7.5, 40.0, 120.0])
        priced = _reference.cost_breakdowns(scen, policy, q0, r, fs)
        direct = np.array([dataclasses.astuple(breakdown) for breakdown in priced])
        sweep = FrequencySweep(scen, policy, q0, r)
        np.testing.assert_allclose(sweep.totals(fs), direct[:, -1], rtol=5e-12)
        # each component on its own, as the optimizer builds its breakdowns; a
        # subnormal component (at r = 5e-324, say) rounds to its absolute spacing
        np.testing.assert_allclose(
            sweep.breakdowns(fs), direct[:, :-1], rtol=5e-12, atol=np.finfo(float).tiny
        )

    def test_vector_evaluation_matches_scalar_loop(self, baseline: Scenario):
        sweep = FrequencySweep(baseline, Policy.MTP, 800.0, 0.7)
        fs = np.linspace(2.0, 60.0, 30)
        batch = sweep.totals(fs)
        singles = np.array([float(sweep.totals([f])[0]) for f in fs])
        np.testing.assert_allclose(batch, singles, rtol=1e-12)

    def test_one_share_against_many_densities(self, baseline: Scenario):
        # one row per point, whichever of q0 and R is the array
        q0s, fs = np.array([300.0, 800.0, 1500.0]), np.array([12.0, 40.0])
        got = FrequencySweep(baseline, Policy.EBLP, q0s, 0.7).totals(fs)
        aligned = FrequencySweep(baseline, Policy.EBLP, q0s, np.full(3, 0.7)).totals(fs)
        assert got.shape == (3, 2)
        np.testing.assert_array_equal(got, aligned)

    def test_rejects_nonpositive_frequencies(self, baseline: Scenario):
        sweep = FrequencySweep(baseline, Policy.MTP, 800.0, 0.7)
        with pytest.raises(ValidationError):
            sweep.totals([0.0])

    _SHARES = np.array([0.0, 0.35, 0.8, 1.0])
    _PER_SHARE_ROWS = np.array(
        [
            [2.0, 30.0, np.nan],
            [1.0, 7.25, 120.0],
            [55.5, np.nan, np.nan],
            [3.0, 4.0, 99.9],
        ]
    )

    @staticmethod
    def _direct(scen, policy, q0, shares, rows):
        def total(r, f):
            if np.isnan(f):
                return np.nan
            return _reference.cost_breakdown(scen, policy, q0, r, f).total

        return np.array([[total(r, f) for f in row] for r, row in zip(shares, rows)])

    @pytest.mark.parametrize("beta_auto,n_cells", [(4.0, 600), (4.5, 20)])
    @pytest.mark.parametrize("n_intersections", [0, 10])
    @pytest.mark.parametrize("mode", ["segment", "cumulative"])
    @pytest.mark.parametrize("policy", POLICY_ORDER)
    def test_share_batches_match_direct_evaluation(
        self, policy, mode, n_intersections, beta_auto, n_cells
    ):
        # a non-integer beta prices its congestion terms through node kernels
        scen = load_scenario(
            {
                "bpr": {"beta_auto": beta_auto},
                "solver": {"delay_volume_mode": mode, "n_cells": n_cells},
                "geometry": {"n_intersections": n_intersections},
            }
        )
        sweep = FrequencySweep(scen, policy, 900.0, self._SHARES)
        shared_row = np.array([1.0, 12.5, 64.0, 120.0])
        for rows in (np.tile(shared_row, (len(self._SHARES), 1)), self._PER_SHARE_ROWS):
            expected = self._direct(scen, policy, 900.0, self._SHARES, rows)
            np.testing.assert_allclose(sweep.totals(rows), expected, rtol=5e-12)
        np.testing.assert_allclose(
            sweep.totals(shared_row),
            self._direct(scen, policy, 900.0, self._SHARES, [shared_row] * len(self._SHARES)),
            rtol=5e-12,
        )

    @pytest.mark.parametrize("beta_bus", [1.5, 4.0])
    def test_kernel_totals_price_only_real_candidates(self, beta_bus, monkeypatch):
        # a non-integer beta prices its BPR terms through node kernels: padding
        # comes back NaN and every real candidate matches the reference, and
        # prices to the same float in any block size
        scen = load_scenario(
            {"bpr": {"beta_auto": 4.5, "beta_bus": beta_bus}, "solver": {"n_cells": 20}}
        )
        long_rows = np.tile(np.linspace(1.0, 120.0, 70), (len(self._SHARES), 1))
        long_rows[0, 40:] = np.nan
        long_rows[2, 1:] = np.nan
        sweep = FrequencySweep(scen, Policy.HOVLP, 700.0, self._SHARES)
        for rows in (self._PER_SHARE_ROWS, long_rows):
            got = sweep.totals(rows)
            np.testing.assert_array_equal(np.isnan(got), np.isnan(rows))
            expected = self._direct(scen, Policy.HOVLP, 700.0, self._SHARES, rows)
            np.testing.assert_allclose(got, expected, rtol=5e-12)
            with monkeypatch.context() as patch:
                patch.setattr(_fsweep, "_KERNEL_BLOCK", 50)  # two cells per block
                np.testing.assert_array_equal(sweep.totals(rows), got)

    @staticmethod
    def _lattice_rows(scen, q0, shares):
        """The optimizer's rows: integer F masked below each share's floor (all
        NaN above the cap) and 0.1-step windows, one with no center."""
        floor = min_frequency(scen, q0, shares)
        lattice = np.arange(1.0, scen.solver.f_cap + 1e-9)
        coarse = np.where(lattice >= np.ceil(floor - 1e-9)[:, None], lattice, np.nan)
        centers = np.where(np.arange(shares.size) % 7 == 3, np.nan, np.maximum(floor, 1.0) + 5.0)
        lo = np.maximum(np.maximum(1.0, floor), centers - 1.0)
        window = _lattice(lo, np.minimum(scen.solver.f_cap, centers + 1.0), 0.1)
        return coarse, window

    @staticmethod
    def _check_row_minima(sweep, rows):
        """row_minima equals the full scan of totals bit for bit; returns the scan."""
        expected = _scan_rows(rows, sweep.totals(rows))
        for got, want in zip(sweep.row_minima(rows), expected):
            np.testing.assert_array_equal(got, want)
        return expected

    @pytest.mark.parametrize("n_intersections", [0, 3, 10])
    @pytest.mark.parametrize("mode", ["segment", "cumulative"])
    @pytest.mark.parametrize("policy", POLICY_ORDER)
    def test_row_minima_match_a_full_scan(self, policy, mode, n_intersections):
        scen = load_scenario(
            {
                "solver": {"delay_volume_mode": mode},
                "geometry": {"n_intersections": n_intersections},
            }
        )
        shares = np.linspace(0.0, 1.0, 41)
        coarse, window = self._lattice_rows(scen, 1500.0, shares)
        assert np.isnan(coarse).all(axis=1).any() and np.isnan(window).all(axis=1).any()
        for rows in (coarse, window):
            sweep = FrequencySweep(scen, policy, 1500.0, shares)
            self._check_row_minima(sweep, rows)
            assert sweep.priced < np.count_nonzero(~np.isnan(rows))

    @pytest.mark.parametrize("policy", POLICY_ORDER)
    def test_row_minima_where_delay_moves_the_minimum(self, policy):
        # light demand on saturated, mostly red signals with heavy buses:
        # signal delay moves some rows' minimum off the delay-free one
        scen = load_scenario(
            {
                "bpr": {"bus_pce": 15.0},
                "geometry": {"lane_capacity_vph": 900.0},
                "signal": {"green_ratio": 0.3},
            }
        )
        shares = np.linspace(0.0, 1.0, 41)
        moved = 0
        for rows in self._lattice_rows(scen, 100.0, shares):
            sweep = FrequencySweep(scen, policy, 100.0, shares)
            expected = self._check_row_minima(sweep, rows)
            without_delay = _scan_rows(rows, sweep._base(rows)[2])[0]
            moved += np.count_nonzero(without_delay != expected[0])
        assert moved > 0

    def test_row_minima_prune_on_a_steep_overflow_term(self):
        # k = 1000 makes 8*k*I/(c*T) = 5.3 on EBLP's 1500 veh/hr bus lane; the
        # overflow term still rises with volume from X = 0, so the bound holds
        scen = load_scenario({"signal": {"incremental_delay_factor": 1000.0}})
        volumes = np.linspace(0.0, 3000.0, 301)
        assert np.all(np.diff(intersection_delay(scen.signal, volumes, 1500.0)) >= 0.0)
        shares = np.linspace(0.0, 1.0, 41)
        for rows in self._lattice_rows(scen, 1500.0, shares):
            sweep = FrequencySweep(scen, Policy.EBLP, 1500.0, shares)
            self._check_row_minima(sweep, rows)
            assert sweep.priced < np.count_nonzero(~np.isnan(rows))

    def test_delay_blocks_keep_every_float(self, contrast: Scenario, monkeypatch):
        # smaller blocks bound the delay temporaries; the addition order is the
        # same.  Rows as the coarse split pass stacks them: every share of
        # each density, integer F from the share's floor
        shares = np.tile(np.linspace(0.0, 1.0, 101), 3)
        q0s = np.repeat([600.0, 660.0, 720.0], 101)
        floor, cap = min_frequency(contrast, q0s, shares), contrast.solver.f_cap
        q0s, shares, floor = (x[floor <= cap] for x in (q0s, shares, floor))
        lattice = np.arange(1.0, cap + 1.0)
        rows = np.where(lattice >= np.ceil(floor - 1e-9)[:, None], lattice, np.nan)

        def priced():
            sweep = FrequencySweep(contrast, Policy.HOVLP, q0s, shares)
            delay = sweep._share_terms[3]  # the F = 0 column, built under this block size
            bounds = sweep.lower_bounds(np.maximum(1.0, floor - 1e-9), cap)
            return (delay, bounds, sweep.totals(rows), *sweep.row_minima(rows))

        default = _fsweep._DELAY_BLOCK
        monkeypatch.setattr(_fsweep, "_DELAY_BLOCK", 1)  # one signal column per call
        one_column = priced()
        for block in (default, 1 << 30):
            monkeypatch.setattr(_fsweep, "_DELAY_BLOCK", block)
            for got, want in zip(priced(), one_column):
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("beta_auto,n_cells", [(4.0, 600), (4.5, 20)])
    def test_per_share_densities_match_separate_sweeps(self, beta_auto, n_cells):
        # one row per (q0, share) pair prices every row as its own sweep would
        scen = load_scenario({"bpr": {"beta_auto": beta_auto}, "solver": {"n_cells": n_cells}})
        q0s = np.array([0.0, 450.0, 900.0, 2100.0])
        stacked = FrequencySweep(scen, Policy.HOVLP, q0s, self._SHARES)
        rows = self._PER_SHARE_ROWS
        got_totals = stacked.totals(rows)
        got_f, got_cost = stacked.row_minima(rows)
        for i, (q0, share) in enumerate(zip(q0s, self._SHARES)):
            alone = FrequencySweep(scen, Policy.HOVLP, q0, np.array([share]))
            np.testing.assert_array_equal(got_totals[i], alone.totals(rows[i : i + 1])[0])
            f, cost = alone.row_minima(rows[i : i + 1])
            assert (got_f[i], got_cost[i]) == (f[0], cost[0])

    @pytest.mark.parametrize(
        "q0",
        [np.nan, np.inf, -1.0, np.array([900.0, np.nan, 900.0, 900.0]), np.array([900.0, 900.0])],
    )
    def test_rejects_bad_densities(self, baseline: Scenario, q0):
        # non-finite or negative, or not one density per share
        with pytest.raises(ValidationError):
            FrequencySweep(baseline, Policy.MTP, q0, self._SHARES)

    @pytest.mark.parametrize("betas", [(4.5, 4.0), (4.0, 1.5), (13.0, 13.0)])
    @pytest.mark.parametrize("policy", POLICY_ORDER)
    def test_kernel_row_minima_prune_like_the_table(self, policy, betas):
        # the kernel path keeps the delay prune, and its rows have bounds
        beta_auto, beta_bus = betas
        scen = load_scenario(
            {"bpr": {"beta_auto": beta_auto, "beta_bus": beta_bus}, "solver": {"n_cells": 20}}
        )
        assert _fsweep._moment_table(scen, policy).kernels
        shares = np.linspace(0.0, 1.0, 41)
        for rows in self._lattice_rows(scen, 1500.0, shares):
            sweep = FrequencySweep(scen, policy, 1500.0, shares)
            self._check_row_minima(sweep, rows)
            assert sweep.priced < np.count_nonzero(~np.isnan(rows))
        assert np.isfinite(sweep.lower_bounds(1.0, 120.0)).all()

    @pytest.mark.parametrize("beta", [4.0, 4.5])
    def test_an_overflowed_rate_prices_to_inf_not_padding(self, beta):
        # a binomial row of zeros adds 0 against an overflowed column, as a kernel does
        scen = load_scenario(
            {"bus": {"discomfort_quad": 1e308}, "bpr": {"beta_auto": beta, "beta_bus": beta}}
        )
        sweep = FrequencySweep(scen, Policy.MTP, 300.0, 0.5)
        assert list(sweep.totals([5.0, 80.0])) == [np.inf, np.inf]
        assert list(sweep.lower_bounds(1.0, 120.0)) == [np.inf]

    def test_kernel_row_minima_memory_is_set_by_the_block(self):
        # One row_minima call at 2,001 nodes over 41 shares x the 120-point
        # coarse lattice (3,622 real cells at q0 = 300).  The kernel path
        # builds powers in one reused block of _KERNEL_BLOCK node values:
        # 8 x 16,384 B = 128 KiB.  Everything else is whole-lattice arrays of
        # 41 x 120 floats (38 KiB; row_minima, _base and the cell gathers keep
        # fewer than 24 alive at once) and the signal delay of the few cells
        # it prices in full.  Powers of every cell at every node at once would
        # take 55 MiB; the per-candidate path before the kernels took 3.8 MiB.
        scen = load_scenario({"bpr": {"beta_auto": 4.5}, "solver": {"n_cells": 2000}})
        shares = np.linspace(0.0, 1.0, 41)
        coarse, _ = self._lattice_rows(scen, 300.0, shares)
        assert coarse.shape == (41, 120)
        sweep = FrequencySweep(scen, Policy.MTP, 300.0, shares)
        bound = 8 * _fsweep._KERNEL_BLOCK + 24 * 8 * coarse.size
        tracemalloc.start()
        try:
            sweep.row_minima(coarse)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (peak, bound)

    @staticmethod
    def _check_lower_bounds(scen, policy, q0, shares):
        """Each share's bound over [max(1, F_min - 1e-9), f_cap] is at most
        totals at the optimizer's integer candidates, at 0.1-step points
        across [max(1, F_min), f_cap] and at f_cap, to rounding."""
        cap = scen.solver.f_cap
        floor = min_frequency(scen, q0, shares)
        sweep = FrequencySweep(scen, policy, q0, shares)
        bounds = sweep.lower_bounds(np.maximum(1.0, floor - 1e-9), cap)
        for share, f_min, bound in zip(shares, floor, bounds):
            lo = max(1.0, f_min)
            candidates = np.concatenate([
                np.arange(max(1.0, np.ceil(f_min - 1e-9)), cap + 1e-9),
                np.minimum(lo + 0.1 * np.arange(int((cap - lo) / 0.1) + 1), cap),
                [cap],
            ])
            totals = FrequencySweep(scen, policy, q0, share).totals(candidates)
            assert np.all(bound <= totals + 1e-12 * np.abs(totals)), (share, f_min)

    @settings(max_examples=30, deadline=None)
    @given(
        beta_auto=st.floats(1.0, 6.0),
        beta_bus=st.floats(1.0, 6.0),
        gamma3=st.floats(0.3, 3.0),
        capacity=st.floats(600.0, 2400.0),
        pce=st.floats(1.0, 15.0),
        green=st.floats(0.2, 0.9),
        cycle=st.floats(40.0, 200.0),
        k=st.floats(0.05, 1000.0),
        n_intersections=st.integers(0, 10),
        mode=st.sampled_from(["segment", "cumulative"]),
        policy=st.sampled_from(POLICY_ORDER),
        q0=st.floats(0.0, 3000.0),
    )
    def test_lower_bounds_hold_at_every_candidate(
        self, beta_auto, beta_bus, gamma3, capacity, pce, green, cycle, k, n_intersections,
        mode, policy, q0,
    ):
        scen = load_scenario({
            "bpr": {"beta_auto": beta_auto, "beta_bus": beta_bus, "bus_pce": pce},
            "bus": {"wait_gamma3": gamma3},
            "geometry": {"lane_capacity_vph": capacity, "n_intersections": n_intersections},
            "signal": {"green_ratio": green, "cycle_s": cycle, "incremental_delay_factor": k},
            "solver": {"delay_volume_mode": mode, "n_cells": 60},
        })
        shares = np.linspace(0.0, 1.0, 11)
        shares = shares[min_frequency(scen, q0, shares) <= scen.solver.f_cap]
        self._check_lower_bounds(scen, policy, q0, shares)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("n_cells", [2, 60])
    @pytest.mark.parametrize("policy", [Policy.MTP, Policy.HOVLP])
    def test_kernel_lower_bounds_hold_for_either_sign(self, policy, n_cells, sign, monkeypatch):
        # at two cells the half-pair weight makes one kernel entry -12.5; with
        # the kernels negated every other entry is negative, so each term falls
        # in F and only its K- part at the block's upper end bounds it
        scen = load_scenario({
            "bpr": {"beta_auto": 4.5, "beta_bus": 2.5},
            "solver": {"n_cells": n_cells},
        })
        table = _fsweep._moment_table(scen, policy)
        kernels = np.hstack([group.kernels for group in table.kernels])
        assert (kernels < 0).any() and (kernels > 0).any()
        signed = table._replace(
            kernels=tuple(group._replace(kernels=sign * group.kernels) for group in table.kernels)
        )
        monkeypatch.setattr(_fsweep, "_moment_table", lambda scenario, policy: signed)
        shares = np.linspace(0.0, 1.0, 11)
        for q0 in (300.0, 1500.0):
            feasible = shares[min_frequency(scen, q0, shares) <= scen.solver.f_cap]
            self._check_lower_bounds(scen, policy, q0, feasible)

    @pytest.mark.parametrize("policy", POLICY_ORDER)
    def test_lower_bounds_assume_no_coefficient_sign(self, baseline: Scenario, policy, monkeypatch):
        # negated polynomial coefficients make every monomial fall in F; the
        # endpoint rule takes the lower end either way
        table = _fsweep._moment_table(baseline, policy)
        negated = table._replace(poly=-table.poly)
        monkeypatch.setattr(_fsweep, "_moment_table", lambda scenario, policy: negated)
        self._check_lower_bounds(baseline, policy, 900.0, np.linspace(0.2, 1.0, 9))

    def test_subsets_price_like_the_whole_sweep(self, baseline: Scenario):
        q0s = np.array([0.0, 450.0, 900.0, 2100.0])
        sweep = FrequencySweep(baseline, Policy.HOVLP, q0s, self._SHARES)
        rows = self._PER_SHARE_ROWS
        whole = sweep.totals(rows)
        for index in (np.array([2, 0]), np.array([False, True, True, False])):
            np.testing.assert_array_equal(sweep.subset(index).totals(rows[index]), whole[index])

    def test_row_minima_ties_take_the_smallest_frequency(self, baseline: Scenario, monkeypatch):
        # with no bus riders EBLP's signal delay does not depend on F, so a
        # flat synthetic base makes every candidate of a row tie exactly
        sweep = FrequencySweep(baseline, Policy.EBLP, 900.0, np.array([1.0, 1.0]))
        base = sweep._base
        monkeypatch.setattr(
            sweep, "_base", lambda f: (*base(f)[:2], np.where(np.isnan(f), np.nan, 1234.5))
        )
        rows = np.array([[np.nan, 7.0, 8.0, 9.0], [3.0, 4.0, 5.0, np.nan]])
        totals = sweep.totals(rows)
        assert np.all(totals[~np.isnan(rows)] == totals[0, 1])
        f, cost = sweep.row_minima(rows)
        np.testing.assert_array_equal(f, [7.0, 3.0])
        np.testing.assert_array_equal(cost, [totals[0, 1]] * 2)
