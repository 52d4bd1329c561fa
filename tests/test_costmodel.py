"""Travel times, stop waiting, crowding, signal delay, and the cost breakdown."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lanepolicy import (
    POLICY_ORDER,
    Policy,
    Scenario,
    UndefinedServiceError,
    ValidationError,
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
from lanepolicy.costmodel import build_context, delay_args
from lanepolicy._fsweep import FrequencySweep

from _oracle import oracle_breakdown


class TestPolicyEnum:
    def test_parse(self):
        assert Policy.parse("mtp") is Policy.MTP
        assert Policy.parse("EBLP") is Policy.EBLP
        assert Policy.parse(" hovlp ") is Policy.HOVLP
        with pytest.raises(ValidationError):
            Policy.parse("busway")

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
        t_end = line_haul_time(ctx, Policy.EBLP, "bus", 30.0)
        flat = bpr_time(
            baseline.bpr.t0_bus, baseline.bpr.alpha_bus, baseline.bpr.beta_bus,
            48.0, 1500.0,
        )
        assert t_end == pytest.approx(flat * 30.0, rel=1e-9)

    def test_zero_at_origin_and_monotone(self, baseline: Scenario):
        ctx = build_context(baseline, 1200.0, 0.7, 12.0)
        xs = np.linspace(0.0, 30.0, 31)
        times = line_haul_time(ctx, Policy.MTP, "bus", xs)
        assert times[0] == 0.0
        assert np.all(np.diff(times) > 0)


class TestWaiting:
    def test_headway_term_only_when_no_riders_left(self, baseline: Scenario):
        ctx = build_context(baseline, 1000.0, 0.75, 16.0)
        assert waiting_time(ctx, 30.0) == pytest.approx(0.5 / 16.0)

    def test_crowding_term_at_boundary(self, baseline: Scenario):
        ctx = build_context(baseline, 1000.0, 0.75, 16.0)
        q_bus = 0.25 * 1000.0 * 30.0 / 2.0
        expect = 0.5 / 16.0 + (0.05 / 16.0) * (q_bus / (70.0 * 16.0)) ** 2.0
        assert waiting_time(ctx, 0.0) == pytest.approx(expect, rel=1e-12)

    def test_decreasing_in_frequency(self, baseline: Scenario):
        waits = [
            waiting_time(build_context(baseline, 1000.0, 0.75, f), 0.0)
            for f in (4.0, 8.0, 16.0, 32.0)
        ]
        assert all(a > b for a, b in zip(waits, waits[1:]))

    def test_zero_frequency_service_undefined(self, baseline: Scenario):
        ctx = build_context(baseline, 1000.0, 0.75, 0.0)
        with pytest.raises(UndefinedServiceError):
            waiting_time(ctx, 0.0)


class TestDiscomfort:
    def test_zero_at_origin_and_increasing(self, baseline: Scenario):
        ctx = build_context(baseline, 1000.0, 0.5, 16.0)
        xs = np.linspace(0.0, 30.0, 16)
        costs = discomfort_cost(ctx, Policy.MTP, xs)
        assert costs[0] == 0.0
        assert np.all(np.diff(costs) >= 0)

    def test_no_riders_no_discomfort(self, baseline: Scenario):
        ctx = build_context(baseline, 1000.0, 1.0, 16.0)
        assert discomfort_cost(ctx, Policy.MTP, 30.0) == pytest.approx(0.0, abs=1e-12)


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


class TestDelayArgs:
    def test_reserved_bus_lane_sees_only_buses(self, baseline: Scenario):
        ctx = build_context(baseline, 1000.0, 0.75, 16.0)
        arriving, cap = delay_args(ctx, Policy.EBLP, "bus", 1)
        # bus flow spread uniformly across the 10 intersections (11 spacings)
        assert arriving == pytest.approx(3.0 * 16.0 / 11.0, rel=1e-12)
        assert cap == pytest.approx(1500.0)

    def test_mixed_lane_counts_autos_and_buses(self, baseline: Scenario):
        ctx = build_context(baseline, 1000.0, 0.75, 16.0)
        arriving, cap = delay_args(ctx, Policy.MTP, "auto", 1)
        # segment volume between the first two intersections plus the bus slice
        q0, a, r = 1000.0, 30.0, 0.75
        q = lambda x: r * q0 * (a - x) ** 2 / (2.0 * a)
        seg = (q(a * 1 / 11) - q(a * 2 / 11)) / 1.8
        assert arriving == pytest.approx(seg + 48.0 / 11.0, rel=1e-12)
        assert cap == pytest.approx(3 * 1500.0)

    def test_intersection_index_bounds(self, baseline: Scenario):
        ctx = build_context(baseline, 1000.0, 0.75, 16.0)
        with pytest.raises(ValidationError):
            delay_args(ctx, Policy.MTP, "auto", 0)
        with pytest.raises(ValidationError):
            delay_args(ctx, Policy.MTP, "auto", 11)


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
        for i in range(1, 11):
            pos = 30.0 * i / 11.0
            arriving, cap = delay_args(ctx, Policy.MTP, "bus", i)
            d = intersection_delay(baseline.signal, arriving, cap)
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
        expect = 15.0 * waiting_time(ctx, 0.0) + 1.0
        assert bus_disutility(ctx, Policy.MTP, 0.0) == pytest.approx(expect, rel=1e-12)

    def test_auto_disutility_at_origin_shares_fixed_cost(self, baseline: Scenario):
        ctx = build_context(baseline, 1000.0, 0.75, 16.0)
        assert auto_disutility(ctx, Policy.MTP, "auto", 0.0) == pytest.approx(2.0 / 1.8)

    def test_occupancy_class_divisors(self, baseline: Scenario):
        ctx = build_context(baseline, 1000.0, 0.75, 16.0)
        low = auto_disutility(ctx, Policy.HOVLP, "low_occ_auto", 0.0)
        high = auto_disutility(ctx, Policy.HOVLP, "high_occ_auto", 0.0)
        assert low == pytest.approx(2.0 / 1.0)
        assert high == pytest.approx(2.0 / 3.0)

    def test_bus_class_rejected(self, baseline: Scenario):
        ctx = build_context(baseline, 1000.0, 0.75, 16.0)
        with pytest.raises(ValidationError):
            auto_disutility(ctx, Policy.MTP, "bus", 0.0)


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
        round_trip = 2.0 * line_haul_time(ctx, Policy.EBLP, "bus", 30.0)
        assert bd.bus_operator == pytest.approx(300.0 + 20.0 * round_trip * 16.0, rel=1e-9)

    def test_no_bus_riders_no_bus_user_cost(self, baseline: Scenario):
        bd = cost_breakdown(baseline, Policy.MTP, 1000.0, 1.0, 8.0)
        assert bd.bus_user == 0.0
        assert bd.bus_operator > 0.0  # service still runs

    def test_no_auto_travelers_no_auto_cost(self, baseline: Scenario):
        bd = cost_breakdown(baseline, Policy.MTP, 1000.0, 0.0, 20.0)
        assert bd.auto_user == 0.0
        assert bd.bus_user > 0.0

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
        direct = cost_breakdown(baseline, policy, q0, r, f).total
        fast = float(sweep.totals([f])[0])
        assert fast == pytest.approx(direct, rel=5e-12, abs=1e-8)

    def test_vector_evaluation_matches_scalar_loop(self, baseline: Scenario):
        sweep = FrequencySweep(baseline, Policy.MTP, 800.0, 0.7)
        fs = np.linspace(2.0, 60.0, 30)
        batch = sweep.totals(fs)
        singles = np.array([float(sweep.totals([f])[0]) for f in fs])
        np.testing.assert_allclose(batch, singles, rtol=1e-12)

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
            return np.nan if np.isnan(f) else cost_breakdown(scen, policy, q0, r, f).total

        return np.array([[total(r, f) for f in row] for r, row in zip(shares, rows)])

    @pytest.mark.parametrize("n_intersections", [0, 10])
    @pytest.mark.parametrize("mode", ["segment", "cumulative"])
    @pytest.mark.parametrize("policy", POLICY_ORDER)
    def test_share_batches_match_direct_evaluation(self, policy, mode, n_intersections):
        scen = load_scenario(
            {
                "solver": {"delay_volume_mode": mode},
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

    def test_fallback_prices_only_real_candidates(self, monkeypatch):
        # non-integer beta leaves the moment table; every candidate is one
        # cost_breakdown call and padding costs nothing
        scen = load_scenario({"bpr": {"beta_auto": 4.5}, "solver": {"n_cells": 20}})
        calls = []

        def counted(*args):
            calls.append(args)
            return cost_breakdown(*args)

        monkeypatch.setattr("lanepolicy._fsweep.cost_breakdown", counted)
        got = FrequencySweep(scen, Policy.HOVLP, 700.0, self._SHARES).totals(self._PER_SHARE_ROWS)
        assert len(calls) == int(np.sum(~np.isnan(self._PER_SHARE_ROWS)))
        expected = self._direct(scen, Policy.HOVLP, 700.0, self._SHARES, self._PER_SHARE_ROWS)
        np.testing.assert_array_equal(got, expected)
