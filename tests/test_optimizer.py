"""Frequency and mode-split optimization."""

from __future__ import annotations

import dataclasses
import functools
import json
import pathlib
import re
import tracemalloc

import numpy as np
import pytest

from lanepolicy import (
    InfeasibleError,
    OccupancyParams,
    Policy,
    Scenario,
    ValidationError,
    cost_breakdown,
    load_scenario,
    min_frequency,
    optimize_frequency,
    optimize_policies,
    optimize_policy,
)
from lanepolicy import costmodel, numeric, optimizer
from lanepolicy._fsweep import FrequencySweep
from lanepolicy.config import preset
from lanepolicy.optimizer import equilibrium_gap, foc_residual

import _reference


class TestMinFrequency:
    def test_closed_form(self, baseline: Scenario):
        # peak onboard load (1-R)*q0*A/2 divided by bus capacity
        assert min_frequency(baseline, 1000.0, 0.75) == pytest.approx(
            0.25 * 1000.0 * 30.0 / 2.0 / 70.0
        )

    def test_no_bus_demand_no_floor(self, baseline: Scenario):
        assert min_frequency(baseline, 1000.0, 1.0) == 0.0

    def test_share_validated(self, baseline: Scenario):
        with pytest.raises(ValidationError):
            min_frequency(baseline, 1000.0, 1.5)

    def test_share_list(self, baseline: Scenario):
        got = min_frequency(baseline, 1000.0, [0.5, 0.9])
        np.testing.assert_allclose(got, [0.5 * 1000.0 * 15.0 / 70.0, 0.1 * 1000.0 * 15.0 / 70.0])

    def test_per_share_densities(self, baseline: Scenario):
        got = min_frequency(baseline, np.array([500.0, 1000.0]), np.array([0.5, 0.9]))
        np.testing.assert_array_equal(
            got, [min_frequency(baseline, 500.0, 0.5), min_frequency(baseline, 1000.0, 0.9)]
        )

    @pytest.mark.parametrize(
        "q0", [[500.0, float("nan")], [float("inf"), 1000.0], [500.0, 600.0, 700.0]]
    )
    def test_bad_density_arrays_rejected(self, baseline: Scenario, q0):
        # a non-finite entry, or not one density per share
        with pytest.raises(ValidationError):
            min_frequency(baseline, np.array(q0), np.array([0.5, 0.9]))


class TestOptimizeFrequency:
    def test_refined_interior_optimum(self, baseline: Scenario):
        # the refinement pass moves the optimum off the integer lattice, well
        # above the floor, and neither 0.1-step neighbour prices lower
        f, _ = optimize_frequency(baseline, Policy.MTP, 300.0, 0.9)
        assert f == pytest.approx(10.7, abs=1e-9)
        assert f > min_frequency(baseline, 300.0, 0.9) + 1.0
        totals = [cost_breakdown(baseline, Policy.MTP, 300.0, 0.9, g).total
                  for g in (f - 0.1, f, f + 0.1)]
        assert totals[1] < min(totals[0], totals[2])

    def test_refinement_clips_to_capacity_floor(self, baseline: Scenario):
        # cost rises with frequency from the floor, which sits between integer
        # lattice points: the clipped window starts at it exactly
        f_min = min_frequency(baseline, 1000.0, 0.75)
        assert f_min == pytest.approx(53.5714285714, rel=1e-9)
        f, _ = optimize_frequency(baseline, Policy.MTP, 1000.0, 0.75)
        assert f == f_min

    def test_no_candidate_above_the_cap(self):
        # a dear wait drives F* to the cap; under a cap just below 38 the
        # integer candidates once ran on to 38, and every policy chose it
        scen = load_scenario({"solver": {"f_cap": 38.0 - 5e-10}, "econ": {"vot_wait": 300.0}})
        cap = scen.solver.f_cap
        assert optimize_frequency(scen, Policy.MTP, 300.0, 0.9)[0] == cap
        for policy in Policy:
            assert optimize_policy(scen, policy, 300.0).f_star == cap, policy

    def test_floor_above_cap_is_infeasible(self, baseline: Scenario):
        # all-bus demand at q0=3000 needs ~643 buses/hr, far above the cap
        with pytest.raises(InfeasibleError):
            optimize_frequency(baseline, Policy.MTP, 3000.0, 0.0)

    def test_all_non_finite_costs_rejected(self, baseline: Scenario):
        # crowding at 1e308 $/hr per rider^2 overflows at every candidate
        bus = dataclasses.replace(baseline.bus, discomfort_quad=1e308)
        scenario = dataclasses.replace(baseline, bus=bus)
        with pytest.raises(InfeasibleError, match="^every candidate evaluated non-finite$"):
            optimize_frequency(scenario, Policy.MTP, 1000.0, 0.5)

    def test_model_evaluation_agrees_with_breakdown(self, baseline: Scenario):
        f, cost = optimize_frequency(baseline, Policy.EBLP, 800.0, 0.8)
        assert cost == pytest.approx(
            cost_breakdown(baseline, Policy.EBLP, 800.0, 0.8, f).total, rel=1e-9
        )

    @pytest.mark.parametrize(
        "name,point", [("q0", ([500.0, 600.0], 0.5)), ("auto_share", (1000.0, [0.5, 0.75]))]
    )
    def test_one_operating_point(self, baseline: Scenario, name, point):
        with pytest.raises(ValidationError, match=rf"^{name} must be a scalar, got shape \(2,\)$"):
            optimize_frequency(baseline, Policy.MTP, *point)


class TestFocResidual:
    def test_step_guard(self, baseline: Scenario):
        with pytest.raises(ValidationError):
            foc_residual(baseline, Policy.MTP, 1000.0, 0.75, 0.005)

    def test_one_operating_point(self, baseline: Scenario):
        for point in ((np.array([500.0, 600.0]), 0.75), (1000.0, np.array([0.5, 0.75]))):
            with pytest.raises(ValidationError):
                foc_residual(baseline, Policy.MTP, *point, 16.0)

    @pytest.mark.parametrize("step", [0.0, -1.0, float("nan"), float("inf")])
    def test_step_must_be_finite_and_positive(self, baseline: Scenario, step):
        with pytest.raises(ValidationError, match=f"^step must be finite and > 0, got {step}$"):
            foc_residual(baseline, Policy.MTP, 1000.0, 0.75, 16.0, step=step)

    def test_sign_tracks_slope(self, baseline: Scenario):
        # at a very high frequency operator cost dominates: slope positive
        assert foc_residual(baseline, Policy.MTP, 1000.0, 0.75, 110.0) > 0
        # at a very low frequency waiting dominates: slope negative
        assert foc_residual(baseline, Policy.MTP, 1000.0, 0.3, 2.0) < 0

    @pytest.mark.parametrize("beta_auto", [4.0, 4.5])
    @pytest.mark.parametrize("policy", list(Policy))
    def test_one_pass_prices_like_two_breakdowns(self, policy, beta_auto):
        # both frequencies are priced in one call, each to the float of its
        # own cost_breakdown
        scen = load_scenario({"bpr": {"beta_auto": beta_auto}})
        for q0 in (300.0, 1500.0):
            opt = optimize_policy(scen, policy, q0)
            r, f, step = opt.r_star, opt.f_star, 0.01
            up = cost_breakdown(scen, policy, q0, r, f + step).total
            down = cost_breakdown(scen, policy, q0, r, f - step).total
            assert foc_residual(scen, policy, q0, r, f) == (up - down) / ((f + step) - (f - step))

    def test_a_step_too_small_to_move_the_frequency_fails(self):
        # 10 +/- 1e-300 rounds to 10: there is no difference to divide
        with pytest.raises(ValidationError, match=r"^step 1e-300 is too small to move frequency"):
            foc_residual(Scenario(), Policy.MTP, 1000.0, 0.5, 10.0, step=1e-300)


class TestEquilibriumGap:
    def test_none_at_corners(self, baseline: Scenario):
        assert equilibrium_gap(baseline, Policy.MTP, 1000.0, 1.0, 16.0) is None
        assert equilibrium_gap(baseline, Policy.MTP, 1000.0, 0.0, 16.0) is None
        assert equilibrium_gap(baseline, Policy.MTP, 0.0, 0.5, 16.0) is None

    @pytest.mark.parametrize(
        "q0,share,message",
        [
            (-5.0, 0.5, "q0 must be finite and >= 0, got -5.0"),
            (1000.0, 1.5, r"auto_share must lie in \[0, 1\], got 1.5"),
            (1000.0, -0.2, r"auto_share must lie in \[0, 1\], got -0.2"),
            (np.array([500.0, 600.0]), 0.5, r"q0 must be a scalar, got shape \(2,\)"),
        ],
    )
    def test_point_is_checked_before_the_corners(self, baseline: Scenario, q0, share, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            equilibrium_gap(baseline, Policy.MTP, q0, share, 16.0)

    def test_unsigned_dominates_signed(self, baseline: Scenario):
        signed = equilibrium_gap(baseline, Policy.MTP, 1000.0, 0.6, 20.0, signed=True)
        unsigned = equilibrium_gap(baseline, Policy.MTP, 1000.0, 0.6, 20.0)
        assert unsigned >= abs(signed) - 1e-12


class TestOptimizePolicy:
    def test_zero_demand_degenerates_to_minimal_service(self, baseline: Scenario):
        opt = optimize_policy(baseline, Policy.MTP, 0.0)
        assert opt.r_star == 1.0  # tie broken toward the largest auto share
        assert opt.f_star == 1.0
        # fixed operating cost plus one bus/hr on a free-flow 1.5 hr round trip
        assert opt.breakdown.total == pytest.approx(300.0 + 20.0 * 2.0 * 0.75, rel=1e-9)
        assert equilibrium_gap(baseline, Policy.MTP, 0.0, opt.r_star, opt.f_star) is None

    def test_negative_demand_rejected(self, baseline: Scenario):
        with pytest.raises(ValidationError):
            optimize_policy(baseline, Policy.MTP, -10.0)

    @pytest.mark.parametrize("q0", [float("nan"), float("inf")])
    def test_non_finite_demand_rejected(self, baseline: Scenario, q0: float):
        with pytest.raises(ValidationError):
            optimize_policy(baseline, Policy.MTP, q0)
        with pytest.raises(ValidationError):
            optimize_frequency(baseline, Policy.MTP, q0, 0.5)
        with pytest.raises(ValidationError):
            min_frequency(baseline, q0, 0.5)

    def test_share_lattice_stops_at_one(self):
        # 0.15 does not divide 1: the lattice steps to 0.9, then ends at 1
        scen = load_scenario({"solver": {"r_step": 0.15}})
        for policy in Policy:
            opt = optimize_policy(scen, policy, 1000.0)
            assert 0.0 <= opt.r_star <= 1.0

    @pytest.mark.parametrize("r_step", [0.3, 0.4, 0.45])
    def test_share_lattice_reaches_all_bus(self, r_step):
        # round(1/r_step) steps once ended these lattices at bus share 0.9,
        # 0.8 and 0.9, so R = 0 was never searched
        shares = optimizer._split_lattice(load_scenario({"solver": {"r_step": r_step}}).solver)
        assert (shares[0], shares[-1]) == (0.0, 1.0)
        assert np.all(np.diff(shares) > 0)

    def test_optimum_is_consistent(self, baseline: Scenario):
        opt = optimize_policy(baseline, Policy.MTP, 1000.0)
        assert 0.0 <= opt.r_star <= 1.0
        f_min = min_frequency(baseline, 1000.0, opt.r_star)
        assert opt.f_star >= f_min - 1e-9
        assert opt.breakdown.total == pytest.approx(
            cost_breakdown(baseline, Policy.MTP, 1000.0, opt.r_star, opt.f_star).total,
            rel=1e-12,
        )
        assert opt.constraint_binding == (
            abs(opt.f_star - f_min) <= baseline.solver.f_refine_step / 2.0 + 1e-9
        )

    def test_inner_solution_reproducible(self, baseline: Scenario):
        opt = optimize_policy(baseline, Policy.EBLP, 900.0)
        f, cost = optimize_frequency(baseline, Policy.EBLP, 900.0, opt.r_star)
        assert f == opt.f_star
        assert cost == pytest.approx(opt.breakdown.total, rel=1e-12)

    def test_beats_nearby_splits(self, baseline: Scenario):
        opt = optimize_policy(baseline, Policy.MTP, 700.0)
        for r in (0.0, 0.25, 0.5, 0.9, 1.0):
            try:
                _, cost = optimize_frequency(baseline, Policy.MTP, 700.0, r)
            except InfeasibleError:
                continue
            assert opt.breakdown.total <= cost + 1e-6

    def test_memoized(self, baseline: Scenario):
        a = optimize_policy(baseline, Policy.HOVLP, 1234.0)
        b = optimize_policy(baseline, Policy.HOVLP, 1234.0)
        assert a is b

    def test_policy_name_coerced(self, baseline: Scenario):
        assert optimize_policy(baseline, "mtp", 600.0) is optimize_policy(
            baseline, Policy.MTP, 600.0
        )

    def test_infeasible_when_no_interior_split_fits(self):
        # the equilibrium rule needs an interior split; a tiny frequency cap
        # with tiny buses makes every one of them violate the capacity floor
        tight = load_scenario(
            {
                "solver": {"f_cap": 2.0, "split_rule": "equilibrium"},
                "bus": {"capacity_pax": 5.0},
            }
        )
        with pytest.raises(InfeasibleError):
            optimize_policy(tight, Policy.MTP, 2000.0)

    def test_equilibrium_split_rule_balances_disutilities(self):
        scen = load_scenario({"solver": {"split_rule": "equilibrium"}})
        opt = optimize_policy(scen, Policy.MTP, 1000.0)
        assert 0.0 < opt.r_star < 1.0
        signed = equilibrium_gap(scen, Policy.MTP, 1000.0, opt.r_star, opt.f_star, signed=True)
        # the root solve stops at the split-lattice refinement tolerance
        assert abs(signed) < 0.5

    def test_equilibrium_rule_with_gaps_whose_products_overflow(self):
        # a fare of 1e200 makes every sampled gap about -1e200: no sign change,
        # so the split with the smallest |gap| wins, and no warning escapes
        scen = load_scenario({"solver": {"split_rule": "equilibrium"}, "bus": {"fare": 1e200}})
        opt = optimize_policy(scen, Policy.MTP, 900.0)
        assert (opt.r_star, opt.f_star) == (0.38, pytest.approx(119.5714285714))

# (scenario, policy, q0) -> (R*, F*, total) recorded from the per-share
# optimizer that preceded the batched split scan.  Covers the R* = 0
# low-demand corner (q0 = 150) and optima pinned near f_cap (q0 >= 1600).
# No entry raised InfeasibleError.
_GOLDEN_OPTIMA = {
    ("baseline", "mtp", 0.0): (1.0, 1.0, 330.0000000000008),
    ("baseline", "mtp", 150.0): (0.0, 32.142857142857146, 17686.34969088972),
    ("baseline", "mtp", 658.0): (0.6619999999999999, 47.658000000000015, 116972.31263239436),
    ("baseline", "mtp", 1072.0): (0.7030000000000001, 68.22514285714283, 232441.48947428173),
    ("baseline", "mtp", 1476.0): (0.6819999999999999, 100.57885714285716, 480058.63129522157),
    ("baseline", "mtp", 2007.0): (0.721, 119.98992857142859, 1494275.2076707855),
    ("baseline", "mtp", 2214.0): (0.748, 119.556, 2375630.1009143977),
    ("baseline", "eblp", 0.0): (1.0, 1.0, 580.0000000000722),
    ("baseline", "eblp", 150.0): (0.0, 32.142857142857146, 17937.05183227458),
    ("baseline", "eblp", 658.0): (0.605, 55.69500000000001, 119981.88873295125),
    ("baseline", "eblp", 1072.0): (0.575, 97.62857142857143, 258068.64834342292),
    ("baseline", "eblp", 1476.0): (0.621, 119.87228571428571, 575337.3369021734),
    ("baseline", "eblp", 2007.0): (0.721, 119.98992857142859, 2760807.2595926262),
    ("baseline", "eblp", 2214.0): (0.748, 119.556, 5033554.838842447),
    ("baseline", "hovlp", 0.0): (1.0, 1.0, 1130.0000000000723),
    ("baseline", "hovlp", 150.0): (0.0, 32.142857142857146, 18487.05183227458),
    ("baseline", "hovlp", 658.0): (0.651, 49.209, 120252.62842993073),
    ("baseline", "hovlp", 1072.0): (0.688, 71.67085714285716, 269953.91045434313),
    ("baseline", "hovlp", 1476.0): (0.7010000000000001, 94.56942857142856, 701892.5744956993),
    ("baseline", "hovlp", 2007.0): (0.77, 98.91642857142857, 2732405.8177886656),
    ("baseline", "hovlp", 2214.0): (0.796, 96.78342857142854, 4458630.589462531),
    ("seattle_i5", "mtp", 0.0): (1.0, 1.0, 309.2333333333336),
    ("seattle_i5", "mtp", 150.0): (0.0, 42.1, 6993.636747920045),
    ("seattle_i5", "mtp", 658.0): (0.546, 59.10625999999999, 46212.51974330339),
    ("seattle_i5", "mtp", 1072.0): (0.661, 71.90286857142857, 85703.18917486804),
    ("seattle_i5", "mtp", 1476.0): (0.667, 97.24836857142856, 150632.2793926409),
    ("seattle_i5", "mtp", 2007.0): (0.698, 119.92398428571433, 369230.93334111734),
    ("seattle_i5", "mtp", 2214.0): (0.727, 119.58921, 549557.9540818849),
    ("seattle_i5", "eblp", 0.0): (1.0, 1.0, 547.7333333333555),
    ("seattle_i5", "eblp", 150.0): (0.0, 42.0, 7232.972343112156),
    ("seattle_i5", "eblp", 658.0): (0.524, 61.97043999999999, 46634.150115734694),
    ("seattle_i5", "eblp", 1072.0): (0.5640000000000001, 92.4768457142857, 90092.91091670259),
    ("seattle_i5", "eblp", 1476.0): (0.59, 119.73522857142858, 165032.4365622492),
    ("seattle_i5", "eblp", 2007.0): (0.698, 119.92398428571433, 578111.2475610054),
    ("seattle_i5", "eblp", 2214.0): (0.727, 119.58921, 1003260.2923151922),
    ("seattle_i5", "hovlp", 0.0): (1.0, 1.0, 1086.2333333333554),
    ("seattle_i5", "hovlp", 150.0): (0.0, 42.0, 7771.472343112156),
    ("seattle_i5", "hovlp", 658.0): (0.538, 60.14777999999999, 47403.44696387001),
    ("seattle_i5", "hovlp", 1072.0): (0.647, 74.87230857142858, 93572.66294354768),
    ("seattle_i5", "hovlp", 1476.0): (0.673, 95.4961457142857, 194829.62823294738),
    ("seattle_i5", "hovlp", 2007.0): (0.743, 102.05451642857142, 618839.3141742905),
    ("seattle_i5", "hovlp", 2214.0): (0.772, 99.87670285714285, 972424.1048171045),
    ("seattle_sr99", "mtp", 0.0): (1.0, 1.0, 315.3714285714291),
    ("seattle_sr99", "mtp", 150.0): (0.0, 32.6, 9343.015360655676),
    ("seattle_sr99", "mtp", 658.0): (0.596, 51.07771999999999, 61570.68823203737),
    ("seattle_sr99", "mtp", 1072.0): (0.6859999999999999, 64.67682285714287, 114606.10980457609),
    ("seattle_sr99", "mtp", 1476.0): (0.6819999999999999, 90.18570857142859, 204881.8197413737),
    ("seattle_sr99", "mtp", 2007.0): (0.6890000000000001, 119.93115214285712, 509711.04471851914),
    ("seattle_sr99", "mtp", 2214.0): (0.718, 119.96400857142858, 760634.6932833741),
    ("seattle_sr99", "eblp", 0.0): (1.0, 1.0, 549.8714285714655),
    ("seattle_sr99", "eblp", 150.0): (0.0, 32.6, 9578.137886794642),
    ("seattle_sr99", "eblp", 658.0): (0.565, 54.99705, 62286.96170790968),
    ("seattle_sr99", "eblp", 1072.0): (0.5800000000000001, 86.51039999999998, 122603.0655065595),
    ("seattle_sr99", "eblp", 1476.0): (0.577, 119.96400857142858, 226410.25552330108),
    ("seattle_sr99", "eblp", 2007.0): (0.6890000000000001, 119.93115214285712, 783015.0358189134),
    ("seattle_sr99", "eblp", 2214.0): (0.718, 119.96400857142858, 1358092.3160943922),
    ("seattle_sr99", "hovlp", 0.0): (1.0, 1.0, 1084.3714285714655),
    ("seattle_sr99", "hovlp", 150.0): (0.0, 32.6, 10112.637886794642),
    ("seattle_sr99", "hovlp", 658.0): (0.588, 52.08916, 62975.701556460335),
    ("seattle_sr99", "hovlp", 1072.0): (0.671, 67.76647999999999, 125593.15966925031),
    ("seattle_sr99", "hovlp", 1476.0): (0.6839999999999999, 89.61850285714287, 266619.4911062568),
    ("seattle_sr99", "hovlp", 2007.0): (0.738, 101.03524714285714, 861468.4709934078),
    ("seattle_sr99", "hovlp", 2214.0): (0.766, 99.54460285714285, 1360574.693694762),
    ("contrast", "mtp", 0.0): (1.0, 1.0, 330.0000000000008),
    ("contrast", "mtp", 150.0): (0.0, 32.142857142857146, 17686.34969088972),
    ("contrast", "mtp", 658.0): (0.641, 50.619, 120313.64273821813),
    ("contrast", "mtp", 1072.0): (0.6639999999999999, 77.18400000000001, 253309.1428199184),
    ("contrast", "mtp", 1476.0): (0.626, 118.29085714285715, 576957.7727467606),
    ("contrast", "mtp", 2007.0): (0.721, 119.98992857142859, 2109427.8767562294),
    ("contrast", "mtp", 2214.0): (0.748, 119.556, 3483682.6409611804),
    ("contrast", "eblp", 0.0): (1.0, 1.0, 580.0000000000722),
    ("contrast", "eblp", 150.0): (0.0, 32.142857142857146, 17937.05183227458),
    ("contrast", "eblp", 658.0): (0.5740000000000001, 60.06599999999999, 123938.3369804264),
    ("contrast", "eblp", 1072.0): (0.5349999999999999, 106.81714285714287, 277464.49509275827),
    ("contrast", "eblp", 1476.0): (0.621, 119.87228571428571, 722442.7907330695),
    ("contrast", "eblp", 2007.0): (0.721, 119.98992857142859, 4163692.248300994),
    ("contrast", "eblp", 2214.0): (0.748, 119.556, 7781585.117115418),
    ("contrast", "hovlp", 0.0): (1.0, 1.0, 1130.0000000000723),
    ("contrast", "hovlp", 150.0): (0.0, 32.142857142857146, 18487.05183227458),
    ("contrast", "hovlp", 658.0): (0.642, 50.478, 120313.44698135348),
    ("contrast", "hovlp", 1072.0): (0.659, 78.33257142857143, 239583.32903249067),
    ("contrast", "hovlp", 1476.0): (0.626, 118.29085714285715, 470772.5043208537),
    ("contrast", "hovlp", 2007.0): (0.721, 119.98992857142859, 1467746.504558098),
    ("contrast", "hovlp", 2214.0): (0.748, 119.556, 2411763.123363281),
}


def _golden_scenario(name: str) -> Scenario:
    if name == "contrast":
        return Scenario(
            occupancy=OccupancyParams(low_share=0.8, low_occupancy=1.0, high_occupancy=4.0)
        )
    return preset(name)


@pytest.mark.parametrize("name", ["baseline", "seattle_i5", "seattle_sr99", "contrast"])
def test_golden_breakdowns_match_the_reference_evaluator(name):
    # the moment table prices each winner's components; the node-level
    # reference's cumulative line haul rounds the operator's up to 7e-15 apart
    scen = _golden_scenario(name)
    for scen_name, policy, q0 in _GOLDEN_OPTIMA:
        if scen_name != name:
            continue
        opt = optimize_policy(scen, Policy(policy), q0)
        ref = _reference.cost_breakdown(scen, Policy(policy), q0, opt.r_star, opt.f_star)
        np.testing.assert_allclose(
            dataclasses.astuple(opt.breakdown), dataclasses.astuple(ref), rtol=1e-14, atol=0.0,
            err_msg=f"{policy} {q0}",
        )


@pytest.mark.parametrize("name", ["baseline", "seattle_i5", "seattle_sr99", "contrast"])
def test_golden_optima(name):
    scen = _golden_scenario(name)
    for (scen_name, policy, q0), (r_star, f_star, total) in _GOLDEN_OPTIMA.items():
        if scen_name != name:
            continue
        opt = optimize_policy(scen, Policy(policy), q0)
        assert (opt.r_star, opt.f_star) == (r_star, f_star), (policy, q0)
        assert opt.breakdown.total == pytest.approx(total, rel=1e-12), (policy, q0)


# (scenario, policy, q0) -> (R*, F*, total) under split_rule=equilibrium,
# recorded from the per-share bracket scan that preceded the batched one.
_GOLDEN_EQUILIBRIUM = {
    ("baseline", "mtp", 500.0): (0.22781249999999997, 82.734375, 99300.95501990763),
    ("baseline", "mtp", 1500.0): (0.8003125, 64.18526785714286, 540188.8746683645),
    ("baseline", "eblp", 500.0): (0.22781249999999997, 82.734375, 99535.66191980928),
    ("baseline", "eblp", 1500.0): (0.63, 118.92857142857143, 617163.0717439846),
    ("baseline", "hovlp", 500.0): (0.22906249999999995, 82.60044642857143, 100160.85205554808),
    ("baseline", "hovlp", 1500.0): (0.8584375, 45.50223214285715, 839425.3375395519),
    ("contrast", "mtp", 500.0): (0.20468750000000002, 85.21205357142857, 101970.01264873138),
    ("contrast", "mtp", 1500.0): (0.8084375000000001, 61.573660714285666, 707509.80492987),
    ("contrast", "eblp", 500.0): (0.20468750000000002, 85.21205357142857, 102202.76467688418),
    ("contrast", "eblp", 1500.0): (0.63, 118.92857142857143, 787873.2439333112),
    ("contrast", "hovlp", 500.0): (0.2053125, 85.14508928571429, 102744.48704653597),
    ("contrast", "hovlp", 1500.0): (0.6565624999999999, 110.39062500000003, 495144.4354882892),
}


# "beta_auto,beta_bus" -> policy -> (R*, F*) at each of _KERNEL_Q0 on the
# default scenario, recorded when these exponents had no moment table and the
# search priced them one candidate at a time through `cost_totals`.
_KERNEL_OPTIMA = json.loads((pathlib.Path(__file__).parent / "kernel_optima.json").read_text())
_KERNEL_Q0 = [150.0, 400.0, 658.0, 900.0, 1072.0, 1476.0, 2007.0, 2214.0]


@pytest.mark.parametrize("betas", list(_KERNEL_OPTIMA))
def test_kernel_optima_match_the_per_candidate_search(betas):
    beta_auto, beta_bus = map(float, betas.split(","))
    scen = load_scenario({"bpr": {"beta_auto": beta_auto, "beta_bus": beta_bus}})
    for policy in Policy:
        optima = optimize_policies(scen, policy, _KERNEL_Q0)
        assert [[opt.r_star, opt.f_star] for opt in optima] == _KERNEL_OPTIMA[betas][policy.value]
        q0s, shares, f_stars = (
            np.array([getattr(opt, name) for opt in optima]) for name in ("q0", "r_star", "f_star")
        )
        kernel = FrequencySweep(scen, policy, q0s, shares).totals(f_stars[:, None])[:, 0]
        expected = [opt.breakdown.total for opt in optima]
        np.testing.assert_allclose(kernel, expected, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("name", ["baseline", "contrast"])
def test_golden_equilibrium_optima(name):
    base = _golden_scenario(name)
    scen = dataclasses.replace(
        base, solver=dataclasses.replace(base.solver, split_rule="equilibrium")
    )
    for (scen_name, policy, q0), (r_star, f_star, total) in _GOLDEN_EQUILIBRIUM.items():
        if scen_name != name:
            continue
        opt = optimize_policy(scen, Policy(policy), q0)
        assert (opt.r_star, opt.f_star) == (r_star, f_star), (policy, q0)
        assert opt.breakdown.total == pytest.approx(total, rel=1e-12), (policy, q0)


# The scenarios of the golden tables plus one per model switch the batched
# split search passes through, and an equilibrium-rule scenario whose interior
# splits all break the capacity floor above q0 = 1250 under f_cap 37.5 (the
# cost-min rule always has the feasible all-auto split).
_BATCH_SCENARIOS = {
    "contrast": _golden_scenario("contrast"),
    "baseline": Scenario(),
    "seattle_i5": preset("seattle_i5"),
    "seattle_sr99": preset("seattle_sr99"),
    "cumulative": load_scenario({"solver": {"delay_volume_mode": "cumulative"}}),
    "no_intersections": load_scenario({"geometry": {"n_intersections": 0}}),
    "f_cap_37.5": load_scenario({"solver": {"f_cap": 37.5}}),
    "f_cap_37.5_equilibrium": load_scenario(
        {"solver": {"f_cap": 37.5, "split_rule": "equilibrium"}, "bus": {"capacity_pax": 5.0}}
    ),
}
# The batch scenarios with every policy, plus the scenarios whose signal
# delay moves a row's minimum or whose overflow term is steep, each with the
# policies the frequency-sweep tests run them with.
_PRUNE_CASES = {
    **{name: (scen, list(Policy)) for name, scen in _BATCH_SCENARIOS.items()},
    "delay_moves_minimum": (
        load_scenario({
            "bpr": {"bus_pce": 15.0},
            "geometry": {"lane_capacity_vph": 900.0},
            "signal": {"green_ratio": 0.3},
        }),
        list(Policy),
    ),
    "steep_overflow": (
        load_scenario({"signal": {"incremental_delay_factor": 1000.0}}), [Policy.EBLP]
    ),
}
# Scenarios whose split searches take the floor-first scan's other branches:
# tails that open (a dear wait pushes F* above the floor), floors above the
# last lattice point (the cap alone), tail bounds through kernel groups, and
# densities whose every cost overflows in the block of feasible ones.
_TAIL_CASES = {
    "vot_wait_100": (load_scenario({"econ": {"vot_wait": 100.0}}), [150.0, 658.0, 1476.0]),
    "f_cap_37.5": (load_scenario({"solver": {"f_cap": 37.5}}), [658.0, 1476.0, 2214.0]),
    "beta_auto_4.5": (load_scenario({"bpr": {"beta_auto": 4.5}}), [658.0, 1476.0]),
    "overflowing_density": (Scenario(), [658.0, 1e300, 1476.0, 0.0]),
}


def _price_every_tail(patch) -> None:
    """Make the split search price every tail: a tail bound of -inf, while
    :func:`optimizer._winnable` keeps the real share bound."""
    bounds, winnable = FrequencySweep.lower_bounds, optimizer._winnable

    def coarse(*args):
        with pytest.MonkeyPatch.context() as inner:
            inner.setattr(FrequencySweep, "lower_bounds", bounds)
            return winnable(*args)

    patch.setattr(optimizer, "_winnable", coarse)
    patch.setattr(
        FrequencySweep, "lower_bounds", lambda self, lo, hi: np.full(np.shape(lo), -np.inf)
    )


# Unsorted, with duplicates and q0 = 0; at 20000 only the smallest bus shares
# are feasible.  Eleven densities span several blocks of the default budget.
_BATCH_Q0 = [1476.0, 0.0, 658.0, 150.0, 2214.0, 658.0, 1072.3, 2007.0, 40.5, 1072.3, 20000.0]


def _record(optimum):
    """Every field of an optimum, or the message of its InfeasibleError."""
    if isinstance(optimum, InfeasibleError):
        return str(optimum)
    return (
        optimum.policy,
        optimum.q0,
        optimum.r_star,
        optimum.f_star,
        dataclasses.astuple(optimum.breakdown),
        optimum.constraint_binding,
    )


def _one_at_a_time(scen: Scenario, policy: Policy, q0: float):
    try:
        return _record(optimize_policy(scen, policy, q0))
    except InfeasibleError as exc:
        return str(exc)


class TestOptimizePolicies:
    @pytest.mark.parametrize("cell_block", [None, 64 * 101 * 121], ids=["default", "one_block"])
    @pytest.mark.parametrize("name", list(_BATCH_SCENARIOS))
    def test_batch_matches_one_density_at_a_time(self, name, cell_block, monkeypatch):
        scen = _BATCH_SCENARIOS[name]
        q0s = _BATCH_Q0[:5] if scen.solver.split_rule == "equilibrium" else _BATCH_Q0
        if cell_block is not None:
            monkeypatch.setattr(optimizer, "_CELL_BLOCK", cell_block)
        memo = optimizer._optimize_policy_cached
        for policy in Policy:
            memo.cache_clear()
            batch = [_record(opt) for opt in optimizer._lookup(scen, policy, q0s)]
            memo.cache_clear()
            assert batch == [_one_at_a_time(scen, policy, q0) for q0 in q0s], policy
            failures = [record for record in batch if isinstance(record, str)]
            if failures:
                with pytest.raises(InfeasibleError, match=re.escape(failures[0])):
                    optimize_policies(scen, policy, q0s)
            else:
                assert [_record(opt) for opt in optimize_policies(scen, policy, q0s)] == batch
        if name == "f_cap_37.5_equilibrium":
            assert failures  # the scenario covers infeasible densities

    def test_a_block_of_densities_stays_small(self, contrast: Scenario):
        # one default block: 19 densities x 101 shares.  The coarse pass's
        # share bounds peak at 0.95 MiB traced (1.13 MiB while every row's
        # whole lattice was priced); pricing every share's F = 0 delay over
        # all 20 signal columns at once took it to 2.46 MiB
        q0s = np.linspace(600.0, 720.0, 19)
        memo = optimizer._optimize_policy_cached
        optimize_policies(contrast, Policy.HOVLP, [500.0])  # the moment table
        memo.cache_clear()
        tracemalloc.start()
        try:
            optimize_policies(contrast, Policy.HOVLP, q0s)
            peak, misses = tracemalloc.get_traced_memory()[1], memo.cache_info().misses
        finally:
            tracemalloc.stop()
            memo.cache_clear()
        assert misses == q0s.size  # all cold
        assert peak < 1.25 * 2**20, peak

    def test_a_block_budgets_the_refined_window(self):
        # r_step 0.5 gives 3 coarse shares but 2,001 in each refined window;
        # blocks sized by the coarse lattice alone held 661 densities, and
        # these 19 peaked at 17 MiB traced.  Sized by the cells each window
        # share prices they hold two (3.6 MiB)
        q0s = np.linspace(200.0, 2200.0, 19)
        scen = load_scenario({"solver": {"r_step": 0.5, "r_refine_factor": 1000}})
        memo = optimizer._optimize_policy_cached
        optimize_policies(scen, Policy.MTP, [100.0])  # the moment table
        memo.cache_clear()
        tracemalloc.start()
        try:
            optimize_policies(scen, Policy.MTP, q0s)
            peak, misses = tracemalloc.get_traced_memory()[1], memo.cache_info().misses
        finally:
            tracemalloc.stop()
            memo.cache_clear()
        assert misses == q0s.size  # all cold
        assert peak < 4 * 2**20, peak

    @pytest.mark.parametrize(
        "solver,most", [({}, 19), ({"r_step": 0.5, "r_refine_factor": 1000}, 2)],
        ids=["default", "wide_windows"],
    )
    def test_a_block_counts_the_cells_its_rows_price(self, solver, most, monkeypatch):
        # the default coarse lattice sets a block's size; a refined window of
        # 2,001 shares counts the cells each share prices, not its whole lattice
        sizes = []
        cost_min = optimizer._best_split_cost_min

        def recorded(scenario, policy, q0s, coarse):
            sizes.append(q0s.size)
            return cost_min(scenario, policy, q0s, coarse)

        monkeypatch.setattr(optimizer, "_best_split_cost_min", recorded)
        optimizer._optimize_policy_cached.cache_clear()
        scen = load_scenario({"solver": solver})
        optimize_policies(scen, Policy.MTP, np.linspace(200.0, 2200.0, 40))
        optimizer._optimize_policy_cached.cache_clear()
        assert max(sizes) == most

    @pytest.mark.parametrize("q0s", [[658.0, 1e300, 1476.0, 0.0], [1e300, 2e300]],
                             ids=["mixed", "all_infeasible"])
    def test_infeasible_density_in_a_cost_min_block(self, baseline: Scenario, q0s):
        # every split's cost overflows at q0 >= 1e300; the other densities of
        # the block keep the optimum that each gets alone
        memo = optimizer._optimize_policy_cached
        for policy in Policy:
            memo.cache_clear()
            batch = [_record(opt) for opt in optimizer._lookup(baseline, policy, q0s)]
            memo.cache_clear()
            assert batch == [_one_at_a_time(baseline, policy, q0) for q0 in q0s], policy
            for q0, record in zip(q0s, batch):
                if q0 >= 1e300:
                    assert record == (
                        f"no feasible mode split at q0={q0:g}: no split priced to a finite cost"
                    )
                else:
                    assert not isinstance(record, str)

    def test_second_call_is_all_memo_hits(self, baseline: Scenario, monkeypatch):
        first = optimize_policies(baseline, Policy.HOVLP, _BATCH_Q0)
        assert first[2] is first[5]  # one optimum per distinct density
        before = optimizer._optimize_policy_cached.cache_info()

        def refuse(*args, **kwargs):
            raise AssertionError("FrequencySweep built")

        monkeypatch.setattr(optimizer, "FrequencySweep", refuse)
        again = optimize_policies(baseline, Policy.HOVLP, _BATCH_Q0)
        assert all(a is b for a, b in zip(first, again))
        after = optimizer._optimize_policy_cached.cache_info()
        assert after.misses == before.misses
        assert after.hits == before.hits + len(_BATCH_Q0)

    @pytest.mark.parametrize("n_densities", [1, 5, 40])
    def test_winners_priced_from_the_moment_table(self, baseline, n_densities, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("node-level evaluation context built")

        monkeypatch.setattr(costmodel, "_context", refuse)
        optimizer._optimize_policy_cached.cache_clear()
        q0s = list(np.linspace(100.0, 2000.0, n_densities) + 0.123)  # cold densities
        optima = optimize_policies(baseline, Policy.EBLP, q0s)
        optimizer._optimize_policy_cached.cache_clear()
        monkeypatch.undo()
        assert [_record(opt) for opt in optima] == [
            _one_at_a_time(baseline, Policy.EBLP, q0) for q0 in q0s
        ]

    def test_equilibrium_scan_prices_gaps_in_stacked_passes(self, monkeypatch):
        scen = load_scenario({"solver": {"split_rule": "equilibrium"}})
        calls = []
        scalar_gap = optimizer.equilibrium_gap

        def counted(*args, **kwargs):
            calls.append(args[3])
            return scalar_gap(*args, **kwargs)

        bisections = []
        find_root = optimizer.find_root

        def bisect(*args, **kwargs):
            bisections.append(args[1:3])
            return find_root(*args, **kwargs)

        monkeypatch.setattr(optimizer, "equilibrium_gap", counted)
        monkeypatch.setattr(optimizer, "find_root", bisect)
        optimizer._optimize_policy_cached.cache_clear()
        optimize_policy(scen, Policy.MTP, 1000.0)
        optimizer._optimize_policy_cached.cache_clear()
        # the scan and the bisection both price gaps in stacked passes
        assert len(bisections) == 1
        assert calls == []

    def test_equilibrium_scan_reaches_one_minus_the_step(self, monkeypatch):
        # with r_step 0.15 the interior scan once stopped at auto share 0.75
        scen = load_scenario({"solver": {"split_rule": "equilibrium", "r_step": 0.15}})
        scans = []
        signed_gaps = optimizer._signed_gaps

        def recorded(scenario, policy, q0, auto_shares):
            scans.append(auto_shares)
            return signed_gaps(scenario, policy, q0, auto_shares)

        monkeypatch.setattr(optimizer, "_signed_gaps", recorded)
        optimizer._optimize_policy_cached.cache_clear()
        optimize_policy(scen, Policy.MTP, 1000.0)
        optimizer._optimize_policy_cached.cache_clear()
        np.testing.assert_allclose(scans[0], [0.15, 0.3, 0.45, 0.6, 0.75, 0.85], rtol=1e-12)
        assert scans[0][-1] == 1.0 - 0.15

    def test_equilibrium_bisection_reports_an_infeasible_share(self, monkeypatch):
        scen = load_scenario({"solver": {"split_rule": "equilibrium"}})
        brackets = []
        find_root = optimizer.find_root

        def bisect(g, lo, hi, tol):
            brackets.append((lo, hi))
            return find_root(g, lo, hi, tol=tol)

        monkeypatch.setattr(optimizer, "find_root", bisect)
        optimizer._optimize_policy_cached.cache_clear()
        optimize_policy(scen, Policy.MTP, 1000.0)
        [(lo, hi)] = brackets
        frequency_optima = optimizer._frequency_optima

        def failing(scenario, policy, q0, auto_shares, *args, **kwargs):
            f, cost = frequency_optima(scenario, policy, q0, auto_shares, *args, **kwargs)
            return f, np.where(auto_shares == 0.5 * (lo + hi), np.inf, cost)

        # the bisection's first midpoint has no feasible frequency: the
        # density fails as the one-share search fails there
        monkeypatch.setattr(optimizer, "_frequency_optima", failing)
        optimizer._optimize_policy_cached.cache_clear()
        with pytest.raises(InfeasibleError, match="every candidate evaluated non-finite"):
            optimize_policy(scen, Policy.MTP, 1000.0)
        optimizer._optimize_policy_cached.cache_clear()

    def test_validation(self, baseline: Scenario):
        for q0s in (
            [500.0, -1.0], [float("nan")], [float("inf"), 500.0],
            np.array([[500.0]]), 500.0, np.float64(500.0), [[500.0], [600.0, 700.0]], ["x"],
        ):
            with pytest.raises(ValidationError):
                optimize_policies(baseline, Policy.MTP, q0s)
        assert optimize_policies(baseline, Policy.MTP, []) == []

    @pytest.mark.parametrize("name", list(_PRUNE_CASES))
    def test_pruned_split_search_matches_a_full_one(self, name, monkeypatch):
        # the reference searches every share: a bound of -inf drops no row
        scen, policies = _PRUNE_CASES[name]
        q0s = _BATCH_Q0[:5] if scen.solver.split_rule == "equilibrium" else _BATCH_Q0
        memo = optimizer._optimize_policy_cached
        for policy in policies:
            memo.cache_clear()
            pruned = [_record(opt) for opt in optimizer._lookup(scen, policy, q0s)]
            with monkeypatch.context() as patch:
                patch.setattr(
                    FrequencySweep, "lower_bounds", lambda self, lo, hi: np.full(lo.shape, -np.inf)
                )
                memo.cache_clear()
                full = [_record(opt) for opt in optimizer._lookup(scen, policy, q0s)]
            memo.cache_clear()
            assert pruned == full, policy

    @pytest.mark.parametrize("beta_auto", [4.0, 4.5])
    @pytest.mark.parametrize("policy", list(Policy))
    def test_coarse_split_pass_searches_few_shares(self, policy, beta_auto, monkeypatch):
        # the bound must keep dropping most shares, or the search is back to
        # a full lattice per share without any test failing; 4.5 prices the
        # congestion terms through kernels
        passes = []
        winnable = optimizer._winnable

        def counted(sweep, groups, *args):
            keep = winnable(sweep, groups, *args)
            passes.append((np.count_nonzero(keep), keep.size))
            return keep

        monkeypatch.setattr(optimizer, "_winnable", counted)
        optimizer._optimize_policy_cached.cache_clear()
        contrast = _golden_scenario("contrast")
        scen = dataclasses.replace(
            contrast, bpr=dataclasses.replace(contrast.bpr, beta_auto=beta_auto)
        )
        optimize_policies(scen, policy, [250.0, 660.0, 1200.0])
        optimizer._optimize_policy_cached.cache_clear()
        kept, rows = passes[0]  # the coarse pass; the refined one bounds only tails
        assert len(passes) == 1 and kept <= 0.1 * rows

    @pytest.mark.parametrize("policy", list(Policy))
    def test_coarse_split_pass_builds_few_exact_share_terms(self, contrast, policy, monkeypatch):
        # the share table bounds every share before its exact terms exist;
        # only the shares whose bound, and then whose bound with delay, can
        # win, and one priced share per density, get theirs
        coarse, rows, built = [False], [], []
        search, winnable = optimizer._frequency_optima, optimizer._winnable
        share_terms = FrequencySweep._share_terms.func

        def searched(*args, groups=None, **kwargs):
            coarse[0] = groups is not None
            return search(*args, groups=groups, **kwargs)

        def bounded(sweep, *args):
            rows.append(sweep._shares.size)
            return winnable(sweep, *args)

        def counted(sweep):
            if coarse[0]:
                built.append(sweep._shares.size)
            return share_terms(sweep)

        terms = functools.cached_property(counted)
        terms.__set_name__(FrequencySweep, "_share_terms")
        monkeypatch.setattr(FrequencySweep, "_share_terms", terms)
        monkeypatch.setattr(optimizer, "_frequency_optima", searched)
        monkeypatch.setattr(optimizer, "_winnable", bounded)
        optimizer._optimize_policy_cached.cache_clear()
        optimize_policies(contrast, policy, [250.0, 660.0, 1200.0])
        optimizer._optimize_policy_cached.cache_clear()
        assert len(rows) == 1 and 0 < sum(built) <= 0.2 * rows[0], (sum(built), rows)

    @pytest.mark.parametrize("name", list(_TAIL_CASES))
    def test_floor_first_scan_matches_full_scans(self, name, monkeypatch):
        # one reference prices every row's tail: a tail bound of -inf, while
        # the coarse pass's share bound keeps the real one; the other prices
        # every row's integer candidates in one row_minima call
        scen, q0s = _TAIL_CASES[name]
        tails = []
        row_minima = FrequencySweep.row_minima

        def counted(sweep, rows):
            # a tail: integer candidates that start a step or more above the floor
            floor = np.maximum(1.0, min_frequency(scen, sweep._q0s, sweep._shares))
            integers = np.all(np.nan_to_num(rows) % 1 == 0, axis=1)
            tails.append(np.count_nonzero(integers & (rows[:, 0] >= floor + 1.0)))
            return row_minima(sweep, rows)

        def whole_rows(sweep, first, last):
            return sweep.row_minima(numeric._lattice(first, last, 1.0))

        monkeypatch.setattr(FrequencySweep, "row_minima", counted)
        memo, opened = optimizer._optimize_policy_cached, 0
        for policy in Policy:
            memo.cache_clear()
            start = len(tails)
            bounded = [_record(opt) for opt in optimizer._lookup(scen, policy, q0s)]
            opened += sum(tails[start:])  # rows whose tail the bound could not certify
            with monkeypatch.context() as patch:
                _price_every_tail(patch)
                memo.cache_clear()
                full = [_record(opt) for opt in optimizer._lookup(scen, policy, q0s)]
            with monkeypatch.context() as patch:
                patch.setattr(optimizer, "_floor_first_minima", whole_rows)
                memo.cache_clear()
                whole = [_record(opt) for opt in optimizer._lookup(scen, policy, q0s)]
            memo.cache_clear()
            assert bounded == full == whole, policy
        if name == "vot_wait_100":
            assert opened > 0

    def test_split_search_scans_up_from_the_floor(self, contrast: Scenario, monkeypatch):
        # one cold default block: no row prices more than _HEAD integer
        # candidates besides its refinement window, where a whole-lattice
        # scan prices about 100
        calls = []
        row_minima = FrequencySweep.row_minima

        def counted(sweep, rows):
            calls.append(np.array(rows))
            return row_minima(sweep, rows)

        monkeypatch.setattr(FrequencySweep, "row_minima", counted)
        optimizer._optimize_policy_cached.cache_clear()
        optimize_policies(contrast, Policy.HOVLP, np.linspace(600.0, 720.0, 19))
        optimizer._optimize_policy_cached.cache_clear()
        # integer candidates only, or a refinement window at step 0.1
        lattice = [rows for rows in calls if np.all(np.nan_to_num(rows) % 1 == 0)]
        searched = sum(len(rows) for rows in calls) - sum(len(rows) for rows in lattice)
        priced = sum(np.count_nonzero(~np.isnan(rows)) for rows in lattice)
        assert searched >= 19 and priced <= optimizer._HEAD * searched, (priced, searched)

    def test_memo_is_a_bounded_lru_that_skips_errors(self):
        solved = []

        def solve(scenario, policy, q0s):
            solved.append(list(q0s))
            return [InfeasibleError("none") if q0 == 9.0 else q0 * 10.0 for q0 in q0s]

        memo = optimizer._BatchMemo(solve, maxsize=2)
        assert memo(None, Policy.MTP, [1.0, 2.0]) == [10.0, 20.0]
        memo(None, Policy.MTP, [1.0])  # 2.0 is now the least recently used
        memo(None, Policy.MTP, [3.0])
        assert memo(None, Policy.MTP, [2.0, 1.0, 2.0]) == [20.0, 10.0, 20.0]
        assert solved == [[1.0, 2.0], [3.0], [2.0]]
        assert memo.cache_info() == (3, 4, 2, 2)
        memo(None, Policy.MTP, [9.0])
        memo(None, Policy.MTP, [9.0])
        assert solved[-2:] == [[9.0], [9.0]]
        memo.cache_clear()
        assert memo.cache_info() == (0, 0, 2, 0)
