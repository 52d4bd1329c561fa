"""Cost curves, switching thresholds, and best-policy regions."""

from __future__ import annotations

import csv
import io

import pytest

from lanepolicy import (
    InfeasibleError,
    Policy,
    Scenario,
    ValidationError,
    cost_curve,
    find_threshold,
    load_scenario,
    optimize_policy,
    policy_regions,
    write_curves_csv,
)
from lanepolicy import optimizer, threshold
from lanepolicy.threshold import CURVE_CSV_COLUMNS


@pytest.fixture
def evaluated(monkeypatch) -> list[float]:
    """Densities looked up in the optimizer's memo, in call order."""
    seen: list[float] = []
    memo = optimizer._optimize_policy_cached

    def recording(scenario, policy, q0s):
        seen.extend(q0s)
        return memo(scenario, policy, q0s)

    monkeypatch.setattr(optimizer, "_optimize_policy_cached", recording)
    return seen


class TestCostCurve:
    def test_samples_cover_range(self, baseline: Scenario):
        curve = cost_curve(baseline, Policy.MTP, (400.0, 800.0), 5)
        assert curve.policy is Policy.MTP
        assert list(curve.densities()) == [400.0, 500.0, 600.0, 700.0, 800.0]
        assert len(curve.totals()) == 5
        assert curve.failures == ()
        # each sample is the joint optimum at that density
        q0, opt = curve.samples[2]
        assert opt is optimize_policy(baseline, Policy.MTP, q0)

    def test_infeasible_densities_recorded_not_raised(self):
        scen = load_scenario(
            {
                "solver": {"f_cap": 2.0, "split_rule": "equilibrium"},
                "bus": {"capacity_pax": 5.0},
            }
        )
        curve = cost_curve(scen, Policy.MTP, (1500.0, 2500.0), 3)
        assert curve.samples == ()
        assert len(curve.failures) == 3
        for q0, reason in curve.failures:
            assert 1500.0 <= q0 <= 2500.0
            assert reason  # a human-readable explanation

    def test_failures_match_one_density_at_a_time(self):
        # equilibrium splits all break the capacity floor above q0 = 1250
        scen = load_scenario(
            {
                "solver": {"f_cap": 37.5, "split_rule": "equilibrium"},
                "bus": {"capacity_pax": 5.0},
            }
        )
        curve = cost_curve(scen, Policy.MTP, (0.0, 2000.0), 5)
        samples, failures = [], []
        for q0 in (0.0, 500.0, 1000.0, 1500.0, 2000.0):
            try:
                samples.append((q0, optimize_policy(scen, Policy.MTP, q0)))
            except InfeasibleError as exc:
                failures.append((q0, str(exc)))
        assert curve.failures == tuple(failures)
        assert [q0 for q0, _ in curve.samples] == [0.0, 500.0, 1000.0]
        assert all(a is b for (_, a), (_, b) in zip(curve.samples, samples))
        # an infeasible density is not memoized: asking again solves it again
        misses = optimizer._optimize_policy_cached.cache_info().misses
        cost_curve(scen, Policy.MTP, (0.0, 2000.0), 5)
        assert optimizer._optimize_policy_cached.cache_info().misses == misses + 2

    def test_validation(self, baseline: Scenario):
        with pytest.raises(ValidationError):
            cost_curve(baseline, Policy.MTP, (800.0, 400.0), 5)
        with pytest.raises(ValidationError):
            cost_curve(baseline, Policy.MTP, (-10.0, 400.0), 5)
        with pytest.raises(ValidationError):
            cost_curve(baseline, Policy.MTP, (400.0, 800.0), 1)

    @pytest.mark.parametrize("n_samples", [2.9, float("nan"), float("inf"), "5", True])
    def test_n_samples_must_be_an_integer(self, baseline: Scenario, n_samples):
        with pytest.raises(ValidationError, match="n_samples must be an integer >= 2"):
            cost_curve(baseline, Policy.MTP, (400.0, 800.0), n_samples)

    def test_csv_round_trip(self, baseline: Scenario):
        curve = cost_curve(baseline, Policy.MTP, (400.0, 800.0), 3)
        buf = io.StringIO()
        write_curves_csv([curve], buf)
        rows = list(csv.reader(io.StringIO(buf.getvalue())))
        assert tuple(rows[0]) == CURVE_CSV_COLUMNS
        assert len(rows) == 1 + 3
        assert rows[1][1] == "mtp"
        assert float(rows[1][0]) == pytest.approx(400.0)
        # total column equals the sum of the component columns
        total, *parts = (float(v) for v in rows[2][2:7])
        assert total == pytest.approx(sum(parts), abs=1e-3)


class TestFindThreshold:
    def test_crossing_located_and_ordered(self, contrast: Scenario):
        res = find_threshold(contrast, Policy.MTP, Policy.HOVLP, 200.0, 2200.0)
        assert res.q0_star == pytest.approx(657.5, abs=2.0)
        assert res.cheaper_below is Policy.MTP
        assert res.cheaper_above is Policy.HOVLP
        # the reported ordering matches direct evaluation on each side
        below = res.q0_star - 100.0
        above = res.q0_star + 100.0
        assert (
            optimize_policy(contrast, Policy.MTP, below).breakdown.total
            < optimize_policy(contrast, Policy.HOVLP, below).breakdown.total
        )
        assert (
            optimize_policy(contrast, Policy.HOVLP, above).breakdown.total
            < optimize_policy(contrast, Policy.MTP, above).breakdown.total
        )

    def test_argument_order_does_not_move_the_crossing(self, contrast: Scenario):
        a = find_threshold(contrast, Policy.MTP, Policy.HOVLP, 500.0, 900.0)
        b = find_threshold(contrast, Policy.HOVLP, Policy.MTP, 500.0, 900.0)
        assert a.q0_star == pytest.approx(b.q0_star, abs=2.0)
        assert a.cheaper_below is b.cheaper_below is Policy.MTP

    def test_no_crossing_reports_uniform_winner(self, baseline: Scenario):
        res = find_threshold(baseline, Policy.MTP, Policy.EBLP, 200.0, 1000.0)
        assert res.q0_star is None
        assert res.cheaper_below is Policy.MTP
        assert res.cheaper_above is Policy.MTP

    def test_same_policy_is_trivial(self, baseline: Scenario):
        res = find_threshold(baseline, Policy.MTP, Policy.MTP, 200.0, 400.0)
        assert res.q0_star is None
        assert res.cheaper_below is Policy.MTP

    def test_range_validated(self, baseline: Scenario):
        with pytest.raises(ValidationError):
            find_threshold(baseline, Policy.MTP, Policy.EBLP, 900.0, 300.0)

    def test_exact_tie_goes_to_the_first_listed_policy(self):
        # Without lane costs EBLP and HOVLP tie exactly in the all-bus regime
        # at 200, then EBLP is cheaper until the real crossing near 569.
        s = load_scenario(
            {"lane_costs": {key: 0.0 for key in (
                "ebl_fixed", "ebl_variable_per_mi", "hovl_fixed", "hovl_variable_per_mi"
            )}}
        )
        res = find_threshold(s, Policy.EBLP, Policy.HOVLP, 200.0, 1000.0)
        assert res.q0_star == pytest.approx(569.1, abs=0.5)
        assert (res.cheaper_below, res.cheaper_above) == (Policy.EBLP, Policy.HOVLP)

        def gap(q0: float) -> float:
            eblp = optimize_policy(s, Policy.EBLP, q0).breakdown.total
            return eblp - optimize_policy(s, Policy.HOVLP, q0).breakdown.total

        assert gap(res.q0_star - 50.0) < 0.0 < gap(res.q0_star + 50.0)
        regions = policy_regions(s, (200.0, 1000.0), 25.0, (Policy.EBLP, Policy.HOVLP))
        assert regions[0].q0_hi == res.q0_star
        assert [r.policy for r in regions[:2]] == [Policy.EBLP, Policy.HOVLP]
        # Known limit: in the other order HOVLP wins the tie, so the tie
        # point itself is reported.
        flipped = find_threshold(s, Policy.HOVLP, Policy.EBLP, 200.0, 1000.0)
        assert flipped.q0_star == 200.0
        assert (flipped.cheaper_below, flipped.cheaper_above) == (Policy.HOVLP, Policy.EBLP)


class TestBoundaryBisection:
    def test_find_threshold_solver_calls(self, contrast: Scenario, monkeypatch):
        memo = optimizer._optimize_policy_cached
        solve = memo._solve
        calls = []

        def counted(scenario, policy, q0s):
            calls.append((policy, len(q0s)))
            return solve(scenario, policy, q0s)

        monkeypatch.setattr(memo, "_solve", counted)
        memo.cache_clear()
        res = find_threshold(contrast, Policy.MTP, Policy.HOVLP, 177.0, 2214.0)
        memo.cache_clear()
        assert res.q0_star == pytest.approx(657.9, abs=0.1)
        # one call per policy for the 33-point scan; then the 6 bisection
        # steps in the crossing's cell, two levels per call and policy
        assert calls == [(Policy.MTP, 33), (Policy.HOVLP, 33)] + [
            (Policy.MTP, 3), (Policy.HOVLP, 3)
        ] * 3

    @staticmethod
    def _infeasible_at(monkeypatch, bad) -> list[float]:
        """Make HOVLP infeasible at every density that ``bad`` accepts."""
        memo = optimizer._optimize_policy_cached
        errors = []

        def failing(scenario, policy, q0s):
            found = memo(scenario, policy, q0s)
            if policy is not Policy.HOVLP:
                return found
            errors.extend(q0 for q0 in q0s if bad(q0))
            return [
                InfeasibleError(f"no optimum at q0={q0}") if bad(q0) else optimum
                for q0, optimum in zip(q0s, found)
            ]

        monkeypatch.setattr(optimizer, "_optimize_policy_cached", failing)
        return errors

    def test_infeasible_density_on_the_walk_raises(self, contrast: Scenario, monkeypatch):
        # 200 + 62.5 * 7.5, the first midpoint of the cell [637.5, 700]
        self._infeasible_at(monkeypatch, lambda q0: q0 == 668.75)
        with pytest.raises(InfeasibleError, match="no optimum at q0=668.75"):
            find_threshold(contrast, Policy.MTP, Policy.HOVLP, 200.0, 2200.0)

    def test_infeasible_density_off_the_walk_is_ignored(self, contrast: Scenario, monkeypatch):
        expected = find_threshold(contrast, Policy.MTP, Policy.HOVLP, 200.0, 2200.0)
        # the walk from [637.5, 700] goes left of 668.75, never to 684.375
        errors = self._infeasible_at(monkeypatch, lambda q0: q0 == 684.375)
        assert find_threshold(contrast, Policy.MTP, Policy.HOVLP, 200.0, 2200.0) == expected
        assert errors == [684.375]


class TestPolicyRegions:
    def test_lattice_size_bounded(self, baseline: Scenario):
        # each call is refused before a density is optimized or listed
        for resolution in (2300.0 / 100_000, 1e-300):
            with pytest.raises(ValidationError, match="resolution"):
                policy_regions(baseline, (200.0, 2500.0), resolution)
        with pytest.raises(ValidationError, match="n_samples"):
            cost_curve(baseline, Policy.MTP, (200.0, 2500.0), 100_001)

    def test_contrast_scenario_switches_once(self, contrast: Scenario):
        regions = policy_regions(contrast, (200.0, 1200.0), 200.0)
        assert [r.policy for r in regions] == [Policy.MTP, Policy.HOVLP]
        assert regions[0].q0_lo == 200.0
        assert regions[-1].q0_hi == 1200.0
        # contiguous partition with the boundary at the pairwise crossing
        assert regions[0].q0_hi == regions[1].q0_lo
        assert regions[0].q0_hi == pytest.approx(657.5, abs=2.0)

    def test_single_region_when_one_policy_dominates(self, baseline: Scenario):
        regions = policy_regions(baseline, (400.0, 800.0), 100.0)
        assert len(regions) == 1
        assert regions[0].policy is Policy.MTP
        assert (regions[0].q0_lo, regions[0].q0_hi) == (400.0, 800.0)

    def test_restricted_policy_set(self, contrast: Scenario):
        regions = policy_regions(
            contrast, (300.0, 500.0), 100.0, policies=(Policy.MTP,)
        )
        assert regions == [
            type(regions[0])(q0_lo=300.0, q0_hi=500.0, policy=Policy.MTP)
        ]

    # Boundaries recorded from the 33-point find_threshold scan of the cell
    # that preceded the direct bisection.
    @pytest.mark.parametrize(
        "q0_range,resolution,boundary",
        [
            ((200.0, 1200.0), 200.0, 658.203125),
            ((181.0, 2220.0), 203.9, 657.6958984375001),
        ],
    )
    def test_boundary_matches_recorded(self, contrast: Scenario, q0_range, resolution, boundary):
        regions = policy_regions(contrast, q0_range, resolution)
        assert [r.policy for r in regions] == [Policy.MTP, Policy.HOVLP]
        assert regions[0].q0_hi == pytest.approx(boundary, rel=1e-12)

    def test_fine_lattice_boundary_within_tolerance(self, contrast: Scenario):
        # A 10-wide cell is narrower than 16 tolerances, so the direct bisection
        # stops within tol of the recorded boundary but not on it.
        regions = policy_regions(contrast, (200.0, 1200.0), 10.0)
        assert abs(regions[0].q0_hi - 657.96875) <= contrast.solver.threshold_tol

    def test_lattice_stays_inside_range(self, contrast: Scenario, evaluated):
        # float arange(1.0, 1.3, 0.1) would end 1.3000000000000003 before 1.3
        policy_regions(contrast, (1.0, 1.3), 0.1)
        assert max(evaluated) == 1.3
        assert min(evaluated) == 1.0

    def test_lattice_reuses_cost_curve_densities(self, contrast: Scenario, evaluated):
        lo, hi, n = 181.0, 2220.0, 11
        for policy in (Policy.MTP, Policy.EBLP, Policy.HOVLP):
            cost_curve(contrast, policy, (lo, hi), n)
        curve_q0 = set(evaluated)
        evaluated.clear()
        regions = policy_regions(contrast, (lo, hi), (hi - lo) / (n - 1))
        # Only the bisection inside the boundary's cell adds new densities.
        boundary = regions[0].q0_hi
        cell_lo = max(q0 for q0 in curve_q0 if q0 <= boundary)
        cell_hi = min(q0 for q0 in curve_q0 if q0 >= boundary)
        assert all(cell_lo < q0 < cell_hi for q0 in set(evaluated) - curve_q0)

    def test_boundaries_do_not_rescan_with_find_threshold(self, contrast: Scenario, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("find_threshold called")

        monkeypatch.setattr(threshold, "find_threshold", refuse)
        regions = policy_regions(contrast, (200.0, 1200.0), 200.0)
        assert [r.policy for r in regions] == [Policy.MTP, Policy.HOVLP]

    def test_validation(self, baseline: Scenario):
        with pytest.raises(ValidationError):
            policy_regions(baseline, (400.0, 800.0), 0.0)
        with pytest.raises(ValidationError):
            policy_regions(baseline, (400.0, 800.0), 100.0, policies=())
