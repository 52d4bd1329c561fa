"""Dynamic policy timetables from stepwise cost comparison."""

from __future__ import annotations

import csv
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lanepolicy import (
    OUParams,
    Policy,
    Scenario,
    StepTable,
    ValidationError,
    build_schedule,
    evaluate_trajectory,
    format_timetable,
    schedule_summary,
    simulate,
    write_schedule_csv,
    write_schedule_json,
)
from lanepolicy.scheduler import SCHEDULE_CSV_COLUMNS


def make_table(best_costs, other_costs, dt: float = 0.5, t0: float = 7.0) -> StepTable:
    """Two-policy step table with explicit per-step totals (MTP and EBLP)."""
    mtp = np.asarray(best_costs, dtype=float)
    eblp = np.asarray(other_costs, dtype=float)
    n = len(mtp)
    best = tuple(
        Policy.MTP if mtp[i] <= eblp[i] else Policy.EBLP for i in range(n)
    )
    return StepTable(
        t0_clock=t0,
        dt=dt,
        q0=np.linspace(800.0, 900.0, n),
        totals={Policy.MTP: mtp, Policy.EBLP: eblp},
        best=best,
        quantization_bound=0.0,
    )


class TestBuildSchedule:
    def test_single_policy_single_entry(self):
        table = make_table([1.0, 1.0, 1.0, 1.0], [2.0, 2.0, 2.0, 2.0])
        sched = build_schedule(table)
        assert len(sched.entries) == 1
        entry = sched.entries[0]
        assert entry.policy is Policy.MTP
        assert entry.t_entry == pytest.approx(7.0)
        # the final sample is the horizon boundary, not a lived interval
        assert entry.t_exit == pytest.approx(7.0 + 3 * 0.5)
        assert sched.combined_cumulative == pytest.approx(3 * 0.5 * 1.0)

    def test_alternation_produces_entries(self):
        table = make_table([1.0, 3.0, 1.0, 3.0, 1.0], [2.0, 2.0, 2.0, 2.0, 2.0])
        sched = build_schedule(table)
        assert [e.policy for e in sched.entries] == [
            Policy.MTP,
            Policy.EBLP,
            Policy.MTP,
            Policy.EBLP,
        ]
        # contiguous non-overlapping cover of the four lived intervals
        assert sched.entries[0].t_entry == pytest.approx(7.0)
        for a, b in zip(sched.entries, sched.entries[1:]):
            assert a.t_exit == pytest.approx(b.t_entry)
        assert sched.entries[-1].t_exit == pytest.approx(9.0)

    def test_min_dwell_merges_short_run_into_cheaper_neighbor(self):
        # middle EBLP run lasts one 30-minute step; a 45-minute dwell floor
        # forces it to adopt the surrounding policy
        table = make_table([1.0, 1.0, 3.0, 1.0, 1.0], [2.0, 2.0, 2.0, 2.0, 2.0])
        free = build_schedule(table, min_dwell=0.0)
        assert len(free.entries) == 3
        merged = build_schedule(table, min_dwell=45.0)
        assert [e.policy for e in merged.entries] == [Policy.MTP]
        # forcing the merge cannot reduce cost
        assert merged.combined_cumulative >= free.combined_cumulative - 1e-12

    def test_merge_prefers_cheaper_neighbor(self):
        # a one-step island with different policies on each side adopts the
        # neighbor whose cost over the island window is lower
        mtp = np.array([1.0, 1.0, 5.0, 9.0, 9.0, 9.0])
        eblp = np.array([9.0, 9.0, 0.5, 9.0, 9.0, 9.0])
        hovlp = np.array([9.0, 9.0, 3.0, 1.0, 1.0, 1.0])
        totals = {Policy.MTP: mtp, Policy.EBLP: eblp, Policy.HOVLP: hovlp}
        best = tuple(
            min(totals, key=lambda p: totals[p][k]) for k in range(len(mtp))
        )
        assert best[:5] == (Policy.MTP, Policy.MTP, Policy.EBLP, Policy.HOVLP, Policy.HOVLP)
        table = StepTable(
            t0_clock=7.0,
            dt=0.5,
            q0=np.full(len(mtp), 700.0),
            totals=totals,
            best=best,
            quantization_bound=0.0,
        )
        sched = build_schedule(table, min_dwell=45.0)
        # the island's window costs 3.0/hr under HOVLP vs 5.0/hr under MTP
        assert [e.policy for e in sched.entries] == [Policy.MTP, Policy.HOVLP]
        assert sched.entries[0].t_exit == pytest.approx(8.0)

    def test_min_dwell_validated(self):
        table = make_table([1.0, 1.0], [2.0, 2.0])
        with pytest.raises(ValidationError):
            build_schedule(table, min_dwell=-1.0)
        with pytest.raises(ValidationError):
            build_schedule(table, min_dwell=float("nan"))

    def test_per_policy_and_savings_accounting(self):
        table = make_table([1.0, 3.0, 1.0], [2.0, 2.0, 2.0])
        sched = build_schedule(table)
        # stay-on-MTP and stay-on-EBLP totals over the two lived intervals
        assert sched.per_policy_cumulative[Policy.MTP] == pytest.approx(0.5 * (1.0 + 3.0))
        assert sched.per_policy_cumulative[Policy.EBLP] == pytest.approx(0.5 * (2.0 + 2.0))
        assert sched.combined_cumulative == pytest.approx(0.5 * (1.0 + 2.0))
        assert sched.savings_vs[Policy.MTP] == pytest.approx((2.0 - 1.5) / 2.0)
        assert sched.savings_vs[Policy.EBLP] == pytest.approx((2.0 - 1.5) / 2.0)

    def test_switching_no_worse_than_any_single_policy(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            table = make_table(rng.uniform(1.0, 5.0, n), rng.uniform(1.0, 5.0, n))
            sched = build_schedule(table)
            for policy, total in sched.per_policy_cumulative.items():
                assert sched.combined_cumulative <= total + 1e-9


class TestHypothesisProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        costs=st.lists(
            st.tuples(st.floats(0.5, 9.5), st.floats(0.5, 9.5)),
            min_size=2,
            max_size=16,
        ),
        dwell=st.sampled_from([0.0, 20.0, 45.0, 90.0]),
    )
    def test_partition_dominance_and_dwell(self, costs, dwell):
        mtp = [a for a, _ in costs]
        eblp = [b for _, b in costs]
        table = make_table(mtp, eblp)
        sched = build_schedule(table, min_dwell=dwell)
        # entries partition the horizon in order
        assert sched.entries[0].t_entry == pytest.approx(table.t0_clock)
        horizon_end = table.t0_clock + (len(costs) - 1) * table.dt
        assert sched.entries[-1].t_exit == pytest.approx(horizon_end)
        for a, b in zip(sched.entries, sched.entries[1:]):
            assert a.t_exit == pytest.approx(b.t_entry)
            assert a.policy is not b.policy  # runs are maximal
        # every entry respects the dwell floor (a single entry may not need to)
        if len(sched.entries) > 1:
            for e in sched.entries:
                assert e.duration_hr * 60.0 >= dwell - 1e-6
        # switching beats single policies when unconstrained
        if dwell == 0.0:
            for total in sched.per_policy_cumulative.values():
                assert sched.combined_cumulative <= total + 1e-9
        # a dwell floor can only cost money
        free = build_schedule(table, min_dwell=0.0)
        assert sched.combined_cumulative >= free.combined_cumulative - 1e-9


@pytest.fixture(scope="module")
def coarse_traj():
    # level straddles the contrast scenario's switching density
    params = OUParams(
        mean_reversion=2.0, long_run_level=660.0, volatility=0.25, q0_init=660.0
    )
    return simulate(params, horizon=3.0, dt=0.5, seed=3)


class TestEvaluateTrajectory:
    def test_table_shape_and_caching(self, contrast: Scenario, coarse_traj):
        table = evaluate_trajectory(
            contrast, coarse_traj, (Policy.MTP, Policy.HOVLP)
        )
        assert table.policies == (Policy.MTP, Policy.HOVLP)
        assert table.n_steps == coarse_traj.n_steps
        assert len(table.best) == len(coarse_traj.values)
        for policy in table.policies:
            totals = table.totals[policy]
            assert len(totals) == len(coarse_traj.values)
            assert np.all(np.isfinite(totals))
            assert np.all(totals > 0)
        assert table.quantization_bound >= 0.0

    def test_best_is_pointwise_argmin(self, contrast: Scenario, coarse_traj):
        table = evaluate_trajectory(contrast, coarse_traj, (Policy.MTP, Policy.HOVLP))
        for k, label in enumerate(table.best):
            best_cost = table.totals[label][k]
            for policy in table.policies:
                assert best_cost <= table.totals[policy][k] + 1e-9

    def test_restricting_policies_cannot_help(self, contrast: Scenario, coarse_traj):
        only_m = build_schedule(
            evaluate_trajectory(contrast, coarse_traj, (Policy.MTP,))
        )
        pair = build_schedule(
            evaluate_trajectory(contrast, coarse_traj, (Policy.MTP, Policy.HOVLP))
        )
        full = build_schedule(
            evaluate_trajectory(
                contrast, coarse_traj, (Policy.MTP, Policy.EBLP, Policy.HOVLP)
            )
        )
        assert len(only_m.entries) == 1
        assert pair.combined_cumulative <= only_m.combined_cumulative + 1e-9
        assert full.combined_cumulative <= pair.combined_cumulative + 1e-9

    def test_policy_names_are_accepted(self, contrast: Scenario, coarse_traj):
        named = evaluate_trajectory(contrast, coarse_traj, ["mtp", "hovlp"])
        members = evaluate_trajectory(contrast, coarse_traj, [Policy.MTP, Policy.HOVLP])
        assert named.best == members.best
        assert named.policies == members.policies
        for policy in members.policies:
            assert np.array_equal(named.totals[policy], members.totals[policy])
        with pytest.raises(ValidationError):
            evaluate_trajectory(contrast, coarse_traj, ["mtp", "tram"])

    def test_allowed_set_validated(self, contrast: Scenario, coarse_traj):
        with pytest.raises(ValidationError):
            evaluate_trajectory(contrast, coarse_traj, ())


class TestReporting:
    def make_schedule(self):
        table = make_table([1.0, 3.0, 1.0], [2.0, 2.0, 2.0])
        return build_schedule(table)

    def test_format_timetable(self):
        text = format_timetable(self.make_schedule())
        lines = text.splitlines()
        assert any("07:00" in line and "MTP" in line for line in lines)
        assert any("07:30" in line and "EBLP" in line for line in lines)
        assert any("combined" in line.lower() for line in lines)

    def test_summary_is_json_ready(self):
        summary = schedule_summary(self.make_schedule())
        text = json.dumps(summary)
        back = json.loads(text)
        assert len(back["entries"]) == 2
        first = back["entries"][0]
        assert first["policy"] == "mtp"
        assert first["entry_clock"] == "07:00"
        assert first["duration_min"] == pytest.approx(30.0)
        assert back["combined_cumulative"] == pytest.approx(1.5)

    def test_csv_writer(self):
        buf = io.StringIO()
        write_schedule_csv(self.make_schedule(), buf)
        rows = list(csv.reader(io.StringIO(buf.getvalue())))
        assert tuple(rows[0]) == SCHEDULE_CSV_COLUMNS
        assert len(rows) == 1 + 2
        assert rows[1][2] == "mtp"

    def test_json_writer(self, tmp_path):
        path = tmp_path / "schedule.json"
        write_schedule_json(self.make_schedule(), path)
        back = json.loads(path.read_text())
        assert back["combined_cumulative"] == pytest.approx(1.5)
