"""Mean-reverting demand simulation: exactness, determinism, and file formats."""

from __future__ import annotations

import csv
import io
import math

import numpy as np
import pytest

from lanepolicy import (
    OUParams,
    ValidationError,
    read_trajectory_csv,
    simulate,
    simulate_ensemble,
    write_trajectory_csv,
)
from lanepolicy import stochastic
from lanepolicy.stochastic import DEMAND_FLOOR, TRAJECTORY_CSV_COLUMNS, clock_label


class TestParams:
    def test_defaults(self):
        p = OUParams()
        assert p.mean_reversion == pytest.approx(1.5)
        assert p.long_run_level == pytest.approx(1500.0)
        assert p.volatility == pytest.approx(0.3)
        assert p.q0_init == pytest.approx(1000.0)

    def test_validation(self):
        with pytest.raises(ValidationError):
            OUParams(mean_reversion=-0.1)
        with pytest.raises(ValidationError):
            OUParams(volatility=-0.5)
        with pytest.raises(ValidationError):
            OUParams(long_run_level=0.0)
        with pytest.raises(ValidationError):
            OUParams(q0_init=-100.0)

    @pytest.mark.parametrize("name", ["mean_reversion", "long_run_level", "volatility", "q0_init"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rejected(self, name: str, value: float):
        with pytest.raises(ValidationError):
            OUParams(**{name: value})


class TestSimulate:
    def test_length_and_time_axis(self):
        traj = simulate(OUParams(), horizon=12.0, dt=1.0 / 60.0, seed=0)
        assert traj.n_steps == 720
        assert len(traj.values) == 721
        assert traj.t_hours[0] == 0.0
        assert traj.t_hours[-1] == pytest.approx(12.0)
        assert traj.horizon == pytest.approx(12.0)

    def test_deterministic_per_seed(self):
        a = simulate(OUParams(), seed=42)
        b = simulate(OUParams(), seed=42)
        c = simulate(OUParams(), seed=43)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_values_read_only(self):
        traj = simulate(OUParams(), seed=0)
        with pytest.raises(ValueError):
            traj.values[0] = 0.0

    def test_zero_volatility_closed_form(self):
        # without noise the update is exact exponential decay toward the
        # long-run level: q(t) = level + (q0 - level) * exp(-theta * t)
        p = OUParams(mean_reversion=1.5, long_run_level=1500.0, volatility=0.0, q0_init=1000.0)
        traj = simulate(p, horizon=6.0, dt=0.01, seed=0)
        expect = 1500.0 + (1000.0 - 1500.0) * np.exp(-1.5 * traj.t_hours)
        rel = np.max(np.abs(traj.values - expect) / expect)
        assert rel < 1e-12

    def test_zero_rates_hold_constant(self):
        p = OUParams(mean_reversion=0.0, long_run_level=1500.0, volatility=0.0, q0_init=800.0)
        traj = simulate(p, horizon=2.0, dt=0.25, seed=5)
        assert np.all(traj.values == 800.0)

    def test_floor_counted(self):
        # violent noise around a tiny level forces floor hits
        p = OUParams(mean_reversion=0.0, long_run_level=1.0, volatility=40.0, q0_init=1.5)
        traj = simulate(p, horizon=2.0, dt=0.1, seed=1)
        assert traj.floor_events > 0
        assert np.min(traj.values) >= DEMAND_FLOOR

    def test_positive_by_construction(self):
        p = OUParams(volatility=2.0)
        traj = simulate(p, horizon=12.0, dt=1.0 / 60.0, seed=9)
        assert np.all(traj.values > 0.0)

    def test_validation(self):
        with pytest.raises(ValidationError):
            simulate(OUParams(), horizon=0.0)
        with pytest.raises(ValidationError):
            simulate(OUParams(), dt=0.0)
        with pytest.raises(ValidationError):
            simulate(OUParams(), dt=2.0, horizon=1.0)
        with pytest.raises(ValidationError):
            simulate(OUParams(), seed=-1)

    def test_step_count_bounded(self):
        # 1,000,000 steps is the most; neither call below builds a path
        with pytest.raises(ValidationError, match="seed"):
            simulate(OUParams(), horizon=1_000_000.0, dt=1.0, seed=-1)
        for horizon, dt in ((1_000_001.0, 1.0), (1e12, 1.0 / 60.0), (1.0, 1e-320)):
            with pytest.raises(ValidationError, match="horizon / dt"):
                simulate(OUParams(), horizon=horizon, dt=dt)

    @pytest.mark.parametrize("seed", [3.7, True, "3"])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(ValidationError):
            simulate(OUParams(), horizon=1.0, dt=0.5, seed=seed)

    def test_numpy_integer_seed(self):
        a = simulate(OUParams(), horizon=1.0, dt=0.25, seed=np.int64(3))
        b = simulate(OUParams(), horizon=1.0, dt=0.25, seed=3)
        assert a.seed == 3 and type(a.seed) is int
        assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("arg", ["horizon", "dt", "t0_clock"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_arguments_rejected(self, arg: str, value: float):
        with pytest.raises(ValidationError):
            simulate(OUParams(), **{arg: value})

    @pytest.mark.parametrize(
        "params", [OUParams(volatility=1e200), OUParams(mean_reversion=1.7e308, volatility=1e154)]
    )
    def test_theta_past_the_float_range(self, params):
        with pytest.raises(
            ValidationError,
            match=r"^demand process: mean_reversion \+ volatility\*\*2 / 2 must be finite",
        ):
            simulate(params, horizon=1.0)

    @pytest.mark.parametrize(
        "params,seed,step",
        [
            (OUParams(long_run_level=1e308, mean_reversion=2.0), 0, 1),
            (OUParams(q0_init=1e308, volatility=3.0, mean_reversion=0.0), 1, 5),
        ],
    )
    def test_path_past_the_float_range(self, params, seed, step):
        with pytest.raises(
            ValidationError,
            match=rf"^demand process: the path with seed {seed} leaves the float range at "
                  rf"step {step} of 60: its density is inf$",
        ):
            simulate(params, horizon=1.0, seed=seed)

    def test_monte_carlo_mean_matches_recursion(self):
        # the update is linear in q, so its expectation obeys an exact scalar
        # recursion; check the Monte Carlo mean against that closed form
        p = OUParams()
        horizon, dt = 4.0, 0.05
        theta = p.mean_reversion + 0.5 * p.volatility**2
        shrink = math.exp(-p.mean_reversion * dt)  # E[exp(-theta*dt + sigma*dW)]
        drift = p.mean_reversion * p.long_run_level / theta * (1.0 - math.exp(-theta * dt))
        fixed_point = drift / (1.0 - shrink)
        n = round(horizon / dt)
        expect = fixed_point + (p.q0_init - fixed_point) * shrink**n
        finals = []
        for seed in range(10_000):
            traj = simulate(p, horizon=horizon, dt=dt, seed=seed)
            finals.append(traj.values[-1])
        got = float(np.mean(finals))
        se = float(np.std(finals) / math.sqrt(len(finals)))
        assert abs(got - expect) < 4.0 * se
        # and the continuum stationary level is the configured long-run level
        assert fixed_point == pytest.approx(p.long_run_level, rel=0.01)


class TestClock:
    def test_labels(self):
        assert clock_label(7.0) == "07:00"
        assert clock_label(7.5) == "07:30"
        assert clock_label(19.0) == "19:00"
        assert clock_label(24.25) == "00:15"

    def test_trajectory_clock_labels(self):
        traj = simulate(OUParams(), horizon=1.0, dt=0.5, seed=0, t0_clock=7.0)
        assert traj.clock_labels() == ["07:00", "07:30", "08:00"]


class TestEnsemble:
    def test_seeds_are_contiguous(self):
        trajs = simulate_ensemble(OUParams(), horizon=1.0, dt=0.25, n=4, base_seed=10)
        assert [t.seed for t in trajs] == [10, 11, 12, 13]

    def test_matches_individual_runs(self):
        ens = simulate_ensemble(OUParams(), horizon=1.0, dt=0.25, n=3, base_seed=0)
        solo = simulate(OUParams(), horizon=1.0, dt=0.25, seed=2)
        assert np.array_equal(ens[2].values, solo.values)

    @pytest.mark.parametrize("n", [0, 2.5, float("nan"), "3", True])
    def test_n_validated(self, n):
        with pytest.raises(ValidationError, match="^ensemble size must be an integer >= 1"):
            simulate_ensemble(OUParams(), horizon=1.0, dt=0.5, n=n)

    def test_numpy_integer_n(self):
        assert len(simulate_ensemble(OUParams(), horizon=1.0, dt=0.5, n=np.int64(2))) == 2

    def test_total_steps_bounded(self, monkeypatch):
        # 1,000,000 steps in all is the most; no trajectory is simulated
        def no_path(*args, **kwargs):
            raise AssertionError("a trajectory was simulated")

        monkeypatch.setattr(stochastic, "simulate", no_path)
        for horizon, n in ((1000.0, 1001), (1.0, 1_000_001), (1.0, 10**30)):
            with pytest.raises(ValidationError, match="at most 1000000 steps in total"):
                simulate_ensemble(OUParams(), horizon=horizon, dt=1.0, n=n)

    def test_path_past_the_float_range(self):
        # seed 0's path stays finite; seed 1's is the first to overflow
        params = OUParams(q0_init=1e308, volatility=3.0, mean_reversion=0.0)
        simulate(params, horizon=1.0, seed=0)
        with pytest.raises(ValidationError, match=r"^demand process: the path with seed 1 "):
            simulate_ensemble(params, horizon=1.0, n=3, base_seed=0)

    def test_theta_past_the_float_range(self):
        with pytest.raises(ValidationError, match=r"^demand process: mean_reversion"):
            simulate_ensemble(OUParams(volatility=1e200), horizon=1.0, n=2)

    def test_non_integer_base_seed_rejected(self):
        with pytest.raises(ValidationError):
            simulate_ensemble(OUParams(), horizon=1.0, dt=0.5, n=2, base_seed=2.5)


class TestTrajectoryCsv:
    def test_round_trip(self, tmp_path):
        traj = simulate(OUParams(), horizon=2.0, dt=0.25, seed=7, t0_clock=6.5)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        back = read_trajectory_csv(path)
        assert back.seed == -1  # loaded from a file, provenance unknown
        assert back.dt == pytest.approx(0.25, abs=1e-9)
        assert back.t0_clock == pytest.approx(6.5, abs=1e-4)
        np.testing.assert_allclose(back.values, traj.values, atol=1e-5)

    @pytest.mark.parametrize("horizon", [1.0, 2.0, 12.0])
    def test_round_trip_at_one_minute_steps(self, horizon: float):
        # t_hours is written to 6 decimals, so 1/60-h steps come back uneven by ~1e-6
        traj = simulate(OUParams(), horizon=horizon, seed=0)
        buf = io.StringIO()
        write_trajectory_csv(traj, buf)
        back = read_trajectory_csv(io.StringIO(buf.getvalue()))
        assert abs(back.dt - 1.0 / 60.0) < 1e-9
        np.testing.assert_allclose(back.values, traj.values, rtol=0, atol=1e-6)

    def test_header_and_formatting(self):
        traj = simulate(OUParams(), horizon=0.5, dt=0.25, seed=0)
        buf = io.StringIO()
        write_trajectory_csv(traj, buf)
        rows = list(csv.reader(io.StringIO(buf.getvalue())))
        assert tuple(rows[0]) == TRAJECTORY_CSV_COLUMNS
        assert len(rows) == 1 + 3
        assert rows[1][0] == "07:00"

    def test_reader_rejects_malformed_files(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("clock_time,t_hours,q0\n07:00,0.0,100.0\n")  # single sample
        with pytest.raises(ValidationError):
            read_trajectory_csv(bad)
        bad.write_text("a,b\n1,2\n3,4\n")
        with pytest.raises(ValidationError):
            read_trajectory_csv(bad)
        bad.write_text(
            "clock_time,t_hours,q0\n07:00,0.0,100.0\n07:30,0.5,100.0\n08:30,1.5,100.0\n"
        )  # uneven spacing
        with pytest.raises(ValidationError):
            read_trajectory_csv(bad)
        bad.write_text(
            "clock_time,t_hours,q0\n07:00,0.0,100.0\n07:30,0.5,-5.0\n"
        )  # negative demand
        with pytest.raises(ValidationError):
            read_trajectory_csv(bad)

    @pytest.mark.parametrize("t1,q1", [("0.5", "nan"), ("0.5", "inf"), ("nan", "100.0")])
    def test_reader_rejects_non_finite_values(self, tmp_path, t1: str, q1: str):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            f"clock_time,t_hours,q0\n07:00,0.0,100.0\n07:30,{t1},{q1}\n08:00,1.0,100.0\n"
        )
        with pytest.raises(ValidationError):
            read_trajectory_csv(bad)

    def test_reader_skips_comment_lines(self, tmp_path):
        path = tmp_path / "annotated.csv"
        path.write_text(
            "# units=pax/hr/mi\nclock_time,t_hours,q0\n"
            "07:00,0.0,900.0\n07:15,0.25,910.0\n07:30,0.5,905.0\n"
        )
        back = read_trajectory_csv(path)
        assert back.n_steps == 2
        assert back.values[1] == pytest.approx(910.0)

    def test_reader_takes_crlf_lines_as_lf(self, tmp_path):
        # earlier releases ended data lines with CRLF after LF comment lines
        traj = simulate(OUParams(), horizon=1.0, seed=4)
        buf = io.StringIO()
        write_trajectory_csv(traj, buf)
        body = buf.getvalue()
        assert "\r" not in body
        head = "# manifest=../manifest.json\n# units=t_hours=hours q0=pax/hr/mi\n"
        lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
        lf.write_bytes((head + body).encode())
        crlf.write_bytes((head + body.replace("\n", "\r\n")).encode())
        a, b = read_trajectory_csv(lf), read_trajectory_csv(crlf)
        assert (a.t0_clock, a.dt, a.seed, a.floor_events) == (b.t0_clock, b.dt, b.seed, b.floor_events)
        assert a.values.tobytes() == b.values.tobytes()
        assert a.n_steps == traj.n_steps

    @pytest.mark.parametrize("label", ["07:75", "25:00", "-1:30"])
    def test_reader_rejects_out_of_range_clock_labels(self, tmp_path, label: str):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"clock_time,t_hours,q0\n{label},0.0,100.0\n08:00,0.5,100.0\n")
        with pytest.raises(ValidationError):
            read_trajectory_csv(bad)

    def test_reader_takes_the_last_minute_of_the_day(self):
        back = read_trajectory_csv(
            io.StringIO("clock_time,t_hours,q0\n23:59,0.0,100.0\n00:29,0.5,100.0\n")
        )
        assert back.t0_clock == pytest.approx(23.0 + 59.0 / 60.0)

    def test_reader_checks_every_clock_label(self):
        for labels in (("07:00", "99:99", "foo"), ("07:00", "07:30", "7:6")):
            rows = "".join(f"{label},{0.5 * k},100.0\n" for k, label in enumerate(labels))
            with pytest.raises(ValidationError, match="bad clock_time label"):
                read_trajectory_csv(io.StringIO("clock_time,t_hours,q0\n" + rows))

    @pytest.mark.parametrize(
        "labels", [("07:00", "07:35", "08:00"), ("07:00", "08:00", "07:30"), ("07:00", "07:30", "20:00")]
    )
    def test_reader_rejects_out_of_sequence_labels(self, labels):
        rows = "".join(f"{label},{0.5 * k},100.0\n" for k, label in enumerate(labels))
        with pytest.raises(ValidationError, match="out of sequence"):
            read_trajectory_csv(io.StringIO("clock_time,t_hours,q0\n" + rows))

    def test_reader_accepts_labels_a_minute_off_and_past_midnight(self):
        back = read_trajectory_csv(
            io.StringIO("clock_time,t_hours,q0\n23:30,0.0,100.0\n00:01,0.5,100.0\n00:29,1.0,100.0\n")
        )
        assert back.t0_clock == pytest.approx(23.5)

    @pytest.mark.parametrize("dt", [1.0 / 60.0, 1.0 / 120.0])
    @pytest.mark.parametrize("t0_clock", [7.0, 23.9, 6.0 + 1.0 / 120.0])
    def test_round_trip_at_sub_hour_steps(self, dt: float, t0_clock: float):
        traj = simulate(OUParams(), horizon=3.0, dt=dt, seed=1, t0_clock=t0_clock)
        buf = io.StringIO()
        write_trajectory_csv(traj, buf)
        back = read_trajectory_csv(io.StringIO(buf.getvalue()))
        assert abs(back.dt - dt) < 1e-9
        assert back.n_steps == traj.n_steps
