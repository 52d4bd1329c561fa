"""Command-line interface: run directories, manifests, outputs, exit codes."""

from __future__ import annotations

import csv
import dataclasses
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lanepolicy import (
    LanePolicyError,
    Policy,
    Scenario,
    Trajectory,
    __version__,
    cost_breakdown,
    cost_curve,
    evaluate_trajectory,
    load_scenario,
    min_frequency,
    scenario_fingerprint,
)
from lanepolicy.cli import build_parser, build_scenario, main
from lanepolicy.optimizer import _best_split_at_fixed_f, _split_lattice, foc_residual


def run_dirs(out_dir: Path) -> list[Path]:
    return sorted(p for p in out_dir.iterdir() if p.is_dir())


def read_manifest(run: Path) -> dict:
    return json.loads((run / "manifest.json").read_text())


def csv_rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as handle:
        return [row for row in csv.reader(handle) if row and not row[0].startswith("#")]


class TestBuildScenario:
    def test_overrides_stack_in_order(self, tmp_path):
        # file overrides the preset, --set overrides the file
        doc = tmp_path / "scen.json"
        doc.write_text(json.dumps({"econ": {"vot_auto": 25.0, "vot_bus": 11.0}}))
        scen = build_scenario(
            "baseline", scenario_file=str(doc), set_items=["econ.vot_bus=12.5"]
        )
        assert scen.econ.vot_auto == pytest.approx(25.0)
        assert scen.econ.vot_bus == pytest.approx(12.5)

    def test_set_parses_json_values(self):
        scen = build_scenario("baseline", set_items=["solver.delay_volume_mode=cumulative"])
        assert scen.solver.delay_volume_mode == "cumulative"
        scen = build_scenario("baseline", set_items=["geometry.n_lanes=4"])
        assert scen.geometry.n_lanes == 4

    def test_preset_base(self):
        scen = build_scenario("seattle_i5")
        assert scen.geometry.length_mi == pytest.approx(27.7)


class TestCostCommand:
    def test_fixed_operating_point(self, tmp_path, capsys):
        code = main(
            [
                "cost", "--policy", "eblp", "--q0", "400", "--R", "0.8",
                "--F", "12", "--out-dir", str(tmp_path), "--run-name", "fixed",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        run = tmp_path / "fixed"
        assert f"run written to {run}" in out
        manifest = read_manifest(run)
        assert manifest["command"] == "cost"
        assert manifest["highlighted_defaults"]["geometry.n_intersections"] == 10
        assert manifest["highlighted_defaults"]["econ.vot_wait"] == 15.0
        assert "scenario_fingerprint" in manifest
        assert manifest["results"]["policy"] == "eblp"
        rows = {row[0]: float(row[1]) for row in csv_rows(run / "breakdown.csv")[1:]}
        assert rows["signal"] == pytest.approx(100.0 + 5.0 * 30.0)
        assert rows["total"] == pytest.approx(
            rows["bus_user"] + rows["bus_operator"] + rows["auto_user"] + rows["signal"]
        )

    def test_optimizes_when_r_and_f_omitted(self, tmp_path):
        code = main(
            ["cost", "--policy", "mtp", "--q0", "1000",
             "--out-dir", str(tmp_path), "--run-name", "opt"]
        )
        assert code == 0
        results = read_manifest(tmp_path / "opt")["results"]
        assert results["mode"] == "optimized R and F"
        assert results["R"] == pytest.approx(0.704, abs=0.02)
        assert results["F"] == pytest.approx(63.4, abs=1.0)
        assert results["breakdown"]["total"] == pytest.approx(206630.0, rel=1e-3)
        assert results["foc_residual"] == foc_residual(
            Scenario(), Policy.MTP, 1000.0, results["R"], results["F"]
        )
        assert "constraint_binding" in results

    @pytest.mark.parametrize("policy", ["mtp", "eblp", "hovlp"])
    @pytest.mark.parametrize("q0", [150.0, 658.0, 1476.0])
    def test_optimum_prices_like_its_pinned_point(self, tmp_path, capsys, policy, q0):
        # the moment table prices the pinned point cell by cell, as it priced
        # the optimum, so both print the same floats
        point = ["cost", "--policy", policy, "--q0", str(q0), "--out-dir", str(tmp_path)]
        assert main([*point, "--run-name", "optimized"]) == 0
        optimized = read_manifest(tmp_path / "optimized")["results"]
        pinned_point = ["--R", repr(optimized["R"]), "--F", repr(optimized["F"])]
        capsys.readouterr()
        assert main([*point, *pinned_point, "--run-name", "pinned"]) == 0
        printed = capsys.readouterr().out
        pinned = read_manifest(tmp_path / "pinned")["results"]
        assert pinned["breakdown"] == optimized["breakdown"]
        for name, cost in optimized["breakdown"].items():
            assert "%-13s $%.2f/hr" % (name, cost) in printed

    @pytest.mark.parametrize(
        "policy,q0,f,r_expected,total_expected",
        [
            ("hovlp", 900.0, 60.0, 0.69, 190804.63616811606),
            ("mtp", 1500.0, 45.5, 0.86, 592773.4958523398),
        ],
    )
    def test_optimizes_r_at_fixed_f(self, tmp_path, policy, q0, f, r_expected, total_expected):
        code = main(
            ["cost", "--policy", policy, "--q0", str(q0), "--F", str(f),
             "--out-dir", str(tmp_path), "--run-name", "fixed_f"]
        )
        assert code == 0
        results = read_manifest(tmp_path / "fixed_f")["results"]
        assert results["mode"] == "optimized R, fixed F"
        # brute-force scan: every share on the optimizer's split lattice that
        # the pinned frequency can carry, ties to the larger auto share
        scen = Scenario()
        best = min(
            (cost_breakdown(scen, Policy.parse(policy), q0, r, f).total, -r)
            for r in 1.0 - _split_lattice(scen.solver)
            if min_frequency(scen, q0, r) <= f + 1e-9
        )
        assert results["R"] == -best[1]
        assert results["R"] == pytest.approx(r_expected, abs=1e-12)
        assert results["F"] == f
        assert results["breakdown"]["total"] == pytest.approx(total_expected, rel=1e-12)

    def test_fixed_f_searches_the_optimizer_lattice(self, tmp_path):
        # with r_step = 0.3 every split but R = 1 needs more than 20 buses/hr
        # at q0 = 2000; the optimizer's lattice always holds R = 1
        code = main(
            ["cost", "--policy", "mtp", "--q0", "2000", "--F", "20",
             "--set", "solver.r_step=0.3", "--out-dir", str(tmp_path), "--run-name", "r1"]
        )
        assert code == 0
        assert read_manifest(tmp_path / "r1")["results"]["R"] == 1.0

    def test_fixed_f_scan_reaches_all_bus(self, tmp_path):
        # with r_step = 0.3 the lattice once ended at bus share 0.9 and
        # reported R = 0.1 at $26,918.88/hr, dearer than R = 0 at $26,607.57/hr
        code = main(
            ["cost", "--policy", "mtp", "--q0", "200", "--F", "60",
             "--set", "solver.r_step=0.3", "--out-dir", str(tmp_path), "--run-name", "r0"]
        )
        assert code == 0
        results = read_manifest(tmp_path / "r0")["results"]
        assert results["R"] == 0.0
        assert results["breakdown"]["total"] == pytest.approx(26607.57, abs=0.005)

    def test_share_step_that_overshoots_one(self, tmp_path):
        # 0.15 does not divide 1: the bus shares step to 0.9, then end at 1
        code = main(
            ["cost", "--policy", "hovlp", "--q0", "1000", "--set", "solver.r_step=0.15",
             "--out-dir", str(tmp_path), "--run-name", "coarse"]
        )
        assert code == 0
        assert 0.0 <= read_manifest(tmp_path / "coarse")["results"]["R"] <= 1.0

    def test_run_name_collision_gets_suffix(self, tmp_path):
        args = ["cost", "--policy", "mtp", "--q0", "50", "--R", "0.5", "--F", "4",
                "--out-dir", str(tmp_path), "--run-name", "dup"]
        assert main(args) == 0
        assert main(args) == 0
        names = {p.name for p in run_dirs(tmp_path)}
        assert names == {"dup", "dup-2"}

    def test_invalid_demand_exits_2_and_leaves_nothing(self, tmp_path, capsys):
        code = main(
            ["cost", "--policy", "mtp", "--q0", "-5", "--R", "0.5", "--F", "4",
             "--out-dir", str(tmp_path)]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err.lower()
        assert list(tmp_path.iterdir()) == []

    def test_invalid_share_exits_2(self, tmp_path):
        code = main(
            ["cost", "--policy", "mtp", "--q0", "100", "--R", "1.5", "--F", "4",
             "--out-dir", str(tmp_path)]
        )
        assert code == 2

    def test_infeasible_service_exits_3(self, tmp_path, capsys):
        # all-bus demand at q0=3000 needs far more than the frequency cap
        code = main(
            ["cost", "--policy", "mtp", "--q0", "3000", "--R", "0",
             "--out-dir", str(tmp_path)]
        )
        assert code == 3
        assert list(tmp_path.iterdir()) == []

    def test_bad_set_item_exits_2(self, tmp_path):
        code = main(
            ["cost", "--policy", "mtp", "--q0", "100", "--R", "0.5", "--F", "4",
             "--set", "geometry.n_lanes=abc", "--out-dir", str(tmp_path)]
        )
        assert code == 2

    def test_reused_parser_does_not_leak_arguments(self, tmp_path):
        point = ["cost", "--policy", "mtp", "--q0", "400", "--R", "0.8", "--F", "12",
                 "--out-dir", str(tmp_path)]
        assert main([*point, "--set", "econ.vot_wait=20", "--set", "geometry.n_lanes=4",
                     "--run-name", "first"]) == 0
        assert main([*point, "--run-name", "second"]) == 0
        first = read_manifest(tmp_path / "first")["scenario"]
        second = read_manifest(tmp_path / "second")["scenario"]
        assert (first["econ"]["vot_wait"], first["geometry"]["n_lanes"]) == (20.0, 4)
        assert second == dataclasses.asdict(Scenario())
        assert build_parser() is not build_parser()  # the public builder stays fresh

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["cost", "--nope"])
        assert err.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--version"])
        assert err.value.code == 0
        assert "lanepolicy" in capsys.readouterr().out


class TestSweepCommand:
    def test_small_sweep_outputs(self, tmp_path, capsys):
        code = main(
            ["sweep", "--q0-lo", "400", "--q0-hi", "800", "--n", "3",
             "--out-dir", str(tmp_path), "--run-name", "sweep"]
        )
        assert code == 0
        run = tmp_path / "sweep"
        for name in ("cost_curves.csv", "regions.csv", "thresholds.csv", "manifest.json"):
            assert (run / name).exists(), name
        curves = csv_rows(run / "cost_curves.csv")
        assert curves[0][:3] == ["q0", "policy", "total"]
        assert len(curves) == 1 + 3 * 3  # three policies times three densities
        regions = csv_rows(run / "regions.csv")
        assert len(regions) == 2
        assert [float(regions[1][0]), float(regions[1][1]), regions[1][2]] == [400.0, 800.0, "mtp"]
        thresholds = csv_rows(run / "thresholds.csv")
        assert thresholds[0] == [
            "lane_capacity_vph", "pair", "q0_star", "cheaper_below", "cheaper_above",
        ]
        by_pair = {row[1]: row for row in thresholds[1:]}
        assert by_pair["mtp/eblp"][2] == ""  # no crossing on this range
        assert by_pair["eblp/hovlp"][2] != ""
        assert float(by_pair["eblp/hovlp"][2]) == pytest.approx(754.3, abs=2.0)
        assert "mtp[400,800]" in capsys.readouterr().out

    def test_too_few_samples_exits_2(self, tmp_path):
        assert main(
            ["sweep", "--q0-lo", "400", "--q0-hi", "800", "--n", "1",
             "--out-dir", str(tmp_path)]
        ) == 2

    def test_capacity_variants_write_tagged_files(self, tmp_path):
        code = main(
            ["sweep", "--q0-lo", "400", "--q0-hi", "600", "--n", "2",
             "--capacities", "1500,1800",
             "--out-dir", str(tmp_path), "--run-name", "caps"]
        )
        assert code == 0
        run = tmp_path / "caps"
        assert (run / "cost_curves_C1500.csv").exists()
        assert (run / "cost_curves_C1800.csv").exists()
        assert (run / "regions_C1800.csv").exists()
        thresholds = csv_rows(run / "thresholds.csv")
        caps = {row[0] for row in thresholds[1:]}
        assert caps == {"1500", "1800"}


    def test_infeasible_density_aborts_the_sweep(self, tmp_path, capsys):
        # the equilibrium split has no optimum at the second sample; the
        # sweep stops there and keeps no partial run directory
        code = main(
            ["sweep", "--set", "solver.split_rule=equilibrium", "--set", "solver.f_cap=2",
             "--set", "solver.r_step=0.5", "--q0-lo", "1", "--q0-hi", "2500", "--n", "5",
             "--out-dir", str(tmp_path)]
        )
        assert code == 3
        assert "q0=625.75" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_repeated_capacities_exit_2_and_write_nothing(self, tmp_path, capsys):
        code = main(
            ["sweep", "--q0-lo", "400", "--q0-hi", "600", "--n", "2",
             "--capacities", "1500,1800,1500.0", "--out-dir", str(tmp_path)]
        )
        assert code == 2
        assert "repeated capacities: 1500" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_capacities_that_print_alike_exit_2(self, tmp_path, capsys):
        # both would be named C1500 in file names and manifest keys
        code = main(
            ["sweep", "--q0-lo", "400", "--q0-hi", "600", "--n", "2",
             "--capacities", "1500.0000001,1500.0000002", "--out-dir", str(tmp_path)]
        )
        assert code == 2
        assert capsys.readouterr().err == "error: repeated capacities: 1500\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("error", [RuntimeError("boom"), KeyboardInterrupt()])
    def test_unexpected_error_discards_the_staged_run(self, tmp_path, monkeypatch, error):
        # the failure comes after cost_curves.csv has been staged
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr("lanepolicy.cli.regions_and_thresholds", fail)
        with pytest.raises(type(error)):
            main(["sweep", "--q0-lo", "400", "--q0-hi", "600", "--n", "2",
                  "--out-dir", str(tmp_path)])
        assert list(tmp_path.iterdir()) == []


class TestSimulateCommand:
    def test_deterministic_outputs(self, tmp_path):
        args = ["simulate", "--n", "2", "--horizon", "1", "--dt", "0.25",
                "--seed", "5", "--out-dir", str(tmp_path)]
        assert main(args + ["--run-name", "a"]) == 0
        assert main(args + ["--run-name", "b"]) == 0
        a = (tmp_path / "a" / "trajectories" / "trajectory_seed5.csv").read_bytes()
        b = (tmp_path / "b" / "trajectories" / "trajectory_seed5.csv").read_bytes()
        assert a == b
        manifest = read_manifest(tmp_path / "a")
        assert manifest["results"]["seeds"] == [5, 6]
        per_seed = manifest["results"]["trajectories"]
        assert len(per_seed) == 2
        for entry in per_seed:
            assert entry["min_q0"] >= 1.0
            assert entry["max_q0"] >= entry["min_q0"]

    def test_rejects_nonpositive_count(self, tmp_path):
        assert main(["simulate", "--n", "0", "--out-dir", str(tmp_path)]) == 2

    def test_help_shows_the_process_defaults(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["simulate", "--help"])
        assert err.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        for flag, default in (
            ("--mean-reversion", "1.5"), ("--long-run-level", "1500"), ("--volatility", "0.3"),
            ("--q0-init", "1000"), ("--horizon", "12"), ("--dt", "1/60"), ("--clock-start", "7.0"),
        ):
            help_line = text[text.rindex(f"{flag} {flag[2:].upper().replace('-', '_')}"):]
            assert help_line.split(")")[0].endswith(f"(default {default}"), flag

    def test_help_reads_the_defaults_from_the_process(self, capsys, monkeypatch):
        from lanepolicy import OUParams, cli

        monkeypatch.setattr(cli, "OUParams", lambda: OUParams(volatility=0.45))
        monkeypatch.setattr(cli, "DEFAULT_DT_HR", 1.0 / 120.0)
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert "noise intensity (default 0.45)" in text
        assert "step size in hours (default 1/120)" in text


CONTRAST_SETS = [
    "--set", "occupancy.low_share=0.8",
    "--set", "occupancy.low_occupancy=1.0",
    "--set", "occupancy.high_occupancy=4.0",
]


class TestScheduleCommand:
    def schedule_args(self, out_dir: Path, name: str) -> list[str]:
        return [
            "schedule", *CONTRAST_SETS,
            "--allowed", "mtp,hovlp",
            "--mean-reversion", "2.0", "--long-run-level", "660",
            "--volatility", "0.25", "--q0-init", "660",
            "--horizon", "2", "--dt", "0.5", "--seed", "3",
            "--out-dir", str(out_dir), "--run-name", name,
        ]

    def test_end_to_end_outputs(self, tmp_path, capsys):
        assert main(self.schedule_args(tmp_path, "sched")) == 0
        run = tmp_path / "sched"
        for name in ("trajectory.csv", "schedule.csv", "schedule.json", "manifest.json"):
            assert (run / name).exists(), name
        out = capsys.readouterr().out
        assert "combined" in out.lower()
        summary = json.loads((run / "schedule.json").read_text())
        assert summary["entries"]
        assert summary["entries"][0]["entry_clock"] == "07:00"
        combined = summary["combined_cumulative"]
        for total in summary["per_policy_cumulative"].values():
            assert combined <= total + 1e-6
        rows = csv_rows(run / "schedule.csv")
        assert rows[0][:3] == ["entry_clock", "exit_clock", "policy"]
        assert len(rows) == 1 + len(summary["entries"])

    def test_schedule_json_holds_the_summary_alone(self, tmp_path):
        # the schedule writer's canonical JSON of the summary, without the run's own keys
        assert main(self.schedule_args(tmp_path, "sched")) == 0
        run = tmp_path / "sched"
        results = read_manifest(run)["results"]
        for key in ("allowed", "min_dwell_minutes", "trajectory_source", "seeds"):
            del results[key]
        expected = json.dumps(results, indent=2, sort_keys=True) + "\n"
        assert (run / "schedule.json").read_bytes() == expected.encode()

    def test_schedules_a_default_step_simulate_output(self, tmp_path):
        # README's pair: simulate at the default 1-minute step, then schedule one file
        sim = ["simulate", "--n", "1", "--horizon", "1", "--run-name", "sim"]
        assert main([*sim, "--out-dir", str(tmp_path)]) == 0
        traj = tmp_path / "sim" / "trajectories" / "trajectory_seed0.csv"
        code = main(
            ["schedule", "--trajectory", str(traj), "--out-dir", str(tmp_path), "--run-name", "sched"]
        )
        assert code == 0

    def test_reusing_trajectory_file_reproduces_schedule(self, tmp_path):
        assert main(self.schedule_args(tmp_path, "first")) == 0
        traj = tmp_path / "first" / "trajectory.csv"
        code = main(
            ["schedule", *CONTRAST_SETS, "--allowed", "mtp,hovlp",
             "--trajectory", str(traj),
             "--out-dir", str(tmp_path), "--run-name", "second"]
        )
        assert code == 0
        a = json.loads((tmp_path / "first" / "schedule.json").read_text())
        b = json.loads((tmp_path / "second" / "schedule.json").read_text())
        assert a["entries"] == b["entries"]
        assert a["combined_cumulative"] == pytest.approx(b["combined_cumulative"], rel=1e-9)

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--mean-reversion", "2.0"), ("--long-run-level", "600"), ("--volatility", "0.2"),
            ("--q0-init", "500"), ("--horizon", "1"), ("--dt", "0.5"), ("--clock-start", "9"),
            ("--seed", "4"),
        ],
    )
    def test_trajectory_file_excludes_generator_flags(self, tmp_path, capsys, flag, value):
        traj = tmp_path / "t.csv"
        traj.write_text(
            "clock_time,t_hours,q0\n07:00,0.0,500.0\n07:30,0.5,505.0\n08:00,1.0,495.0\n"
        )
        out = tmp_path / "runs"
        code = main(
            ["schedule", "--trajectory", str(traj), flag, value, "--out-dir", str(out)]
        )
        assert code == 2
        assert "either --trajectory or generator parameters" in capsys.readouterr().err
        assert not out.exists() or list(out.iterdir()) == []

    def test_clock_start_defaults_to_seven(self, tmp_path):
        assert main(["simulate", "--n", "1", *_GENERATOR, "--out-dir", str(tmp_path),
                     "--run-name", "sim"]) == 0
        assert read_manifest(tmp_path / "sim")["results"]["clock_start"] == 7.0
        sched = [*self.schedule_args(tmp_path, "sched"), "--clock-start", "9"]
        assert main(sched) == 0
        summary = json.loads((tmp_path / "sched" / "schedule.json").read_text())
        assert summary["entries"][0]["entry_clock"] == "09:00"

    def test_missing_trajectory_file_exits_4(self, tmp_path):
        code = main(
            ["schedule", "--trajectory", str(tmp_path / "absent.csv"),
             "--out-dir", str(tmp_path)]
        )
        assert code == 4

    def test_unknown_allowed_policy_exits_2(self, tmp_path):
        code = main(
            ["schedule", "--allowed", "mtp,tram", "--horizon", "1", "--dt", "0.5",
             "--out-dir", str(tmp_path)]
        )
        assert code == 2


_GENERATOR = ["--horizon", "1", "--dt", "0.5"]
_HUGE_INT = "1" + "0" * 400  # parses as an int that no float can hold
_TRAJECTORY_KEYS = ("units", "seed", "dt_hr", "t0_clock", "note")


# each command's CSV files and the comment keys after the manifest line
_RUN_CSVS = pytest.mark.parametrize(
    "argv,headers",
    [
        (["cost", "--policy", "mtp", "--q0", "400", "--R", "0.8", "--F", "12"],
         {"breakdown.csv": ("units", "policy", "q0")}),
        (["sweep", "--q0-lo", "400", "--q0-hi", "600", "--n", "2", "--capacities", "1500,1800"],
         {"thresholds.csv": ("units",)}
         | {f"{table}_C{c}.csv": ("units", "lane_capacity_vph")
            for table in ("cost_curves", "regions") for c in (1500, 1800)}),
        (["simulate", "--n", "2", *_GENERATOR],
         {f"trajectories/trajectory_seed{seed}.csv": _TRAJECTORY_KEYS for seed in (0, 1)}),
        (["schedule", *_GENERATOR],
         {"trajectory.csv": _TRAJECTORY_KEYS, "schedule.csv": ("units", "allowed")}),
    ],
    ids=["cost", "sweep", "simulate", "schedule"],
)


@_RUN_CSVS
def test_csv_headers_lead_with_the_manifest_path(tmp_path, argv, headers):
    assert main([*argv, "--out-dir", str(tmp_path), "--run-name", "run"]) == 0
    run = tmp_path / "run"
    assert sorted(p.relative_to(run).as_posix() for p in run.rglob("*.csv")) == sorted(headers)
    assert set(headers) <= set(read_manifest(run)["outputs"])
    for name, keys in headers.items():
        path = run / name
        with open(path) as handle:
            meta = [line[2:].rstrip("\n").partition("=")
                    for line in itertools.takewhile(lambda line: line.startswith("# "), handle)]
        assert [key for key, _, _ in meta] == ["manifest", *keys], name
        assert (path.parent / meta[0][2]).resolve() == (run / "manifest.json").resolve(), name


@_RUN_CSVS
def test_run_files_share_one_format(tmp_path, argv, headers):
    # every line ends with LF alone; JSON files have sorted keys, a 2-space
    # indent and a final newline
    assert main([*argv, "--out-dir", str(tmp_path), "--run-name", "run"]) == 0
    files = [p for p in (tmp_path / "run").rglob("*") if p.is_file()]
    assert len(files) > len(headers)
    for path in files:
        data = path.read_bytes()
        assert b"\r" not in data and data.endswith(b"\n"), path.name
        if path.suffix == ".json":
            text = data.decode()
            assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


@_RUN_CSVS
def test_manifest_fingerprint_names_its_scenario(tmp_path, argv, headers):
    argv = [*argv, "--set", "econ.vot_wait=17.5"]
    assert main([*argv, "--out-dir", str(tmp_path), "--run-name", "run"]) == 0
    manifest = read_manifest(tmp_path / "run")
    scenario = load_scenario(manifest["scenario"])
    assert scenario.econ.vot_wait == 17.5
    assert manifest["scenario_fingerprint"] == scenario_fingerprint(scenario)


@pytest.mark.parametrize(
    "argv",
    [
        ["cost", "--policy", "mtp", "--q0", "1000", "--set", "solver.f_cap=Infinity"],
        ["cost", "--policy", "mtp", "--q0", "1000", "--set", "econ.vot_wait=Infinity"],
        ["cost", "--policy", "mtp", "--q0", "nan"],
        ["cost", "--policy", "mtp", "--q0", "nan", "--R", "0.5"],
        ["cost", "--policy", "mtp", "--q0", "inf", "--F", "50"],
        ["cost", "--policy", "mtp", "--q0", "1000", "--F", "nan"],
        ["cost", "--policy", "mtp", "--q0", "1000", "--F", "inf"],
        ["sweep", "--n", "3", "--capacities", "inf"],
        ["simulate", "--n", "1", "--q0-init", "nan", *_GENERATOR],
        ["simulate", "--n", "1", "--volatility", "inf", *_GENERATOR],
        ["simulate", "--n", "1", "--horizon", "nan"],
        ["simulate", "--n", "1", "--horizon", "inf"],
        ["simulate", "--n", "1", "--clock-start", "nan", *_GENERATOR],
        ["schedule", "--min-dwell", "nan", *_GENERATOR],
        ["schedule", "--trajectory", "{nan_csv}"],
        ["cost", "--policy", "mtp", "--q0", "1000", "--set", f"econ.vot_wait={_HUGE_INT}"],
        ["cost", "--policy", "mtp", "--q0", "1000", "--set", f"geometry.n_lanes={_HUGE_INT}"],
        ["cost", "--policy", "mtp", "--q0", "1000", "--set", f"solver.n_cells={_HUGE_INT}"],
        ["cost", "--policy", "mtp", "--q0", "1000", "--set", "solver.n_cells=100000000000000000000"],
    ],
)
def test_non_finite_input_exits_2(tmp_path, capsys, argv):
    nan_csv = tmp_path / "nan.csv"
    nan_csv.write_text("clock_time,t_hours,q0\n07:00,0.0,500.0\n07:30,0.5,nan\n")
    out = tmp_path / "runs"
    out.mkdir()
    code = main([arg.format(nan_csv=nan_csv) for arg in argv] + ["--out-dir", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")
    assert list(out.iterdir()) == []


def _library_error(call, *args) -> LanePolicyError:
    with pytest.raises(LanePolicyError) as info:
        call(Scenario(), *args)
    return info.value


# Each flag below is checked only by the library function that the command
# calls with it, and the command reports that function's own error.
_TWO_STEPS = Trajectory(t0_clock=7.0, dt=0.5, values=np.array([500.0, 600.0]), seed=0)
_LIBRARY_CHECKS = [
    *(
        (["cost", "--policy", "mtp", "--q0", "1000", "--F", f],
         (_best_split_at_fixed_f, Policy.MTP, 1000.0, float(f)))
        for f in ("nan", "inf", "0", "-1")
    ),
    *(
        (["cost", "--policy", "mtp", "--q0", "1000", "--R", "0.5", "--F", f],
         (cost_breakdown, Policy.MTP, 1000.0, 0.5, float(f)))
        for f in ("nan", "inf", "0", "-1")
    ),
    *(
        (["sweep", "--q0-lo", lo, "--q0-hi", hi, "--n", n],
         (cost_curve, Policy.MTP, (float(lo), float(hi)), int(n)))
        for lo, hi, n in (
            ("400", "800", "1"), ("400", "800", "-3"), ("800", "400", "3"),
            ("400", "400", "3"), ("-1", "800", "3"), ("nan", "800", "3"),
        )
    ),
    (["schedule", "--allowed", ",", *_GENERATOR], (evaluate_trajectory, _TWO_STEPS, [])),
]


@pytest.mark.parametrize(
    "argv,call", _LIBRARY_CHECKS, ids=[" ".join(argv) for argv, _ in _LIBRARY_CHECKS]
)
def test_flags_get_the_library_check(tmp_path, capsys, argv, call):
    out = tmp_path / "runs"
    out.mkdir()
    assert main(argv + ["--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {_library_error(*call)}\n"
    assert list(out.iterdir()) == []


def test_demand_range_may_start_at_zero(tmp_path):
    argv = ["sweep", "--q0-lo", "0", "--q0-hi", "300", "--n", "3", "--out-dir", str(tmp_path)]
    assert main(argv + ["--run-name", "zero"]) == 0
    assert read_manifest(tmp_path / "zero")["results"]["q0_range"] == [0.0, 300.0]


def test_zero_frequency_prices_a_point_without_bus_riders(tmp_path):
    argv = ["cost", "--policy", "mtp", "--q0", "1000", "--R", "1", "--F", "0"]
    assert main(argv + ["--out-dir", str(tmp_path), "--run-name", "all_auto"]) == 0
    results = read_manifest(tmp_path / "all_auto")["results"]
    expected = cost_breakdown(Scenario(), Policy.MTP, 1000.0, 1.0, 0.0)
    assert (results["F"], results["breakdown"]["total"]) == (0.0, expected.total)


def _run_module(cwd: Path, *argv: str) -> subprocess.CompletedProcess:
    """``python -m lanepolicy`` with NumPy's warnings as a user sees them."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run(
        [sys.executable, "-m", "lanepolicy", *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=60,
    )


@pytest.mark.parametrize(
    "pinned,message",
    [
        ([], "infeasible: no feasible mode split at q0=1e+300: no split priced to a finite cost"),
        (["--R", "1"], "infeasible: every candidate evaluated non-finite"),
        (["--F", "1"],
         "infeasible: no feasible mode split at q0=1e+300: no split priced to a finite cost"),
        (["--R", "1", "--F", "1"],
         "error: cost component bus_operator is not finite at q0=1e+300, R=1, F=1 (value inf)"),
    ],
)
def test_overflowing_density_prints_one_line(tmp_path, pinned, message):
    # q0 = 1e300 is a valid operating point whose costs overflow
    proc = _run_module(tmp_path, "cost", "--policy", "mtp", "--q0", "1e300", *pinned)
    assert (proc.returncode, proc.stderr) == (3, message + "\n")
    assert list(tmp_path.iterdir()) == [tmp_path / "runs"]
    assert list((tmp_path / "runs").iterdir()) == []


@pytest.mark.parametrize(
    "rate,r_star",
    [
        ("bus.fare", 1.0),
        ("bus.discomfort_quad", 1.0),
        ("econ.auto_fixed_cost", 0.0),
        ("econ.vot_auto", 0.0),
        ("econ.auto_cost_per_mi", 0.0),
        ("econ.vot_wait", 1.0),
        ("econ.vot_bus", 1.0),
        ("bus.discomfort_lin", 1.0),
    ],
)
def test_a_mode_without_travelers_is_priced_whatever_its_rate(tmp_path, rate, r_star):
    # a rate of 1e308 overflows its mode's costs; the split without that mode's
    # travelers is still finite (at q0 = 400 even all-bus demand fits under f_cap)
    point = ["cost", "--policy", "mtp", "--q0", "400", "--set", f"{rate}=1e308",
             "--out-dir", str(tmp_path)]
    proc = _run_module(tmp_path, *point, "--run-name", "optimized")
    assert (proc.returncode, proc.stderr) == (0, "")
    results = read_manifest(tmp_path / "optimized")["results"]
    assert results["R"] == r_star
    pinned_point = ["--R", repr(r_star), "--F", repr(results["F"]), "--run-name", "pinned"]
    assert main([*point, *pinned_point]) == 0
    pinned = read_manifest(tmp_path / "pinned")["results"]
    # the moment table prices the optimum and the pinned point alike
    assert pinned["breakdown"] == results["breakdown"]


def test_module_entry_point(tmp_path):
    version = _run_module(tmp_path, "--version")
    assert version.returncode == 0
    assert version.stdout == f"lanepolicy {__version__}\n"
    cost = _run_module(tmp_path, "cost", "--policy", "eblp", "--q0", "400", "--R", "0.8",
                       "--F", "12", "--out-dir", "runs", "--run-name", "cost")
    assert cost.returncode == 0, cost.stderr
    assert cost.stdout.endswith(f"run written to {Path('runs') / 'cost'}\n")
    assert read_manifest(tmp_path / "runs" / "cost")["results"]["policy"] == "eblp"


# Each size comes from outside input and would be allocated whole; each is
# refused, naming its field or flag, before anything is built.
@pytest.mark.parametrize(
    "argv,name",
    [
        (["cost", "--policy", "mtp", "--q0", "1000", "--set", "solver.f_cap=1e300"], "f_cap"),
        (["cost", "--policy", "mtp", "--q0", "1000", "--set", "solver.r_step=1e-300"], "r_step"),
        (["cost", "--policy", "mtp", "--q0", "1000", "--set", "solver.f_refine_step=1e-300"],
         "f_refine_step"),
        (["cost", "--policy", "mtp", "--q0", "1000",
          "--set", "solver.r_refine_factor=1000000000000000"], "r_refine_factor"),
        (["cost", "--policy", "mtp", "--q0", "1000",
          "--set", "geometry.n_intersections=1000000000"], "n_intersections"),
        (["sweep", "--n", "1000000000000000"], "n_samples"),
        (["schedule", "--horizon", "1e12"], "horizon"),
        (["simulate", "--n", "1", "--horizon", "1e12"], "horizon"),
    ],
)
def test_oversized_input_exits_2(tmp_path, capsys, argv, name):
    out = tmp_path / "runs"
    out.mkdir()
    code = main(argv + ["--out-dir", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and name in err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("source", ["--scenario", "--set"])
def test_integer_past_the_digit_limit_exits_2(tmp_path, capsys, source):
    # Python converts at most 4,300 digits of a string to an int
    digits = "1" + "0" * 5000
    path = tmp_path / "scenario.json"
    path.write_text('{"solver": {"n_cells": %s}}' % digits)
    name = str(path) if source == "--scenario" else "--set solver.n_cells"
    given = str(path) if source == "--scenario" else f"solver.n_cells={digits}"
    out = tmp_path / "runs"
    out.mkdir()
    assert main(["cost", "--policy", "mtp", "--q0", "1000", source, given,
                 "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {name}: an integer is too long to read (Exceeds the limit (4300 digits) "
        "for integer string conversion: value has 5001 digits)\n"
    )
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("source", ["--scenario", "--set"])
def test_nesting_past_the_recursion_limit_exits_2(tmp_path, capsys, source):
    nested = "[" * 100_000 + "]" * 100_000
    path = tmp_path / "scenario.json"
    path.write_text(nested)
    name = str(path) if source == "--scenario" else "--set solver.n_cells"
    given = str(path) if source == "--scenario" else f"solver.n_cells={nested}"
    out = tmp_path / "runs"
    out.mkdir()
    assert main(["cost", "--policy", "mtp", "--q0", "1000", source, given,
                 "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name}: nested too deeply to read (maximum recursion depth ")
    assert err.count("\n") == 1 and err.endswith(")\n")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "argv,message",
    [
        (["simulate", "--n", "1", "--volatility", "1e200"],
         "mean_reversion + volatility**2 / 2 must be finite, got mean_reversion 1.5 and "
         "volatility 1e+200"),
        (["simulate", "--n", "2", "--q0-init", "1e308", "--volatility", "3",
          "--mean-reversion", "0"],
         "the path with seed 1 leaves the float range at step 5 of 60: its density is inf"),
        (["schedule", "--long-run-level", "1e308", "--mean-reversion", "2"],
         "the path with seed 0 leaves the float range at step 1 of 60: its density is inf"),
    ],
    ids=["simulate-theta", "simulate-path", "schedule-path"],
)
def test_demand_process_past_the_float_range_exits_2(tmp_path, capsys, argv, message):
    out = tmp_path / "runs"
    out.mkdir()
    assert main([*argv, "--horizon", "1", "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == f"error: demand process: {message}\n"
    assert list(out.iterdir()) == []


def test_malformed_scenario_file_exits_2(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text('{"solver": ')
    out = tmp_path / "runs"
    out.mkdir()
    assert main(["cost", "--policy", "mtp", "--q0", "1000", "--scenario", str(path),
                 "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {path}: not valid JSON: Expecting value (line 1)\n"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "flag,data",
    [
        ("--scenario", b"\xff\xfe{}"),
        ("--trajectory", b"clock_time,t_hours,q0\n07:00,0.0,500.0\n07:30,0.5,5\xff0\n"),
    ],
)
def test_input_that_is_not_utf8_exits_2(tmp_path, capsys, flag, data):
    path = tmp_path / "input"
    path.write_bytes(data)
    out = tmp_path / "runs"
    out.mkdir()
    command = ["cost", "--policy", "mtp", "--q0", "1000"] if flag == "--scenario" else ["schedule"]
    assert main([*command, flag, str(path), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {path}: not UTF-8 text (invalid start byte)\n"
    assert list(out.iterdir()) == []
