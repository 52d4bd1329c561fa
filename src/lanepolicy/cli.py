"""Command-line runner for costs, sweeps, demand simulation, and scheduling.

Each invocation creates one run directory (default under ``runs/``) holding a
``manifest.json`` that records the command line, the full scenario, seeds,
solver settings, and every output file; the run is reproducible from the
manifest alone.  Outputs are staged in a temporary directory and renamed into
place only on success.  Numeric CSVs carry ``# key=value`` comment headers
naming their units and manifest.

Exit codes: 0 success, 2 validation/usage, 3 infeasibility or numeric
failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import os
import shlex
import shutil
import sys
import tempfile
import time
from typing import Callable, Sequence

from . import _files
from ._version import __version__
from .config import (
    Scenario,
    _fingerprint,
    load_scenario,
    preset,
    preset_names,
)
from .costmodel import _COMPONENTS, POLICY_ORDER, Policy, cost_breakdown
from .errors import (
    InfeasibleError,
    LanePolicyError,
    UndefinedServiceError,
    ValidationError,
)
from .optimizer import (
    _FLOOR_SLACK,
    _best_split_at_fixed_f,
    foc_residual,
    min_frequency,
    optimize_frequency,
    optimize_policy,
)
from .scheduler import (
    build_schedule,
    evaluate_trajectory,
    format_timetable,
    schedule_summary,
    write_schedule_csv,
    write_schedule_json,
)
from .stochastic import (
    DEFAULT_CLOCK_START_HR,
    DEFAULT_DT_HR,
    DEFAULT_HORIZON_HR,
    OUParams,
    Trajectory,
    read_trajectory_csv,
    simulate,
    simulate_ensemble,
    write_trajectory_csv,
)
from .threshold import _prefetch_sweep, cost_curve, regions_and_thresholds, write_curves_csv

_HIGHLIGHT_NOTE = (
    "intersection count and waiting value-of-time are assumed defaults; "
    "switching thresholds move materially with both"
)
_SYNTHETIC_PARAMS_NOTE = (
    "demand-process defaults are synthetic placeholders, not calibrated values"
)


# ---------------------------------------------------------------------------
# scenario assembly


def _parse_set_item(item: str) -> dict:
    """The one-field override document that ``--set section.key=value`` names."""
    key, sep, raw = item.partition("=")
    if not sep or not raw:
        raise ValidationError(f"--set expects section.key=value, got {item!r}")
    section, sep, field = key.partition(".")
    if not sep or not field:
        raise ValidationError(f"--set key must be dotted section.key, got {key!r}")
    try:
        value = _files.parse_json(raw, f"--set {key}")
    except json.JSONDecodeError:
        value = raw
    return {section.strip(): {field.strip(): value}}


def build_scenario(
    preset_name: str,
    scenario_file: str | None = None,
    set_items: Sequence[str] = (),
) -> Scenario:
    """Assemble the working scenario: preset, then file, then --set overrides."""
    overrides = []
    if scenario_file is not None:
        file_doc = _files.read_json(scenario_file)
        if not isinstance(file_doc, dict):
            raise ValidationError(f"{scenario_file}: scenario document must be a JSON object")
        overrides.append(file_doc)
    overrides.extend(_parse_set_item(item) for item in set_items)
    return preset(preset_name, *overrides)


# ---------------------------------------------------------------------------
# run directory and file plumbing


def _unique_path(base: str) -> str:
    candidates = itertools.chain([base], (f"{base}-{k}" for k in itertools.count(2)))
    return next(path for path in candidates if not os.path.exists(path))


_MANIFEST = "manifest.json"


class _Run:
    """Staged run directory: files collect in a temp dir, renamed on success."""

    def __init__(self, out_root: str, name: str) -> None:
        os.makedirs(out_root, exist_ok=True)
        self.out_root = out_root
        self.name = name
        self.tmp = tempfile.mkdtemp(prefix=f".tmp-{name}-", dir=out_root)
        self.outputs: list[str] = []

    def path(self, relative: str) -> str:
        full = os.path.join(self.tmp, relative)
        os.makedirs(os.path.dirname(full), exist_ok=True)
        self.outputs.append(relative)
        return full

    def csv(self, relative: str, meta: dict, write: Callable, *data) -> None:
        """Write one CSV: ``# key=value`` comment lines, the first naming the
        manifest's path from the file's directory, then ``write(*data, file)``."""
        manifest = os.path.relpath(_MANIFEST, os.path.dirname(relative) or os.curdir)
        with _files.opened(self.path(relative), "w") as handle:
            _files.write_comments(handle, {"manifest": manifest, **meta})
            write(*data, handle)

    def finalize(self, manifest: dict) -> str:
        manifest = {**manifest, "outputs": sorted(set(self.outputs)), "completed_utc": _utc_stamp()}
        _files.write_json(manifest, os.path.join(self.tmp, _MANIFEST))
        final = _unique_path(os.path.join(self.out_root, self.name))
        os.replace(self.tmp, final)
        return final

    def discard(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


def _utc_stamp() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def _base_manifest(command: str, argv: Sequence[str], scenario: Scenario) -> dict:
    document = dataclasses.asdict(scenario)
    return {
        "artifact_version": __version__,
        "command": command,
        "argv": list(argv),
        "invocation": "lanepolicy " + shlex.join(argv),
        "started_utc": _utc_stamp(),
        "scenario_fingerprint": _fingerprint(document),
        "scenario": document,
        "solver": document["solver"],
        "highlighted_defaults": {
            "geometry.n_intersections": scenario.geometry.n_intersections,
            "econ.vot_wait": scenario.econ.vot_wait,
            "note": _HIGHLIGHT_NOTE,
        },
    }


# ---------------------------------------------------------------------------
# cost command


def _cmd_cost(args: argparse.Namespace, scenario: Scenario, run: _Run) -> dict:
    policy = Policy.parse(args.policy)
    q0 = args.q0
    diagnostics = {}
    if args.R is None and args.F is None:
        opt = optimize_policy(scenario, policy, q0)
        r, f, breakdown = opt.r_star, opt.f_star, opt.breakdown
        diagnostics = {
            "foc_residual": foc_residual(scenario, policy, q0, r, f),
            "constraint_binding": opt.constraint_binding,
        }
        mode = "optimized R and F"
    else:
        if args.F is None:
            r, mode = args.R, "fixed R, optimized F"
            f, _ = optimize_frequency(scenario, policy, q0, r)
        elif args.R is None:
            f, mode = args.F, "optimized R, fixed F"
            r = _best_split_at_fixed_f(scenario, policy, q0, f)
        else:
            r, f, mode = args.R, args.F, "fixed R and F"
        breakdown = cost_breakdown(scenario, policy, q0, r, f)

    f_min = min_frequency(scenario, q0, r)
    lines = [
        f"policy        {policy.value}",
        f"q0            {q0:g} pax/hr/mi",
        f"auto share R  {r:.4f} ({mode})",
        f"frequency F   {f:.2f} buses/hr (capacity floor {f_min:.2f})",
    ]
    if f + _FLOOR_SLACK < f_min:
        lines.append("note          F is below the capacity floor; diagnostic evaluation only")
    costs = {name: getattr(breakdown, name) for name in (*_COMPONENTS, "total")}
    lines += ["%-13s $%.2f/hr" % item for item in costs.items()]
    print("\n".join(lines))

    run.csv(
        "breakdown.csv",
        {"units": "cost=$/hr", "policy": policy.value, "q0": q0},
        _files.write_csv,
        ("component", "cost"),
        ((name, "%.6f" % cost) for name, cost in costs.items()),
    )
    return {
        "policy": policy.value,
        "q0": q0,
        "R": r,
        "F": f,
        "min_frequency": f_min,
        "mode": mode,
        "breakdown": costs,
        **diagnostics,
    }


# ---------------------------------------------------------------------------
# sweep command


def _with_capacity(scenario: Scenario, capacity: float) -> Scenario:
    document = dataclasses.asdict(scenario)
    document["geometry"]["lane_capacity_vph"] = capacity
    return load_scenario(document)


def _cmd_sweep(args: argparse.Namespace, scenario: Scenario, run: _Run) -> dict:
    lo, hi = args.q0_lo, args.q0_hi
    capacities = args.capacities if args.capacities else [None]
    # capacities name their files and manifest keys at %g, so they must differ there
    tags = ["%g" % c for c in sorted(args.capacities or ())]
    repeated = [tag for tag in dict.fromkeys(tags) if tags.count(tag) > 1]
    if repeated:
        raise ValidationError("repeated capacities: %s" % ", ".join(repeated))

    regions_by_capacity: dict[str, list[dict]] = {}
    thresholds: list[dict] = []
    for capacity in capacities:
        scen = scenario if capacity is None else _with_capacity(scenario, capacity)
        cap_value = scen.geometry.lane_capacity_vph
        tag = "" if capacity is None else "_C%g" % capacity

        _prefetch_sweep(scen, (lo, hi), args.n)  # the curves and scans, one solve per policy
        curves = [cost_curve(scen, p, (lo, hi), args.n) for p in POLICY_ORDER]
        run.csv(
            f"cost_curves{tag}.csv",
            {
                "units": "q0=pax/hr/mi cost=$/hr R_star=fraction F_star=buses/hr",
                "lane_capacity_vph": cap_value,
            },
            write_curves_csv,
            curves,
        )

        regions, found = regions_and_thresholds(scen, (lo, hi), (hi - lo) / (args.n - 1))
        regions = [{"q0_lo": r.q0_lo, "q0_hi": r.q0_hi, "policy": r.policy.value} for r in regions]
        run.csv(
            f"regions{tag}.csv",
            {"units": "q0=pax/hr/mi", "lane_capacity_vph": cap_value},
            _files.write_csv,
            ("q0_lo", "q0_hi", "policy"),
            (("%.6f" % r["q0_lo"], "%.6f" % r["q0_hi"], r["policy"]) for r in regions),
        )
        regions_by_capacity["%g" % cap_value] = regions
        thresholds += [
            {
                "lane_capacity_vph": cap_value,
                "pair": "/".join(p.value for p in t.pair),
                "q0_star": t.q0_star,
                "cheaper_below": t.cheaper_below.value,
                "cheaper_above": t.cheaper_above.value,
            }
            for t in found
        ]

    run.csv(
        "thresholds.csv",
        {"units": "lane_capacity_vph=veh/hr q0_star=pax/hr/mi"},
        _files.write_csv,
        ("lane_capacity_vph", "pair", "q0_star", "cheaper_below", "cheaper_above"),
        (
            ("%g" % t["lane_capacity_vph"], t["pair"],
             "" if t["q0_star"] is None else "%.6f" % t["q0_star"],
             t["cheaper_below"], t["cheaper_above"])
            for t in thresholds
        ),
    )

    for cap_key, regions in regions_by_capacity.items():
        chain = " -> ".join(
            "%s[%.0f,%.0f]" % (r["policy"], r["q0_lo"], r["q0_hi"]) for r in regions
        )
        print(f"capacity {cap_key} veh/hr/lane: {chain}")
    for t in thresholds:
        where = "none in range" if t["q0_star"] is None else "%.1f" % t["q0_star"]
        print(
            f"  threshold {t['pair']} @ C={t['lane_capacity_vph']:g}: {where} "
            f"(below {t['cheaper_below']}, above {t['cheaper_above']})"
        )

    return {
        "q0_range": [lo, hi],
        "n_samples": args.n,
        "capacities": list(regions_by_capacity),
        "regions": regions_by_capacity,
        "thresholds": thresholds,
        # regions_and_thresholds raises for a density without an optimum,
        # on a lattice or on a bisection's walk, so every sweep that
        # finishes priced all of its samples
        "failed_samples": 0,
    }


# ---------------------------------------------------------------------------
# simulate command


_PROCESS_FLAGS = tuple(field.name for field in dataclasses.fields(OUParams))
# every flag that shapes a generated trajectory; --trajectory excludes them all
_GENERATOR_FLAGS = (*_PROCESS_FLAGS, "horizon", "dt", "clock_start", "seed")


def _generator(args: argparse.Namespace) -> tuple[OUParams, float, float, float]:
    """Demand-process parameters, horizon, step and clock start from the
    generator flags; each flag left out takes its default."""
    given = {name: getattr(args, name) for name in _PROCESS_FLAGS if getattr(args, name) is not None}
    return (
        OUParams(**given),
        DEFAULT_HORIZON_HR if args.horizon is None else args.horizon,
        DEFAULT_DT_HR if args.dt is None else args.dt,
        DEFAULT_CLOCK_START_HR if args.clock_start is None else args.clock_start,
    )


def _trajectory_meta(traj: Trajectory) -> dict:
    return {
        "units": "t_hours=hours q0=pax/hr/mi",
        "seed": traj.seed,
        "dt_hr": traj.dt,
        "t0_clock": traj.t0_clock,
        "note": _SYNTHETIC_PARAMS_NOTE,
    }


def _cmd_simulate(args: argparse.Namespace, scenario: Scenario, run: _Run) -> dict:
    params, horizon, dt, clock_start = _generator(args)
    trajectories = simulate_ensemble(
        params, horizon=horizon, dt=dt, n=args.n, base_seed=args.seed, t0_clock=clock_start
    )
    entries = []
    for traj in trajectories:
        name = f"trajectories/trajectory_seed{traj.seed}.csv"
        run.csv(name, _trajectory_meta(traj), write_trajectory_csv, traj)
        entry = {
            "file": name,
            "seed": traj.seed,
            "min_q0": float(traj.values.min()),
            "max_q0": float(traj.values.max()),
            "final_q0": float(traj.values[-1]),
            "floor_events": traj.floor_events,
        }
        entries.append(entry)
        print(
            "seed %(seed)d: q0 in [%(min_q0).0f, %(max_q0).0f], final %(final_q0).0f, "
            "floor events %(floor_events)d" % entry
        )
    return {
        "params": dataclasses.asdict(params),
        "horizon_hr": horizon,
        "dt_hr": dt,
        "clock_start": clock_start,
        "seeds": [traj.seed for traj in trajectories],
        "trajectories": entries,
        "note": _SYNTHETIC_PARAMS_NOTE,
    }


# ---------------------------------------------------------------------------
# schedule command


def _cmd_schedule(args: argparse.Namespace, scenario: Scenario, run: _Run) -> dict:
    allowed = [Policy.parse(tok) for tok in args.allowed.split(",") if tok.strip()]

    if args.trajectory is not None:
        if any(getattr(args, name) is not None for name in _GENERATOR_FLAGS):
            raise ValidationError(
                "give either --trajectory or generator parameters, not both"
            )
        traj = read_trajectory_csv(args.trajectory)
        seeds: list[int] = []
        source = {"kind": "file", "path": os.path.abspath(args.trajectory)}
    else:
        params, horizon, dt, clock_start = _generator(args)
        seed = 0 if args.seed is None else args.seed
        traj = simulate(params, horizon=horizon, dt=dt, seed=seed, t0_clock=clock_start)
        seeds = [seed]
        source = {
            "kind": "generated",
            "params": dataclasses.asdict(params),
            "horizon_hr": horizon,
            "dt_hr": dt,
            "seed": seed,
            "note": _SYNTHETIC_PARAMS_NOTE,
        }

    run.csv("trajectory.csv", _trajectory_meta(traj), write_trajectory_csv, traj)

    table = evaluate_trajectory(scenario, traj, allowed)
    schedule = build_schedule(table, min_dwell=args.min_dwell)
    print(format_timetable(schedule))
    print(
        "demand quantization cost bound: $%.2f/hr per step" % schedule.quantization_bound
    )

    run.csv(
        "schedule.csv",
        {
            "units": "entry_t_hr=clock-hours exit_t_hr=clock-hours duration_min=minutes",
            "allowed": ",".join(p.value for p in allowed),
        },
        write_schedule_csv,
        schedule,
    )
    write_schedule_json(schedule, run.path("schedule.json"))
    summary = schedule_summary(schedule)
    summary.update(allowed=[p.value for p in allowed], min_dwell_minutes=args.min_dwell,
                   trajectory_source=source, seeds=seeds)
    return summary


# ---------------------------------------------------------------------------
# parser and entry point


def _add_scenario_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--preset",
        default="baseline",
        choices=preset_names(),
        help="named scenario to start from (default: baseline)",
    )
    parser.add_argument(
        "--scenario",
        metavar="FILE",
        help="JSON scenario file merged over the preset",
    )
    parser.add_argument(
        "--set",
        metavar="SECTION.KEY=VALUE",
        action="append",
        default=[],
        dest="set_items",
        help="override one scenario field (repeatable), e.g. --set geometry.n_lanes=4",
    )
    parser.add_argument(
        "--out-dir",
        default="runs",
        help="directory that receives run output directories (default: runs)",
    )
    parser.add_argument(
        "--run-name",
        help="run directory name (default: <command>-<timestamp>)",
    )


def _add_generator_flags(parser: argparse.ArgumentParser, with_n: bool) -> None:
    process = OUParams()
    parser.add_argument("--mean-reversion", type=float, default=None,
                        help="pull rate toward the long-run level, 1/hr "
                             f"(default {process.mean_reversion:g})")
    parser.add_argument("--long-run-level", type=float, default=None,
                        help="stationary demand level, pax/hr/mi "
                             f"(default {process.long_run_level:g})")
    parser.add_argument("--volatility", type=float, default=None,
                        help=f"noise intensity (default {process.volatility:g})")
    parser.add_argument("--q0-init", type=float, default=None,
                        help=f"initial demand density, pax/hr/mi (default {process.q0_init:g})")
    parser.add_argument("--horizon", type=float, default=None,
                        help=f"simulated hours (default {DEFAULT_HORIZON_HR:g})")
    parser.add_argument("--dt", type=float, default=None,
                        help=f"step size in hours (default 1/{1.0 / DEFAULT_DT_HR:g})")
    parser.add_argument("--clock-start", type=float, default=None,
                        help=f"clock hour of the first sample (default {DEFAULT_CLOCK_START_HR})")
    if with_n:
        parser.add_argument("--n", type=int, default=10,
                            help="number of trajectories (default 10)")
        parser.add_argument("--seed", type=int, default=0,
                            help="first seed; trajectory i uses seed+i (default 0)")
    else:
        parser.add_argument("--seed", type=int, default=None,
                            help="trajectory seed (default 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lanepolicy",
        description="Corridor lane-policy cost evaluation, optimization, and scheduling.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    cost = sub.add_parser("cost", help="evaluate or optimize one policy at one demand level")
    _add_scenario_flags(cost)
    cost.add_argument("--policy", required=True, help="mtp, eblp, or hovlp")
    cost.add_argument("--q0", type=float, required=True, help="CBD demand density, pax/hr/mi")
    cost.add_argument("--R", type=float, default=None, help="auto share; optimized when omitted")
    cost.add_argument("--F", type=float, default=None, help="bus frequency; optimized when omitted")
    cost.set_defaults(func=_cmd_cost)

    sweep = sub.add_parser("sweep", help="cost curves, policy regions, and thresholds over a demand range")
    _add_scenario_flags(sweep)
    sweep.add_argument("--q0-lo", type=float, default=200.0, help="low end of the demand range")
    sweep.add_argument("--q0-hi", type=float, default=2500.0, help="high end of the demand range")
    sweep.add_argument("--n", type=int, default=47, help="number of samples (>= 2)")
    sweep.add_argument(
        "--capacities",
        type=lambda text: [float(tok) for tok in text.split(",") if tok.strip()],
        default=None,
        help="comma-separated lane capacities to repeat the sweep over, veh/hr",
    )
    sweep.set_defaults(func=_cmd_sweep)

    simulate_cmd = sub.add_parser("simulate", help="simulate seeded demand-density trajectories")
    _add_scenario_flags(simulate_cmd)
    _add_generator_flags(simulate_cmd, with_n=True)
    simulate_cmd.set_defaults(func=_cmd_simulate)

    schedule = sub.add_parser("schedule", help="build a policy-switching timetable for a trajectory")
    _add_scenario_flags(schedule)
    schedule.add_argument("--trajectory", metavar="FILE",
                          help="trajectory CSV (clock_time,t_hours,q0); excludes generator flags")
    _add_generator_flags(schedule, with_n=False)
    schedule.add_argument("--allowed", default="mtp,eblp,hovlp",
                          help="comma-separated policies to switch among (default: all three)")
    schedule.add_argument("--min-dwell", type=float, default=0.0,
                          help="shortest admissible entry duration, minutes (default 0)")
    schedule.set_defaults(func=_cmd_schedule)
    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` reuses: building one costs more than a short
    ``cost`` command.  Parsing leaves it unchanged (``append`` copies its
    default list), so no call sees another's arguments."""
    return build_parser()


# exception class -> (exit code, stderr label); the first match wins
_EXIT_CODES = {
    ValidationError: (2, "error"),
    UndefinedServiceError: (2, "error"),
    InfeasibleError: (3, "infeasible"),
    LanePolicyError: (3, "error"),
    OSError: (4, "i/o error"),
}


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = _parser().parse_args(argv)

    run: _Run | None = None
    try:
        scenario = build_scenario(args.preset, args.scenario, args.set_items)
        name = args.run_name or f"{args.command}-{time.strftime('%Y%m%d-%H%M%S')}"
        run = _Run(args.out_dir, name)
        manifest = _base_manifest(args.command, argv, scenario)
        results = args.func(args, scenario, run)
        manifest["results"] = results
        if "seeds" in results:
            manifest["seeds"] = results["seeds"]
        final = run.finalize(manifest)
        print(f"run written to {final}")
        return 0
    except (LanePolicyError, OSError) as err:
        code, label = next(v for cls, v in _EXIT_CODES.items() if isinstance(err, cls))
        print(f"{label}: {err}", file=sys.stderr)
        return code
    finally:
        if run is not None:  # after a finalized run the staging directory is gone already
            run.discard()


if __name__ == "__main__":
    raise SystemExit(main())
