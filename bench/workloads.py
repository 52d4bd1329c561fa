"""Benchmark workloads: inputs made from the seed, and checks of the outputs.

A workload is a list of ``lanepolicy`` command lines (without ``--out-dir``
and ``--run-name``, which each repetition adds).  The program sees only
those command lines; the seed never reaches it except as the documented
``schedule --seed`` trajectory seed.

Every output is checked two ways:

* invariants that hold for any seed (capacity floor, components summing
  to the total, the timetable tiling the horizon, the savings formula);
* for the seeds recorded in ``reference/<workload>.json``, equality with
  the recorded outputs to ``REL_TOL``.
"""

from __future__ import annotations

import json
import math
import os
import random

WORKLOADS = ("sweep", "schedule", "cost_points")

# Occupancy skew from tests/conftest.py: it gives real policy crossings
# (MTP/HOVLP near 658, EBLP/HOVLP near 490 pax/hr/mi).
CONTRAST = [
    "--set", "occupancy.low_share=0.8",
    "--set", "occupancy.low_occupancy=1.0",
    "--set", "occupancy.high_occupancy=4.0",
]
# Coarse solver used only by the benchmark's own smoke tests.
TINY_SOLVER = ["--set", "solver.r_step=0.1", "--set", "solver.n_cells=40"]

POLICIES = ("mtp", "eblp", "hovlp")
COST_MODES = ("R_F", "R", "F", "R_beta")

# Default geometry and solver values, used only to draw feasible points;
# the floor checks read the scenario that each run's manifest records.
_LENGTH_MI = 30.0
_BUS_CAPACITY = 70.0
_F_CAP = 120.0

REL_TOL = 1e-9  # outputs are deterministic; a 1e-6 relative change must fail
# CSV cells carry 6 decimals, so sums and floors built from them allow this.
CSV_ABS_TOL = 1e-5

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


# ---------------------------------------------------------------------------
# inputs


def make_ops(name: str, seed: int, tiny: bool = False) -> list[list[str]]:
    """Command lines of one repetition of workload ``name`` at ``seed``."""
    if name == "sweep":
        return [_sweep_argv(seed, tiny)]
    if name == "schedule":
        return [_schedule_argv(seed, tiny)]
    if name == "cost_points":
        return _cost_points_argv(seed, tiny)
    raise ValueError(f"unknown workload {name!r}")


def _sweep_argv(seed: int, tiny: bool) -> list[str]:
    rng = random.Random(f"sweep-{seed}")
    lo = 200 + rng.randint(-25, 25)
    hi = 2200 + rng.randint(-25, 25)
    n = 11
    extra: list[str] = []
    if tiny:
        lo, hi, n, extra = lo + 400, lo + 500, 3, TINY_SOLVER
    return ["sweep", *CONTRAST, *extra, "--q0-lo", str(lo), "--q0-hi", str(hi), "--n", str(n)]


def _schedule_argv(seed: int, tiny: bool) -> list[str]:
    horizon, extra = ("0.1", TINY_SOLVER) if tiny else ("1", [])
    return [
        "schedule", *CONTRAST, *extra,
        "--seed", str(seed), "--horizon", horizon,
        "--mean-reversion", "60", "--volatility", "3",
        "--long-run-level", "660", "--q0-init", "660", "--min-dwell", "10",
    ]


def _cost_points_argv(seed: int, tiny: bool) -> list[list[str]]:
    rng = random.Random(f"cost_points-{seed}")
    per_mode = 1 if tiny else 25
    # Latin-hypercube draws: within each mode, every q0, R and F stratum is
    # used once, so the work per seed is steady while the points change.
    draws = {mode: list(zip(*(_strata(rng, per_mode) for _ in range(3)))) for mode in COST_MODES}
    ops = []
    for k in range(per_mode * len(COST_MODES)):
        mode = COST_MODES[k % len(COST_MODES)]
        j = k // len(COST_MODES)
        policy = POLICIES[j % len(POLICIES)]
        u_q, u_r, u_f = draws[mode][j]
        q0 = round(300.0 + 1500.0 * u_q, 1)
        # lowest auto share whose capacity floor fits under the frequency cap
        r_floor = max(0.05, 1.0 - _F_CAP / (q0 * _LENGTH_MI / (2.0 * _BUS_CAPACITY))) + 0.001
        r = math.ceil((r_floor + (0.95 - r_floor) * u_r) * 1e4) / 1e4
        f_floor = max(1.0, (1.0 - r) * q0 * _LENGTH_MI / (2.0 * _BUS_CAPACITY)) + 0.01
        argv = ["cost", *CONTRAST, *(TINY_SOLVER if tiny else []),
                "--policy", policy, "--q0", f"{q0:.1f}"]
        if mode == "R_F":
            f = math.ceil((f_floor + (_F_CAP - f_floor) * u_f) * 100) / 100
            argv += ["--R", f"{r:.4f}", "--F", f"{f:.2f}"]
        elif mode == "R":
            argv += ["--R", f"{r:.4f}"]
        elif mode == "F":
            argv += ["--F", f"{10.0 + (_F_CAP - 10.0) * u_f:.2f}"]
        else:  # non-integer BPR exponent: per-point frequency sweep fallback
            argv += ["--R", f"{r:.4f}", "--set", "bpr.beta_auto=4.5"]
        ops.append(argv)
    return ops


def _strata(rng: random.Random, n: int) -> list[float]:
    """One uniform draw in each of n equal strata of [0, 1), in seeded order."""
    order = list(range(n))
    rng.shuffle(order)
    return [(k + rng.random()) / n for k in order]


def units(name: str, ops: list[list[str]]) -> int:
    """Operations attempted: one per command, plus each sweep curve sample."""
    if name == "sweep":
        return len(ops) + len(POLICIES) * int(_flag(ops[0], "--n"))
    return len(ops)


def _flag(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


# ---------------------------------------------------------------------------
# outputs


def extract(name: str, op_results: list[dict]) -> dict:
    """The checked outputs of one repetition, in reference form.

    ``op_results[k]`` holds command k's exit code, its manifest ``results``
    and ``scenario`` (None when no run directory was written) and the rows
    of each CSV it wrote.
    """
    if name == "cost_points":
        points = []
        for op in op_results:
            res = op["results"] or {}
            points.append({
                "exit_code": op["exit_code"],
                "R": res.get("R"),
                "F": res.get("F"),
                "breakdown": res.get("breakdown"),
            })
        return {"points": points}

    op = op_results[0]
    out: dict = {"exit_code": op["exit_code"]}
    res = op["results"]
    if res is None:
        return out
    if name == "sweep":
        rows = op["csv"].get("cost_curves.csv", [])
        out["curve"] = [[float(r[0]), r[1], *map(float, r[2:])] for r in rows[1:]]
        out["regions"] = res["regions"]
        out["thresholds"] = res["thresholds"]
        out["failed_samples"] = res["failed_samples"]
    else:
        out["entries"] = [
            [e["entry_t_hr"], e["exit_t_hr"], e["policy"], e["duration_min"]]
            for e in res["entries"]
        ]
        out["combined_cumulative"] = res["combined_cumulative"]
        out["per_policy_cumulative"] = res["per_policy_cumulative"]
        out["savings_vs"] = res["savings_vs"]
    return out


# ---------------------------------------------------------------------------
# checks


def check(
    name: str, ops: list[list[str]], op_results: list[dict], reference: dict | None
) -> tuple[list[tuple[str, str]], float]:
    """Check one repetition; returns (failures, max relative deviation).

    Each failure is ``(unit, message)``; a unit is one operation counted by
    :func:`units`, so the number of distinct units is the failed count.
    """
    outputs = extract(name, op_results)
    failures: list[tuple[str, str]] = []
    if name == "sweep":
        failures += _check_sweep(ops[0], op_results[0], outputs)
    elif name == "schedule":
        failures += _check_schedule(ops[0], op_results[0], outputs)
    else:
        failures += _check_cost_points(ops, op_results, outputs)
    max_dev = 0.0
    if reference is not None:
        mismatches, max_dev = compare(reference, outputs)
        for path, message in mismatches:
            unit = "op0"
            if name == "cost_points" and path.startswith("points["):
                unit = "op" + path[len("points["):path.index("]")]
            failures.append((unit, f"reference {path}: {message}"))
    elif any(op["exit_code"] != 0 for op in op_results):
        for k, op in enumerate(op_results):
            if op["exit_code"] != 0:
                failures.append((f"op{k}", f"exit code {op['exit_code']!r}, expected 0"))
    return failures, max_dev


def _floor(scenario: dict, q0: float, r: float) -> float:
    return (1.0 - r) * q0 * scenario["geometry"]["length_mi"] / (
        2.0 * scenario["bus"]["capacity_pax"]
    )


def _check_sweep(argv: list[str], op: dict, out: dict) -> list[tuple[str, str]]:
    if op["results"] is None:
        return [("op0", f"no run written (exit code {op['exit_code']!r})")]
    failures = []
    scenario = op["scenario"]
    lo, hi, n = float(_flag(argv, "--q0-lo")), float(_flag(argv, "--q0-hi")), int(_flag(argv, "--n"))
    failure_rows = op["csv"].get("failures.csv", [])[1:]
    for row in failure_rows:
        failures.append((f"sample:{row[0]}:{row[1]}", f"curve sample failed: {row[2]}"))
    if len(out["curve"]) + len(failure_rows) != len(POLICIES) * n:
        failures.append(("op0", f"{len(out['curve'])} curve rows for {len(POLICIES) * n} samples"))
    for q0, policy, total, bus_user, bus_op, auto_user, signal, r, f in out["curve"]:
        unit = f"sample:{policy}:{q0:g}"
        if f < _floor(scenario, q0, r) - CSV_ABS_TOL:
            failures.append((unit, f"F*={f} below the capacity floor"))
        if abs(bus_user + bus_op + auto_user + signal - total) > CSV_ABS_TOL:
            failures.append((unit, "components do not sum to the total"))
    for regions in out["regions"].values():
        edges = [(reg["q0_lo"], reg["q0_hi"]) for reg in regions]
        tiles = (
            bool(edges)
            and edges[0][0] == lo
            and edges[-1][1] == hi
            and all(a <= b for a, b in edges)
            and all(edges[i][1] == edges[i + 1][0] for i in range(len(edges) - 1))
        )
        if not tiles:
            failures.append(("op0", f"regions do not tile [{lo:g}, {hi:g}]: {edges}"))
    for row in out["thresholds"]:
        star = row["q0_star"]
        if star is not None and not lo <= star <= hi:
            failures.append(("op0", f"threshold {row['pair']} at {star} outside the range"))
    return failures


def _check_schedule(argv: list[str], op: dict, out: dict) -> list[tuple[str, str]]:
    if op["results"] is None:
        return [("op0", f"no run written (exit code {op['exit_code']!r})")]
    failures = []
    start = 7.0  # the CLI's default clock start, which the workload keeps
    end = start + float(_flag(argv, "--horizon"))
    entries = out["entries"]
    tiles = (
        bool(entries)
        and entries[0][0] == start
        and abs(entries[-1][1] - end) <= 1e-9
        and all(e[0] < e[1] for e in entries)
        and all(entries[i][1] == entries[i + 1][0] for i in range(len(entries) - 1))
    )
    if not tiles:
        failures.append(("op0", f"entries do not tile [{start}, {end}]"))
    combined = out["combined_cumulative"]
    for policy, single in out["per_policy_cumulative"].items():
        expected = (single - combined) / single
        saving = out["savings_vs"].get(policy)
        if saving is None or abs(saving - expected) > 1e-12:
            failures.append(("op0", f"savings_vs[{policy}]={saving}, expected {expected}"))
    return failures


def _check_cost_points(
    ops: list[list[str]], op_results: list[dict], out: dict
) -> list[tuple[str, str]]:
    failures = []
    for k, (argv, op, point) in enumerate(zip(ops, op_results, out["points"])):
        unit = f"op{k}"
        if op["results"] is None:
            failures.append((unit, f"no run written (exit code {op['exit_code']!r})"))
            continue
        q0, r, f = float(_flag(argv, "--q0")), point["R"], point["F"]
        parts = [point["breakdown"][c] for c in ("bus_user", "bus_operator", "auto_user", "signal")]
        total = point["breakdown"]["total"]
        if abs(sum(parts) - total) > REL_TOL * max(1.0, abs(total)):
            failures.append((unit, "components do not sum to the total"))
        if f < _floor(op["scenario"], q0, r) - 1e-9:
            failures.append((unit, f"F={f} below the capacity floor at R={r}"))
        for flag, value in (("--R", r), ("--F", f)):
            if flag in argv and float(_flag(argv, flag)) != value:
                failures.append((unit, f"{flag} {_flag(argv, flag)} came back as {value}"))
    return failures


def compare(reference, actual, path: str = "") -> tuple[list[tuple[str, str]], float]:
    """Structural comparison; floats to REL_TOL, everything else exactly.

    Returns the mismatches as (path, message) and the largest relative
    deviation seen among floats.
    """
    if isinstance(reference, float) and isinstance(actual, (int, float)) and not isinstance(actual, bool):
        dev = _rel_dev(reference, float(actual))
        if dev > REL_TOL:
            return [(path, f"{actual!r} != {reference!r} (rel dev {dev:.3g})")], dev
        return [], dev
    if isinstance(reference, dict) and isinstance(actual, dict):
        if set(reference) != set(actual):
            return [(path, f"keys {sorted(actual)} != {sorted(reference)}")], math.inf
        return _merge(compare(reference[k], actual[k], f"{path}.{k}" if path else k) for k in sorted(reference))
    if isinstance(reference, list) and isinstance(actual, list):
        if len(reference) != len(actual):
            return [(path, f"length {len(actual)} != {len(reference)}")], math.inf
        return _merge(compare(a, b, f"{path}[{i}]") for i, (a, b) in enumerate(zip(reference, actual)))
    if type(reference) is not type(actual) or reference != actual:
        return [(path, f"{actual!r} != {reference!r}")], math.inf
    return [], 0.0


def _merge(parts) -> tuple[list[tuple[str, str]], float]:
    mismatches: list[tuple[str, str]] = []
    worst = 0.0
    for found, dev in parts:
        mismatches += found
        worst = max(worst, dev)
    return mismatches, worst


def _rel_dev(reference: float, actual: float) -> float:
    if reference == actual:
        return 0.0
    scale = max(abs(reference), abs(actual))
    return abs(actual - reference) / scale if scale else math.inf


# ---------------------------------------------------------------------------
# recorded references


def reference_path(name: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{name}.json")


def load_references(name: str) -> dict[str, dict]:
    """Recorded outputs of workload ``name``, keyed by seed (as a string)."""
    try:
        with open(reference_path(name)) as handle:
            return json.load(handle)["seeds"]
    except FileNotFoundError:
        return {}
