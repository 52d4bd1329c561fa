"""lanepolicy benchmark: run one workload, check its outputs, print metrics.

    python3 bench/run.py --workload sweep --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 20

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  Each repetition runs in a fresh interpreter
(``rep.py``), so no optimizer memo survives from one repetition to the
next, with BLAS thread pools pinned to one thread.  Repetitions repeat
until ``--seconds`` have passed (at least one).

With ``--trace 0`` the result line carries the end-to-end metrics; with
``--trace 1`` untraced and traced repetitions alternate and it carries
the per-layer metrics of the traced ones (medians) and the tracing
overhead.  The last line of standard output is the JSON result; the exit
code is 1 when an output check failed and 2 when the checkout has no
``src/lanepolicy`` package.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import spans
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

# (name, unit, better) of every end-to-end metric.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("norm_wall_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
)
SETUP_SAMPLES = 11  # fresh-interpreter imports per run; setup_s is their median
REP_TIMEOUT_S = 150


class RepFailed(Exception):
    """A repetition's interpreter crashed, timed out or printed no result."""


def run_rep(job: dict, label: str) -> dict:
    """Run one repetition in a fresh interpreter and return its result."""
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    job = dict(job, tmp_root=OUT_DIR)
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "rep.py"), repr(spawned)],
            input=json.dumps(job), capture_output=True, text=True, env=env, cwd=ROOT,
            timeout=REP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise RepFailed(f"{label}: no result within {REP_TIMEOUT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RepFailed(f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    if not result["lanepolicy_file"].startswith(SRC + os.sep):
        raise RepFailed(f"{label}: imported lanepolicy from {result['lanepolicy_file']}")
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def git_sha() -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_file):
            with open(ref_file) as handle:
                return handle.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Repeat one workload for ``seconds`` and summarize; see the module doc."""
    ops = workloads.make_ops(name, seed, tiny)
    reference = None if tiny else workloads.load_references(name).get(str(seed))
    os.makedirs(OUT_DIR, exist_ok=True)
    load_start = os.getloadavg()[0]
    base_job = {"ops": ops, "trace": False}
    run_rep(dict(base_job, import_only=True), "warm-up")  # fill bytecode caches

    plain: list[dict] = []
    traced: list[dict] = []
    attempted = failed = 0
    max_dev = 0.0
    messages: list[str] = []
    crashed = False
    start = time.perf_counter()
    while not crashed:
        for with_trace in (False, True) if trace else (False,):
            rep_id = f"{name}-seed{seed}-rep{len(plain) + len(traced)}"
            job = dict(base_job, trace=with_trace, rep_id=rep_id,
                       spans_path=os.path.join(OUT_DIR, f"spans-{rep_id}.jsonl.gz"))
            attempted += workloads.units(name, ops)
            try:
                result = run_rep(job, rep_id)
            except RepFailed as exc:
                failed += workloads.units(name, ops)
                messages.append(str(exc))
                crashed = True
                break
            found, dev = workloads.check(name, ops, result["ops"], reference)
            failed += len({unit for unit, _ in found})
            messages += [f"{rep_id} {unit}: {msg}" for unit, msg in found]
            max_dev = max(max_dev, dev)
            (traced if with_trace else plain).append(result)
        if time.perf_counter() - start >= seconds:
            break

    setup = [r["setup_s"] for r in plain + traced]
    while len(setup) < SETUP_SAMPLES:
        setup.append(run_rep(dict(base_job, import_only=True), "setup")["setup_s"])
    walls = [r["wall_s"] for r in plain]
    norm_walls = [r["norm_wall_s"] for r in plain]
    summary = {
        "workload": name,
        "seed": seed,
        "reference": reference is not None,
        "attempted": attempted,
        "failed": failed,
        "messages": messages,
        "error_rate": failed / attempted,
        "max_rel_dev": max_dev,
        "setup_s": statistics.median(setup),
        "setup_n": len(setup),
        "wall_s": quartiles(walls) if walls else None,
        "norm_wall_s": quartiles(norm_walls) if walls else None,
        "wall_n": len(walls),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain) if plain else None,
        "python": plain[0]["python"] if plain else None,
        "numpy": plain[0]["numpy"] if plain else None,
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "load_start": load_start,
        "load_end": os.getloadavg()[0],
    }
    if traced and plain:
        layers = {
            metric: statistics.median(r["layers"][metric] for r in traced)
            for metric in traced[0]["layers"]
        }
        traced_wall = statistics.median(r["norm_wall_s"] for r in traced)
        layers["trace.overhead_ratio"] = traced_wall / summary["norm_wall_s"][1] - 1.0
        summary["layers"] = layers
    return summary


def metrics_of(summary: dict, trace: bool) -> dict:
    if trace:
        return {
            name: {"value": summary["layers"][name], "unit": unit}
            for name, unit, _ in spans.LAYER_METRICS
        }
    values = {
        "setup_s": summary["setup_s"],
        "norm_wall_s": summary["norm_wall_s"][1],
        "peak_rss_mb": summary["peak_rss_mb"],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}


def report(summary: dict) -> str:
    """Human-readable lines: provenance, every end-to-end metric, any failures."""
    s = summary
    busy = max(s["load_start"], s["load_end"]) > s["nproc"]
    lines = [
        f"# {s['workload']} seed={s['seed']} python={s['python']} numpy={s['numpy']} "
        f"nproc={s['nproc']} git={s['git_sha'][:12]} "
        f"load1={s['load_start']:.2f}->{s['load_end']:.2f}"
        + (" LOADED: load exceeded nproc" if busy else ""),
        f"{s['workload']:<12} setup_s      {s['setup_s']:.4f} s (median of {s['setup_n']})",
    ]
    if s["wall_s"] is not None:
        for name in ("wall_s", "norm_wall_s"):
            q1, med, q3 = s[name]
            lines.append(
                f"{s['workload']:<12} {name:<12} {med:.4f} s "
                f"(median; q1 {q1:.4f}, q3 {q3:.4f}, n={s['wall_n']})"
            )
        lines.append(f"{s['workload']:<12} peak_rss_mb  {s['peak_rss_mb']:.1f} MiB")
    lines.append(
        f"{s['workload']:<12} error_rate   {s['error_rate']:.4g} ratio "
        f"({s['failed']}/{s['attempted']})"
    )
    lines.append(
        f"{s['workload']:<12} max_rel_dev  {s['max_rel_dev']:.3g} ratio "
        f"({'recorded seed' if s['reference'] else 'no reference for this seed; invariants only'})"
    )
    if "layers" in s:
        for name, unit, _ in spans.LAYER_METRICS:
            lines.append(f"{s['workload']:<12} {name:<40} {s['layers'][name]:.6g} {unit}")
    lines += [f"FAILED {msg}" for msg in s["messages"][:20]]
    return "\n".join(lines)


def result_line(summary: dict, trace: bool) -> dict:
    return {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics_of(summary, trace) if summary["wall_s"] and (
            "layers" in summary or not trace) else {},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "lanepolicy", "cli.py")):
        print(f"error: no lanepolicy package under {SRC}", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        summary = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(report(summary), flush=True)
        results[name] = result_line(summary, bool(args.trace))
    print(json.dumps(results if args.workload == "all" else results[names[0]]))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
