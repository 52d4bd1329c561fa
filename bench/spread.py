"""Run the benchmark on several seeds and report each metric's spread.

    python3 bench/spread.py --workloads sweep,schedule --seeds 0-9 --seconds 20
    python3 bench/spread.py --seeds 0-9 --write-baseline bench/baseline.json

For each workload and end-to-end metric this prints the median of the
per-seed values and the distance between their first and third quartiles
as a share of the median (``statistics.quantiles(values, n=4)``).  A
metric is steady when that share is well inside its bound in
``BENCHMARK.json``.  ``--write-baseline`` stores the figures with the
machine they were measured on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import record
import run
import workloads


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    parser.add_argument("--seeds", type=record.seed_range, default=record.seed_range("0-9"))
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--write-baseline", metavar="FILE")
    args = parser.parse_args(argv)

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        bounds = {m["name"]: m["bound"] for m in json.load(handle)["end_to_end"]}
    table = {}
    for name in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(run.BENCH_DIR, "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, cwd=run.ROOT,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print(proc.stdout, proc.stderr, file=sys.stderr)
                return 1
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
            print(f"{name} seed {seed}: "
                  + " ".join(f"{m}={v[-1]:.4f}" for m, v in values.items()), flush=True)
        table[name] = {}
        for metric, series in values.items():
            q1, med, q3 = statistics.quantiles(series, n=4)
            table[name][metric] = {
                "median": statistics.median(series),
                "q1": q1,
                "q3": q3,
                "iqr_share": (q3 - q1) / statistics.median(series),
                "n": len(series),
            }
            print(f"{name:<12} {metric:<12} median {statistics.median(series):.4f} "
                  f"iqr/median {table[name][metric]['iqr_share']:.4f} (bound {bounds[metric]})")

    if args.write_baseline:
        baseline = {
            "machine": {
                "nproc": os.cpu_count(),
                "cpu": cpu_model(),
                "python": platform.python_version(),
            },
            "git_sha": run.git_sha(),
            "seeds": args.seeds,
            "seconds": args.seconds,
            "workloads": table,
        }
        with open(args.write_baseline, "w") as handle:
            json.dump(baseline, handle, indent=1)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
