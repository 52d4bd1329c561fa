"""Record the reference outputs that the benchmark compares against.

    python3 bench/record.py --workload sweep --seeds 0-9

Runs one untraced repetition of the workload per seed, refuses to record
outputs that fail an invariant check, and merges the outputs into
``reference/<workload>.json``.  Record again only for a change that is
meant to alter outputs, and list every changed output in the change.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import run
import workloads


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seeds", type=seed_range, required=True, help="e.g. 0-9")
    args = parser.parse_args(argv)

    path = workloads.reference_path(args.workload)
    recorded = workloads.load_references(args.workload)
    os.makedirs(run.OUT_DIR, exist_ok=True)
    for seed in args.seeds:
        ops = workloads.make_ops(args.workload, seed)
        result = run.run_rep({"ops": ops, "trace": False}, f"{args.workload}-seed{seed}")
        failures, _ = workloads.check(args.workload, ops, result["ops"], None)
        if failures:
            print(f"seed {seed}: not recorded: {failures[:5]}", file=sys.stderr)
            return 1
        recorded[str(seed)] = workloads.extract(args.workload, result["ops"])
        print(f"seed {seed}: recorded ({result['wall_s']:.2f} s)", flush=True)

    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(
            {"workload": args.workload, "seeds": dict(sorted(recorded.items(), key=lambda kv: int(kv[0])))},
            handle, indent=1, sort_keys=False,
        )
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
