"""One benchmark repetition, run in a fresh interpreter by ``run.py``.

Usage (internal): ``python3 rep.py <spawn perf_counter>`` with a JSON job
on standard input.  The first statement after the standard imports is
``import lanepolicy.cli``, so ``setup_s`` is the time from the parent's
spawn to the end of that import; ``time.perf_counter`` reads the
system-wide monotonic clock on Linux, so the two processes share it.

The job's command lines run in-process through ``lanepolicy.cli.main``
with output directed to a temporary directory that is removed afterwards.
The result is one JSON object on standard output.

While they run, a speed probe times a fixed compute slice every 0.1 s
from a timer signal, on the same core.  The host's speed swings by up to
±20% over seconds to minutes, so ``norm_wall_s`` rescales the wall time
to the probe's reference speed; ``wall_s`` is the plain wall time less
the probe's own time.
"""

import sys
import time

import lanepolicy.cli as cli

IMPORTED = time.perf_counter()

import contextlib  # noqa: E402
import csv  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import tempfile  # noqa: E402

import numpy  # noqa: E402

PROBE_PERIOD_S = 0.1
PROBE_REF_S = 1e-3  # slice time that defines the reference speed


def _call(argv: list[str]):
    """Exit code of one CLI call, or the exception that escaped it."""
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejects a command line this way
        return exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # recorded and counted as a failed operation
        return f"exception {type(exc).__name__}: {exc}"


def _collect(run_dir: str, exit_code) -> dict:
    """Manifest results, scenario and CSV rows of one run directory."""
    manifest_path = os.path.join(run_dir, "manifest.json")
    if not os.path.exists(manifest_path):
        return {"exit_code": exit_code, "results": None, "scenario": None, "csv": {}}
    with open(manifest_path) as handle:
        manifest = json.load(handle)
    tables = {}
    for name in manifest["outputs"]:
        if name.endswith(".csv") and "/" not in name:
            with open(os.path.join(run_dir, name), newline="") as handle:
                lines = [line for line in handle if not line.startswith("#")]
            tables[name] = list(csv.reader(lines))
    return {
        "exit_code": exit_code,
        "results": manifest["results"],
        "scenario": manifest["scenario"],
        "csv": tables,
    }


class SpeedProbe:
    """Times a fixed compute slice on this process's core while a block runs.

    The slice mixes Python loops and dict updates with small NumPy
    operations, like the product, and creates no lists, tuples or dicts,
    so it does not trigger garbage collection.  It runs once on entry,
    once on exit and every ``PROBE_PERIOD_S`` in between from ``SIGALRM``.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._x = numpy.linspace(0.0, 1.0, 601)
        self._table = dict.fromkeys(range(30), 0.0)

    def _slice(self, *_) -> None:
        start = time.perf_counter()
        acc = 0.0
        for i in range(100):
            acc += float((self._x * (i % 7 + 1.0)).sum())
            for k in range(30):
                self._table[k] = acc * 0.5 + abs(k - i)
        self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> "SpeedProbe":
        self._slice()
        signal.signal(signal.SIGALRM, self._slice)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._slice()

    def slice_s(self) -> float:
        """Typical slice time: mean of the samples less the top and bottom tenth."""
        ordered = sorted(self.samples)
        cut = len(ordered) // 10
        kept = ordered[cut:len(ordered) - cut]
        return sum(kept) / len(kept)


def _bytes_under(root: str) -> int:
    return sum(
        os.path.getsize(os.path.join(dirpath, name))
        for dirpath, _, names in os.walk(root)
        for name in names
    )


def main() -> int:
    spawned = float(sys.argv[1])
    job = json.load(sys.stdin)
    result = {
        "setup_s": IMPORTED - spawned,
        "lanepolicy_file": cli.__file__,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if job.get("import_only"):
        print(json.dumps(result))
        return 0

    tracer = None
    if job["trace"]:
        import spans

        tracer = spans.install()
    out_root = tempfile.mkdtemp(prefix="rep-", dir=job["tmp_root"])
    try:
        codes = []
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            with SpeedProbe() as probe:
                start = time.perf_counter()
                for k, argv in enumerate(job["ops"]):
                    codes.append(_call([*argv, "--out-dir", out_root, "--run-name", f"op{k}"]))
                # samples[0] ran before the clock started; the rest ran inside it
                wall = time.perf_counter() - start - sum(probe.samples[1:])
        ops = [_collect(os.path.join(out_root, f"op{k}"), code) for k, code in enumerate(codes)]
        written = _bytes_under(out_root)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)

    result.update(
        wall_s=wall,
        norm_wall_s=wall * PROBE_REF_S / probe.slice_s(),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        ops=ops,
    )
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(written)
        tracer.write_spans(job["spans_path"], job["rep_id"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
