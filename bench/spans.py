"""Span tracer for the benchmark's traced run.

``install`` wraps the public functions of each ``lanepolicy`` layer at
every module that holds them by name, so calls made through ``from x
import f`` are caught as well.  Each call records one span (name, start,
end, parent span) in memory; ``layer_metrics`` turns the spans and a few
counts taken at the same boundaries into the per-layer metrics, and
``write_spans`` writes the spans out when the repetition ends.

Nothing here is imported by an untraced repetition.
"""

from __future__ import annotations

import functools
import gzip
import json
import statistics
import sys
import time

# (defining module, attribute, span name).  Span names drop the leading
# underscore of private modules so they are valid metric names.
FUNCTIONS = (
    ("lanepolicy.cli", "main", "cli.main"),
    ("lanepolicy.config", "load_scenario", "config.load_scenario"),
    ("lanepolicy.threshold", "cost_curve", "threshold.cost_curve"),
    ("lanepolicy.threshold", "find_threshold", "threshold.find_threshold"),
    ("lanepolicy.threshold", "policy_regions", "threshold.policy_regions"),
    ("lanepolicy.scheduler", "evaluate_trajectory", "scheduler.evaluate_trajectory"),
    ("lanepolicy.scheduler", "build_schedule", "scheduler.build_schedule"),
    ("lanepolicy.stochastic", "simulate", "stochastic.simulate"),
    ("lanepolicy.optimizer", "optimize_policy", "optimizer.optimize_policy"),
    ("lanepolicy.optimizer", "optimize_frequency", "optimizer.optimize_frequency"),
    ("lanepolicy.optimizer", "foc_residual", "optimizer.foc_residual"),
    ("lanepolicy.optimizer", "equilibrium_gap", "optimizer.equilibrium_gap"),
    ("lanepolicy.costmodel", "cost_breakdown", "costmodel.cost_breakdown"),
    ("lanepolicy.costmodel", "build_context", "costmodel.build_context"),
    ("lanepolicy.numeric", "cumulative_values", "numeric.cumulative_values"),
    ("lanepolicy.numeric", "find_root", "numeric.find_root"),
    ("lanepolicy.demand", "cumulative_demand", "demand.cumulative_demand"),
)

# (class, method, span name) on lanepolicy._fsweep.FrequencySweep; patching
# the class reaches every module that imported it.
METHODS = (
    ("__init__", "fsweep.build"),
    ("totals", "fsweep.totals"),
    ("_fallback_totals", "fsweep.fallback"),
)

# (name, unit, better) of every per-layer metric, in report order.
LAYER_METRICS = (
    ("fsweep.build.calls", "count", "lower"),
    ("fsweep.build.self_s", "s", "lower"),
    ("fsweep.totals.calls", "count", "lower"),
    ("fsweep.totals.self_s", "s", "lower"),
    ("fsweep.points", "count", "lower"),
    ("fsweep.ns_per_point", "ns", "lower"),
    ("fsweep.fallback_points", "count", "lower"),
    ("optimizer.optimize_policy.calls", "count", "lower"),
    ("optimizer.optimize_policy.cold", "count", "lower"),
    ("optimizer.cache_hit_ratio", "ratio", "higher"),
    ("optimizer.cold_p50_ms", "ms", "lower"),
    ("optimizer.cold_p90_ms", "ms", "lower"),
    ("optimizer.optimize_frequency.calls", "count", "lower"),
    ("optimizer.optimize_frequency.infeasible", "count", "lower"),
    ("optimizer.split_feasible_ratio", "ratio", "higher"),
    ("optimizer.freq_calls_per_optimum", "count", "lower"),
    ("optimizer.optimize_frequency.self_s", "s", "lower"),
    ("optimizer.foc_residual.self_s", "s", "lower"),
    ("optimizer.equilibrium_gap.self_s", "s", "lower"),
    ("threshold.cost_curve.self_s", "s", "lower"),
    ("threshold.find_threshold.calls", "count", "lower"),
    ("threshold.find_threshold.self_s", "s", "lower"),
    ("threshold.policy_regions.self_s", "s", "lower"),
    ("numeric.find_root.calls", "count", "lower"),
    ("scheduler.steps", "count", "lower"),
    ("scheduler.distinct_buckets", "count", "lower"),
    ("scheduler.bucket_reuse_ratio", "ratio", "higher"),
    ("scheduler.evaluate_trajectory.self_s", "s", "lower"),
    ("scheduler.build_schedule.self_s", "s", "lower"),
    ("stochastic.simulate.self_s", "s", "lower"),
    ("costmodel.cost_breakdown.calls", "count", "lower"),
    ("costmodel.cost_breakdown.self_s", "s", "lower"),
    ("costmodel.cost_breakdown.p50_us", "us", "lower"),
    ("costmodel.cost_breakdown.p90_us", "us", "lower"),
    ("costmodel.build_context.calls", "count", "lower"),
    ("numeric.cumulative_values.calls", "count", "lower"),
    ("numeric.cumulative_values.self_s", "s", "lower"),
    ("demand.cumulative_demand.calls", "count", "lower"),
    ("demand.cumulative_demand.self_s", "s", "lower"),
    ("config.load_scenario.calls", "count", "lower"),
    ("config.load_scenario.self_s", "s", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.bytes_written", "bytes", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


class Tracer:
    """In-memory spans plus the counts taken at the wrapped boundaries.

    A span is ``[name, start_ns, end_ns, parent_index, note]``; ``note``
    holds the exception type that ended the call, or ``"cold"``/``"hit"``
    for memoized optima.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.points = 0  # frequency candidates passed to FrequencySweep.totals
        self.fallback_points = 0
        self.steps = 0  # trajectory samples passed to evaluate_trajectory
        self.optimum_q0: set[float] = set()
        self.cache_info = None  # set by install: the optimizer memo's cache_info

    def wrap(self, name: str, fn, hook=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(args, kwargs)
            span = [name, clock(), 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = type(exc).__name__
                raise
            finally:
                stack.pop()
                span[2] = clock()

        return wrapper

    def wrap_memo(self, name: str, cached):
        """Span around the optimizer's memoized function, noting cold or hit."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        info = cached.cache_info

        def wrapper(*args, **kwargs):
            misses = info().misses
            span = [name, clock(), 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                return cached(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
                span[4] = "cold" if info().misses > misses else "hit"

        return wrapper

    # -- hooks: counts taken where the work is handed over --------------------

    def _count_points(self, args, kwargs) -> None:
        self.points += _size(args[1] if len(args) > 1 else kwargs["f_values"])

    def _count_fallback(self, args, kwargs) -> None:
        self.fallback_points += _size(args[1] if len(args) > 1 else kwargs["f_arr"])

    def _count_steps(self, args, kwargs) -> None:
        traj = args[1] if len(args) > 1 else kwargs["traj"]
        self.steps += len(traj.values)

    def _note_q0(self, args, kwargs) -> None:
        self.optimum_q0.add(float(args[2] if len(args) > 2 else kwargs["q0"]))

    # -- results ----------------------------------------------------------------

    def self_times(self) -> dict[str, list[int]]:
        """Per span name: [calls, inclusive ns, self ns]."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, list[int]] = {}
        for k, (name, start, end, _, _) in enumerate(self.spans):
            row = out.setdefault(name, [0, 0, 0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child_ns[k]
        return out

    def durations(self, name: str, note=None) -> list[int]:
        return [
            end - start
            for span_name, start, end, _, span_note in self.spans
            if span_name == name and (note is None or span_note == note)
        ]

    def layer_metrics(self, bytes_written: int) -> dict[str, float]:
        """Every per-layer metric except ``trace.overhead_ratio``."""
        table = self.self_times()

        def calls(name: str) -> int:
            return table.get(name, [0, 0, 0])[0]

        def self_s(name: str) -> float:
            return table.get(name, [0, 0, 0])[2] / 1e9

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        def pct(values: list[int], q: int) -> float:
            if not values:
                return 0.0
            if len(values) == 1:
                return float(values[0])
            return statistics.quantiles(values, n=100, method="inclusive")[q - 1]

        info = self.cache_info()
        cold = self.durations("optimizer.optimum", "cold")
        breakdown = self.durations("costmodel.cost_breakdown")
        freq_calls = calls("optimizer.optimize_frequency")
        infeasible = sum(
            1
            for name, _, _, _, note in self.spans
            if name == "optimizer.optimize_frequency" and note == "InfeasibleError"
        )
        totals_ns = table.get("fsweep.totals", [0, 0, 0])[1]
        distinct = len(self.optimum_q0) if self.steps else 0
        values = {
            "fsweep.build.calls": calls("fsweep.build"),
            "fsweep.build.self_s": self_s("fsweep.build"),
            "fsweep.totals.calls": calls("fsweep.totals"),
            "fsweep.totals.self_s": self_s("fsweep.totals"),
            "fsweep.points": self.points,
            "fsweep.ns_per_point": ratio(totals_ns, self.points),
            "fsweep.fallback_points": self.fallback_points,
            "optimizer.optimize_policy.calls": calls("optimizer.optimize_policy"),
            "optimizer.optimize_policy.cold": info.misses,
            "optimizer.cache_hit_ratio": ratio(info.hits, info.hits + info.misses),
            "optimizer.cold_p50_ms": pct(cold, 50) / 1e6,
            "optimizer.cold_p90_ms": pct(cold, 90) / 1e6,
            "optimizer.optimize_frequency.calls": freq_calls,
            "optimizer.optimize_frequency.infeasible": infeasible,
            "optimizer.split_feasible_ratio": ratio(freq_calls - infeasible, freq_calls),
            "optimizer.freq_calls_per_optimum": ratio(freq_calls, info.misses),
            "optimizer.optimize_frequency.self_s": self_s("optimizer.optimize_frequency"),
            "optimizer.foc_residual.self_s": self_s("optimizer.foc_residual"),
            "optimizer.equilibrium_gap.self_s": self_s("optimizer.equilibrium_gap"),
            "threshold.cost_curve.self_s": self_s("threshold.cost_curve"),
            "threshold.find_threshold.calls": calls("threshold.find_threshold"),
            "threshold.find_threshold.self_s": self_s("threshold.find_threshold"),
            "threshold.policy_regions.self_s": self_s("threshold.policy_regions"),
            "numeric.find_root.calls": calls("numeric.find_root"),
            "scheduler.steps": self.steps,
            "scheduler.distinct_buckets": distinct,
            "scheduler.bucket_reuse_ratio": ratio(self.steps, distinct),
            "scheduler.evaluate_trajectory.self_s": self_s("scheduler.evaluate_trajectory"),
            "scheduler.build_schedule.self_s": self_s("scheduler.build_schedule"),
            "stochastic.simulate.self_s": self_s("stochastic.simulate"),
            "costmodel.cost_breakdown.calls": calls("costmodel.cost_breakdown"),
            "costmodel.cost_breakdown.self_s": self_s("costmodel.cost_breakdown"),
            "costmodel.cost_breakdown.p50_us": pct(breakdown, 50) / 1e3,
            "costmodel.cost_breakdown.p90_us": pct(breakdown, 90) / 1e3,
            "costmodel.build_context.calls": calls("costmodel.build_context"),
            "numeric.cumulative_values.calls": calls("numeric.cumulative_values"),
            "numeric.cumulative_values.self_s": self_s("numeric.cumulative_values"),
            "demand.cumulative_demand.calls": calls("demand.cumulative_demand"),
            "demand.cumulative_demand.self_s": self_s("demand.cumulative_demand"),
            "config.load_scenario.calls": calls("config.load_scenario"),
            "config.load_scenario.self_s": self_s("config.load_scenario"),
            "cli.main.calls": calls("cli.main"),
            "cli.main.self_s": self_s("cli.main"),
            "cli.bytes_written": bytes_written,
        }
        return {name: float(value) for name, value in values.items()}

    def write_spans(self, path: str, rep_id: str) -> None:
        """Write every span as one JSON line (gzip), with the repetition id."""
        with gzip.open(path, "wt") as handle:
            for k, (name, start, end, parent, note) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {"id": k, "name": name, "start_ns": start, "end_ns": end,
                         "parent": parent, "note": note, "rep": rep_id}
                    )
                )
                handle.write("\n")


def _size(values) -> int:
    return int(getattr(values, "size", None) or len(values))


def _replace_everywhere(original, wrapper) -> None:
    """Rebind every ``lanepolicy`` module attribute that holds ``original``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (
            module_name == "lanepolicy" or module_name.startswith("lanepolicy.")
        ):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install() -> Tracer:
    """Import every layer and wrap its public functions; returns the tracer."""
    import importlib

    tracer = Tracer()
    hooks = {
        "optimizer.optimize_policy": tracer._note_q0,
        "scheduler.evaluate_trajectory": tracer._count_steps,
    }
    for module_name, attr, name in FUNCTIONS:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        _replace_everywhere(original, tracer.wrap(name, original, hooks.get(name)))

    fsweep = importlib.import_module("lanepolicy._fsweep")
    method_hooks = {"fsweep.totals": tracer._count_points, "fsweep.fallback": tracer._count_fallback}
    for attr, name in METHODS:
        original = getattr(fsweep.FrequencySweep, attr)
        setattr(fsweep.FrequencySweep, attr, tracer.wrap(name, original, method_hooks.get(name)))

    optimizer = importlib.import_module("lanepolicy.optimizer")
    cached = optimizer._optimize_policy_cached
    tracer.cache_info = cached.cache_info
    optimizer._optimize_policy_cached = tracer.wrap_memo("optimizer.optimum", cached)
    return tracer
