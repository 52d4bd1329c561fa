"""Node-level reference evaluation of the four cost components.

The library prices every cost from the moment table (``lanepolicy._fsweep``).
This module prices the same physics the other way: it tabulates each node
profile of ``lanepolicy.costmodel`` (travel times, line haul, waiting,
crowding, the disutilities and signal delay) at the grid nodes of one
operating point, or of a stack of them, and contracts the profiles into the
corridor integrals.  Tests hold the table to it at rounding tolerance;
``_oracle.py`` is the coarser, independent trapezoid check.

:func:`breakdowns` is ``FrequencySweep.breakdowns`` written one term at a
time, the form the vectorised method must match float for float.
"""

from __future__ import annotations

import numpy as np

from lanepolicy._fsweep import _DELAY_BLOCK, _candidates, _kernel_terms, _paid
from lanepolicy.costmodel import (
    _COMPONENTS,
    CostBreakdown,
    EvaluationContext,
    Policy,
    _context,
    _loads,
    _payer,
    _rates,
    build_context,
    bus_disutility,
    intersection_delay,
    line_haul_time,
    mean_auto_disutility,
    total_intersection_delay,
)
from lanepolicy.demand import _per_point
from lanepolicy.errors import UndefinedServiceError
from lanepolicy.numeric import _overflow_unwarned, integrate_values


def _subset(ctx: EvaluationContext, keep: np.ndarray) -> EvaluationContext:
    """A fresh context over the stacked points where ``keep`` is true."""
    def pick(value):
        return value if np.ndim(value) == 0 else value[keep]

    return _context(ctx.scenario, pick(ctx.q0), pick(ctx.auto_share), pick(ctx.frequency))


def _user_cost(ctx: EvaluationContext, policy: Policy, mode: str):
    """Hourly cost to one mode's travelers: generalized trip costs over the
    corridor plus the value of their signal delay; 0 at a point without
    travelers of the mode."""
    share = ctx.auto_share if mode == "auto" else 1.0 - ctx.auto_share
    weight = _per_point(share * ctx.q0, ctx.grid.nodes) * _loads(ctx.scenario, policy).origins
    present = weight.any(axis=-1)
    if not present.any():
        return 0.0
    if not present.all():  # price the points with travelers of this mode alone
        out = np.zeros(present.shape)
        out[present] = _user_cost(_subset(ctx, present), policy, mode)
        return out
    disutility = bus_disutility if mode == "bus" else mean_auto_disutility
    in_corridor = integrate_values(disutility(ctx, policy) * weight, ctx.grid)
    delay = _rates(ctx.scenario, policy).delay[mode] * total_intersection_delay(ctx, policy, mode)
    return in_corridor + delay


@_overflow_unwarned
def components(ctx: EvaluationContext, policy: Policy):
    """The four cost components in ``_COMPONENTS`` order, unchecked: each
    mode's user cost, the operator's round trips and each fixed cost, each in
    the component ``costmodel._payer`` names."""
    if np.any((np.asarray(ctx.frequency) == 0) & ((1.0 - ctx.auto_share) * ctx.q0 > 0)):
        raise UndefinedServiceError(
            "bus demand is positive but frequency is zero; waiting time is undefined"
        )
    rates = _rates(ctx.scenario, policy)
    out = dict.fromkeys(_COMPONENTS, 0.0)
    for mode in ("bus", "auto"):
        out[_payer(mode)] = _user_cost(ctx, policy, mode)
    line_haul = line_haul_time(ctx, policy, "bus")[..., -1]
    out[_payer("bus_operator")] = rates.round_trip * line_haul * ctx.frequency
    for key, value in rates.fixed.items():
        out[_payer(key)] = out[_payer(key)] + value
    return tuple(out[name] for name in _COMPONENTS)


def cost_breakdown(scenario, policy: Policy, q0: float, auto_share: float, frequency: float):
    """The reference :class:`CostBreakdown` at one (q0, R, F) point."""
    return CostBreakdown(*components(build_context(scenario, q0, auto_share, frequency), policy))


def cost_breakdowns(scenario, policy: Policy, q0, auto_share, frequency) -> list[CostBreakdown]:
    """The reference breakdown at each of a 1-D array of operating points,
    priced as one stacked context; each row is its one-point case's."""
    points = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (q0, auto_share, frequency)))
    values = components(_context(scenario, *points), policy)
    rows = zip(*(np.broadcast_to(value, points[0].shape) for value in values))
    return [CostBreakdown(*row) for row in rows]


@_overflow_unwarned
def breakdowns(sweep, f_values) -> np.ndarray:
    """``sweep.breakdowns(f_values)`` one term at a time: each of ``poly``'s
    tagged coefficients, each kernel column and each signal column is added
    to its tag's row in table order, then each tag's row to the component
    that pays it."""
    a, b, f = np.broadcast_arrays(
        sweep._q0s * sweep._shares, sweep._q0s * (1.0 - sweep._shares),
        np.asarray(f_values, dtype=float),
    )
    waits = (f != 0) | (b != 0)
    _candidates(f[waits])
    table = sweep._table
    by_tag = np.zeros((len(table.tags), f.size))
    scales = [x[:, None] ** np.arange(n) for x, n in zip((a, b, f), table.poly.shape)]
    for (t, j, m, k), value in zip(table.part_cells, table.part_values):
        scale = scales[0][:, j] * scales[1][:, m] * scales[2][:, k]
        scale[np.isnan(scale)] = 0.0  # an overflowed power times a zero one: no one pays
        by_tag[t] += _paid(value, scale)
    for group in table.kernels:
        for t, term in zip(group.tags, _kernel_terms(group, a, b, f, group.kernels).T):
            by_tag[t] += term
    wait, delay_a, delay_b = table.pay_tags
    by_tag[wait, waits] += sweep._waiting(b[waits], f[waits])
    step = max(1, _DELAY_BLOCK // max(1, f.size))
    for start in range(0, table.signals.shape[1], step):
        base, slope, capacity, pax_a, pax_b = table.signals[:, start : start + step, None]
        seconds = intersection_delay(sweep.scenario.signal, base * a + slope * f, capacity)
        for t, pax, demand in ((delay_a, pax_a, a), (delay_b, pax_b, b)):
            for term in _paid(seconds, _paid(pax, demand)):  # delay no one pays adds 0
                by_tag[t] += term
    out = np.zeros((f.size, len(_COMPONENTS)))
    for (_, who), row in zip(table.tags, by_tag):
        out[:, _COMPONENTS.index(_payer(who))] += row
    return out
