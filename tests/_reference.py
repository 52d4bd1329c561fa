"""Node-level reference evaluation of the four cost components.

The library prices every cost from the moment table (``lanepolicy._fsweep``).
This module prices the same physics the other way: it tabulates each node
profile of ``lanepolicy.costmodel`` (travel times, line haul, waiting,
crowding, the disutilities and signal delay) at the grid nodes of one
operating point, or of a stack of them, and contracts the profiles into the
corridor integrals.  Tests hold the table to it at rounding tolerance;
``_oracle.py`` is the coarser, independent trapezoid check.
"""

from __future__ import annotations

import numpy as np

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
