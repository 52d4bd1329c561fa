"""Linear many-to-one demand field and auto-occupancy bookkeeping.

Travelers originate along the corridor with density q(x) = q0*(1 - x/A) and
all head to the inner end at x = A, so the flow passing location x is the
demand accumulated on [x, A].  A share R of all travelers drives; the rest
ride buses.  A field may stack several operating points: q0 and R are then
1-D arrays aligned with each other, and every profile gains a leading axis
with one row per point.  Auto travelers split further into low- and
high-occupancy vehicles, which yields the average occupancy used to convert
person flows to vehicle flows.  Vehicle volumes themselves, auto and bus, are
built per lane stream in ``costmodel`` from its lane table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import OccupancyParams
from .errors import ValidationError

__all__ = [
    "DemandField",
    "OccupancySplit",
    "density",
    "cumulative_demand",
    "occupancy_split",
]

_MODE_SHARES = ("auto", "bus", "total")


@dataclass(frozen=True)
class DemandField:
    """Demand profile: boundary density q0, length, and auto share R.

    ``q0`` and ``auto_share`` are each a scalar or a 1-D array with one entry
    per operating point; arrays must have the same length.  That rule, with
    q0 finite and >= 0 and R in [0, 1], is the one check of a (q0, R) point
    that every layer runs.
    """

    q0: float | np.ndarray  # pax/hr/mi at x = 0
    length_mi: float
    auto_share: float | np.ndarray  # R

    def __post_init__(self) -> None:
        _operating_point(self.q0, self.auto_share)
        if self.length_mi <= 0:
            raise ValidationError(f"length_mi must be > 0, got {self.length_mi}")


def _operating_point(q0, auto_share) -> tuple[np.ndarray, np.ndarray]:
    """``q0`` and ``auto_share`` as float arrays, once each is checked: a
    scalar or a 1-D array, arrays aligned, q0 finite and >= 0, auto_share in
    [0, 1].  Every layer that takes operating points checks them here."""
    try:
        q0, share = np.asarray(q0, dtype=float), np.asarray(auto_share, dtype=float)
        got = f"shapes {q0.shape} and {share.shape}"
    except (TypeError, ValueError, OverflowError):  # ragged, or not numbers
        got, q0 = f"{q0!r} and {auto_share!r}", None
    if (
        q0 is None or q0.ndim > 1 or share.ndim > 1
        or (q0.ndim and share.ndim and q0.shape != share.shape)
    ):
        raise ValidationError(f"q0 and auto_share must be scalars or aligned 1-D arrays, got {got}")
    bad = ~(np.isfinite(q0) & (q0 >= 0))
    if bad.any():
        raise ValidationError(f"q0 must be finite and >= 0, got {q0[bad][0]}")
    bad = ~((0 <= share) & (share <= 1))  # also NaN
    if bad.any():
        raise ValidationError(f"auto_share must lie in [0, 1], got {share[bad][0]}")
    return q0, share


def _per_point(value, x_arr: np.ndarray):
    """A scalar, or a per-point array shaped to broadcast against positions
    ``x_arr``: one row per point."""
    return value if np.ndim(value) == 0 else np.reshape(value, np.shape(value) + (1,) * x_arr.ndim)


def _check_position(x, length_mi: float):
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < -1e-12) or np.any(x_arr > length_mi * (1 + 1e-12)):
        raise ValidationError(f"position {x!r} falls outside the corridor [0, {length_mi}]")
    return x_arr


def density(field: DemandField, x):
    """Trip-origin density q0*(1 - x/A) in pax/hr/mi; accepts scalars or arrays."""
    x_arr = _check_position(x, field.length_mi)
    out = _per_point(field.q0, x_arr) * (1.0 - x_arr / field.length_mi)
    out = np.maximum(out, 0.0)  # guard the x = A boundary against roundoff
    return float(out) if np.ndim(out) == 0 else out


def cumulative_demand(field: DemandField, mode: str, x):
    """Demand accumulated from x to the corridor end, pax/hr.

    Closed form share * q0 * (A - x)^2 / (2A); ``mode`` selects the share
    (``auto`` -> R, ``bus`` -> 1 - R, ``total`` -> 1).  A stacked field gives
    one row per point.
    """
    if mode not in _MODE_SHARES:
        raise ValidationError(f"mode must be one of {_MODE_SHARES}, got {mode!r}")
    x_arr = _check_position(x, field.length_mi)
    share = {"auto": field.auto_share, "bus": 1.0 - field.auto_share, "total": 1.0}[mode]
    a = field.length_mi
    out = _per_point(share * field.q0, x_arr) * (a - x_arr) ** 2 / (2.0 * a)
    return float(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class OccupancySplit:
    """Traveler-level occupancy shares and the resulting average occupancy."""

    low_fraction: float  # share of auto travelers riding in low-occupancy vehicles
    high_fraction: float
    average_occupancy: float  # pax/veh across the whole auto fleet


def occupancy_split(occ: OccupancyParams) -> OccupancySplit:
    """Convert the vehicle-level mix into traveler fractions and mean occupancy.

    With ``mu`` the low-occupancy share of vehicles, the share of *travelers*
    in low-occupancy vehicles is mu*O_la / (mu*O_la + (1-mu)*O_ha), and the
    average occupancy is the harmonic combination O_la*O_ha / (O_ha*q_l +
    O_la*q_h), which simplifies to the vehicle-weighted mean mu*O_la +
    (1-mu)*O_ha.
    """
    mu, o_low, o_high = occ.low_share, occ.low_occupancy, occ.high_occupancy
    weight = mu * o_low + (1.0 - mu) * o_high
    q_l = mu * o_low / weight
    q_h = 1.0 - q_l
    o_avg = o_low * o_high / (o_high * q_l + o_low * q_h)
    return OccupancySplit(low_fraction=q_l, high_fraction=q_h, average_occupancy=o_avg)
