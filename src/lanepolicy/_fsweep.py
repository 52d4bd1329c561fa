"""Scenario-level moment tables: total cost over a whole (R, F) lattice.

Write a = q0*R and b = q0*(1-R) for the auto and bus demand scales.  The
demand weights along the corridor are a*(1-x/A) and b*(1-x/A), every traffic
volume is affine in (a, F) and the onboard bus load is b times a fixed
profile.  With integer congestion exponents the per-mile times expand
binomially into monomials a^j F^k with scenario-only node profiles, so each
corridor integral is a scenario constant times a monomial in (a, b, F): ride,
round-trip and crowding terms, boardings and fares (with b), auto money
(with a), and the waiting load moment (b^(gamma3 + 1)).  These constants form
one :class:`_MomentTable` per (scenario, policy), built on first use and
kept in a bounded LRU cache.  Only signalized-intersection delay is evaluated
directly, one intersection at a time, from per-intersection constants.

:class:`FrequencySweep` is a cheap view of the table at one q0 and one or
many auto shares.  It reproduces `costmodel.cost_breakdown` totals to
floating-point reordering error (the expansion is algebraically exact); a
property test pins the two paths together.  Non-integer exponents fall back
to per-point evaluation.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .config import Scenario
from .costmodel import Policy, cost_breakdown, intersection_delay, _signal_cost
from .demand import occupancy_split
from .errors import ValidationError
from .numeric import cumulative_values

__all__ = ["FrequencySweep"]

_MAX_POLY_DEGREE = 12


def _time_rows(phi, slope, capacity, t0, alpha, beta) -> np.ndarray:
    """Node rows T[j, k] with per-mile time sum_jk T[j, k] a^j F^k.

    The lane group carries volume a*phi(x) + slope*F on ``capacity``.
    """
    rows = np.zeros((beta + 1, beta + 1, phi.shape[0]))
    scale = t0 * alpha / capacity**beta
    for k in range(beta + 1 if slope else 1):
        rows[beta - k, k] = scale * math.comb(beta, k) * phi ** (beta - k) * slope**k
    rows[0, 0] += t0
    return rows


class _MomentTable(NamedTuple):
    poly: np.ndarray  # C[j, m, k] on a^j b^m F^k
    boardings: float  # per unit b
    load_moment: float  # per unit b^(gamma3 + 1)
    # per lane group at the signals: intersection i carries a*base[i] + slope*F
    # veh/hr on capacity and charges a*pax_a[i] + b*pax_b[i] $/s of delay
    signals: tuple  # of (base, slope, capacity, pax_a, pax_b)


@lru_cache(maxsize=64)
def _moment_table(scenario: Scenario, policy: Policy) -> _MomentTable | None:
    """The (scenario, policy) constants; None when an exponent is not a small integer."""
    geom, bpr, bus, econ, occ = (
        scenario.geometry, scenario.bpr, scenario.bus, scenario.econ, scenario.occupancy
    )
    if not all(
        float(beta).is_integer() and beta <= _MAX_POLY_DEGREE
        for beta in (bpr.beta_auto, bpr.beta_bus)
    ):
        return None
    beta_a, beta_b = int(bpr.beta_auto), int(bpr.beta_bus)
    grid = scenario.grid()
    nodes = grid.nodes
    length = geom.length_mi
    split = occupancy_split(occ)
    upstream = (length - nodes) ** 2 / (2.0 * length)  # demand upstream of x per unit scale
    weights = grid.simpson_weights * (1.0 - nodes / length)  # demand density quadrature
    cap, pce = geom.lane_capacity_vph, bpr.bus_pce
    shared, other = geom.n_lanes * cap, (geom.n_lanes - 1) * cap
    veh = upstream / split.average_occupancy

    # corridor lane groups: bus (phi, slope, capacity) and weighted auto classes
    if policy is Policy.MTP:
        bus_group = (veh, pce, shared)
        auto_groups = [(1.0, veh, pce, shared)]
        per_pax = 1.0 / split.average_occupancy
    elif policy is Policy.EBLP:
        bus_group = (np.zeros_like(nodes), pce, cap)
        auto_groups = [(1.0, veh, 0.0, other)]
        per_pax = 1.0 / split.average_occupancy
    else:
        hov = split.high_fraction * upstream / occ.high_occupancy
        bus_group = (hov, pce, cap)
        auto_groups = [
            (split.low_fraction, split.low_fraction * upstream / occ.low_occupancy, 0.0, other),
            (split.high_fraction, hov, pce, cap),
        ]
        per_pax = split.low_fraction / occ.low_occupancy + split.high_fraction / occ.high_occupancy

    poly = np.zeros((max(beta_a + 1, beta_b) + 1, 4, max(beta_a, beta_b) + 2))
    nb = beta_b + 1
    t_bus = _time_rows(*bus_group, bpr.t0_bus, bpr.alpha_bus, beta_b)
    cum_bus = cumulative_values(t_bus, grid)
    poly[:nb, 1, :nb] += econ.vot_bus * (cum_bus @ weights)
    poly[:nb, 0, 1 : nb + 1] += bus.variable_operating_cost * 2.0 * cum_bus[..., -1]
    # crowding rate quad*Q_bus^2 + lin*Q_bus with Q_bus = b*upstream
    for m, rate, load in ((3, bus.discomfort_quad, upstream**2), (2, bus.discomfort_lin, upstream)):
        poly[:nb, m, :nb] += rate * (cumulative_values(load * t_bus, grid) @ weights)
    for share, phi, slope, capacity in auto_groups:
        t_auto = _time_rows(phi, slope, capacity, bpr.t0_auto, bpr.alpha_auto, beta_a)
        ride = cumulative_values(t_auto, grid) @ weights
        poly[1 : beta_a + 2, 0, : beta_a + 1] += econ.vot_auto * share * ride
    money = econ.auto_fixed_cost + econ.auto_cost_per_mi * nodes
    poly[1, 0, 0] += float(money @ weights) * per_pax
    boardings = float(np.sum(weights))
    poly[0, 1, 0] += bus.fare * boardings
    poly[0, 0, 0] += bus.fixed_operating_cost + _signal_cost(scenario, policy)

    # intersections: arriving volume per lane group, passengers still upstream
    n_inter = geom.n_intersections
    signals: tuple = ()
    if n_inter > 0:
        positions = np.asarray(geom.intersection_positions)
        pax = (length - positions) ** 2 / (2.0 * length)
        if scenario.solver.delay_volume_mode == "segment":
            downstream = positions + length / (n_inter + 1)
            entering = pax - (length - downstream) ** 2 / (2.0 * length)
        else:
            entering = pax
        auto_veh = entering / split.average_occupancy
        slope = pce / (n_inter + 1)
        pax_auto, pax_bus = econ.vot_auto * pax / 3600.0, econ.vot_bus * pax / 3600.0
        zeros = np.zeros(n_inter)
        if policy is Policy.MTP:
            signals = ((auto_veh, slope, shared, pax_auto, pax_bus),)
        elif policy is Policy.EBLP:
            signals = ((zeros, slope, cap, zeros, pax_bus), (auto_veh, 0.0, other, pax_auto, zeros))
        else:
            mu = occ.low_share
            signals = (
                ((1.0 - mu) * auto_veh, slope, cap, split.high_fraction * pax_auto, pax_bus),
                (mu * auto_veh, 0.0, other, split.low_fraction * pax_auto, zeros),
            )

    load_moment = float(upstream**bus.wait_gamma3 @ weights)
    return _MomentTable(poly, boardings, load_moment, signals)


class FrequencySweep:
    """Total cost as a cheap function of frequency at one q0.

    ``auto_share`` is one share or a 1-D array of shares.  Building a sweep
    looks up the (scenario, policy) moment table; :meth:`totals` then prices
    any number of candidate-frequency rows.
    """

    def __init__(self, scenario: Scenario, policy: Policy, q0: float, auto_share):
        self.scenario = scenario
        self.policy = policy
        self.q0 = q0
        self.auto_share = auto_share
        self._shares = np.atleast_1d(np.asarray(auto_share, dtype=float))
        self._table = _moment_table(scenario, policy)

    # -- slow but fully general path ----------------------------------------

    def _fallback_totals(self, f_arr: np.ndarray) -> np.ndarray:
        out = np.full(f_arr.shape, np.nan)
        for i, share in enumerate(self._shares):
            for j, f in enumerate(f_arr[i]):
                if not np.isnan(f):
                    out[i, j] = cost_breakdown(
                        self.scenario, self.policy, self.q0, float(share), float(f)
                    ).total
        return out

    # -- evaluation -----------------------------------------------------------

    def totals(self, f_values) -> np.ndarray:
        """Total system cost ($/hr) at each candidate frequency.

        ``f_values`` is one row shared by every share or an (n_shares, n_F)
        array of per-share rows.  NaN entries pad ragged rows; they are not
        evaluated and come back NaN.  Returns (n_shares, n_F), or one row
        for a scalar share and a 1-D ``f_values``.
        """
        f_arr = np.atleast_1d(np.asarray(f_values, dtype=float))
        if np.any(f_arr <= 0):
            raise ValidationError("frequency candidates must be positive")
        rows = np.broadcast_to(f_arr, (self._shares.size, f_arr.shape[-1]))
        if rows.size == 0:
            out = np.empty(rows.shape)
        elif self._table is None:
            out = self._fallback_totals(rows)
        else:
            out = self._table_totals(rows)
        return out[0] if np.ndim(self.auto_share) == 0 and f_arr.ndim == 1 else out

    def _table_totals(self, f: np.ndarray) -> np.ndarray:
        table = self._table
        bus, econ = self.scenario.bus, self.scenario.econ
        a = self.q0 * self._shares[:, None]
        b = self.q0 * (1.0 - self._shares[:, None])
        j, m, _ = table.poly.shape
        coeffs = np.einsum("rj,rm,jmk->rk", a ** np.arange(j), b ** np.arange(m), table.poly)
        out = np.zeros(f.shape)
        for k in range(coeffs.shape[1] - 1, -1, -1):
            out = out * f + coeffs[:, k : k + 1]
        waiting = bus.wait_gamma1 * table.boardings * b / f + (
            bus.wait_gamma2
            * table.load_moment
            * b ** (bus.wait_gamma3 + 1.0)
            / (bus.capacity_pax * f) ** bus.wait_gamma3
            / f
        )
        out += econ.vot_wait * waiting
        # one (n_shares, n_F) array per intersection keeps the temporaries small
        for base, slope, capacity, pax_a, pax_b in table.signals:
            for i in range(base.shape[0]):
                arriving = base[i] * a + slope * f if slope else base[i] * a
                seconds = intersection_delay(self.scenario.signal, arriving, capacity)
                out += (pax_a[i] * a + pax_b[i] * b) * seconds
        return out
