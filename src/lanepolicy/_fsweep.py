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
kept in a bounded LRU cache.  The lane streams and the signage cost come
from :data:`~lanepolicy.costmodel.LANE_TABLE`.  Only signalized-intersection
delay is evaluated directly, in one ``intersection_delay`` call over one
column of constants per (lane stream, intersection).

:class:`FrequencySweep` is a cheap view of the table at one or many auto
shares, each at one q0 or at its own.  It reproduces
`costmodel.cost_breakdown` totals to floating-point reordering error (the
expansion is algebraically exact); a property test pins the two paths
together.  Non-integer exponents have no table; their sweeps price each
share's candidates with :func:`~lanepolicy.costmodel.cost_totals`, a block
of frequencies at a time.

:meth:`FrequencySweep.row_minima` prices signal delay only where its value
at F = 0, a lower bound, does not exceed the row's best priced total.  Delay
never falls as bus volume rises: for every X >= 0 the uniform term rises through
min(1, X), and for every s = 8*k*I/(c*T) > 0 the overflow term's slope
1 + (X - 1 + s/2)/sqrt((X - 1)^2 + s*X) is >= 0.  Without a table it scans totals.

:meth:`FrequencySweep.lower_bounds` bounds a whole share row from below over
a frequency range cut into :data:`_BOUND_BLOCKS` blocks, so a caller can drop
shares that cannot win before pricing any of their candidates.  On a block
[x0, x1] each monomial c*F^k is monotone for F > 0, so min(c*x0^k, c*x1^k)
bounds it whatever the sign of c; both waiting terms fall as F rises (config
keeps gamma1, gamma2, gamma3 > 0 and vot_wait >= 0, and b >= 0), so their
value at x1 bounds them; delay is bounded by its F = 0 column as above.
:meth:`FrequencySweep.subset` is a view of some rows that reuses the share
terms, so it prices every candidate to the same float as the whole sweep.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .config import Scenario
from .costmodel import LANE_TABLE, Policy, cost_totals, intersection_delay, signal_auto_pax
from .demand import DemandField
from .errors import ValidationError
from .numeric import cumulative_values

__all__ = ["FrequencySweep"]

_MAX_POLY_DEGREE = 12
_F_BLOCK = 32  # frequencies per cost_totals call on the table-less path
_DELAY_BLOCK = 1 << 18  # delay terms per intersection_delay call, to bound temporaries
_BOUND_BLOCKS = 8  # frequency blocks per row in FrequencySweep.lower_bounds


def _scan_rows(candidates: np.ndarray, values: np.ndarray):
    """Per row, the first minimum over finite values (smallest argument on
    ties); cost inf for a row with no finite value.  Overwrites every
    non-finite entry of ``values`` with inf."""
    values[~np.isfinite(values)] = np.inf
    k = np.argmin(values, axis=1)
    rows = np.arange(k.shape[0])
    return candidates[rows, k], values[rows, k]


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
    # rows base, slope, capacity, pax_a, pax_b; one column per (stream, intersection):
    # a*base + slope*F veh/hr arrive on capacity and pay a*pax_a + b*pax_b $/s of delay
    signals: np.ndarray


@lru_cache(maxsize=64)
def _moment_table(scenario: Scenario, policy: Policy) -> _MomentTable | None:
    """The (scenario, policy) constants; None when an exponent is not a small integer."""
    geom, bpr, bus, econ = scenario.geometry, scenario.bpr, scenario.bus, scenario.econ
    if not all(
        float(beta).is_integer() and beta <= _MAX_POLY_DEGREE
        for beta in (bpr.beta_auto, bpr.beta_bus)
    ):
        return None
    beta_a, beta_b = int(bpr.beta_auto), int(bpr.beta_bus)
    grid = scenario.grid()
    nodes = grid.nodes
    length = geom.length_mi
    upstream = (length - nodes) ** 2 / (2.0 * length)  # demand upstream of x per unit scale
    weights = grid.simpson_weights * (1.0 - nodes / length)  # demand density quadrature
    pce = bpr.bus_pce
    lanes = LANE_TABLE[policy](scenario)
    streams = lanes.streams
    # corridor lane groups: a*phi(x) + slope*F veh/hr on capacity
    groups = [(s.vehicles(upstream), pce if s.buses else 0.0, s.capacity) for s in streams]
    bus_group = next(g for g, s in zip(groups, streams) if s.buses)
    per_pax = sum(share / occupancy for s in streams for _, share, occupancy in s.autos)

    poly = np.zeros((max(beta_a + 1, beta_b) + 1, 4, max(beta_a, beta_b) + 2))
    nb = beta_b + 1
    t_bus = _time_rows(*bus_group, bpr.t0_bus, bpr.alpha_bus, beta_b)
    cum_bus = cumulative_values(t_bus, grid)
    poly[:nb, 1, :nb] += econ.vot_bus * (cum_bus @ weights)
    poly[:nb, 0, 1 : nb + 1] += bus.variable_operating_cost * 2.0 * cum_bus[..., -1]
    # crowding rate quad*Q_bus^2 + lin*Q_bus with Q_bus = b*upstream
    for m, rate, load in ((3, bus.discomfort_quad, upstream**2), (2, bus.discomfort_lin, upstream)):
        poly[:nb, m, :nb] += rate * (cumulative_values(load * t_bus, grid) @ weights)
    for group, s in zip(groups, streams):
        for _, share, _ in s.autos:
            t_auto = _time_rows(*group, bpr.t0_auto, bpr.alpha_auto, beta_a)
            ride = cumulative_values(t_auto, grid) @ weights
            poly[1 : beta_a + 2, 0, : beta_a + 1] += econ.vot_auto * share * ride
    money = econ.auto_fixed_cost + econ.auto_cost_per_mi * nodes
    poly[1, 0, 0] += float(money @ weights) * per_pax
    boardings = float(np.sum(weights))
    poly[0, 1, 0] += bus.fare * boardings
    poly[0, 0, 0] += bus.fixed_operating_cost + lanes.signage

    # intersections: arriving volume per lane group, passengers still upstream
    pax = (length - np.asarray(geom.intersection_positions)) ** 2 / (2.0 * length)
    entering = signal_auto_pax(scenario, DemandField(q0=1.0, length_mi=length, auto_share=1.0))
    slope = pce / (geom.n_intersections + 1)
    pax_auto, pax_bus = econ.vot_auto * pax / 3600.0, econ.vot_bus * pax / 3600.0
    signals = np.hstack([
        np.vstack(np.broadcast_arrays(
            s.vehicles(entering), slope if s.buses else 0.0, s.capacity,
            sum(share for _, share, _ in s.autos) * pax_auto, pax_bus if s.buses else 0.0,
        ))
        for s in streams
    ])
    load_moment = float(upstream**bus.wait_gamma3 @ weights)
    return _MomentTable(poly, boardings, load_moment, signals)


class FrequencySweep:
    """Total cost as a cheap function of frequency at fixed (q0, R) rows.

    ``auto_share`` is one share or a 1-D array of shares; ``q0`` is one
    density for every share or an array of the same shape, one per share.
    Building a sweep looks up the (scenario, policy) moment table;
    :meth:`totals` then prices any number of candidate-frequency rows.
    """

    def __init__(self, scenario: Scenario, policy: Policy, q0, auto_share):
        self.scenario = scenario
        self.policy = policy
        self.q0 = q0
        self.auto_share = auto_share
        self._shares = np.atleast_1d(np.asarray(auto_share, dtype=float))
        densities = np.asarray(q0, dtype=float)
        if densities.ndim and densities.shape != np.shape(auto_share):
            raise ValidationError(
                f"q0 has shape {densities.shape}, auto_share {np.shape(auto_share)}"
            )
        if not (np.isfinite(densities) & (densities >= 0)).all():
            raise ValidationError(f"q0 must be finite and >= 0, got {q0}")
        self._q0s = np.full(self._shares.shape, densities)
        self._table = _moment_table(scenario, policy)
        self.priced = 0  # candidates row_minima has priced in full

    # -- slow but fully general path ----------------------------------------

    def _fallback_totals(self, f_arr: np.ndarray) -> np.ndarray:
        out = np.full(f_arr.shape, np.nan)
        for i, (q0, share) in enumerate(zip(self._q0s, self._shares)):
            real = np.flatnonzero(~np.isnan(f_arr[i]))
            for start in range(0, real.size, _F_BLOCK):
                cols = real[start : start + _F_BLOCK]
                out[i, cols] = cost_totals(
                    self.scenario, self.policy, float(q0), float(share), f_arr[i, cols]
                )
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
            out = self._add_signals(*self._base(rows), rows)
        return out[0] if np.ndim(self.auto_share) == 0 and f_arr.ndim == 1 else out

    def row_minima(self, rows: np.ndarray):
        """Each row's first minimum of :meth:`totals` over NaN-padded (n_shares,
        n_F) rows as (frequencies, costs); cost inf where nothing is finite."""
        rows = np.asarray(rows, dtype=float)
        if self._table is None:
            self.priced += np.count_nonzero(~np.isnan(rows))
            return _scan_rows(rows, self.totals(rows))
        if np.any(rows <= 0):
            raise ValidationError("frequency candidates must be positive")
        # Whole-lattice arrays are updated in place: fresh temporaries of this
        # size cost more in page faults than their arithmetic.
        a, b, base = self._base(rows)
        lower = base + self._share_terms[3]  # delay cost at F = 0 bounds it below
        padding = np.isnan(lower)
        lower[padding] = np.inf
        r = np.arange(rows.shape[0])
        k = np.argmin(lower, axis=1)
        upper = self._add_signals(a[:, 0], b[:, 0], base[r, k], rows[r, k])
        keep = lower <= (upper + 1e-12 * np.abs(upper))[:, None]  # rounding slack
        keep[padding] = False
        keep[r, k] = False
        ri, ci = np.nonzero(keep)
        values = lower
        values.fill(np.inf)
        values[r, k] = upper
        if ri.size:
            values[ri, ci] = self._add_signals(a[ri, 0], b[ri, 0], base[ri, ci], rows[ri, ci])
        self.priced += np.count_nonzero(~np.isnan(rows[r, k])) + ri.size
        return _scan_rows(rows, values)

    def lower_bounds(self, lo, hi):
        """Each row's lower bound on :meth:`totals` at every F in [lo, hi],
        the least over equal blocks [x0, x1] of the monomials' smaller end
        values, waiting at x1 and delay at F = 0 (see the module docstring).
        ``lo`` and ``hi`` are positive scalars or one value per row.  None
        without a table."""
        if self._table is None:
            return None
        _, b, coeffs, delay = self._share_terms
        edges = np.linspace(
            np.broadcast_to(lo, delay.shape[:1]), np.broadcast_to(hi, delay.shape[:1]),
            _BOUND_BLOCKS + 1, axis=1,
        )
        out = self._waiting(b, edges[:, 1:])
        for k in range(coeffs.shape[1]):
            monomial = coeffs[:, k : k + 1] * edges**k
            out += np.minimum(monomial[:, :-1], monomial[:, 1:])
        return np.min(out, axis=1) + delay[:, 0]

    def subset(self, index) -> FrequencySweep:
        """The sweep at some of its rows (an index array or a boolean mask).
        The view reuses this sweep's share terms, so it prices every candidate
        to the same float."""
        view = FrequencySweep(self.scenario, self.policy, self._q0s[index], self._shares[index])
        if self._table is not None:
            view._share_terms = tuple(term[index] for term in self._share_terms)
        return view

    @cached_property
    def _share_terms(self):
        """Share columns a, b, their coefficients in F and their delay cost at F = 0."""
        q0, shares = self._q0s[:, None], self._shares[:, None]
        a, b = q0 * shares, q0 * (1.0 - shares)
        j, m, _ = self._table.poly.shape
        coeffs = np.einsum("rj,rm,jmk->rk", a ** np.arange(j), b ** np.arange(m), self._table.poly)
        return a, b, coeffs, self._add_signals(a, b, np.zeros(a.shape), 0.0)

    def _waiting(self, b, f: np.ndarray) -> np.ndarray:
        """Waiting cost vot_wait * (g1*boardings*b/f + g2*load*b^(g3+1) /
        (capacity*f)^g3 / f) at bus demand column b on rows f; at most two
        arrays of f's size at a time."""
        table = self._table
        bus = self.scenario.bus
        waiting = bus.wait_gamma1 * table.boardings * b / f
        crowded = bus.capacity_pax * f
        crowded **= bus.wait_gamma3
        load = bus.wait_gamma2 * table.load_moment * b ** (bus.wait_gamma3 + 1.0)
        np.divide(load, crowded, out=crowded)
        crowded /= f
        waiting += crowded
        del crowded
        waiting *= self.scenario.econ.vot_wait
        return waiting

    def _base(self, f: np.ndarray):
        """Share columns a, b and the totals without signal delay on rows f."""
        a, b, coeffs, _ = self._share_terms
        waiting = self._waiting(b, f)
        out = np.zeros(f.shape)
        for k in range(coeffs.shape[1] - 1, -1, -1):
            out *= f
            out += coeffs[:, k : k + 1]
        out += waiting
        return a, b, out

    def _add_signals(self, a, b, out: np.ndarray, f) -> np.ndarray:
        """``out`` plus each signal column's delay cost, added in table order."""
        signals = self._table.signals[(...,) + (None,) * out.ndim]
        step = max(1, _DELAY_BLOCK // max(1, out.size))
        for start in range(0, signals.shape[1], step):
            base, slope, capacity, pax_a, pax_b = signals[:, start : start + step]
            seconds = intersection_delay(self.scenario.signal, base * a + slope * f, capacity)
            for term in (pax_a * a + pax_b * b) * seconds:
                out += term
        return out
