"""Scenario-level moment tables: total cost over a whole (R, F) lattice.

Write a = q0*R and b = q0*(1-R) for the auto and bus demand scales.  The
demand weights along the corridor are a*(1-x/A) and b*(1-x/A), every traffic
volume is affine in (a, F) and the onboard bus load is b times a fixed
profile.  With integer congestion exponents up to :data:`_MAX_POLY_DEGREE`
the per-mile times expand binomially into monomials a^j F^k with
scenario-only node profiles, so each corridor integral is a scenario
constant times a monomial in (a, b, F): ride, round-trip and crowding terms,
boardings and fares (with b), auto money (with a), and the waiting load
moment (b^(gamma3 + 1)).  These constants form
one :class:`_MomentTable` per (scenario, policy), built on first use and
kept in a bounded LRU cache.  The lane streams and the signage cost come
from :data:`~lanepolicy.costmodel.LANE_TABLE`.  Only signalized-intersection
delay is evaluated directly, in one ``intersection_delay`` call over one
column of constants per (lane stream, intersection).

Any other exponent keeps only its free-flow time in the monomials.  Each
corridor integral is linear in the node profile t, ``cumulative_values(t,
grid) @ weights == t @ cumulative_kernel(weights, grid)``, so its congestion
terms are the BPR power profile at (a, F) contracted with scenario kernels
(:class:`_KernelGroup`): once per share for a lane group without buses,
once per candidate for one with them.

:class:`FrequencySweep` is a cheap view of the table at one or many auto
shares, each at one q0 or at its own.  It reproduces
`costmodel.cost_breakdown` totals to floating-point reordering error (the
expansion and the kernels are algebraically exact); property tests pin the
two paths together.

:meth:`FrequencySweep.row_minima` prices signal delay only where its value
at F = 0, a lower bound, does not exceed the row's best priced total.  Delay
never falls as bus volume rises: for every X >= 0 the uniform term rises through
min(1, X), and for every s = 8*k*I/(c*T) > 0 the overflow term's slope
1 + (X - 1 + s/2)/sqrt((X - 1)^2 + s*X) is >= 0.

:meth:`FrequencySweep.lower_bounds` bounds a whole share row from below over
a frequency range cut into :data:`_BOUND_BLOCKS` blocks, so a caller can drop
shares that cannot win before pricing any of their candidates.  On a block
[x0, x1] each monomial c*F^k is monotone for F > 0, so min(c*x0^k, c*x1^k)
bounds it whatever the sign of c; both waiting terms fall as F rises (config
keeps gamma1, gamma2, gamma3 > 0 and vot_wait >= 0, and b >= 0), so their
value at x1 bounds them; delay is bounded by its F = 0 column as above.  A
kernel term a^j b^m F^k * (p(F) @ K) has k <= 1 and a power profile p that
rises with F at every node (slope >= 0, beta >= 1), so with K split into
K+ >= 0 and K- <= 0 (the half-pair weight leaves K one negative entry) it is
bounded by its K+ part at x0 plus its K- part at x1.
:meth:`FrequencySweep.subset` is a view of some rows that reuses the share
terms, so it prices every candidate to the same float as the whole sweep.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .config import Scenario
from .costmodel import LANE_TABLE, Policy, intersection_delay, signal_auto_pax
from .demand import DemandField, _operating_point, cumulative_demand, density
from .errors import ValidationError
from .numeric import cumulative_kernel, cumulative_values

__all__ = ["FrequencySweep"]

_MAX_POLY_DEGREE = 12
_KERNEL_BLOCK = 1 << 14  # node values per power profile block on the kernel path
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


class _KernelGroup(NamedTuple):
    """A lane group's congestion cost, sum_t a^j b^m F^k * (power @ kernels[:, t])
    for (j, m, k) = powers[t], where power = (a*phi + slope*F)^beta at the nodes."""

    phi: np.ndarray  # auto veh/hr per unit auto scale, per unit capacity
    slope: float  # bus veh/hr per bus/hr, per unit capacity
    beta: float
    kernels: np.ndarray  # (nodes, terms)
    powers: np.ndarray  # (terms, 3) exponents of a, b and F; F's is 0 or 1


def _kernel_terms(group: _KernelGroup, a, b, f, kernels) -> np.ndarray:
    """Each cell (a, b, f) of 1-D arrays: its power profile, built
    :data:`_KERNEL_BLOCK` node values at a time, contracted with each column
    of ``kernels`` (copies of the group's term columns side by side) as its
    own (1, nodes) product, times the column's monomial."""
    out = np.empty((a.size, kernels.shape[1]))
    step = max(1, _KERNEL_BLOCK // group.phi.size)
    block = np.empty((min(step, a.size), group.phi.size))  # reused, not reallocated
    for start in range(0, a.size, step):
        cells = slice(start, start + step)
        power = np.multiply(a[cells, None], group.phi, out=block[: a[cells].size])
        power += group.slope * f[cells, None]
        power **= group.beta
        out[cells] = (power[:, None, :] @ kernels)[:, 0]
    j, m, k = np.tile(group.powers, (kernels.shape[1] // len(group.powers), 1)).T
    return out * (a[:, None] ** j * b[:, None] ** m * f[:, None] ** k)


def _kernel_cost(groups, a, b, f):
    """The kernel groups' cost at each cell (a, b, f), 1-D arrays."""
    return sum(_kernel_terms(group, a, b, f, group.kernels).sum(axis=1) for group in groups)


class _MomentTable(NamedTuple):
    poly: np.ndarray  # C[j, m, k] on a^j b^m F^k
    boardings: float  # per unit b
    load_moment: float  # per unit b^(gamma3 + 1)
    # rows base, slope, capacity, pax_a, pax_b; one column per (stream, intersection):
    # a*base + slope*F veh/hr arrive on capacity and pay a*pax_a + b*pax_b $/s of delay
    signals: np.ndarray
    kernels: tuple[_KernelGroup, ...]  # the BPR terms without a binomial degree


@lru_cache(maxsize=64)
def _moment_table(scenario: Scenario, policy: Policy) -> _MomentTable:
    """The (scenario, policy) constants."""
    geom, bpr, bus, econ = scenario.geometry, scenario.bpr, scenario.bus, scenario.econ
    # binomial degrees; 0 for an exponent priced through kernels
    beta_a, beta_b = (
        int(beta) if float(beta).is_integer() and beta <= _MAX_POLY_DEGREE else 0
        for beta in (bpr.beta_auto, bpr.beta_bus)
    )
    grid = scenario.grid()
    nodes = grid.nodes
    unit = DemandField(q0=1.0, length_mi=geom.length_mi, auto_share=1.0)
    upstream = cumulative_demand(unit, "total", nodes)  # demand upstream of x per unit scale
    weights = grid.simpson_weights * density(unit, nodes)  # demand density quadrature
    pce = bpr.bus_pce
    lanes = LANE_TABLE[policy](scenario)
    streams = lanes.streams
    # corridor lane groups: a*phi(x) + slope*F veh/hr on capacity
    groups = [(s.vehicles(upstream), pce if s.buses else 0.0, s.capacity) for s in streams]
    bus_group = next(g for g, s in zip(groups, streams) if s.buses)
    per_pax = sum(share / occupancy for s in streams for _, share, occupancy in s.autos)

    # degree 0 with alpha 0 is the free-flow row alone: kernels price the rest
    poly = np.zeros((max(beta_a + 1, beta_b) + 1, 4, max(beta_a, beta_b) + 2))
    nb = beta_b + 1
    t_bus = _time_rows(*bus_group, bpr.t0_bus, bpr.alpha_bus * bool(beta_b), beta_b)
    cum_bus = cumulative_values(t_bus, grid)
    poly[:nb, 1, :nb] += econ.vot_bus * (cum_bus @ weights)
    poly[:nb, 0, 1 : nb + 1] += bus.variable_operating_cost * 2.0 * cum_bus[..., -1]
    # crowding rate quad*Q_bus^2 + lin*Q_bus with Q_bus = b*upstream
    for m, rate, load in ((3, bus.discomfort_quad, upstream**2), (2, bus.discomfort_lin, upstream)):
        poly[:nb, m, :nb] += rate * (cumulative_values(load * t_bus, grid) @ weights)
    for group, s in zip(groups, streams):
        for _, share, _ in s.autos:
            t_auto = _time_rows(*group, bpr.t0_auto, bpr.alpha_auto * bool(beta_a), beta_a)
            ride = cumulative_values(t_auto, grid) @ weights
            poly[1 : beta_a + 2, 0, : beta_a + 1] += econ.vot_auto * share * ride
    money = econ.auto_fixed_cost + econ.auto_cost_per_mi * nodes
    poly[1, 0, 0] += float(money @ weights) * per_pax
    boardings = float(np.sum(weights))
    poly[0, 1, 0] += bus.fare * boardings
    poly[0, 0, 0] += bus.fixed_operating_cost + lanes.signage

    # congestion without a binomial degree: (kernel column, powers of a, b and F)
    # per (lane group, exponent)
    kernel, bus_scale = cumulative_kernel(weights, grid), bpr.t0_bus * bpr.alpha_bus
    terms: dict = {}
    for i, s in enumerate(streams):
        if s.buses and not beta_b:
            terms.setdefault((i, bpr.beta_bus), []).extend([
                (bus_scale * econ.vot_bus * kernel, (0, 1, 0)),
                (bus_scale * 2.0 * bus.variable_operating_cost * grid.simpson_weights, (0, 0, 1)),
                (bus_scale * bus.discomfort_quad * upstream**2 * kernel, (0, 3, 0)),
                (bus_scale * bus.discomfort_lin * upstream * kernel, (0, 2, 0)),
            ])
        if s.autos and not beta_a:
            rate = bpr.t0_auto * bpr.alpha_auto * econ.vot_auto * sum(x for _, x, _ in s.autos)
            terms.setdefault((i, bpr.beta_auto), []).append((rate * kernel, (1, 0, 0)))
    kernels = tuple(
        _KernelGroup(groups[i][0] / groups[i][2], groups[i][1] / groups[i][2], beta,
                     np.column_stack([c for c, _ in cols]), np.array([p for _, p in cols]))
        for (i, beta), cols in terms.items()
    )

    # intersections: arriving volume per lane group, passengers still upstream
    pax = cumulative_demand(unit, "total", geom.intersection_positions)
    entering = signal_auto_pax(scenario, unit)
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
    return _MomentTable(poly, boardings, load_moment, signals, kernels)


class FrequencySweep:
    """Total cost as a cheap function of frequency at fixed (q0, R) rows.

    Each of ``q0`` and ``auto_share`` is one value or a 1-D array aligned
    with the other; each (q0, R) point is one row.  Building a sweep looks
    up the (scenario, policy) moment table; :meth:`totals` then prices any
    number of candidate-frequency rows.
    """

    def __init__(self, scenario: Scenario, policy: Policy, q0, auto_share):
        self.scenario = scenario
        self.policy = policy
        self.q0 = q0
        self.auto_share = auto_share
        q0s, shares = np.broadcast_arrays(*_operating_point(q0, auto_share))
        self._q0s, self._shares = np.atleast_1d(q0s), np.atleast_1d(shares)
        self._table = _moment_table(scenario, policy)
        self._varying = [group for group in self._table.kernels if group.slope]  # with buses
        self.priced = 0  # candidates row_minima has priced in full

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
        out = self._add_signals(*self._base(rows), rows) if rows.size else np.empty(rows.shape)
        one_row = np.ndim(self.q0) == np.ndim(self.auto_share) == 0 and f_arr.ndim == 1
        return out[0] if one_row else out

    # bench/spans.py wraps this name; every candidate is now priced from the table
    _fallback_totals = totals

    def row_minima(self, rows: np.ndarray):
        """Each row's first minimum of :meth:`totals` over NaN-padded (n_shares,
        n_F) rows as (frequencies, costs); cost inf where nothing is finite."""
        rows = np.asarray(rows, dtype=float)
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
        values, the kernel terms' K+ part at x0 and K- part at x1, waiting at
        x1 and delay at F = 0 (see the module docstring).  ``lo`` and ``hi``
        are positive scalars or one value per row."""
        a, b, coeffs, delay = self._share_terms
        edges = np.linspace(
            np.broadcast_to(lo, delay.shape[:1]), np.broadcast_to(hi, delay.shape[:1]),
            _BOUND_BLOCKS + 1, axis=1,
        )
        out = self._waiting(b, edges[:, 1:])
        for k in range(coeffs.shape[1]):
            monomial = coeffs[:, k : k + 1] * edges**k
            out += np.minimum(monomial[:, :-1], monomial[:, 1:])
        for group in self._varying:
            split = np.hstack([np.maximum(group.kernels, 0.0), np.minimum(group.kernels, 0.0)])
            cells = a.repeat(edges.shape[1]), b.repeat(edges.shape[1]), edges.ravel()
            terms = _kernel_terms(group, *cells, split).reshape(*edges.shape, 2, -1)
            out += np.sum(terms[:, :-1, 0] + terms[:, 1:, 1], axis=-1)  # K+ at x0, K- at x1
        return np.min(out, axis=1) + delay[:, 0]

    def subset(self, index) -> FrequencySweep:
        """The sweep at some of its rows (an index array or a boolean mask).
        The view reuses this sweep's share terms, so it prices every candidate
        to the same float."""
        view = FrequencySweep(self.scenario, self.policy, self._q0s[index], self._shares[index])
        view._share_terms = tuple(term[index] for term in self._share_terms)
        return view

    @cached_property
    def _share_terms(self):
        """Share columns a, b, their coefficients in F (kernel groups without
        buses in the constant one) and their delay cost at F = 0."""
        q0, shares = self._q0s[:, None], self._shares[:, None]
        a, b = q0 * shares, q0 * (1.0 - shares)
        j, m, _ = self._table.poly.shape
        coeffs = np.einsum("rj,rm,jmk->rk", a ** np.arange(j), b ** np.arange(m), self._table.poly)
        fixed = [group for group in self._table.kernels if not group.slope]
        if fixed:
            coeffs[:, 0] += _kernel_cost(fixed, a[:, 0], b[:, 0], 0.0 * a[:, 0])
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
        """Share columns a, b and the totals without signal delay on rows f;
        NaN where f is."""
        a, b, coeffs, _ = self._share_terms
        waiting = self._waiting(b, f)
        out = np.zeros(f.shape)
        for k in range(coeffs.shape[1] - 1, -1, -1):
            out *= f
            out += coeffs[:, k : k + 1]
        out += waiting
        if self._varying:
            r, c = np.nonzero(~np.isnan(f))
            out[r, c] += _kernel_cost(self._varying, a[r, 0], b[r, 0], f[r, c])
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
