"""Scenario-level moment tables: total cost over a whole (R, F) lattice.

Write a = q0*R and b = q0*(1-R) for the auto and bus demand scales.  The
demand weights along the corridor are a*(1-x/A) and b*(1-x/A), every traffic
volume is affine in (a, F) and the onboard bus load is b times a fixed
profile U.  Every money rate comes from ``costmodel._rates``; this module
states none.  Each cost priced by a lane group's per-mile time t is one
scenario node column with a monomial a^j b^m F^k, and is worth that monomial
times t @ column.  A traveler class pays sum_p rate_p*Q^p per hour aboard at
bus load Q = b*U: term p's column is rate_p times the class's share times U^p
times ``cumulative_kernel(weights, grid)``, the adjoint of
``cumulative_values(t, grid) @ weights``.  The operator's round trip is its
rate times simpson_weights, on F.  t is t0*(1 + alpha*(volume/capacity)^beta)
with the law that ``costmodel._time_law`` gives the class.  With an integer
exponent up to :data:`_MAX_POLY_DEGREE` the bracket expands binomially into
node rows on a^j F^k (:func:`_time_rows`, free flow in row (0, 0)), and each
column contracts them into polynomial coefficients.  Any other exponent puts
only free flow in the polynomial; the same columns times t0*alpha contract
the power profile ((a*phi + slope*F)/capacity)^beta in one
:class:`_KernelGroup` per (lane group, exponent): once per share for a lane
group without buses, once per candidate for one with them.

Fares (with b), auto money (with a) and the fixed costs are polynomial
coefficients too.  Waiting is ``costmodel._wait`` at b times the table's
wait load, the gamma3-power mean of the onboard load each boarding meets;
times b and the table's wait pay (the boardings times the $/hr at a stop),
that is the corridor's waiting integral.  These constants form one
:class:`_MomentTable` per (scenario, policy), built on first use and kept in
a bounded LRU cache.  The auto classes come from
:data:`~lanepolicy.costmodel.LANE_TABLE`, the stream loads from ``_loads``
there.  Only signal delay is evaluated directly, in one
``intersection_delay`` call over one column of constants per (lane stream,
intersection).  A cost term whose demand scale (or binomial row entry) is 0
adds 0, even where its rate overflowed to inf or NaN, so the all-auto and
all-bus shares stay priced whatever the other mode's rates.

The table also keeps every term under the rate it prices, tagged by a field
of ``costmodel._Rates`` and whose entry it is: ``aboard[class]``, ``stop``,
``bus_trip``, ``auto_trip``, ``round_trip``, ``fixed[component]`` and
``delay[mode]``.  ``part_cells`` and ``part_values`` split ``poly``'s
coefficients by tag, each kernel-group column carries its tag, and
``pay_tags`` tags the wait pay and the signal pay rows.
``costmodel._payer`` maps a tag's class, mode or component to the
:class:`~lanepolicy.costmodel.CostBreakdown` component that pays it.

:class:`FrequencySweep` is a cheap view of the table at one or many auto
shares, each at one q0 or at its own.  Its :meth:`~FrequencySweep.totals`
reproduce the totals of the node-level reference evaluator in the tests,
which contracts ``costmodel``'s node profiles, to floating-point reordering
error (the expansion and the kernels are algebraically exact), and its
:meth:`~FrequencySweep.breakdowns` the four components, each summed over its
tags; every reported cost, ``costmodel.cost_breakdown`` included, reads
them.  The totals the search compares never read the tags, so the tags move
none of them; property tests pin the table to the reference.

:meth:`FrequencySweep.row_minima` prices signal delay only where its value
at F = 0, a lower bound, does not exceed the row's best priced total.  Delay
never falls as bus volume rises: for every X >= 0 the uniform term rises through
min(1, X), and for every s = 8*k*I/(c*T) > 0 the overflow term's slope
1 + (X - 1 + s/2)/sqrt((X - 1)^2 + s*X) is >= 0.

:meth:`FrequencySweep.lower_bounds` bounds a whole share row from below over
a frequency range cut into :data:`_BOUND_BLOCKS` blocks, so a caller can drop
shares that cannot win before pricing any of their candidates.  On a block
[x0, x1] each monomial c*F^k is monotone for F > 0, so min(c*x0^k, c*x1^k)
bounds it whatever the sign of c; waiting, (g1 + g2*(load/(capacity*F))^g3)/F
at a load b*L >= 0 times the wait pay times b >= 0, falls as F rises (config
keeps g1, g2, g3 > 0 and every rate >= 0), so its value at x1 bounds it; delay
is bounded by its F = 0 column as above.  A kernel term a^j b^m F^k *
(p(F) @ K) has k <= 1 and a power profile p that rises with F at every node
(slope >= 0, beta >= 1), so with K split into K+ >= 0 and K- <= 0 (the
half-pair weight leaves K one negative entry) it is bounded by its K+ part
at x0 plus its K- part at x1.

Those bounds need each row's exact share terms: its coefficients in F, an
einsum over a^j b^m, and its F = 0 delay column, one ``intersection_delay``
term per signal column.  A split search bounds many more shares than it
keeps, so it bounds in two stages.  Since a^j b^m = q0^(j+m) R^j (1-R)^m,
:func:`_share_table` regroups ``poly`` by total degree d = j + m at each
auto share, and :meth:`FrequencySweep.rough` takes every row's
coefficients from one (densities x degree) @ (degree x shares*F-degree)
product; its :meth:`~FrequencySweep.lower_bounds` omit delay, which is
never negative, so they bound from below too (stage 1).  Every bound is
its row's own, so a search takes them a fixed-size chunk of rows at a
time, one rough view per chunk, and its stage-1 temporaries do not grow
with the number of densities it searches.  The rows they keep get their
F = 0 delay column added (stage 2), and only the rows that both keep get
exact share terms.  :meth:`FrequencySweep.subset` is a view
of some rows that reuses the share terms its sweep has built and builds
the rest for its own rows alone; every term is a row's own, so the view
prices every candidate to the same float as the whole sweep.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .config import Scenario
from .costmodel import (
    _COMPONENTS, LANE_TABLE, Policy, _loads, _payer, _rates, _time_law, _wait, _wait_load,
    intersection_delay,
)
from .demand import _operating_point
from .errors import ValidationError
from .numeric import _overflow_unwarned, cumulative_kernel

__all__ = ["FrequencySweep"]

_MAX_POLY_DEGREE = 12
_KERNEL_BLOCK = 1 << 14  # node values per power profile block on the kernel path
# Delay terms (signal columns x cells) per intersection_delay call, at least
# one column.  A call holds about ten temporaries of its size, 32 KiB each
# here: the F = 0 column of a default 81-density block's refined rows (81 x
# 21 shares) goes two signal columns a call.  All 20 at once (1 << 18) took
# one cold 19-density HOVLP call's traced peak from 1.13 to 2.46 MiB, when
# every coarse share's F = 0 column was built.  Columns still add in table
# order, so no float moves.
_DELAY_BLOCK = 1 << 12
_BOUND_BLOCKS = 8  # frequency blocks per row in FrequencySweep.lower_bounds


def _candidates(f_values) -> np.ndarray:
    """``f_values`` as a float array once each entry is checked: NaN padding
    or a finite frequency > 0.  Padding alone, with nothing to pad, fails."""
    f = np.asarray(f_values, dtype=float)
    pad = np.isnan(f)
    bad = (f <= 0) | np.isinf(f) | (pad & pad.all())
    if bad.any():
        raise ValidationError(f"frequency candidates must be finite and > 0, got {f[bad][0]}")
    return f


def _scan_rows(candidates: np.ndarray, values: np.ndarray):
    """Per row, the first minimum over finite values (smallest argument on
    ties); cost inf for a row with no finite value.  Overwrites every
    non-finite entry of ``values`` with inf."""
    values[~np.isfinite(values)] = np.inf
    k = np.argmin(values, axis=1)
    rows = np.arange(k.shape[0])
    return candidates[rows, k], values[rows, k]


def _time_rows(phi, slope, capacity, alpha, beta) -> np.ndarray:
    """Node rows T[j, k] with per-mile time t0 * sum_jk T[j, k] a^j F^k; free flow is T[0, 0].

    The lane group carries volume a*phi(x) + slope*F on ``capacity``.
    """
    rows = np.zeros((beta + 1, beta + 1, phi.shape[0]))
    scale = alpha / capacity**beta
    for k in range(beta + 1):
        rows[beta - k, k] = scale * math.comb(beta, k) * phi ** (beta - k) * slope**k
    rows[0, 0] += 1.0
    return rows


class _KernelGroup(NamedTuple):
    """A lane group's congestion cost, sum_t a^j b^m F^k * (power @ kernels[:, t])
    for (j, m, k) = powers[t], where power = (a*phi + slope*F)^beta at the nodes."""

    phi: np.ndarray  # auto veh/hr per unit auto scale, per unit capacity
    slope: float  # bus veh/hr per bus/hr, per unit capacity
    beta: float
    kernels: np.ndarray  # (nodes, terms)
    powers: np.ndarray  # (terms, 3) exponents of a, b and F; F's is 0 or 1
    tags: np.ndarray  # (terms,) each term's index in the table's tags


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
    return _paid(out, a[:, None] ** j * b[:, None] ** m * f[:, None] ** k)


def _share_table(poly: np.ndarray, shares: np.ndarray) -> np.ndarray:
    """G[d, s, k] as a (degree, shares * F-degree) matrix: the coefficient of
    q0^d F^k at auto share R = shares[s], the sum over j + m = d of
    poly[j, m, k] * R^j * (1 - R)^m, since a^j b^m = q0^(j+m) R^j (1 - R)^m."""
    n_a, n_b, n_f = poly.shape
    j, m = np.arange(n_a)[:, None], np.arange(n_b)
    by_degree = np.zeros((n_a, n_b, n_a + n_b - 1, n_f))
    by_degree[j, m, j + m] = poly
    powers = shares[:, None, None] ** j * (1.0 - shares)[:, None, None] ** m
    table = powers.reshape(shares.size, n_a * n_b) @ by_degree.reshape(n_a * n_b, -1)
    return table.reshape(shares.size, -1, n_f).transpose(1, 0, 2).reshape(n_a + n_b - 1, -1)


def _paid(rate, scale: np.ndarray) -> np.ndarray:
    """rate * scale, 0 where the demand scale is 0: a cost no one pays adds 0,
    even where its rate overflowed to inf or NaN.  The mask is built only when
    some scale is 0, which spares the signal rows two whole-lattice
    temporaries per call."""
    out = rate * scale
    return out if np.count_nonzero(scale) == scale.size else np.where(scale == 0, 0.0, out)


def _contract(rows: np.ndarray, column: np.ndarray) -> np.ndarray:
    """rows @ column, a zero row entry adding 0 against an overflowed column."""
    return rows @ column if np.isfinite(column).all() else np.sum(_paid(column, rows), axis=-1)


def _kernel_cost(groups, a, b, f):
    """The kernel groups' cost at each cell (a, b, f), 1-D arrays."""
    return sum(_kernel_terms(group, a, b, f, group.kernels).sum(axis=1) for group in groups)


class _MomentTable(NamedTuple):
    poly: np.ndarray  # C[j, m, k] on a^j b^m F^k
    wait_pay: float  # per unit b, paid as _paid(wait_pay, b): the boardings times $/hr at a stop
    wait_load: float  # per unit b: the gamma3-power mean of the onboard load at boarding
    # rows base, slope, capacity, pax_a, pax_b; one column per (stream, intersection):
    # a*base + slope*F veh/hr arrive on capacity and pay _paid(pax_a, a) + _paid(pax_b, b)
    # $/s of delay
    signals: np.ndarray
    kernels: tuple[_KernelGroup, ...]  # congestion of the exponents without a binomial degree
    # The same terms kept apart by the rate each prices: a tag is a field of
    # costmodel._Rates and whose entry it is, a traveler class, a mode or a
    # component, which costmodel._payer maps to the component that pays it.
    tags: tuple[tuple[str, str], ...]
    # poly's coefficients apart by tag: each nonzero one's (tag, j, m, k) and value
    part_cells: np.ndarray
    part_values: np.ndarray
    pay_tags: tuple[int, int, int]  # the tags of wait_pay and of signal rows pax_a and pax_b


@lru_cache(maxsize=64)
@_overflow_unwarned
def _moment_table(scenario: Scenario, policy: Policy) -> _MomentTable:
    """The (scenario, policy) constants, every money rate from ``_rates`` and
    every load and unit demand profile from ``_loads``."""
    rates, grid = _rates(scenario, policy), scenario.grid()
    nodes = grid.nodes
    # groups: a*phi(x) + slope*F on capacity; upstream: demand upstream of x per unit scale
    groups, signal_loads, upstream, origins = _loads(scenario, policy)
    weights = grid.simpson_weights * origins  # demand density quadrature
    lanes = LANE_TABLE[policy](scenario)

    # per (lane group, class): (node column, powers of a, b and F, tag) triples, each
    # cost a^j b^m F^k * (t @ column) at the class's per-mile time t: the operator's
    # round trip per bus, and each term rate*Q^p of the class's rate aboard at bus
    # load Q = b*upstream, paid by its share of the riders of a (j = 1) or b (m = 1)
    ride = cumulative_kernel(weights, grid)  # cumulative_values(t) @ weights == t @ ride
    tags = {}  # (_Rates field, whose entry) -> index, in first-use order

    def tag(field: str, who: str) -> int:
        return tags.setdefault((field, who), len(tags))

    pay_tags = tag("stop", "bus"), tag("delay", "auto"), tag("delay", "bus")
    costs = []
    for i, s in enumerate(lanes.streams):
        riders = [(name, share, 1, 0) for name, share, _ in s.autos]
        if s.buses:
            round_trip = rates.round_trip * grid.simpson_weights
            costs.append((i, "bus", [(round_trip, (0, 0, 1), tag("round_trip", "bus_operator"))]))
            riders.insert(0, ("bus", 1.0, 0, 1))
        for name, share, j, m in riders:
            costs.append((i, name, [(rate * share * upstream**p * ride, (j, m + p, 0),
                                     tag("aboard", name))
                                    for p, rate in enumerate(rates.aboard[name])]))

    # an integer exponent up to the degree cap expands binomially; any other keeps
    # free flow in poly and its congestion in one kernel group per (lane group, exponent)
    blocks, terms = [], {}  # blocks: (coefficients on a^j F^k, their offset in poly, tag)
    for i, name, columns in costs:
        t0, alpha, beta = _time_law(scenario, name)
        if float(beta).is_integer() and beta <= _MAX_POLY_DEGREE:
            rows = _time_rows(*groups[i], alpha, int(beta))
        else:
            rows = np.ones((1, 1, nodes.size))
            terms.setdefault((i, beta), []).extend((t0 * alpha * c, p, t) for c, p, t in columns)
        blocks += [(t0 * _contract(rows, c), p, t) for c, p, t in columns]
    kernels = tuple(
        _KernelGroup(groups[i][0] / groups[i][2], groups[i][1] / groups[i][2], beta,
                     np.column_stack([c for c, _, _ in cols]), np.array([p for _, p, _ in cols]),
                     np.array([t for _, _, t in cols]))
        for (i, beta), cols in terms.items()
    )
    per_pax = sum(share / occupancy for s in lanes.streams for _, share, occupancy in s.autos)
    fixed, per_mi = rates.auto_trip
    boardings = float(np.sum(weights))
    # the money terms after the time-priced ones; nothing else lands in poly[0, 0, 0],
    # so adding the fixed costs one at a time from 0 gives it their sum
    blocks += [
        (np.array([[float((fixed + per_mi * nodes) @ weights) * per_pax]]), (1, 0, 0),
         tag("auto_trip", "auto")),
        (np.array([[rates.bus_trip * boardings]]), (0, 1, 0), tag("bus_trip", "bus")),
        *((np.array([[cost]]), (0, 0, 0), tag("fixed", key)) for key, cost in rates.fixed.items()),
    ]
    poly = np.zeros(np.max([np.add(p, (len(c), 1, len(c))) for c, p, _ in blocks], axis=0))
    parts = np.zeros((len(tags), *poly.shape))
    for c, (j, m, k), t in blocks:
        cells = np.s_[j : j + len(c), m, k : k + len(c)]
        poly[cells] += c
        parts[t][cells] += c

    # intersections: the value of a second of delay to each mode's riders who pay it
    autos, buses, capacity, auto_share, bus_share, riders = signal_loads
    pay_rows = (share * (rates.delay[mode] * riders / 3600.0)
                for mode, share in (("auto", auto_share), ("bus", bus_share)))
    signals = np.vstack([autos, buses, capacity, *pay_rows])
    wait_pay, wait_load = rates.stop * boardings, _wait_load(scenario.bus, upstream, weights)
    cells = np.nonzero(parts)
    return _MomentTable(poly, wait_pay, wait_load, signals, kernels, tuple(tags),
                        np.transpose(cells), parts[cells], pay_tags)


class FrequencySweep:
    """Total cost as a cheap function of frequency at fixed (q0, R) rows.

    Each of ``q0`` and ``auto_share`` is one value or a 1-D array aligned
    with the other; each (q0, R) point is one row.  Building a sweep looks
    up the (scenario, policy) moment table; :meth:`totals` then prices any
    number of candidate-frequency rows, and :meth:`breakdowns` the cost
    components at one frequency per row.
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

    @_overflow_unwarned
    def totals(self, f_values) -> np.ndarray:
        """Total system cost ($/hr) at each candidate frequency.

        ``f_values`` is one row shared by every share or an (n_shares, n_F)
        array of per-share rows.  NaN entries pad ragged rows; they are not
        evaluated and come back NaN.  Returns (n_shares, n_F), or one row
        for a scalar share and a 1-D ``f_values``.
        """
        f_arr = np.atleast_1d(_candidates(f_values))
        rows = np.broadcast_to(f_arr, (self._shares.size, f_arr.shape[-1]))
        out = self._add_signals(*self._base(rows), rows) if rows.size else np.empty(rows.shape)
        one_row = np.ndim(self.q0) == np.ndim(self.auto_share) == 0 and f_arr.ndim == 1
        return out[0] if one_row else out

    # an alias because bench/spans.py wraps this name
    _fallback_totals = totals

    @_overflow_unwarned
    def breakdowns(self, f_values) -> np.ndarray:
        """The four cost components ($/hr, in ``costmodel._COMPONENTS`` order)
        at one frequency per row (a 1-D array, or one value for every row),
        an (n, 4) array; a sweep of one row takes any number of frequencies.
        F = 0 is priced too where no one rides the bus, without a wait.

        Each term of the table is priced at its cell and added to its tag's
        row, then each tag's row to the component that pays its rate, every
        sum in table order (``np.add.at`` adds unbuffered, in index order).
        Every step is elementwise across cells, so a cell's components do not
        depend on the other cells.
        """
        a, b, f = np.broadcast_arrays(
            self._q0s * self._shares, self._q0s * (1.0 - self._shares),
            np.asarray(f_values, dtype=float),
        )
        waits = (f != 0) | (b != 0)
        _candidates(f[waits])
        table = self._table
        by_tag = np.zeros((len(table.tags), f.size))
        scales = [x[:, None] ** np.arange(n) for x, n in zip((a, b, f), table.poly.shape)]
        t, j, m, k = table.part_cells.T
        scale = scales[0][:, j] * scales[1][:, m] * scales[2][:, k]  # (cells, parts)
        scale[np.isnan(scale)] = 0.0  # an overflowed power times a zero one: no one pays
        np.add.at(by_tag, t, _paid(table.part_values, scale).T)
        for group in table.kernels:
            np.add.at(by_tag, group.tags, _kernel_terms(group, a, b, f, group.kernels).T)
        wait, delay_a, delay_b = table.pay_tags
        by_tag[wait, waits] += self._waiting(b[waits], f[waits])
        step = max(1, _DELAY_BLOCK // max(1, f.size))
        for start in range(0, table.signals.shape[1], step):
            base, slope, capacity, pax_a, pax_b = table.signals[:, start : start + step, None]
            seconds = intersection_delay(self.scenario.signal, base * a + slope * f, capacity)
            for t, pax, demand in ((delay_a, pax_a, a), (delay_b, pax_b, b)):
                terms = _paid(seconds, _paid(pax, demand))  # delay no one pays adds 0
                np.add.at(by_tag, np.full(len(terms), t), terms)
        out = np.zeros((f.size, len(_COMPONENTS)))
        np.add.at(out.T, [_COMPONENTS.index(_payer(who)) for _, who in table.tags], by_tag)
        return out

    @_overflow_unwarned
    def row_minima(self, rows: np.ndarray):
        """Each row's first minimum of :meth:`totals` over NaN-padded (n_shares,
        n_F) rows as (frequencies, costs); cost inf where nothing is finite."""
        rows = _candidates(rows)
        # Whole-lattice arrays are updated in place: fresh temporaries of this
        # size cost more in page faults than their arithmetic.
        a, b, base = self._base(rows)
        lower = base + self._delay  # delay cost at F = 0 bounds it below
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

    @_overflow_unwarned
    def lower_bounds(self, lo, hi):
        """Each row's lower bound on :meth:`totals` at every F in [lo, hi],
        the least over equal blocks [x0, x1] of the monomials' smaller end
        values, the kernel terms' K+ part at x0 and K- part at x1, waiting at
        x1 and delay at F = 0 (see the module docstring).  ``lo`` and ``hi``
        are positive scalars or one value per row."""
        a, b, coeffs = self._share_terms
        edges = np.linspace(
            np.broadcast_to(lo, a.shape[:1]), np.broadcast_to(hi, a.shape[:1]),
            _BOUND_BLOCKS + 1, axis=1,
        )
        out = self._waiting(b, edges[:, 1:])
        # the smaller end value of each c*F^k is c+ x0^k + c- x1^k for
        # c+ = max(c, 0) and c- = min(c, 0): two polynomials by Horner's
        # rule, the second only where some coefficient is negative
        value = np.empty(out.shape)
        for x, clip in ((edges[:, :-1], np.maximum), (edges[:, 1:], np.minimum)):
            part = clip(coeffs, 0.0)
            if not part.any():
                continue
            value.fill(0.0)
            for k in range(coeffs.shape[1] - 1, -1, -1):
                value *= x
                value += part[:, k : k + 1]
            out += value
        for group in self._varying:
            split = np.hstack([np.maximum(group.kernels, 0.0), np.minimum(group.kernels, 0.0)])
            cells = a.repeat(edges.shape[1]), b.repeat(edges.shape[1]), edges.ravel()
            terms = _kernel_terms(group, *cells, split).reshape(*edges.shape, 2, -1)
            out += np.sum(terms[:, :-1, 0] + terms[:, 1:, 1], axis=-1)  # K+ at x0, K- at x1
        return np.min(out, axis=1) + self._delay[:, 0]

    @_overflow_unwarned
    def rough(self) -> FrequencySweep:
        """A view of these rows whose :meth:`lower_bounds` cost little to
        build: their polynomial coefficients come from one product of the
        distinct densities' powers with the share table at the distinct
        shares (:func:`_share_table`), and they omit signal delay, so they
        are weaker.  No exact share term is built.  The view's totals agree
        with this sweep's only to rounding; it is for bounding."""
        q0s, density = np.unique(self._q0s, return_inverse=True)
        shares, share = np.unique(self._shares, return_inverse=True)
        table = _share_table(self._table.poly, shares)
        coeffs = q0s[:, None] ** np.arange(table.shape[0]) @ table
        coeffs = coeffs.reshape(q0s.size, shares.size, -1)[density, share]
        a, b = self._columns()
        view = FrequencySweep(self.scenario, self.policy, self._q0s, self._shares)
        view._share_terms = a, b, self._with_fixed_kernels(a, b, coeffs)
        view._delay = np.zeros(a.shape)
        return view

    def subset(self, index) -> FrequencySweep:
        """The sweep at some of its rows (an index array or a boolean mask).
        The view reuses the share terms this sweep has built and builds the
        rest for its own rows alone; each term is a row's own, so the view
        prices every candidate to the same float as the whole sweep."""
        view = FrequencySweep(self.scenario, self.policy, self._q0s[index], self._shares[index])
        if "_share_terms" in vars(self):
            view._share_terms = tuple(term[index] for term in self._share_terms)
        if "_delay" in vars(self):
            view._delay = self._delay[index]
        return view

    def _columns(self):
        """The share columns a = q0*R and b = q0*(1 - R)."""
        q0, shares = self._q0s[:, None], self._shares[:, None]
        return q0 * shares, q0 * (1.0 - shares)

    @cached_property
    @_overflow_unwarned
    def _share_terms(self):
        """Share columns a, b and their coefficients in F (kernel groups
        without buses in the constant one).  A row whose a^j or b^m
        overflowed prices its terms one at a time, as :meth:`breakdowns`
        does: an overflowed power times a zero one adds 0."""
        a, b = self._columns()
        poly = self._table.poly
        scales = a ** np.arange(poly.shape[0]), b ** np.arange(poly.shape[1])
        finite = np.isfinite(poly)
        coeffs = np.einsum("rj,rm,jmk->rk", *scales, np.where(finite, poly, 0.0))
        for j, m, k in zip(*np.nonzero(~finite)):  # an overflowed rate, where someone pays it
            coeffs[:, k] += _paid(poly[j, m, k], scales[0][:, j] * scales[1][:, m])
        wild = np.flatnonzero(np.isinf(scales[0]).any(axis=1) | np.isinf(scales[1]).any(axis=1))
        if wild.size:
            coeffs[wild] = 0.0
            for j, m, k in zip(*np.nonzero(poly)):
                scale = scales[0][wild, j] * scales[1][wild, m]
                scale[np.isnan(scale)] = 0.0  # an overflowed power times a zero one
                coeffs[wild, k] += _paid(poly[j, m, k], scale)
        return a, b, self._with_fixed_kernels(a, b, coeffs)

    @cached_property
    @_overflow_unwarned
    def _delay(self):
        """Each row's signal delay cost at F = 0, which bounds it at any F."""
        a, b = self._columns()
        return self._add_signals(a, b, np.zeros(a.shape), 0.0)

    def _with_fixed_kernels(self, a, b, coeffs: np.ndarray) -> np.ndarray:
        """``coeffs`` with the kernel groups without buses added to the
        constant coefficient."""
        fixed = [group for group in self._table.kernels if not group.slope]
        if fixed:
            coeffs[:, 0] += _kernel_cost(fixed, a[:, 0], b[:, 0], 0.0 * a[:, 0])
        return coeffs

    def _waiting(self, b, f: np.ndarray) -> np.ndarray:
        """Waiting cost wait_pay * b * wait at bus demand column b on rows f,
        the wait taken at b times the table's wait load."""
        waiting = _wait(self.scenario.bus, f, b * self._table.wait_load)
        waiting *= _paid(self._table.wait_pay, b)
        return waiting

    def _base(self, f: np.ndarray):
        """Share columns a, b and the totals without signal delay on rows f;
        NaN where f is."""
        a, b, coeffs = self._share_terms
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
            for term in _paid(seconds, _paid(pax_a, a) + _paid(pax_b, b)):  # unpaid adds 0
                out += term
        return out
