"""Deterministic numerical primitives used by every other module.

Quadrature is composite Simpson on a fixed, evenly spaced corridor grid over
node-sampled values; the cumulative variant integrates pairwise, so its final
node is the plain composite rule summed in another order: equal to rounding,
not bit for bit.  Both take stacked integrands whose last axis runs over the
nodes, and give each row exactly its one-row result.  Root finding is
bisection batched over the bisection tree and over brackets: each call of
the function prices every midpoint that the next two steps of every open
bracket could visit, and each walk makes the one-point bisection's
decisions, so every root is its bracket's one-point result bit for bit.
Every search grid (densities, bus shares, frequencies) comes from one
lattice rule, which keeps both ends of each row whatever its step divides.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property, wraps
from typing import Callable, Sequence

import numpy as np

from .errors import BracketError, NumericDomainError, ValidationError

__all__ = [
    "CorridorGrid",
    "integrate_values",
    "cumulative_values",
    "cumulative_kernel",
    "dot_rows",
    "find_root",
    "find_roots",
]


@dataclass(frozen=True)
class CorridorGrid:
    """Evenly spaced nodes 0 = x_0 < x_1 < ... < x_n = length.

    :param length: corridor length in miles (upper integration limit).
    :param n_cells: number of cells; must be even for Simpson weights.
    """

    length: float
    n_cells: int = 600

    def __post_init__(self) -> None:
        if not (self.length > 0 and math.isfinite(self.length)):
            raise ValidationError(f"grid length must be positive and finite, got {self.length}")
        if self.n_cells < 2:
            raise ValidationError(f"n_cells must be >= 2, got {self.n_cells}")
        if self.n_cells % 2 != 0:
            raise ValidationError(f"n_cells must be even for Simpson weights, got {self.n_cells}")

    @property
    def h(self) -> float:
        """Cell width in miles."""
        return self.length / self.n_cells

    @cached_property
    def nodes(self) -> np.ndarray:
        xs = np.linspace(0.0, self.length, self.n_cells + 1)
        xs.setflags(write=False)
        return xs

    @cached_property
    def simpson_weights(self) -> np.ndarray:
        w = np.full(self.n_cells + 1, 2.0)
        w[1::2] = 4.0
        w[0] = w[-1] = 1.0
        w *= self.h / 3.0
        w.setflags(write=False)
        return w


def _as_index(value) -> int | None:
    """``value`` as a Python int when it is a Python or NumPy integer other
    than a bool; None for anything else."""
    try:
        return None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        return None


def _lattice_steps(lo, hi, step: float):
    """How many points lo + step*k of :func:`_lattice` lie below ``hi``."""
    return np.ceil((hi - lo) / step - 1e-9)


def _lattice(lo, hi, step: float) -> np.ndarray:
    """The evenly spaced search grid on [lo, hi]: the points lo + step*k
    that lie more than 1e-9 steps below ``hi``, then ``hi`` itself.

    ``lo`` and ``hi`` are scalars, for one row, or aligned 1-D arrays, for
    one NaN-padded row each; a row is all NaN where hi < lo or an end is
    NaN.  With step = (hi - lo)/(n - 1) a row is ``np.linspace(lo, hi, n)``
    bit for bit.  Every search grid of the package is built here.
    """
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    below = np.where(hi >= lo, _lattice_steps(lo, hi, step), -1.0)
    k = np.arange(int(np.max(below, initial=-1.0)) + 1)
    points = np.where(k < below[..., None], lo[..., None] + step * k, np.nan)
    return np.where(k == below[..., None], hi[..., None], points)


def _check_finite(values: np.ndarray, nodes: np.ndarray) -> None:
    bad = ~np.isfinite(values)
    if bad.any():
        i = tuple(np.argwhere(bad)[0])
        raise NumericDomainError(
            f"integrand is not finite at node x={nodes[i[-1]]:.6g} (value {float(values[i])})"
        )


def _overflow_unwarned(fn):
    """``fn`` with NumPy's overflow and invalid-value warnings off.  A value
    that overflows reaches its check as inf or NaN and is reported there
    once: :func:`_check_finite` raises, a cost component is rejected, a
    frequency sweep prices the candidate at inf."""

    @wraps(fn)
    def unwarned(*args, **kwargs):
        with np.errstate(over="ignore", invalid="ignore"):
            return fn(*args, **kwargs)

    return unwarned


def cumulative_values(values: Sequence[float] | np.ndarray, grid: CorridorGrid) -> np.ndarray:
    """Cumulative integral of node-sampled ``values`` from node 0 to every node.

    ``values`` may stack several integrands; the last axis runs over nodes.

    Even nodes accumulate the standard Simpson pair rule h/3*(f0 + 4 f1 + f2);
    odd nodes add the half-pair value of the same local quadratic,
    h/12*(5 f0 + 8 f1 - f2).  The final entry is therefore composite Simpson
    over the full grid, summed as a sequential running sum of the pair
    increments where :func:`integrate_values` takes one dot product with the
    Simpson weights: the two agree to rounding, not bit for bit (7.4e-15
    relative on a 600-cell bus time profile).  The half-pair weights assume the
    integrand is smooth at cell scale; a sharp spike confined to one cell can
    make an odd-node increment overshoot.
    """
    v = np.asarray(values, dtype=float)
    if v.shape[-1:] != grid.nodes.shape:
        raise ValidationError(f"expected {grid.nodes.shape[0]} node values, got {v.shape}")
    _check_finite(v, grid.nodes)
    h = grid.h
    f0, f1, f2 = v[..., :-2:2], v[..., 1:-1:2], v[..., 2::2]
    out = np.zeros_like(v)
    # running total at even nodes 2, 4, ..., n
    out[..., 2::2] = np.cumsum(h / 3.0 * (f0 + 4.0 * f1 + f2), axis=-1)
    # odd node k sits half a pair above even node k-1
    out[..., 1::2] = out[..., :-2:2] + h / 12.0 * (5.0 * f0 + 8.0 * f1 - f2)
    return out


def cumulative_kernel(weights: np.ndarray, grid: CorridorGrid) -> np.ndarray:
    """The kernel K with ``cumulative_values(v, grid) @ weights == v @ K`` for
    every node profile v, to rounding: the adjoint of the cumulative rule.  A
    pair's increment is weighted by the tail sum of ``weights`` from its right
    end, a half-pair's by its odd node's weight; the half-pair's -h/12 can
    leave an entry negative."""
    h = grid.h
    tail = h / 3.0 * np.cumsum(weights[::-1])[::-1][2::2]  # per pair, from its right end
    half = h / 12.0 * weights[1::2]
    out = np.zeros(grid.nodes.shape)
    out[:-2:2] += tail + 5.0 * half
    out[1::2] += 4.0 * tail + 8.0 * half
    out[2::2] += tail - half
    return out


def dot_rows(v: np.ndarray, w: np.ndarray):
    """Dot product over the last axis of ``v`` and ``w``, stacked over the
    leading axes.

    Each row's result is bit for bit the 1-D product ``v_row @ w_row``: a
    stacked matmul of (1, n) by (n, 1) blocks reduces each row as the 1-D
    product does, where a matrix-vector product may not.
    """
    return (v[..., None, :] @ w[..., :, None])[..., 0, 0]


def integrate_values(values: Sequence[float] | np.ndarray, grid: CorridorGrid):
    """Composite-Simpson integral of node-sampled ``values`` over the full grid.

    ``values`` may stack several integrands; the last axis runs over nodes.
    One integrand gives a float, a stack an array of the leading shape whose
    every entry is that row's one-integrand integral, bit for bit.
    """
    v = np.asarray(values, dtype=float)
    if v.shape[-1:] != grid.nodes.shape:
        raise ValidationError(f"expected {grid.nodes.shape[0]} node values, got {v.shape}")
    _check_finite(v, grid.nodes)
    out = dot_rows(v, grid.simpson_weights)
    return float(out) if v.ndim == 1 else out


# Bisection levels priced per round of :func:`find_roots`: each round prices
# every midpoint that each open bracket's next two steps could visit.  Deeper
# levels price more points that the walks discard.  On the `sweep` benchmark
# (one region boundary and two threshold crossings in lock-step; 2-vCPU host,
# 8 alternating pairs, seeds 51-58, `--seconds 4`) three levels read 0.163 s of
# `norm_wall_s` against two levels' 0.153 s and won 1 of 8 pairs; on the
# one-bracket threshold search four or more levels were slower still.
_BISECT_LEVELS = 2
_NODES = 2**_BISECT_LEVELS - 1  # midpoints in one round's tree


def _values(
    g: Callable[[np.ndarray, np.ndarray], np.ndarray], points: list[float], owners: list[int]
) -> list[float]:
    """``g`` at ``points``, each named by its bracket in ``owners``; no call
    of ``g`` for no points."""
    if not points:
        return []
    xs = np.array(points, dtype=float)
    return np.broadcast_to(np.asarray(g(xs, np.array(owners)), dtype=float), xs.shape).tolist()


def _not_finite(message: str, x: float) -> NumericDomainError:
    """The error for a visited point ``x`` where ``g`` is not finite; ``x``
    rides on it so that a caller can raise its own error for that point."""
    exc = NumericDomainError(message)
    exc.x = x
    return exc


def _midpoint_tree(a: float, b: float, tol: float) -> dict[int, float]:
    """The midpoints that the next :data:`_BISECT_LEVELS` bisection steps
    from [a, b] could visit, keyed by tree position: node k's left child is
    2k + 1, its right child 2k + 2.  A step the walk would not take (width at
    most ``tol``, or no float strictly inside) adds no node."""
    tree = {}
    stack = [(0, a, b)]
    while stack:
        k, a, b = stack.pop()
        if k >= _NODES or not b - a > tol:
            continue
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            continue
        tree[k] = mid
        stack += [(2 * k + 1, a, mid), (2 * k + 2, mid, b)]
    return tree


class _Walk:
    """One bracket's bisection: [a, b] with ``ga`` = g(a), and ``result``,
    None while a step remains, then the root or the error that ended it."""

    def __init__(self, a: float, b: float, ga: float, gb: float, tol: float) -> None:
        self.a, self.b, self.ga, self.tol = a, b, ga, tol
        self.result = None
        if not (math.isfinite(ga) and math.isfinite(gb)):
            self.result = _not_finite(
                f"bracket endpoints evaluate non-finite: g({a})={ga}, g({b})={gb}",
                a if not math.isfinite(ga) else b,
            )
        elif ga == 0.0:
            self.result = a
        elif gb == 0.0:
            self.result = b
        elif ga * gb > 0:
            self.result = BracketError(
                f"no sign change on [{a}, {b}]: g(a)={ga:.6g}, g(b)={gb:.6g}"
            )
        else:
            self._settle()

    def _settle(self) -> None:
        """End the walk at its midpoint once no step remains: the width is
        within ``tol``, or float resolution is exhausted."""
        a, b = self.a, self.b
        mid = 0.5 * (a + b)
        if not b - a > self.tol or mid <= a or mid >= b:
            self.result = mid

    def descend(self, priced: dict[int, float]) -> None:
        """Take the steps that ``priced``, g over this walk's midpoint tree,
        decides, as the one-point bisection takes them."""
        k = 0
        while self.result is None and k < _NODES:
            mid, gm = 0.5 * (self.a + self.b), priced[k]
            if not math.isfinite(gm):
                self.result = _not_finite(f"g is not finite at x={mid}", mid)
            elif gm == 0.0:
                self.result = mid
            else:
                if self.ga * gm < 0:
                    self.b, k = mid, 2 * k + 1
                else:
                    self.a, self.ga, k = mid, gm, 2 * k + 2
                self._settle()


def find_roots(
    g: Callable[[np.ndarray, np.ndarray], np.ndarray],
    brackets: Sequence[tuple[float, float]],
    tol: float = 1e-9,
) -> list[float]:
    """Bisect ``g`` on every bracket (lo, hi) down to interval width ``tol``,
    the brackets in lock-step.

    ``g`` maps a 1-D array of points and the array of each point's bracket,
    its index in ``brackets``, to the points' values (anything that
    broadcasts to the points' shape).  One call prices every bracket's ends;
    each later call, one per round, prices for every bracket still open
    every midpoint that its next :data:`_BISECT_LEVELS` steps could visit.
    Each walk then makes the one-point bisection's decisions in its order,
    so each root is that bracket's one-point result bit for bit, and a
    value at a point its walk does not visit is never read.

    The error raised is the first failing bracket's, as if the brackets were
    bisected one after another; its ``bracket`` attribute is that bracket's
    index.  A bracket after a failed one is walked no further.

    :raises BracketError: when g(lo) and g(hi) have the same sign.
    :raises NumericDomainError: when ``g`` is not finite at a visited point;
        its ``x`` attribute is the bracket's first such point.
    """
    if tol <= 0:
        raise ValidationError(f"tol must be positive, got {tol}")
    spans = [(lo, hi) if lo <= hi else (hi, lo) for lo, hi in brackets]
    ends = _values(g, [x for span in spans for x in span], [i // 2 for i in range(2 * len(spans))])
    walks = [_Walk(a, b, ga, gb, tol) for (a, b), ga, gb in zip(spans, ends[::2], ends[1::2])]
    while True:
        failed = next((i for i, w in enumerate(walks) if isinstance(w.result, Exception)), None)
        trees = {
            i: _midpoint_tree(walk.a, walk.b, tol)
            for i, walk in enumerate(walks[:failed])
            if walk.result is None
        }
        if not trees:
            break
        points = [x for tree in trees.values() for x in tree.values()]
        values = iter(_values(g, points, [i for i, tree in trees.items() for _ in tree]))
        for i, tree in trees.items():
            walks[i].descend({k: next(values) for k in tree})
    if failed is not None:
        error = walks[failed].result
        error.bracket = failed
        raise error
    return [w.result for w in walks]


def find_root(
    g: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    tol: float = 1e-9,
) -> float:
    """Bisect ``g`` on [lo, hi] down to interval width ``tol``: the
    one-bracket case of :func:`find_roots`.

    ``g`` maps a 1-D array of points to their values (anything that
    broadcasts to the points' shape).  One call prices both bracket ends;
    each later call prices every midpoint that the next
    :data:`_BISECT_LEVELS` steps could visit.  The walk then makes the
    one-point bisection's decisions in its order, so the result does not
    depend on the batching, and a value at a point the walk does not visit
    is never read.

    :raises BracketError: when ``g(lo)`` and ``g(hi)`` have the same sign.
    :raises NumericDomainError: when ``g`` is not finite at a visited point;
        its ``x`` attribute is the first such point.
    """
    return find_roots(lambda xs, _: g(xs), [(lo, hi)], tol)[0]
