"""Deterministic numerical primitives used by every other module.

Quadrature is composite Simpson on a fixed, evenly spaced corridor grid over
node-sampled values; the cumulative variant integrates pairwise so that its
final node reproduces the plain composite rule bit for bit.  Both take
stacked integrands whose last axis runs over the nodes, and give each row
exactly its one-row result.  Root finding is bisection batched over the
bisection tree: each call of the function prices every midpoint that the
next two steps could visit, and the walk makes the one-point bisection's
decisions, so it returns the one-point result bit for bit.
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
    h/12*(5 f0 + 8 f1 - f2).  The final entry therefore equals composite
    Simpson over the full grid exactly.  The half-pair weights assume the
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


# Bisection levels priced per call of ``g`` in :func:`find_root`: each call
# prices every midpoint the next two steps could visit.  Deeper levels price
# more points that the walk discards; on the threshold search three levels
# were no faster than two, and four or more were slower.
_BISECT_LEVELS = 2
_NODES = 2**_BISECT_LEVELS - 1  # midpoints in one call's tree


def _values(g: Callable[[np.ndarray], np.ndarray], points: list[float]) -> list[float]:
    xs = np.array(points, dtype=float)
    return np.broadcast_to(np.asarray(g(xs), dtype=float), xs.shape).tolist()


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


def find_root(
    g: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    tol: float = 1e-9,
) -> float:
    """Bisect ``g`` on [lo, hi] down to interval width ``tol``.

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
    if tol <= 0:
        raise ValidationError(f"tol must be positive, got {tol}")
    a, b = (lo, hi) if lo <= hi else (hi, lo)
    ga, gb = _values(g, [a, b])
    if not (math.isfinite(ga) and math.isfinite(gb)):
        raise _not_finite(
            f"bracket endpoints evaluate non-finite: g({a})={ga}, g({b})={gb}",
            a if not math.isfinite(ga) else b,
        )
    if ga == 0.0:
        return a
    if gb == 0.0:
        return b
    if ga * gb > 0:
        raise BracketError(f"no sign change on [{a}, {b}]: g(a)={ga:.6g}, g(b)={gb:.6g}")
    k, priced = _NODES, {}
    while b - a > tol:
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            break  # float resolution exhausted
        if k >= _NODES:  # past the priced tree: price the next one
            tree = _midpoint_tree(a, b, tol)
            k, priced = 0, dict(zip(tree, _values(g, list(tree.values()))))
        gm = priced[k]
        if not math.isfinite(gm):
            raise _not_finite(f"g is not finite at x={mid}", mid)
        if gm == 0.0:
            return mid
        if ga * gm < 0:
            b, k = mid, 2 * k + 1
        else:
            a, ga, k = mid, gm, 2 * k + 2
    return 0.5 * (a + b)
