"""Deterministic numerical primitives used by every other module.

Quadrature is composite Simpson on a fixed, evenly spaced corridor grid over
node-sampled values; the cumulative variant integrates pairwise so that its
final node reproduces the plain composite rule bit for bit.  Both take
stacked integrands whose last axis runs over the nodes, and give each row
exactly its one-row result.  Root finding is plain bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import BracketError, NumericDomainError, ValidationError

__all__ = [
    "CorridorGrid",
    "integrate_values",
    "cumulative_values",
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


def _check_finite(values: np.ndarray, nodes: np.ndarray) -> None:
    bad = ~np.isfinite(values)
    if bad.any():
        i = tuple(np.argwhere(bad)[0])
        raise NumericDomainError(
            f"integrand is not finite at node x={nodes[i[-1]]:.6g} (value {values[i]!r})"
        )


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


def find_root(
    g: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-9,
) -> float:
    """Bisect ``g`` on [lo, hi] down to interval width ``tol``.

    :raises BracketError: when ``g(lo)`` and ``g(hi)`` have the same sign.
    """
    if tol <= 0:
        raise ValidationError(f"tol must be positive, got {tol}")
    a, b = (lo, hi) if lo <= hi else (hi, lo)
    ga, gb = float(g(a)), float(g(b))
    if not (math.isfinite(ga) and math.isfinite(gb)):
        raise NumericDomainError(f"bracket endpoints evaluate non-finite: g({a})={ga}, g({b})={gb}")
    if ga == 0.0:
        return a
    if gb == 0.0:
        return b
    if ga * gb > 0:
        raise BracketError(f"no sign change on [{a}, {b}]: g(a)={ga:.6g}, g(b)={gb:.6g}")
    while b - a > tol:
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            break  # float resolution exhausted
        gm = float(g(mid))
        if not math.isfinite(gm):
            raise NumericDomainError(f"g is not finite at x={mid}")
        if gm == 0.0:
            return mid
        if ga * gm < 0:
            b = mid
        else:
            a, ga = mid, gm
    return 0.5 * (a + b)
