"""Deterministic numerical primitives used by every other module.

Quadrature is composite Simpson on a fixed, evenly spaced corridor grid; the
cumulative variant integrates pairwise so that its final node reproduces the
plain composite rule bit for bit.  Root finding is plain bisection.  Scalar
minimization is a coarse lattice scan refined around the incumbent, with a
deterministic smallest-argument tie-break.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import BracketError, NumericDomainError, ValidationError

logger = logging.getLogger(__name__)

__all__ = [
    "CorridorGrid",
    "integrate",
    "integrate_values",
    "cumulative_integral",
    "cumulative_values",
    "find_root",
    "grid_min",
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


def _values_on(grid: CorridorGrid, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    values = np.asarray(f(grid.nodes), dtype=float)
    if values.shape != grid.nodes.shape:
        # scalar-valued callables are broadcast (constant integrand)
        values = np.broadcast_to(values, grid.nodes.shape).astype(float)
    return values


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


def cumulative_integral(
    f: Callable[[np.ndarray], np.ndarray], grid: CorridorGrid
) -> np.ndarray:
    """Array of integrals of ``f`` from 0 to every grid node (index-aligned)."""
    return cumulative_values(_values_on(grid, f), grid)


def integrate_values(values: Sequence[float] | np.ndarray, grid: CorridorGrid) -> float:
    """Composite-Simpson integral of node-sampled ``values`` over the full grid."""
    v = np.asarray(values, dtype=float)
    if v.shape != grid.nodes.shape:
        raise ValidationError(f"expected {grid.nodes.shape[0]} node values, got {v.shape}")
    _check_finite(v, grid.nodes)
    return float(np.dot(grid.simpson_weights, v))


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    grid: CorridorGrid,
) -> float:
    """Composite-Simpson integral of ``f`` over [a, b] within [0, length].

    Full-range calls reuse the cumulative machinery so that
    ``integrate(f, 0, length, grid) == cumulative_integral(f, grid)[-1]``
    exactly.  Sub-ranges are integrated on a fresh even lattice of comparable
    resolution; either way the rule is exact for cubics.
    """
    if not (a <= b):
        raise ValidationError(f"integration bounds must satisfy a <= b, got a={a}, b={b}")
    if a < -1e-12 or b > grid.length * (1 + 1e-12):
        raise ValidationError(
            f"integration bounds [{a}, {b}] fall outside the corridor [0, {grid.length}]"
        )
    if a == b:
        return 0.0
    if a == 0.0 and b == grid.length:
        return float(cumulative_integral(f, grid)[-1])
    n_local = max(2, 2 * math.ceil((b - a) / (2.0 * grid.h)))
    xs = np.linspace(a, b, n_local + 1)
    values = np.asarray(f(xs), dtype=float)
    if values.shape != xs.shape:
        values = np.broadcast_to(values, xs.shape).astype(float)
    _check_finite(values, xs)
    w = np.ones(n_local + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float((b - a) / (3.0 * n_local) * np.dot(w, values))


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


def _lattice(lo: float, hi: float, step: float) -> np.ndarray:
    n = int(math.floor((hi - lo) / step + 1e-9))
    pts = lo + step * np.arange(n + 1)
    if pts[-1] < hi - 1e-12 * max(1.0, abs(hi)):
        pts = np.append(pts, hi)
    return pts

def grid_min(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    coarse_step: float,
    refine_factor: float = 10.0,
    rounds: int = 1,
) -> tuple[float, float]:
    """Minimize a scalar function by lattice scan plus local refinement.

    Scans the coarse lattice on [lo, hi], then ``rounds`` times re-grids the
    interval [incumbent - step, incumbent + step] (clipped to the original
    bounds) with the step shrunk by ``refine_factor``.  Non-finite evaluations
    are skipped and logged.  Ties break to the smallest argument.

    :returns: ``(argmin, min)`` over every point evaluated.
    """
    if not (lo < hi):
        raise ValidationError(f"grid_min needs lo < hi, got [{lo}, {hi}]")
    if coarse_step <= 0:
        raise ValidationError(f"coarse_step must be positive, got {coarse_step}")
    if refine_factor <= 1:
        raise ValidationError(f"refine_factor must exceed 1, got {refine_factor}")

    best_x = math.nan
    best_v = math.inf
    found = False

    def scan(points: np.ndarray) -> None:
        nonlocal best_x, best_v, found
        for x in points:
            v = float(f(float(x)))
            if not math.isfinite(v):
                logger.debug("grid_min: skipping non-finite f(%g)=%r", x, v)
                continue
            if v < best_v or (v == best_v and x < best_x):
                best_x, best_v = float(x), v
                found = True

    step = coarse_step
    scan(_lattice(lo, hi, step))
    if not found:
        raise NumericDomainError("grid_min: every coarse lattice point evaluated non-finite")
    for _ in range(rounds):
        new_step = step / refine_factor
        a = max(lo, best_x - step)
        b = min(hi, best_x + step)
        scan(_lattice(a, b, new_step))
        step = new_step
    return best_x, best_v
