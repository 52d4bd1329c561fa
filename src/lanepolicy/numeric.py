"""Deterministic numerical primitives used by every other module.

Quadrature is composite Simpson on a fixed, evenly spaced corridor grid over
node-sampled values; the cumulative variant integrates pairwise, so its final
node is the plain composite rule summed in another order: equal to rounding,
not bit for bit.  Both take stacked integrands whose last axis runs over the
nodes, and give each row exactly its one-row result.  Root finding is
bisection batched along predicted paths and over brackets: each call of
the function prices the midpoints that every open bracket's walk visits if
the root is where an interpolating cubic puts it, and each walk makes the
one-point bisection's decisions, so every root is its bracket's one-point
result bit for bit.
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


def _model(a: float, b: float, points: list[tuple[float, float]]) -> Callable[[float], float]:
    """g's model on [a, b] from (x, g(x)) ``points``, the ends first: the
    cubic (Newton form, Python floats) through the four finite ones nearest
    [a, b], the first at each x, where it changes sign as g does, else the
    secant of the ends."""
    (_, ga), (_, gb) = points[:2]
    xs, cs = [], []
    finite = [(x, gx) for x, gx in points if math.isfinite(x) and math.isfinite(gx)]
    for x, gx in sorted(finite, key=lambda p: max(a - p[0], p[0] - b, 0.0)):
        if x not in xs:
            xs.append(x)
            cs.append(gx)
            if len(xs) == 4:
                break
    for k in range(1, len(xs)):
        for i in range(len(xs) - 1, k - 1, -1):
            cs[i] = (cs[i] - cs[i - 1]) / (xs[i] - xs[i - k])

    def cubic(x: float) -> float:
        value = cs[-1]
        for xi, c in zip(xs[-2::-1], cs[-2::-1]):
            value = value * (x - xi) + c
        return value

    pa, pb = cubic(a), cubic(b)
    if (pa < 0 < pb) if ga < 0 else (pb < 0 < pa):
        return cubic
    root = a + (b - a) * (ga / (ga - gb))
    return (lambda x: x - root) if ga < 0 else (lambda x: root - x)


class _Walk:
    """One bracket's bisection: [a, b] with ``ga`` = g(a) and ``gb`` = g(b);
    ``result``, None while a step remains, then the root or the error that
    ended it; and ``seen``, the (x, g(x)) pairs known near it, g's first."""

    def __init__(
        self, a: float, b: float, ga: float, gb: float, tol: float, known: Sequence
    ) -> None:
        self.a, self.b, self.ga, self.gb, self.tol = a, b, ga, gb, tol
        self.seen = [(float(x), float(gx)) for x, gx in known]
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
        elif (ga < 0) == (gb < 0):
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

    def path(self) -> list[float]:
        """The midpoints that this walk visits if g has its model's signs
        (:func:`_model`), down to width ``tol``: the walk's predicted path."""
        a, b, rising = self.a, self.b, self.ga < 0
        model = _model(a, b, [(a, self.ga), (b, self.gb), *self.seen])
        path = []
        while b - a > self.tol:
            mid = 0.5 * (a + b)
            if mid <= a or mid >= b:
                break
            path.append(mid)
            value = model(mid)
            if not (value < 0 or value > 0):  # the model's root, or NaN
                break
            if (value < 0) == rising:
                a = mid
            else:
                b = mid
        return path

    def descend(self, path: list[float], values: list[float]) -> None:
        """Take the steps that g's ``values`` on ``path`` decide, as the
        one-point bisection takes them, up to the first midpoint off the
        walk; keep every value for later models."""
        self.seen[:0] = zip(path, values)
        for mid, gm in zip(path, values):
            if self.result is not None or mid != 0.5 * (self.a + self.b):
                break
            if not math.isfinite(gm):
                self.result = _not_finite(f"g is not finite at x={mid}", mid)
            elif gm == 0.0:
                self.result = mid
            else:
                if (gm < 0) != (self.ga < 0):
                    self.b, self.gb = mid, gm
                else:
                    self.a, self.ga = mid, gm
                self._settle()


def find_roots(
    g: Callable[[np.ndarray, np.ndarray], np.ndarray],
    brackets: Sequence[tuple[float, float]],
    tol: float = 1e-9,
    known: Sequence[Sequence[tuple[float, float]]] | None = None,
) -> list[float]:
    """Bisect ``g`` on every bracket (lo, hi) down to interval width ``tol``,
    the brackets in lock-step.

    ``g`` maps a 1-D array of points and the array of each point's bracket,
    its index in ``brackets``, to the points' values (anything that
    broadcasts to the points' shape).  One call prices every bracket's ends;
    each later call, one per round, prices for every open bracket the
    midpoints that its walk visits if the root is where a cubic through the
    values nearest the bracket puts it: its ends, those priced for it and
    ``known[i]``, bracket i's (x, g(x)) pairs.  Each walk then makes the
    one-point bisection's decisions in its order, so each root is that
    bracket's one-point result bit for bit, and a value at a point its walk
    does not visit, or a known one, never decides a step.

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
    known = [()] * len(spans) if known is None else list(known)
    if len(known) != len(spans):
        raise ValidationError(f"known needs one entry per bracket, got {len(known)} for {len(spans)}")
    ends = _values(g, [x for span in spans for x in span], [i // 2 for i in range(2 * len(spans))])
    walks = [
        _Walk(a, b, ga, gb, tol, near)
        for (a, b), ga, gb, near in zip(spans, ends[::2], ends[1::2], known)
    ]
    while True:
        failed = next((i for i, w in enumerate(walks) if isinstance(w.result, Exception)), None)
        paths = {i: walk.path() for i, walk in enumerate(walks[:failed]) if walk.result is None}
        if not paths:
            break
        points = [x for path in paths.values() for x in path]
        values = iter(_values(g, points, [i for i, path in paths.items() for _ in path]))
        for i, path in paths.items():
            walks[i].descend(path, [next(values) for _ in path])
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
    known: Sequence[tuple[float, float]] = (),
) -> float:
    """Bisect ``g`` on [lo, hi] down to interval width ``tol``: the
    one-bracket case of :func:`find_roots`.

    ``g`` maps a 1-D array of points to their values (anything that
    broadcasts to the points' shape), and ``known`` holds (x, g(x)) pairs
    that only steer which midpoints each call prices.  The walk makes the
    one-point bisection's decisions in its order, so the result does not
    depend on the batching, and a value at a point the walk does not visit,
    or a known one, never decides a step.

    :raises BracketError: when ``g(lo)`` and ``g(hi)`` have the same sign.
    :raises NumericDomainError: when ``g`` is not finite at a visited point;
        its ``x`` attribute is the first such point.
    """
    return find_roots(lambda xs, _: g(xs), [(lo, hi)], tol, [known])[0]
