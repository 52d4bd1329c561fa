"""Quadrature and root bracketing."""

from __future__ import annotations

import math

import numpy as np
import pytest

from lanepolicy import BracketError, NumericDomainError, ValidationError
from lanepolicy.numeric import (
    CorridorGrid,
    cumulative_values,
    dot_rows,
    find_root,
    integrate_values,
)


class TestCorridorGrid:
    def test_node_layout(self):
        grid = CorridorGrid(length=10.0, n_cells=4)
        assert grid.h == pytest.approx(2.5)
        np.testing.assert_allclose(grid.nodes, [0.0, 2.5, 5.0, 7.5, 10.0])

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValidationError):
            CorridorGrid(length=-1.0, n_cells=4)
        with pytest.raises(ValidationError):
            CorridorGrid(length=10.0, n_cells=0)
        with pytest.raises(ValidationError):
            CorridorGrid(length=10.0, n_cells=5)  # Simpson needs an even count

    def test_simpson_weights_sum_to_length(self):
        grid = CorridorGrid(length=7.0, n_cells=6)
        assert float(np.sum(grid.simpson_weights)) == pytest.approx(7.0)


class TestIntegrate:
    def test_exact_on_cubic(self):
        # Simpson's rule integrates cubics exactly up to rounding.
        grid = CorridorGrid(length=3.0, n_cells=10)
        x = grid.nodes
        got = integrate_values(x**3 - 2.0 * x**2 + 5.0, grid)
        exact = 3.0**4 / 4 - 2.0 * 3.0**3 / 3 + 5.0 * 3.0
        assert got == pytest.approx(exact, rel=1e-14)

    def test_stacked_integrands(self):
        grid = CorridorGrid(length=4.0, n_cells=60)
        stack = np.stack([np.cos(grid.nodes) + 2.0, grid.nodes**2, np.ones(61)])
        got = integrate_values(stack, grid)
        assert got.shape == (3,)
        for row, value in zip(stack, got):
            assert value == pytest.approx(integrate_values(row, grid), rel=1e-14)

    def test_stacked_rows_equal_one_row_integrals_exactly(self):
        grid = CorridorGrid(length=30.0, n_cells=600)
        rows = np.random.default_rng(3).random((54, 601)) * 1e3
        assert list(integrate_values(rows, grid)) == [integrate_values(row, grid) for row in rows]
        weights = np.random.default_rng(4).random((54, 601))
        assert list(dot_rows(rows, weights)) == [a @ b for a, b in zip(rows, weights)]

    def test_values_shape_checked(self):
        grid = CorridorGrid(length=2.0, n_cells=4)
        with pytest.raises(ValidationError):
            integrate_values(np.ones(4), grid)


class TestCumulative:
    def test_matches_analytic_antiderivative(self):
        grid = CorridorGrid(length=4.0, n_cells=400)
        cum = cumulative_values(3.0 * grid.nodes**2, grid)
        np.testing.assert_allclose(cum, grid.nodes**3, atol=1e-9)

    def test_starts_at_zero_and_monotone_for_positive_density(self):
        grid = CorridorGrid(length=4.0, n_cells=100)
        cum = cumulative_values(np.exp(-grid.nodes), grid)
        assert cum[0] == 0.0
        assert np.all(np.diff(cum) > 0)

    def test_last_entry_equals_full_integral(self):
        grid = CorridorGrid(length=4.0, n_cells=60)
        vals = np.cos(grid.nodes) + 2.0
        assert cumulative_values(vals, grid)[-1] == pytest.approx(
            integrate_values(vals, grid), rel=1e-12
        )


class TestFindRoot:
    def test_simple_root(self):
        r = find_root(lambda x: x**2 - 2.0, 0.0, 2.0)
        assert r == pytest.approx(math.sqrt(2.0), abs=1e-8)

    def test_swapped_bounds(self):
        r = find_root(lambda x: x - 1.5, 3.0, 0.0)
        assert r == pytest.approx(1.5, abs=1e-8)

    def test_endpoint_zero_returned_exactly(self):
        assert find_root(lambda x: x - 1.0, 1.0, 5.0) == 1.0

    def test_no_sign_change_raises(self):
        with pytest.raises(BracketError):
            find_root(lambda x: x**2 + 1.0, -1.0, 1.0)

    def test_non_finite_raises(self):
        with pytest.raises(NumericDomainError):
            find_root(lambda x: float("nan"), 0.0, 1.0)

