"""Quadrature and root bracketing."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lanepolicy import BracketError, NumericDomainError, Policy, Scenario, ValidationError
from lanepolicy import numeric
from lanepolicy.costmodel import build_context, unit_time_profile
from lanepolicy.numeric import (
    CorridorGrid,
    cumulative_kernel,
    cumulative_values,
    dot_rows,
    find_root,
    find_roots,
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

    def test_last_entry_is_simpson_to_summation_rounding(self):
        # a running sum of 300 pair increments, not Simpson's dot product: on
        # this EBLP bus time profile the two differ by 7.4e-15 relative
        scen = Scenario()
        ctx = build_context(scen, 150.0, 0.0, 32.142857142857146)
        profile = unit_time_profile(ctx, Policy.EBLP, "bus")
        grid = scen.grid()
        whole = integrate_values(profile, grid)
        assert abs(cumulative_values(profile, grid)[-1] - whole) <= 1e-14 * whole

    @pytest.mark.parametrize("n_cells", [2, 4, 20, 600])
    def test_kernel_is_the_adjoint_of_the_cumulative_rule(self, n_cells):
        # the dense form cumulative_values(I) @ w, built here only as a reference
        grid = CorridorGrid(length=30.0, n_cells=n_cells)
        weights = grid.simpson_weights * (1.0 - grid.nodes / grid.length)
        kernel = cumulative_kernel(weights, grid)
        dense = cumulative_values(np.eye(n_cells + 1), grid) @ weights
        np.testing.assert_allclose(kernel, dense, rtol=1e-13, atol=1e-15 * np.abs(dense).max())
        profiles = np.random.default_rng(n_cells).uniform(0.0, 2.0, (5, n_cells + 1))
        np.testing.assert_allclose(
            profiles @ kernel, cumulative_values(profiles, grid) @ weights, rtol=1e-13
        )
        # the half-pair weight -h/12 leaves one negative entry, at the last node
        assert np.flatnonzero(kernel < 0).tolist() == [n_cells]
        if n_cells == 2:
            assert kernel[-1] == -12.5


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



# a row's upper end in steps above its lower end: the same end, a lattice,
# an empty row below it, or a NaN end
_span = st.one_of(
    st.just(0.0), st.floats(1e-6, 40.0), st.floats(-3.0, -1e-6), st.just(math.nan)
)


class TestLattice:
    @given(
        st.lists(st.tuples(st.floats(-100.0, 100.0), _span), min_size=1, max_size=4),
        st.floats(0.01, 10.0),
    )
    def test_rows_keep_both_ends(self, rows, step):
        lo = np.array([row[0] for row in rows])
        hi = lo + step * np.array([row[1] for row in rows])
        lattice = numeric._lattice(lo, hi, step)
        assert lattice.shape[0] == lo.size
        for a, b, row in zip(lo, hi, lattice):
            if not a <= b:  # hi below lo, or an end that is NaN
                assert np.isnan(row).all()
                continue
            points = row[~np.isnan(row)]
            assert np.isnan(row[points.size :]).all()  # padding only after the points
            assert points[0] == a and points[-1] == b
            assert a <= points.min() and points.max() <= b
            interior = np.arange(points.size - 1)
            np.testing.assert_array_equal(points[:-1], a + step * interior)
            gaps = np.diff(points)
            assert np.all(gaps > 0) and np.all(gaps <= step * (1 + 1e-9))

    @given(st.floats(-100.0, 100.0), st.floats(1e-3, 1e3), st.integers(2, 60))
    def test_linspace_when_the_step_divides_the_range(self, lo, width, n):
        hi = lo + width
        np.testing.assert_array_equal(
            numeric._lattice(lo, hi, (hi - lo) / (n - 1)), np.linspace(lo, hi, n)
        )

    def test_one_row_from_scalar_ends(self):
        assert numeric._lattice(0.0, 1.0, 0.3).tolist() == [0.0, 0.3, 0.6, 0.8999999999999999, 1.0]
        assert numeric._lattice(2.0, 2.0, 1.0).tolist() == [2.0]
        assert numeric._lattice(2.0, 1.0, 1.0).shape == (0,)


def _one_point_bisection(f, lo, hi, tol):
    """Plain bisection that prices one point per call of ``f``: the walk
    that :func:`find_root` batches."""
    a, b = (lo, hi) if lo <= hi else (hi, lo)
    ga, gb = float(f(a)), float(f(b))
    if not (math.isfinite(ga) and math.isfinite(gb)):
        raise NumericDomainError(f"bracket endpoints evaluate non-finite: g({a})={ga}, g({b})={gb}")
    if ga == 0.0:
        return a
    if gb == 0.0:
        return b
    if (ga < 0) == (gb < 0):
        raise BracketError(f"no sign change on [{a}, {b}]: g(a)={ga:.6g}, g(b)={gb:.6g}")
    while b - a > tol:
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            break
        gm = float(f(mid))
        if not math.isfinite(gm):
            raise NumericDomainError(f"g is not finite at x={mid}")
        if gm == 0.0:
            return mid
        if (gm < 0) != (ga < 0):
            b = mid
        else:
            a, ga = mid, gm
    return 0.5 * (a + b)


def _outcome(search, *args):
    try:
        return search(*args).hex()
    except NumericDomainError as exc:
        return type(exc), str(exc)


_coefficient = st.floats(-1e3, 1e3, allow_nan=False)
_end = st.floats(-50.0, 50.0, allow_nan=False)
_tol = st.sampled_from([1e-12, 1e-9, 1e-3, 0.7])


class TestBatchedBisection:
    @given(st.tuples(_coefficient, _coefficient, _coefficient, _coefficient), _end, _end, _tol)
    def test_random_cubics_match_one_point_bisection(self, coefficients, lo, hi, tol):
        c3, c2, c1, c0 = coefficients

        def cubic(x):
            return ((c3 * x + c2) * x + c1) * x + c0

        assert _outcome(find_root, cubic, lo, hi, tol) == _outcome(
            _one_point_bisection, cubic, lo, hi, tol
        )

    @given(
        st.integers(-100, 100), st.integers(1, 64), st.lists(st.booleans(), max_size=30),
        st.sampled_from([1.0, -1.0]), _coefficient,
    )
    def test_root_on_a_midpoint_returned_exactly(self, lo, width, path, sign, shift):
        # the root is the midpoint the walk reaches by following ``path``
        a, b = float(lo), float(lo + width)
        root = 0.5 * (a + b)
        for right in path:
            a, b = (root, b) if right else (a, root)
            root = 0.5 * (a + b)

        def g(x):
            return sign * (x - root) * (x * x + abs(shift) + 1.0)

        got = find_root(g, float(lo), float(lo + width), tol=1e-12)
        assert got == root
        assert got == _one_point_bisection(g, float(lo), float(lo + width), 1e-12)

    def test_bracket_two_ulps_wide(self):
        lo = 1.0
        hi = np.nextafter(np.nextafter(lo, 2.0), 2.0)
        middle = np.nextafter(lo, 2.0)
        for g in (lambda x: x - hi, lambda x: x - lo - 1e-300, lambda x: lo - x + 1e-17):
            got = find_root(g, lo, float(hi), tol=1e-300)
            assert got == _one_point_bisection(g, lo, float(hi), 1e-300)
            assert lo <= got <= hi
        # the one float inside is the only midpoint: no float lies strictly
        # inside either half
        sizes = []

        def sized(x):
            sizes.append(x.size)
            return x - lo - 1e-300

        find_root(sized, lo, float(hi), tol=1e-300)
        assert sizes == [2, 1]
        assert find_root(lambda x: x - middle, lo, float(hi), tol=1e-300) == middle

    def test_non_finite_value_off_the_walk_is_ignored(self):
        priced = []

        def g(x):
            priced.extend(x.tolist())
            return np.where(x == 3.0, np.nan, x - 1.2)

        # a wrong known value puts the model's root near 3.64, so the first
        # round prices 2, 3, 3.5, ...; from [0, 4] the walk visits 2 and
        # then 1, never 3
        got = find_root(g, 0.0, 4.0, tol=1e-6, known=[(3.5, -1.0)])
        assert priced[2:5] == [2.0, 3.0, 3.5]
        assert got == _one_point_bisection(lambda x: x - 1.2, 0.0, 4.0, 1e-6)

    def test_non_finite_value_on_the_walk_raises_with_its_point(self):
        with pytest.raises(NumericDomainError, match="not finite at x=1.0") as info:
            find_root(lambda x: np.where(x == 1.0, np.nan, x - 1.2), 0.0, 4.0, tol=1e-6)
        assert info.value.x == 1.0

    def test_each_call_prices_the_predicted_path(self):
        calls = []

        def sized(f):
            def g(x):
                calls.append(x.tolist())
                return f(x)

            return g

        # two ends, then the 10 halvings down to 1e-3 toward the secant's
        # root, 0.3, all of them on the walk
        find_root(sized(lambda x: x - 0.3), 0.0, 1.0, tol=1e-3)
        assert [len(call) for call in calls] == [2, 10]
        calls.clear()
        find_root(sized(lambda x: x - 0.3), 0.0, 1.0, tol=3e-3)
        assert [len(call) for call in calls] == [2, 9]
        # a curved g: the secant of [0, 4] puts the root near 0.075, and the
        # walk turns off that path at its third point, 0.5; the cubic through
        # 0, 0.25, 0.5 and 1 then predicts the other 9 steps
        calls.clear()
        got = find_root(sized(lambda x: np.exp(x) - 2.0), 0.0, 4.0, tol=1e-3)
        assert [len(call) for call in calls] == [2, 12, 9]
        assert calls[1][:4] == [2.0, 1.0, 0.5, 0.25]
        assert got == _one_point_bisection(lambda x: math.exp(x) - 2.0, 0.0, 4.0, 1e-3)

    def test_signs_are_compared_not_multiplied(self):
        # g(a) * g(mid) underflows to 0 here, which once read as no sign
        # change: the walk went right at every step and ended near 1
        def tiny(x):
            return (x - 0.3) * 1e-200

        got = find_root(tiny, 0.0, 1.0, tol=1e-6)
        assert got == _one_point_bisection(tiny, 0.0, 1.0, 1e-6)
        assert abs(got - 0.3) <= 1e-6
        # and g(a) * g(b) underflowing to 0 once read as a sign change
        with pytest.raises(BracketError, match="no sign change"):
            find_root(lambda x: 1e-200 + 0 * x, 0.0, 1.0)


def _cubic(coefficients, poison):
    """A cubic in Python floats, NaN strictly inside the window ``poison``
    (start, width) when one is given."""
    c3, c2, c1, c0 = coefficients

    def f(x: float) -> float:
        if poison is not None and poison[0] < x < poison[0] + poison[1]:
            return math.nan
        return ((c3 * x + c2) * x + c1) * x + c0

    return f


def _one_by_one(functions, brackets, tol):
    """Each bracket's one-point bisection in turn, up to the first error."""
    roots = []
    for k, (f, (lo, hi)) in enumerate(zip(functions, brackets)):
        try:
            roots.append(_one_point_bisection(f, lo, hi, tol).hex())
        except NumericDomainError as exc:
            return type(exc), str(exc), k
    return roots


def _lock_step(functions, brackets, tol, calls=None, known=None):
    """:func:`find_roots` with bracket k priced by ``functions[k]``, and
    given ``known``; each call's (point, bracket) pairs are appended to
    ``calls``."""

    def g(xs, owners):
        pairs = list(zip(xs.tolist(), owners.tolist()))
        if calls is not None:
            calls.append(pairs)
        return [functions[k](x) for x, k in pairs]

    try:
        return [root.hex() for root in find_roots(g, brackets, tol, known)]
    except NumericDomainError as exc:
        if not isinstance(exc, BracketError):
            # the point the error names rides on it
            assert str(exc).endswith(f"x={exc.x}") or f"g({exc.x})=" in str(exc)
        return type(exc), str(exc), exc.bracket


@st.composite
def _cubic_bracket(draw):
    """(coefficients, lo, hi, poison): a cubic through a random point of
    [lo, hi], so most brackets change sign, and an optional NaN window."""
    lo, hi = draw(_end), draw(_end)
    c3, c2, c1 = draw(_coefficient), draw(_coefficient), draw(_coefficient)
    root = lo + draw(st.floats(0.0, 1.0)) * (hi - lo)
    c0 = -((c3 * root + c2) * root + c1) * root
    return (c3, c2, c1, c0), lo, hi, draw(st.none() | st.tuples(_end, st.floats(0.0, 20.0)))


# (x, g(x)) pairs handed to a bracket's walk: x anywhere, at an end, not
# finite, or the midpoint that a walk reaches by a list of turns (True:
# right); the value g's own (None), or any float, NaN and inf among them
_known = st.lists(
    st.tuples(
        st.floats(-60.0, 60.0)
        | st.sampled_from(["lo", "hi", math.nan, math.inf, -math.inf])
        | st.lists(st.booleans(), max_size=8),
        st.none() | st.floats(),
    ),
    max_size=6,
)


def _known_point(x, lo, hi):
    """The point that a :data:`_known` draw names for the bracket (lo, hi)."""
    if not isinstance(x, list):
        return {"lo": lo, "hi": hi}.get(x, x)
    a, b = (lo, hi) if lo <= hi else (hi, lo)
    for right in x:
        a, b = (0.5 * (a + b), b) if right else (a, 0.5 * (a + b))
    return 0.5 * (a + b)


class TestLockStepBisection:
    @given(st.lists(_cubic_bracket(), min_size=1, max_size=5), _tol)
    def test_random_cubic_brackets_match_one_point_bisection(self, specs, tol):
        functions = [_cubic(coefficients, poison) for coefficients, _, _, poison in specs]
        brackets = [(lo, hi) for _, lo, hi, _ in specs]
        assert _lock_step(functions, brackets, tol) == _one_by_one(functions, brackets, tol)

    @given(st.lists(st.tuples(_cubic_bracket(), _known), min_size=1, max_size=4), _tol)
    def test_known_values_never_decide_a_step(self, specs, tol):
        functions = [_cubic(coefficients, poison) for (coefficients, *_, poison), _ in specs]
        brackets = [(lo, hi) for (_, lo, hi, _), _ in specs]
        known = []
        for f, (lo, hi), (_, pairs) in zip(functions, brackets, specs):
            points = [(_known_point(x, lo, hi), value) for x, value in pairs]
            points = [(x, f(x) if value is None else value) for x, value in points]
            known.append(points + points[::2])  # every other pair twice
        got = _lock_step(functions, brackets, tol, known=known)
        assert got == _one_by_one(functions, brackets, tol)

    def test_each_round_is_one_call(self):
        functions = [lambda x: x - 0.3, lambda x: (x - 7.1) ** 3, lambda x: 2.7 - x]
        brackets = [(0.0, 1.0), (5.0, 9.0), (0.0, 4.0)]
        calls = []
        roots = _lock_step(functions, brackets, 1e-3, calls)
        assert roots == _one_by_one(functions, brackets, 1e-3)
        # the six ends, then each open bracket's predicted path: [0, 1]
        # takes 10 halvings to 1e-3, [5, 9] and [0, 4] take 12.  The secant
        # finds both straight lines' roots; the walk on the cubic (x - 7.1)^3
        # leaves its secant path and takes a second round, alone.
        assert [len(call) for call in calls] == [6, 34, 8]
        assert {k for _, k in calls[-1]} == {1}

    def test_root_on_a_bracket_end(self):
        functions = [lambda x: x - 1.2, lambda x: x - 1.0, lambda x: x - 3.0, lambda x: x - 2.2]
        brackets = [(0.0, 4.0), (1.0, 5.0), (2.0, 3.0), (0.0, 4.0)]
        got = _lock_step(functions, brackets, 1e-6)
        assert got == _one_by_one(functions, brackets, 1e-6)
        assert got[1:3] == [(1.0).hex(), (3.0).hex()]

    def test_bracket_two_ulps_wide(self):
        lo = 1.0
        hi = float(np.nextafter(np.nextafter(lo, 2.0), 2.0))
        functions = [lambda x: x - 0.3, lambda x: x - lo - 1e-300, lambda x: lo - x + 1e-17]
        brackets = [(0.0, 1.0), (lo, hi), (lo, hi)]
        calls = []
        got = _lock_step(functions, brackets, 1e-300, calls)
        assert got == _one_by_one(functions, brackets, 1e-300)
        # the one float inside is each narrow bracket's only midpoint, priced
        # in the first round
        narrow = [[x for x, k in call if k > 0] for call in calls]
        assert narrow[1] == [float(np.nextafter(lo, 2.0))] * 2
        assert all(points == [] for points in narrow[2:])

    def test_non_finite_value_off_every_walk_is_ignored(self):
        functions = [
            lambda x: math.nan if x == 3.0 else x - 1.2,
            lambda x: math.nan if x == 11.0 else x - 12.9,
        ]
        brackets = [(0.0, 4.0), (10.0, 14.0)]
        calls = []
        # wrong known values send the first round's paths through 3 and 11;
        # from [0, 4] the walk visits 2 and then 1, never 3; from [10, 14]
        # it visits 12 and then 13, never 11
        known = [[(3.5, -1.0)], [(10.5, 1.0)]]
        got = _lock_step(functions, brackets, 1e-6, calls, known)
        assert {(3.0, 0), (11.0, 1)} <= set(calls[1])
        assert got == _one_by_one(
            [lambda x: x - 1.2, lambda x: x - 12.9], brackets, 1e-6
        )

    def test_first_bracket_error_wins_over_an_earlier_failure_in_a_later_one(self):
        # bracket 0 walks 2, 1, 1.5, 1.25, 1.125: a wrong known value sends
        # its first round's path right of 2, so its fifth point, priced in
        # the second round, is not finite.  Bracket 1 fails in the first
        # round, at 2, and bracket 2, after it, is walked no further.
        functions = [
            lambda x: math.nan if x == 1.125 else x - 1.2,
            lambda x: math.nan if x == 2.0 else x - 1.2,
            lambda x: x - 1.2,
        ]
        brackets = [(0.0, 4.0)] * 3
        calls = []

        def g(xs, owners):
            calls.append(owners.tolist())
            return [functions[k](x) for x, k in zip(xs.tolist(), owners.tolist())]

        with pytest.raises(NumericDomainError, match="not finite at x=1.125") as info:
            find_roots(g, brackets, 1e-6, [[(3.5, -1.0)], [], []])
        assert (info.value.x, info.value.bracket) == (1.125, 0)
        assert _one_by_one(functions, brackets, 1e-6)[2] == 0
        assert [sorted(set(owners)) for owners in calls] == [[0, 1, 2], [0, 1, 2], [0]]

    def test_known_needs_one_entry_per_bracket(self):
        with pytest.raises(ValidationError, match="one entry per bracket"):
            find_roots(lambda xs, owners: xs - 0.3, [(0.0, 1.0), (0.0, 2.0)], 1e-3, [()])

    def test_no_brackets_make_no_call(self):
        def refuse(xs, owners):
            raise AssertionError("g called")

        assert find_roots(refuse, [], 1e-6) == []
