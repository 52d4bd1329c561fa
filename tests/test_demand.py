"""Linear demand profile and vehicle-occupancy algebra."""

from __future__ import annotations

import numpy as np

_trapz = getattr(np, "trapezoid", None) or np.trapz
import pytest
from hypothesis import given, strategies as st

from lanepolicy import (
    DemandField,
    OccupancyParams,
    ValidationError,
    cumulative_demand,
    density,
    occupancy_split,
)


def make_field(q0: float = 1000.0, a: float = 30.0, r: float = 0.75) -> DemandField:
    return DemandField(q0=q0, length_mi=a, auto_share=r)


class TestDensity:
    def test_closed_form(self):
        f = make_field()
        assert density(f, 0.0) == pytest.approx(1000.0)
        assert density(f, 15.0) == pytest.approx(500.0)
        assert density(f, 30.0) == pytest.approx(0.0)

    def test_array_input(self):
        f = make_field()
        out = density(f, np.array([0.0, 7.5, 30.0]))
        np.testing.assert_allclose(out, [1000.0, 750.0, 0.0])

    def test_positions_outside_corridor_rejected(self):
        f = make_field()
        with pytest.raises(ValidationError):
            density(f, -0.5)
        with pytest.raises(ValidationError):
            density(f, 30.5)


class TestCumulativeDemand:
    def test_closed_form_total(self):
        f = make_field()
        # q0 * (A - x)^2 / (2A)
        assert cumulative_demand(f, "total", 0.0) == pytest.approx(1000.0 * 30.0 / 2.0)
        assert cumulative_demand(f, "total", 15.0) == pytest.approx(
            1000.0 * 15.0**2 / 60.0
        )
        assert cumulative_demand(f, "total", 30.0) == pytest.approx(0.0)

    def test_mode_shares_partition_total(self):
        f = make_field(r=0.6)
        xs = np.linspace(0.0, 30.0, 7)
        total = cumulative_demand(f, "total", xs)
        auto = cumulative_demand(f, "auto", xs)
        bus = cumulative_demand(f, "bus", xs)
        np.testing.assert_allclose(auto + bus, total, rtol=1e-14)
        np.testing.assert_allclose(auto, 0.6 * total, rtol=1e-14)

    def test_matches_integrated_density(self):
        f = make_field(q0=800.0, r=1.0)
        xs = np.linspace(4.0, 30.0, 20001)
        numeric = _trapz(density(f, xs), xs)
        assert cumulative_demand(f, "total", 4.0) == pytest.approx(numeric, rel=1e-7)

    def test_unknown_mode(self):
        with pytest.raises(ValidationError):
            cumulative_demand(make_field(), "walk", 0.0)

    def test_invalid_field_parameters(self):
        with pytest.raises(ValidationError):
            DemandField(q0=-1.0, length_mi=30.0, auto_share=0.5)
        with pytest.raises(ValidationError):
            DemandField(q0=100.0, length_mi=0.0, auto_share=0.5)
        with pytest.raises(ValidationError):
            DemandField(q0=100.0, length_mi=30.0, auto_share=1.2)
        for q0 in (float("nan"), float("inf")):
            with pytest.raises(ValidationError):
                DemandField(q0=q0, length_mi=30.0, auto_share=0.5)

    @pytest.mark.parametrize(
        "q0,share",
        [
            (np.array([100.0, np.nan]), 0.5),
            (np.array([100.0, np.inf]), np.array([0.5, 0.5])),
            (np.array([100.0, -1.0]), 0.5),
            (100.0, np.array([0.5, 1.2])),
            (100.0, np.array([-0.1, 0.5])),
            (100.0, np.array([0.5, np.nan])),
            (np.array([100.0, 200.0]), np.array([0.5, 0.5, 0.5])),
            (np.ones((2, 2)), 0.5),
        ],
    )
    def test_invalid_stacked_field_parameters(self, q0, share):
        with pytest.raises(ValidationError):
            DemandField(q0=q0, length_mi=30.0, auto_share=share)

    def test_stacked_field_gives_one_row_per_point(self):
        q0s, shares = np.array([1000.0, 0.0, 400.0]), np.array([0.75, 0.5, 0.0])
        field = DemandField(q0=q0s, length_mi=30.0, auto_share=shares)
        xs = np.linspace(0.0, 30.0, 7)
        for mode in ("auto", "bus", "total"):
            rows = cumulative_demand(field, mode, xs)
            assert rows.shape == (3, 7)
            for row, q0, r in zip(rows, q0s, shares):
                assert list(row) == list(cumulative_demand(make_field(q0=q0, r=r), mode, xs))
            at_one = cumulative_demand(field, mode, 12.0)
            assert list(at_one) == [cumulative_demand(make_field(q0=q0, r=r), mode, 12.0)
                                    for q0, r in zip(q0s, shares)]
        assert list(density(field, 15.0)) == [500.0, 0.0, 200.0]


class TestOccupancySplit:
    def test_default_mix(self):
        split = occupancy_split(OccupancyParams())
        # 60% single-rider vehicles, 40% at 3 passengers
        assert split.low_fraction == pytest.approx(1.0 / 3.0)
        assert split.high_fraction == pytest.approx(2.0 / 3.0)
        assert split.average_occupancy == pytest.approx(1.8)

    def test_average_equals_vehicle_weighted_mean(self):
        occ = OccupancyParams(low_share=0.25, low_occupancy=1.2, high_occupancy=3.4)
        split = occupancy_split(occ)
        assert split.average_occupancy == pytest.approx(
            0.25 * 1.2 + 0.75 * 3.4, rel=1e-12
        )

    @given(
        mu=st.floats(0.0, 1.0),
        o_low=st.floats(1.0, 3.0),
        spread=st.floats(0.0, 4.0),
    )
    def test_algebraic_invariants(self, mu: float, o_low: float, spread: float):
        occ = OccupancyParams(low_share=mu, low_occupancy=o_low, high_occupancy=o_low + spread)
        split = occupancy_split(occ)
        assert split.low_fraction + split.high_fraction == pytest.approx(1.0, abs=1e-12)
        assert occ.low_occupancy <= split.average_occupancy + 1e-12
        assert split.average_occupancy <= occ.high_occupancy + 1e-12
        # traveler fraction over class occupancy equals vehicle share over fleet mean
        assert split.low_fraction / occ.low_occupancy == pytest.approx(
            mu / split.average_occupancy, abs=1e-12
        )


def _reject_message(call) -> str:
    with pytest.raises(ValidationError) as err:
        call()
    return str(err.value)


# (q0, R) faults; None marks the cases without an auto share to pass, which
# optimize_policies, taking densities alone, is checked on as well.
_BAD_POINTS = [
    (-5.0, None), (float("nan"), None), (float("inf"), None), (np.full((2, 2), 500.0), None),
    (500.0, -0.1), (500.0, 1.5), (500.0, float("nan")),
    (np.array([500.0, 600.0]), np.array([0.5, 0.6, 0.7])),
]


@pytest.mark.parametrize(
    "q0,share",
    _BAD_POINTS,
    ids=["q0=-5", "q0=nan", "q0=inf", "q0-2d", "R=-0.1", "R=1.5", "R=nan", "lengths-2-3"],
)
def test_every_layer_rejects_a_bad_operating_point_alike(q0, share):
    from lanepolicy import Policy, Scenario, cost_breakdowns, min_frequency, optimize_policies
    from lanepolicy._fsweep import FrequencySweep

    scen, r = Scenario(), 0.5 if share is None else share
    expected = _reject_message(lambda: DemandField(q0=q0, length_mi=30.0, auto_share=r))
    calls = [
        lambda: min_frequency(scen, q0, r),
        lambda: FrequencySweep(scen, Policy.MTP, q0, r),
        lambda: cost_breakdowns(scen, Policy.MTP, q0, r, 10.0),
    ]
    if share is None:
        calls.append(lambda: optimize_policies(scen, Policy.MTP, q0))
    assert [_reject_message(call) for call in calls] == [expected] * len(calls)
