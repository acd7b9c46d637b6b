import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchlab.families import (
    Bernoulli,
    Geometric,
    PointMass,
    Poisson,
    marginal_from_config,
)

from reference_step import mp_pgf

ALL = [Geometric(0.7), Geometric(1.0), Poisson(1.3), Poisson(0.2),
       Bernoulli(0.4), PointMass(3), PointMass(1)]


@pytest.mark.parametrize("marg", ALL)
def test_pgf_normalised(marg):
    assert marg.pgf(1.0) == pytest.approx(1.0, abs=1e-15)
    assert 0.0 <= marg.pgf(0.0) <= 1.0


@pytest.mark.parametrize("marg", ALL)
@pytest.mark.parametrize("d", [1e-300, 1e-12, 1e-6, 0.25, 0.9, 1.0])
def test_survival_matches_pgf(marg, d):
    # reference precision must beat the smallest d by a wide margin or
    # the oracle itself cancels in 1 - pgf(1 - d)
    with mp.workdps(350):
        ref = 1 - mp_pgf(marg, 1 - mp.mpf(d))
    # the projection, and the fused pair's survival at either point
    for got in (marg.survival(d), marg.pair(d, 0.0)[0],
                marg.pair(0.0, d)[1]):
        rel = abs(mp.mpf(got) / ref - 1) if ref != 0 else abs(mp.mpf(got))
        assert rel <= 1e-13


@pytest.mark.parametrize("marg", ALL)
@pytest.mark.parametrize("da", [1e-12, 1e-6, 0.3, 0.9])
@pytest.mark.parametrize("frac", [1e-12, 1e-4, 0.5, 1.0])
def test_pgf_diff_relative_accuracy(marg, da, frac):
    delta = (1.0 - da) * frac
    with mp.workdps(80):
        a = 1 - mp.mpf(da)
        b = a - mp.mpf(delta)
        ref = mp_pgf(marg, a) - mp_pgf(marg, b)
        survival_a, survival_b, gap = marg.pair(da, delta)
        for got in (marg.pgf_diff(da, delta), gap):
            assert got >= 0.0
            rel = abs(mp.mpf(got) / ref - 1) if ref != 0 else abs(mp.mpf(got))
            assert rel <= 1e-12
        # the fused pair's survival forms at both points of the pair
        for got, point in ((survival_a, a), (survival_b, b)):
            want = 1 - mp_pgf(marg, point)
            rel = abs(mp.mpf(got) / want - 1) if want != 0 else abs(mp.mpf(got))
            assert rel <= 1e-12


def _variance(marg) -> float:
    return marg.second_factorial_moment + marg.mean - marg.mean ** 2


def test_moment_values():
    g = Geometric(2.0)
    assert _variance(g) == pytest.approx(2.0 * 3.0)
    assert g.second_factorial_moment == pytest.approx(8.0)
    p = Poisson(1.5)
    assert _variance(p) == pytest.approx(1.5)
    assert p.second_factorial_moment == pytest.approx(2.25)
    bn = Bernoulli(0.4)
    assert bn.mean == pytest.approx(0.4)
    assert _variance(bn) == pytest.approx(0.24)
    assert bn.second_factorial_moment == 0.0
    pm = PointMass(3)
    assert pm.mean == 3.0
    assert _variance(pm) == 0.0
    assert pm.second_factorial_moment == 6.0


def test_parameter_validation():
    with pytest.raises(ValueError):
        Geometric(-0.5)
    with pytest.raises(ValueError):
        Poisson(float("nan"))
    with pytest.raises(ValueError):
        Bernoulli(1.5)
    with pytest.raises(ValueError):
        PointMass(-1)


@pytest.mark.parametrize("marg,mean", [
    (Geometric(0.8), 0.8), (Poisson(1.3), 1.3),
    (Bernoulli(0.4), 0.4), (PointMass(2), 2.0),
])
def test_sample_sum_mean(marg, mean):
    rng = np.random.default_rng(1234)
    z = 9
    reps = 4000
    total = sum(marg.sample_sum(z, rng) for _ in range(reps))
    est = total / (reps * z)
    spread = math.sqrt(max(_variance(marg), 1e-12) / (reps * z))
    assert abs(est - mean) <= 5.0 * spread + 1e-9


def test_sample_sum_zero_parents():
    rng = np.random.default_rng(0)
    for marg in ALL:
        assert marg.sample_sum(0, rng) == 0


@pytest.mark.parametrize("marg", ALL)
def test_sample_sum_over_an_array_draws_each_count_in_turn(marg):
    parents = np.array([3, 1, 40, 7])
    batch = marg.sample_sum(parents, np.random.default_rng(99))
    rng = np.random.default_rng(99)
    one_by_one = [marg.sample_sum(int(z), rng) for z in parents]
    assert batch.tolist() == one_by_one


def test_config_round_trip():
    cases = [
        (Geometric(0.7), "geometric", {"mean": 0.7}),
        (Poisson(1.3), "poisson", {"mean": 1.3}),
        (Bernoulli(0.4), "bernoulli", {"p": 0.4}),
        (PointMass(3), "pointmass", {"k": 3}),
    ]
    for marg, family, params in cases:
        assert marginal_from_config(family, params) == marg
    with pytest.raises(ValueError):
        marginal_from_config("zeta", {"mean": 1.0})


@given(st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.05, max_value=3.0))
@settings(max_examples=200)
def test_geometric_pgf_bounds(s, mu):
    v = Geometric(mu).pgf(s)
    assert 0.0 < v <= 1.0
    assert v >= Geometric(mu).pgf(0.0) - 1e-15
