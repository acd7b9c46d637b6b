import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchlab.errors import PrecisionLoss, SlowConvergence, UnreachableEvent
from branchlab.families import Geometric
from branchlab.model import ProcessSpec, ProductLaw
from branchlab.pgf import (
    SurvivalTable,
    _terminal_b,
    build_survival_table,
    censored_transform,
    conditional_transform,
    extinction_time_pmf,
    harmonic_U,
    iterate_point,
    terminal_gap,
    w_transform,
    w_weighted_mean,
)
from branchlab.zoo import (
    STOCK_MODELS,
    micro_table,
    single_geometric,
    three_type_chain,
    two_type_cascade,
)

import properties
import reference_step as ref
from enumeration import Enumerator

# closed forms for the unit-mean geometric chain: the n-step iterate
# from zero is n/(n+1), and the one-step map is 1/(2-s)


def geom_iterate(n, s=0.0):
    return (n - (n - 1) * s) / (n + 1 - n * s)


@pytest.fixture(scope="module")
def geom_table():
    return build_survival_table(single_geometric(), 2000)


@pytest.fixture(scope="module")
def cascade_table():
    return build_survival_table(two_type_cascade(), 400)


@pytest.fixture(scope="module")
def micro_enum():
    # caps sized so the clipped critical tail (scale b*m) stays far
    # below the comparison tolerances
    return Enumerator(micro_table(), cap1=140, cap2=420)


@pytest.fixture(scope="module")
def micro_tab():
    return build_survival_table(micro_table(), 64)


def test_geom_survival_closed_form(geom_table):
    for n in range(1, 2001):
        assert geom_table.survival(1, n) == pytest.approx(1.0 / (n + 1),
                                                          rel=1e-12)


def test_geom_pmf_closed_form(geom_table):
    for n in range(1, 2001):
        got = extinction_time_pmf(geom_table, 1, n)
        assert got == pytest.approx(1.0 / (n * (n + 1)), rel=1e-12)


def test_iterate_point_closed_form():
    sg = single_geometric()
    got = iterate_point(sg, [0.5], 10)[0]
    assert got == pytest.approx(geom_iterate(10, 0.5), rel=1e-15)
    assert iterate_point(sg, [0.3], 0) == (0.3,)


def test_conditional_geom_closed_form(geom_table):
    sg = single_geometric()

    def gap(m, x, y):
        return (x - y) / ((m + 1 - m * x) * (m + 1 - m * y))

    for (m, n, s) in [(7, 12, 0.6), (1, 2, 0.9), (40, 100, 0.25),
                      (99, 100, 0.5)]:
        k = n - m
        qk, qk1 = k / (k + 1.0), (k - 1.0) / k
        exact = gap(m, s * qk, s * qk1) * (n * (n + 1.0))
        got = conditional_transform(sg, geom_table, [s], m, n)
        assert got == pytest.approx(exact, rel=1e-11)


def test_conditional_edge_cases(cascade_table):
    tt = two_type_cascade()
    # no observable: conditioning is vacuous
    v = conditional_transform(tt, cascade_table, [1.0, 1.0], 150, 300)
    assert v == pytest.approx(1.0, abs=1e-10)
    # m = 0 pins the start state, so only the first component matters
    v0 = conditional_transform(tt, cascade_table, [0.37, 0.88], 0, 40)
    assert v0 == 0.37
    with pytest.raises(ValueError):
        conditional_transform(tt, cascade_table, [0.5, 0.5], 10, 10)
    with pytest.raises(ValueError):
        conditional_transform(tt, cascade_table, [0.5, 1.5], 1, 10)


def test_conditional_beyond_horizon_raises(cascade_table):
    tt = two_type_cascade()
    with pytest.raises(PrecisionLoss):
        conditional_transform(tt, cascade_table, [0.5, 0.5], 10, 500)


def test_semigroup_property():
    tt = two_type_cascade()
    s = (0.4, 0.7)
    once = iterate_point(tt, s, 9)
    twice = iterate_point(tt, iterate_point(tt, s, 4), 5)
    assert once == pytest.approx(twice, abs=1e-14)


def test_table_matches_iterates(cascade_table):
    tt = two_type_cascade()
    pt = iterate_point(tt, [0.0, 0.0], 37)
    assert cascade_table.extinct_by(1, 37) == pytest.approx(pt[0], rel=1e-12)
    assert cascade_table.extinct_by(2, 37) == pytest.approx(pt[1], rel=1e-12)


def test_pmf_telescopes(cascade_table):
    for i in (1, 2):
        total = math.fsum(cascade_table.pmf[i - 1, 1:])
        assert abs(total - cascade_table.extinct_by(i, 400)) <= 1e-12


def test_truncated_table_refuses_queries():
    tab = build_survival_table(single_geometric(), 50)
    clipped = SurvivalTable(spec=tab.spec, n_max=50, d=tab.d, pmf=tab.pmf,
                            truncated_at=30)
    assert clipped.usable_n() == 29
    clipped.survival(1, 29)
    with pytest.raises(PrecisionLoss):
        clipped.survival(1, 30)
    with pytest.raises(PrecisionLoss):
        conditional_transform(tab.spec, clipped, [0.5], 10, 40)


def test_zero_mass_event_raises():
    tab = build_survival_table(single_geometric(), 20)
    broken = SurvivalTable(spec=tab.spec, n_max=20, d=tab.d,
                           pmf=np.zeros_like(tab.pmf), truncated_at=None)
    with pytest.raises(UnreachableEvent):
        conditional_transform(tab.spec, broken, [0.5], 5, 15)


def test_extended_precision_matches_closed_form():
    # the 40-digit oracle itself, on Geometric(1)'s closed forms
    d, pmf = ref.extended_table(single_geometric(), 200)
    for n in (1, 7, 50, 200):
        assert d[0, n] == pytest.approx(1.0 / (n + 1), rel=5e-16)
        assert pmf[0, n] == pytest.approx(1.0 / (n * (n + 1)), rel=5e-16)


def test_extended_matches_double(micro_tab):
    d, pmf = ref.extended_table(micro_table(), 64)
    assert np.allclose(d, micro_tab.d, rtol=1e-12, atol=0)
    assert np.allclose(pmf, micro_tab.pmf, rtol=1e-11, atol=0)


# --- enumeration cross-checks (independent convolution oracle) -----------

def test_micro_survival_vs_enumeration(micro_enum, micro_tab):
    for i in (1, 2):
        q = micro_enum.extinct_by(i, 8)
        for n in range(1, 9):
            assert micro_tab.extinct_by(i, n) == pytest.approx(q[n],
                                                               rel=1e-11)


def test_micro_pmf_vs_enumeration(micro_enum, micro_tab):
    for i in (1, 2):
        pmf = micro_enum.death_pmf(i, 8)
        for n in range(1, 9):
            assert extinction_time_pmf(micro_tab, i, n) == pytest.approx(
                pmf[n], rel=1e-10)


@pytest.mark.parametrize("m,n", [(1, 3), (2, 5), (3, 8), (5, 8), (0, 4)])
@pytest.mark.parametrize("s", [(0.3, 0.8), (1.0, 0.5), (0.6, 0.6),
                               (1.0, 1.0)])
def test_micro_conditional_vs_enumeration(micro_enum, micro_tab, m, n, s):
    mt = micro_table()
    want = micro_enum.conditional_value(s, m, n)
    got = conditional_transform(mt, micro_tab, list(s), m, n)
    assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("t,m,n", [(2, 3, 7), (2, 4, 7), (2, 2, 6),
                                   (3, 5, 8)])
@pytest.mark.parametrize("s2", [0.4, 0.9, 1.0])
def test_micro_censored_vs_enumeration(micro_enum, micro_tab, t, m, n, s2):
    mt = micro_table()
    want = micro_enum.conditional_value((1.0, s2), m, n, censor_at=t)
    got = censored_transform(mt, micro_tab, [1.0, s2], t, m, n)
    assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_micro_censored_empty_event(micro_enum, micro_tab):
    # a type-1 wipeout in generation 1 kills the whole tree, so the
    # joint event with extinction at 7 is empty; both routes must see
    # exactly zero mass
    mt = micro_table()
    assert micro_enum.conditional_value((1.0, 0.4), 3, 7, censor_at=1) == 0.0
    assert censored_transform(mt, micro_tab, [1.0, 0.4], 1, 3, 7) == 0.0


def test_censored_no_window_vs_enumeration(micro_enum):
    # unconditional censored transform: compare against the raw
    # censored distribution at m
    mt = micro_table()
    tab = build_survival_table(mt, 16)
    s2 = 0.7
    path, lost = micro_enum.distribution_path(5, censor_at=2)
    assert lost < 1e-15
    P = path[5]
    want = sum(P[0, z2] * s2**z2 for z2 in range(P.shape[1]))
    got = censored_transform(mt, tab, [1.0, s2], 2, 5)
    assert got == pytest.approx(want, rel=1e-11)


def test_censored_dispatch_consistency(cascade_table):
    tt = two_type_cascade()
    v1 = censored_transform(tt, cascade_table, [0.7, 0.4], 0, 9, 15)
    v2 = conditional_transform(tt, cascade_table, [0.7, 0.4], 9, 15)
    assert v1 == v2
    u1 = censored_transform(tt, cascade_table, [0.2, 0.8], 0, 12)
    u2 = iterate_point(tt, [0.2, 0.8], 12)[0]
    assert u1 == u2
    with pytest.raises(ValueError):
        censored_transform(tt, cascade_table, [0.5, 0.5], 9, 5)


def test_censoring_tightens_with_time(cascade_table):
    # later censor times exclude fewer trees, so the value grows
    # toward the uncensored transform
    tt = two_type_cascade()
    s = [1.0, 0.45]
    free = censored_transform(tt, cascade_table, s, 0, 30)
    vals = [censored_transform(tt, cascade_table, s, t, 30)
            for t in (5, 10, 20, 30)]
    assert all(x < y for x, y in zip(vals, vals[1:]))
    assert all(v <= free + 1e-15 for v in vals)
    assert free - vals[-1] <= 1e-3


# --- harmonic evaluation --------------------------------------------------

def test_harmonic_closed_form():
    sg = single_geometric()
    for s in (0.1, 0.3, 0.5, 0.8):
        r = harmonic_U(sg, s, 4000)
        assert r.value == pytest.approx(s / (1.0 - s), rel=2e-3)
        assert r.convergence_estimate < 0.01


def test_harmonic_increment_identity():
    # applying one step of the reproduction map bumps the harmonic
    # value by exactly one in the limit
    sg = single_geometric()
    s = 0.55
    hs = iterate_point(sg, [s], 1)[0]
    diff = harmonic_U(sg, hs, 8000).value - harmonic_U(sg, s, 8000).value
    assert diff == pytest.approx(1.0, abs=2e-3)


@pytest.mark.parametrize("make", [two_type_cascade, micro_table])
def test_harmonic_follows_the_terminal_gap_orbit(make):
    # the scaled gaps at n//4, n//2 and n come from the same paired
    # iteration as terminal_gap, bit for bit (odd n splits the orbit
    # unevenly), and the value and estimate are their extrapolations
    spec, n, s = make(), 1001, 0.6
    b = _terminal_b(spec)
    r = harmonic_U(spec, s, n)
    # a numpy scalar here would leak into every report built on U
    assert type(r.value) is float
    h1, h2, h3 = n // 4, n // 2, n
    u1, u2, u3 = (b * h * h * terminal_gap(spec, s, h) for h in (h1, h2, h3))
    assert r.value == (h3 * u3 - h2 * u2) / (h3 - h2)
    coarse = (h2 * u2 - h1 * u1) / (h2 - h1)
    assert r.convergence_estimate == abs(r.value - coarse)


def test_harmonic_extrapolation_is_accurate_and_bounded():
    # single_geometric: U(s) = s / (1 - s) exactly; micro_table: the
    # extrapolation at 16 times the horizon stands in for the limit
    sg, n = single_geometric(), 10**4
    for s in np.arange(0.05, 0.951, 0.05):
        s = float(s)
        r = harmonic_U(sg, s, n)
        error = abs(r.value - s / (1.0 - s))
        assert error <= 2e-5 * (s / (1.0 - s))
        assert r.convergence_estimate >= error
    mt = micro_table()
    for s in (0.3, 0.6, 0.9):
        r = harmonic_U(mt, s, n)
        error = abs(r.value - harmonic_U(mt, s, 16 * n).value)
        assert r.convergence_estimate >= error


def test_harmonic_input_validation():
    sg = single_geometric()
    with pytest.raises(ValueError):
        harmonic_U(sg, 1.0, 100)
    with pytest.raises(ValueError):
        harmonic_U(sg, 0.5, 2)
    with pytest.raises(ValueError):
        terminal_gap(sg, -0.1, 10)


def test_terminal_gap_matches_closed_form():
    sg = single_geometric()
    m, s = 50, 0.5
    exact = geom_iterate(m, s) - geom_iterate(m, 0.0)
    assert terminal_gap(sg, s, m) == pytest.approx(exact, rel=1e-12)
    # multi-type models use the terminal coordinate's own chain
    tt = two_type_cascade()
    assert terminal_gap(tt, s, m) == pytest.approx(exact, rel=1e-12)


# --- cumulative feed transform -------------------------------------------

def test_w_transform_closed_form():
    tt = two_type_cascade()
    for s in (0.0, 0.2, 0.5, 0.8, 0.95, 0.999):
        got = w_transform(tt, s)
        exact = 1.0 - math.sqrt(1.0 - math.exp(s - 1.0))
        assert got.value == pytest.approx(exact, rel=1e-10)
        assert got.residual <= 1e-12
    assert w_transform(tt, 1.0).value == 1.0


def test_w_transform_horizon_monotone():
    tt = two_type_cascade()
    s = 0.6
    vals = [w_transform(tt, s, horizon=t).value for t in (1, 2, 5, 20, 200)]
    assert all(x < y for x, y in zip(vals, vals[1:]))
    assert vals[-1] == pytest.approx(w_transform(tt, s).value, abs=1e-2)


def test_w_transform_three_types():
    spec = three_type_chain()
    r = w_transform(spec, 0.5)
    assert len(r.per_type) == 2
    assert 0.0 < r.per_type[0] < r.per_type[1] < 1.0
    assert r.residual <= 1e-12


def test_w_transform_validation():
    with pytest.raises(ValueError):
        w_transform(single_geometric(), 0.5)
    with pytest.raises(ValueError):
        w_transform(two_type_cascade(), 1.5)
    with pytest.raises(SlowConvergence):
        w_transform(two_type_cascade(), 0.5, tol=1e-30, max_iter=2)


def test_w_weighted_mean_closed_form():
    tt = two_type_cascade()
    for lam, n in [(1.0, 100), (0.5, 50), (2.0, 400)]:
        theta = lam / n
        s = math.exp(-theta)
        exact = (math.exp(-theta) * math.exp(s - 1.0)
                 / (2.0 * math.sqrt(1.0 - math.exp(s - 1.0))))
        got = w_weighted_mean(tt, lam, n)
        assert got == pytest.approx(exact, rel=1e-7)


def test_w_weighted_mean_validation():
    with pytest.raises(ValueError):
        w_weighted_mean(two_type_cascade(), 0.0, 10)
    with pytest.raises(ValueError):
        w_weighted_mean(two_type_cascade(), 1.0, 0)


# --- property suites ------------------------------------------------------

@given(properties.model_specs(max_types=3))
@settings(max_examples=60, deadline=None)
def test_property_table_invariants(spec):
    properties.check_table_invariants(spec)


@given(properties.model_specs(max_types=3), st.integers(1, 4),
       st.integers(1, 4), properties.unit_points(3))
@settings(max_examples=60, deadline=None)
def test_property_semigroup(spec, m1, m2, point):
    properties.check_semigroup(spec, point[:spec.n_types], m1, m2)


@given(properties.model_specs(max_types=3), properties.unit_points(3),
       st.integers(0, 6), st.integers(7, 20))
@settings(max_examples=60, deadline=None)
def test_property_conditional_range(spec, point, m, n):
    properties.check_conditional_range(spec, point[:spec.n_types], m, n)


# --- the in-place sweep against the simultaneous update ---------------------
#
# The engine steps each vector orbit in place, one coordinate at a time
# in type order.  The oracle below is the simultaneous update it
# replaced: every law reads the previous step's whole vector, stepped by
# the reference loops (``reference_step.pair_step``).

def simultaneous_pair(spec, da, delta, steps):
    for _ in range(steps):
        da, delta = zip(*[ref.pair_step(law, da, delta) for law in spec.laws])
    return tuple(da), tuple(delta)


def simultaneous_table(spec, n_max):
    n_types = spec.n_types
    d = np.empty((n_types, n_max + 1))
    pmf = np.zeros((n_types, n_max + 1))
    dcur = (1.0,) * n_types
    picur = tuple(law.pgf([0.0] * n_types) for law in spec.laws)
    d[:, 0] = dcur
    truncated_at = None
    for n in range(1, n_max + 1):
        dnew, gap = zip(*[ref.pair_step(law, dcur, picur)
                          for law in spec.laws])
        if n > 1:
            picur = gap
        if not all(ref.kept(n, new, pi) for new, pi in zip(dnew, picur)):
            truncated_at = n
            d[:, n:] = np.nan
            pmf[:, n:] = np.nan
            break
        d[:, n] = dnew
        pmf[:, n] = picur
        dcur = dnew
    return d, pmf, truncated_at


def assert_sweep_matches_oracle(spec, point, gaps, steps, n_max):
    da = [1.0 - x for x in point]
    delta = [g * x for g, x in zip(gaps, point)]
    da_in, delta_in = list(da), list(delta)
    got = spec.kernel.advance(da, delta, steps)
    # the caller's lists are copied, never stepped in place
    assert (da, delta) == (da_in, delta_in)
    want = simultaneous_pair(spec, da, delta, steps)
    assert [[x.hex() for x in v] for v in got] == \
        [[x.hex() for x in v] for v in want]
    table = build_survival_table(spec, n_max)
    d, pmf, truncated_at = simultaneous_table(spec, n_max)
    assert table.truncated_at == truncated_at
    assert table.d.tobytes() == d.tobytes()
    assert table.pmf.tobytes() == pmf.tobytes()


@pytest.mark.parametrize("name", sorted(STOCK_MODELS))
def test_sweep_is_the_simultaneous_update_on_stock_models(name):
    spec = STOCK_MODELS[name]()
    point = [0.3 + 0.2 * j for j in range(spec.n_types)]
    gaps = [0.5 / (j + 1) for j in range(spec.n_types)]
    for steps, n_max in ((0, 1), (1, 2), (3, 3), (500, 2000)):
        assert_sweep_matches_oracle(spec, point, gaps, steps, n_max)


@given(properties.model_specs(max_types=4), properties.unit_points(4),
       properties.unit_points(4), st.integers(0, 40), st.integers(1, 60))
@settings(max_examples=100, deadline=None)
def test_property_sweep_is_the_simultaneous_update(spec, point, gaps, steps,
                                                   n_max):
    n = spec.n_types
    assert_sweep_matches_oracle(spec, point[:n], gaps[:n], steps, n_max)


@pytest.mark.parametrize("mean, n_max, stall", [
    # subcritical: the complement falls below the smallest normal double
    (0.5, 5000, 1022),
    # supercritical: the complement settles on the survival probability
    # 1/2 while the gap falls below the smallest normal double
    (2.0, 1100, 1021),
])
def test_table_truncates_where_the_recurrence_stalls(mean, n_max, stall):
    spec = ProcessSpec(n_types=1, laws=(
        ProductLaw(parent=1, children={1: Geometric(mean)}),))
    table = build_survival_table(spec, n_max)
    assert table.truncated_at == stall
    assert table.usable_n() == stall - 1
    assert np.isnan(table.d[:, stall:]).all()
    assert np.isnan(table.pmf[:, stall:]).all()
    assert np.isfinite(table.d[:, :stall]).all()
    assert np.isfinite(table.pmf[:, :stall]).all()
    d, pmf, truncated_at = simultaneous_table(spec, n_max)
    assert truncated_at == stall
    assert table.d.tobytes() == d.tobytes()
    assert table.pmf.tobytes() == pmf.tobytes()
