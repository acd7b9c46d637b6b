"""Acceptance suite: the ten sign-off criteria, one test each.

Every test states its tolerance and time budget explicitly and prints
a PASS line with the measured numbers, so a verbose run doubles as
the sign-off record.  Criteria 3 to 7 judge against the drivers'
tolerance bands, computed with each run from pilots at half and a
quarter of its target horizon.
"""

import math
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import properties
from enumeration import Enumerator
from reference_sampler import check_replay

from branchlab.constants import constant_set
from branchlab.experiments import (
    limit_deathfin,
    make_u_evaluator,
    pilot_band,
    verify_death,
    verify_deathfin,
    verify_finalstage,
    verify_laplace_W,
    verify_local,
)
from branchlab.model import validate_hypothesis_A
from branchlab.montecarlo import (
    SimConfig,
    conditional_estimate,
    estimate_pmf_T,
    simulate_once,
)
from branchlab.pgf import (
    build_survival_table,
    conditional_transform,
    extinction_time_pmf,
    harmonic_U,
    iterate_point,
)
from branchlab.zoo import micro_table, single_geometric, two_type_cascade

_PROPERTY_SETTINGS = settings(
    max_examples=1000, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much,
                           HealthCheck.data_too_large])


def test_criterion_01_geometric_closed_forms():
    # survival 1/(n+1) and pmf 1/(n(n+1)) to 1e-10 relative, n <= 1e4, < 1 s
    t0 = time.monotonic()
    spec = single_geometric()
    horizon = 10**4
    table = build_survival_table(spec, horizon)
    ns = np.arange(1, horizon + 1, dtype=float)
    surv = np.array([table.survival(1, n) for n in range(1, horizon + 1)])
    pmf = np.array([extinction_time_pmf(table, 1, n)
                    for n in range(1, horizon + 1)])
    err_d = np.max(np.abs(surv * (ns + 1.0) - 1.0))
    err_p = np.max(np.abs(pmf * ns * (ns + 1.0) - 1.0))
    elapsed = time.monotonic() - t0
    assert err_d <= 1e-10
    assert err_p <= 1e-10
    assert elapsed < 1.0
    print(f"criterion 1 PASS: survival err {err_d:.2e}, pmf err {err_p:.2e}, "
          f"{elapsed:.2f}s")


def test_criterion_02_harmonic_measure_closed_form():
    # U(s) vs s/(1-s) within 1e-3 relative; U(h(s)) - U(s) = 1 within 2e-3
    spec = single_geometric()
    horizon = 10**4
    worst_rel, worst_id = 0.0, 0.0
    for s in np.arange(0.1, 0.85, 0.1):
        s = float(s)
        u = harmonic_U(spec, s, horizon)
        rel = abs(u.value - s / (1.0 - s)) / (s / (1.0 - s))
        worst_rel = max(worst_rel, rel)
        h = iterate_point(spec, (s,), 1)[0]
        ident = abs(harmonic_U(spec, h, horizon).value - u.value - 1.0)
        worst_id = max(worst_id, ident)
    assert worst_rel <= 1e-3
    assert worst_id <= 2e-3
    print(f"criterion 2 PASS: closed form rel {worst_rel:.2e}, "
          f"one-step identity off by {worst_id:.2e}")


def test_criterion_03_local_pmf_trend():
    # pmf * n^(1+gamma_1) / g over the n-grid: monotone toward 1 for
    # n >= 100 and final ratio inside the pilot band; < 30 s
    t0 = time.monotonic()
    report = verify_local(two_type_cascade())
    elapsed = time.monotonic() - t0
    assert report.passed
    assert report.details["monotone:type=1"]
    assert report.bands["type=1"] == pilot_band(
        *report.details["pilot:type=1"])
    final = report.details["final_ratio:type=1"]
    lo, hi = report.bands["type=1"]
    assert lo <= final <= hi
    assert elapsed < 30.0
    print(f"criterion 3 PASS: final ratio {final:.4f} in "
          f"({lo:.4f}, {hi:.4f}), {elapsed:.1f}s")


def test_criterion_04_trailing_window_transform():
    # n = 2e4, k = 200, lambda in {0.5, 1, 2}: in pilot bands (~10%); < 2 min
    t0 = time.monotonic()
    report = verify_death(two_type_cascade())
    elapsed = time.monotonic() - t0
    assert report.passed
    for lam in ("0.5", "1", "2"):
        part = f"lam={lam}"
        row = [r for r in report.rows if r.part == part][0]
        lo, hi = report.bands[part]
        assert lo <= row.ratio <= hi
        assert abs(row.ratio - 1.0) <= 0.10
    assert elapsed < 120.0
    ratios = [r.ratio for r in report.rows if r.part.startswith("lam=")]
    print(f"criterion 4 PASS: ratios {[f'{r:.4f}' for r in ratios]}, "
          f"{elapsed:.1f}s")


def test_criterion_05_midlife_transform():
    # x in {0.25, 0.5, 0.75}, lambda = 1, n = 2e4: in pilot bands;
    # lambda -> 0 normalization exactly 1 to 1e-9
    report = verify_finalstage(two_type_cascade())
    assert report.passed
    for x in ("0.25", "0.5", "0.75"):
        part = f"x={x}"
        row = [r for r in report.rows if r.part == part][0]
        lo, hi = report.bands[part]
        assert lo <= row.ratio <= hi
    assert report.details["normalization_error"] <= 1e-9
    print(f"criterion 5 PASS: normalization off by "
          f"{report.details['normalization_error']:.1e}")


def test_criterion_06_fixed_offset_pgf():
    # k in {0,1,2,5}, s in {0.3,0.6,0.9} at n = 2e4 inside pilot bands;
    # for the single-type anchor the limit from the numerically built
    # harmonic function matches the closed form within 1e-3
    for spec in (two_type_cascade(), single_geometric()):
        report = verify_deathfin(spec)
        assert report.passed, spec.name

    geo = single_geometric()
    table = build_survival_table(geo, 50)
    u_eval = make_u_evaluator(geo, 10**5)
    worst = 0.0
    for k in (0, 1, 2, 5):
        for s in (0.3, 0.6, 0.9):
            u = lambda y: y / (1.0 - y)
            q0, q1 = k / (k + 1.0), (k + 1.0) / (k + 2.0)
            closed = u(s * q1) - u(s * q0)
            numeric = limit_deathfin(s, k, u_eval, table)
            worst = max(worst, abs(numeric - closed) / closed)
    assert worst <= 1e-3
    print(f"criterion 6 PASS: anchor limit rel err {worst:.2e}")


def test_criterion_07_transform_tail_regression():
    # log-log slope of 1 - E[exp(-theta W)] over theta in [1e-5, 1e-2]
    # estimates the exponent 0.5 +/- 0.03; amplitude in pilot band
    report = verify_laplace_W(two_type_cascade())
    assert report.passed
    slope = report.details["slope"]
    assert abs(slope - 0.5) <= 0.03
    lo, hi = report.bands["amplitude"]
    assert lo <= report.details["amplitude_ratio"] <= hi
    print(f"criterion 7 PASS: slope {slope:.4f}, amplitude ratio "
          f"{report.details['amplitude_ratio']:.4f} in ({lo:.3f}, {hi:.3f})")


def test_criterion_08_monte_carlo_vs_exact():
    # every pmf bin (n <= 30) within 4 sigma at 1e6 replicates, and the
    # conditional estimate at n = 25 within 4 sigma at 1e7; < 5 min
    t0 = time.monotonic()
    spec = two_type_cascade()
    table = build_survival_table(spec, 30)

    config = SimConfig(master_seed=90210, replicates=10**6, max_steps=30)
    estimates = estimate_pmf_T(spec, config, workers=4)
    worst_z = 0.0
    for n in range(1, 31):
        est = estimates[n]
        exact = extinction_time_pmf(table, 1, n)
        assert est.stderr > 0.0
        z = abs(est.value - exact) / est.stderr
        worst_z = max(worst_z, z)
    assert worst_z <= 4.0

    m, s_obs, n_target = 20, 0.6, 25
    config = SimConfig(master_seed=54321, replicates=10**7, max_steps=25,
                       snapshot_times=(m,))
    est = conditional_estimate(
        spec, config, n_target,
        lambda summary: s_obs ** summary.snapshots[m][-1], workers=4)
    exact = conditional_transform(spec, table, (1.0, s_obs), m=m, n=n_target)
    z_cond = abs(est.value - exact) / est.stderr
    elapsed = time.monotonic() - t0
    assert z_cond <= 4.0
    assert elapsed < 300.0
    print(f"criterion 8 PASS: worst pmf z {worst_z:.2f}, conditional z "
          f"{z_cond:.2f} ({est.acceptance_rate:.1%} accepted), {elapsed:.0f}s")


def test_criterion_09_exhaustive_enumeration():
    # finite-table micro model: engine pmf equals full enumeration to 1e-9
    spec = micro_table()
    table = build_survival_table(spec, 8)
    enum = Enumerator(spec, cap1=140, cap2=420)
    worst = 0.0
    for i in (1, 2):
        want = enum.death_pmf(i, 8)
        for n in range(1, 9):
            got = extinction_time_pmf(table, i, n)
            worst = max(worst, abs(got - want[n]))
    assert worst <= 1e-9
    print(f"criterion 9 PASS: max pmf deviation {worst:.2e}")


@_PROPERTY_SETTINGS
@given(properties.model_specs(max_types=3))
def test_criterion_10_model_properties(spec):
    properties.check_moment_structure(spec)


@_PROPERTY_SETTINGS
@given(properties.model_specs(max_types=3), properties.unit_points(3))
def test_criterion_10_pgf_properties(spec, point):
    s = point[: spec.n_types]
    properties.check_pgf_basics(spec, s)
    properties.check_survival_consistency(spec, s)
    properties.check_table_invariants(spec, horizon=16)


@_PROPERTY_SETTINGS
@given(properties.model_specs(max_types=3), properties.unit_points(3),
       st.floats(min_value=0.0, max_value=1.0),
       st.one_of(st.none(), st.integers(min_value=0, max_value=2)))
def test_criterion_10_pair_step_properties(spec, point, shrink, pin):
    properties.check_pair_step_consistency(spec, point[: spec.n_types],
                                           shrink, pin)


@_PROPERTY_SETTINGS
@given(properties.model_specs(max_types=3))
def test_criterion_10_montecarlo_properties(spec):
    config = SimConfig(master_seed=77, max_steps=6, population_cap=10**6)
    summary = check_replay(spec, config, 2)
    assert summary == simulate_once(spec, config, 2)
    if isinstance(summary.T, int):
        assert 1 <= summary.T <= 6
    assert summary.W_N >= 0
