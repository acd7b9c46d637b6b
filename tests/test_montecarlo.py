"""Simulation layer: determinism, accounting invariants, and agreement
with closed forms and the exact engine."""

from __future__ import annotations

import math
import multiprocessing
import os
import tracemalloc

import pytest
from hypothesis import given, settings

from branchlab import montecarlo, zoo
from branchlab.errors import AcceptanceTooLow
from branchlab.families import Geometric, PointMass, Poisson
from branchlab.model import ProcessSpec, ProductLaw
from branchlab.montecarlo import (
    CHUNK,
    GROUP,
    Censored,
    EstimateWithCI,
    SimConfig,
    _chunk_layout,
    _pool_size,
    conditional_estimate,
    estimate_pmf_T,
    simulate_once,
)
from branchlab.pgf import (
    build_survival_table,
    conditional_transform,
    extinction_time_pmf,
)

from properties import model_specs
from reference_sampler import check_replay


def forced_death_spec() -> ProcessSpec:
    # every particle produces nothing, so the line dies in one step
    return ProcessSpec(1, (ProductLaw(1, {1: PointMass(0)}),))


# ---------------------------------------------------------------- config


class TestSimConfig:
    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            SimConfig(master_seed=1, replicates=0)
        with pytest.raises(ValueError):
            SimConfig(master_seed=1, max_steps=0)
        with pytest.raises(ValueError):
            SimConfig(master_seed=1, population_cap=0)

    def test_rejects_bad_snapshot_times(self):
        with pytest.raises(ValueError):
            SimConfig(master_seed=1, snapshot_times=(-1,))
        with pytest.raises(ValueError):
            SimConfig(master_seed=1, max_steps=10, snapshot_times=(11,))

    def test_snapshot_times_sorted_and_deduped(self):
        cfg = SimConfig(master_seed=1, max_steps=10,
                        snapshot_times=(5, 2, 5, 0))
        assert cfg.snapshot_times == (0, 2, 5)

    def test_seed_must_be_integer(self):
        with pytest.raises(ValueError):
            SimConfig(master_seed=1.5)  # type: ignore[arg-type]

    def test_estimate_validation(self):
        with pytest.raises(ValueError):
            EstimateWithCI(1.0, -0.1, 10, 1.0)
        with pytest.raises(ValueError):
            EstimateWithCI(1.0, 0.1, 10, 1.5)


# ----------------------------------------------------- single trajectories


class TestSimulateOnce:
    def test_identical_seed_and_stream_repeat_exactly(self):
        spec = zoo.two_type_cascade()
        cfg = SimConfig(master_seed=42, max_steps=50, snapshot_times=(3, 10))
        for stream in range(10):
            assert (simulate_once(spec, cfg, stream)
                    == simulate_once(spec, cfg, stream))

    def test_streams_are_actually_different(self):
        spec = zoo.two_type_cascade()
        cfg = SimConfig(master_seed=42, max_steps=50)
        runs = {simulate_once(spec, cfg, k).T for k in range(20)}
        assert len(runs) > 1

    def test_forced_death_always_T1(self):
        cfg = SimConfig(master_seed=9, max_steps=5, snapshot_times=(0, 1, 2))
        for stream in range(25):
            s = simulate_once(forced_death_spec(), cfg, stream)
            assert s.T == 1
            assert not s.censored
            assert s.snapshots == {0: (1,), 1: (0,), 2: (0,)}
            assert s.W_N == 0
            assert s.early_extinction_time == 0  # no block below the last type

    def test_horizon_censoring(self):
        spec = zoo.single_geometric()
        cfg = SimConfig(master_seed=3, max_steps=2)
        censored = [simulate_once(spec, cfg, k) for k in range(60)
                    if simulate_once(spec, cfg, k).censored]
        assert censored, "some trajectory should outlive 2 steps"
        for s in censored:
            assert s.T == Censored(2, "max_steps")

    def test_population_cap_censoring(self):
        # mean 3 supercritical growth hits a cap of 50 quickly
        spec = ProcessSpec(1, (ProductLaw(1, {1: Geometric(3.0)}),))
        cfg = SimConfig(master_seed=5, max_steps=100, population_cap=50,
                        snapshot_times=(0, 1, 50, 100))
        hit = [simulate_once(spec, cfg, k) for k in range(40)]
        capped = [s for s in hit if isinstance(s.T, Censored)
                  and s.T.reason == "population_cap"]
        assert capped
        for s in capped:
            assert s.T.at <= 100
            # snapshots past the censoring step were never simulated
            assert all(m <= s.T.at for m in s.snapshots)

    def test_early_extinction_matches_snapshots(self):
        spec = zoo.two_type_cascade()
        times = tuple(range(13))
        cfg = SimConfig(master_seed=17, max_steps=12, snapshot_times=times)
        seen = 0
        for stream in range(40):
            s = simulate_once(spec, cfg, stream)
            m = s.early_extinction_time
            if m is None or m not in s.snapshots:
                continue
            seen += 1
            assert s.snapshots[m][0] == 0
            if m - 1 in s.snapshots:
                assert s.snapshots[m - 1][0] > 0
        assert seen >= 5

    def test_flow_audit_conserves_population(self):
        # every child drawn at step t must appear in Z(t+1), no leaks,
        # in a replay of the stream that is the sampler's trajectory
        for spec in (zoo.two_type_cascade(), zoo.micro_table(),
                     zoo.three_type_chain()):
            cfg = SimConfig(master_seed=23, max_steps=60,
                            snapshot_times=tuple(range(0, 61, 5)))
            check_replay(spec, cfg, 2)


# ------------------------------------------------------------ estimators


class TestPmf:
    def test_single_type_survival_probability(self):
        # one-step death probability is exactly 1/2; 4 sigma at this
        # replicate count is the +-0.002 window
        spec = zoo.single_geometric()
        cfg = SimConfig(master_seed=101, replicates=1_000_000, max_steps=5)
        pmf = estimate_pmf_T(spec, cfg, workers=4)
        assert abs(pmf[1].value - 0.5) <= 0.002

    def test_single_type_pmf_matches_closed_form(self):
        spec = zoo.single_geometric()
        cfg = SimConfig(master_seed=202, replicates=400_000, max_steps=30)
        pmf = estimate_pmf_T(spec, cfg, workers=4)
        for n in range(1, 31):
            exact = 1.0 / (n * (n + 1))
            e = pmf[n]
            assert abs(e.value - exact) <= 4.0 * e.stderr
            assert e.acceptance_rate == 1.0
            assert e.replicates == 400_000
        assert sum(e.value for e in pmf.values()) <= 1.0

    def test_two_type_pmf_matches_exact_engine(self):
        spec = zoo.two_type_cascade()
        table = build_survival_table(spec, 40)
        cfg = SimConfig(master_seed=303, replicates=200_000, max_steps=30)
        pmf = estimate_pmf_T(spec, cfg, workers=2)
        for n in range(1, 31):
            exact = extinction_time_pmf(table, 1, n)
            e = pmf[n]
            assert abs(e.value - exact) <= 4.0 * e.stderr

    def test_worker_count_never_changes_results(self):
        spec = zoo.two_type_cascade()
        cfg = SimConfig(master_seed=404, replicates=30_000, max_steps=20)
        base = estimate_pmf_T(spec, cfg, workers=1)
        for workers in (2, 3, 7):
            assert estimate_pmf_T(spec, cfg, workers=workers) == base


class TestConditional:
    def test_constant_functional_has_zero_variance(self):
        spec = zoo.two_type_cascade()
        cfg = SimConfig(master_seed=77, replicates=20_000, max_steps=20)
        est = conditional_estimate(spec, cfg, 5, lambda s: 1.0)
        assert est.value == 1.0
        assert est.stderr == 0.0
        assert 0.0 < est.acceptance_rate < 1.0

    def test_matches_exact_conditional_transform(self):
        spec = zoo.two_type_cascade()
        table = build_survival_table(spec, 40)
        exact = conditional_transform(spec, table, (1.0, 0.6), m=20, n=25)
        cfg = SimConfig(master_seed=88, replicates=150_000, max_steps=25,
                        snapshot_times=(20,))
        est = conditional_estimate(
            spec, cfg, 25, lambda s: 0.6 ** s.snapshots[20][1], workers=3)
        assert abs(est.value - exact) <= 4.0 * est.stderr

    def test_zero_hits_raises(self):
        cfg = SimConfig(master_seed=1, replicates=500, max_steps=10)
        with pytest.raises(AcceptanceTooLow) as err:
            conditional_estimate(forced_death_spec(), cfg, 7, lambda s: 1.0)
        assert err.value.n == 7
        assert err.value.replicates == 500

    def test_target_must_fit_horizon(self):
        cfg = SimConfig(master_seed=1, replicates=100, max_steps=10)
        with pytest.raises(ValueError):
            conditional_estimate(zoo.single_geometric(), cfg, 11, lambda s: 1.0)

    def test_worker_count_never_changes_results(self):
        spec = zoo.two_type_cascade()
        cfg = SimConfig(master_seed=99, replicates=40_000, max_steps=15,
                        snapshot_times=(4,))
        fn = lambda s: 0.25 ** s.snapshots[4][1]
        base = conditional_estimate(spec, cfg, 8, fn, workers=1)
        for workers in (2, 5):
            assert conditional_estimate(spec, cfg, 8, fn, workers=workers) == base


class TestWorkerPool:
    def test_functional_runs_only_in_the_calling_process(self):
        spec = zoo.two_type_cascade()
        cfg = SimConfig(master_seed=99, replicates=40_000, max_steps=15,
                        snapshot_times=(4,))
        pids = set()

        def fn(s):
            pids.add(os.getpid())
            return 0.25 ** s.snapshots[4][1]

        conditional_estimate(spec, cfg, 8, fn, workers=2)
        assert pids == {os.getpid()}

    def test_more_workers_than_chunks(self):
        spec = zoo.two_type_cascade()
        cfg = SimConfig(master_seed=505, replicates=500, max_steps=20)
        assert estimate_pmf_T(spec, cfg, workers=7) == \
            estimate_pmf_T(spec, cfg, workers=1)
        # three groups: a pool smaller than the worker request
        cfg = SimConfig(master_seed=606, replicates=2 * GROUP * CHUNK + 500,
                        max_steps=10, snapshot_times=(1,))
        assert len(_chunk_layout(cfg.replicates)) == 3
        fn = lambda s: 0.5 ** s.snapshots[1][1]
        assert conditional_estimate(spec, cfg, 3, fn, workers=7) == \
            conditional_estimate(spec, cfg, 3, fn, workers=1)

    @pytest.mark.parametrize("estimate", ["pmf", "conditional"])
    def test_a_failing_group_in_a_child_fails_as_in_one_process(
            self, estimate, monkeypatch):
        # group 1 of 3 raises; at workers=2 it runs in a forked child
        run_chunks = montecarlo._run_chunks

        def failing(spec, config, group, horizon):
            if group[0][0] == GROUP:
                raise AcceptanceTooLow(horizon, config.replicates)
            return run_chunks(spec, config, group, horizon)

        monkeypatch.setattr(montecarlo, "_run_chunks", failing)
        monkeypatch.setattr(montecarlo, "cores", lambda: 2)
        spec = zoo.two_type_cascade()
        cfg = SimConfig(master_seed=3, replicates=2 * GROUP * CHUNK + 1,
                        max_steps=4)
        assert len(_chunk_layout(cfg.replicates)) == 3
        failures = []
        for workers in (1, 2):
            with pytest.raises(AcceptanceTooLow) as info:
                if estimate == "pmf":
                    estimate_pmf_T(spec, cfg, workers=workers)
                else:
                    conditional_estimate(spec, cfg, 2, lambda s: 1.0,
                                         workers=workers)
            failures.append((type(info.value), str(info.value),
                             info.value.args))
            with pytest.raises(ChildProcessError):  # no child left
                os.waitpid(-1, os.WNOHANG)
        assert failures[0] == failures[1]

    def test_pool_size_caps_at_cores_and_groups(self, monkeypatch):
        cores = len(os.sched_getaffinity(0))
        assert _pool_size(10**6, 10**6) == cores
        assert _pool_size(10**6, 3) == min(3, cores)
        assert _pool_size(10**6, 1) == 1
        assert _pool_size(1, 10**6) == 1
        assert _pool_size(0, 10**6) == 1
        assert not multiprocessing.active_children()
        # the cores the process may run on, not every core of the host
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert _pool_size(10**6, 10**6) == 2


# --------------------------------------------------------------- grouping


def _grouped_run(spec, n, group, monkeypatch):
    """A pmf and a conditional estimate at ``GROUP = group``, with every
    accepted summary; six chunks, a cap of 40 and snapshots at 0 and
    past ``n``."""
    monkeypatch.setattr(montecarlo, "GROUP", group)
    common = dict(replicates=5 * CHUNK + 37, max_steps=n + 4,
                  population_cap=40)
    pmf = estimate_pmf_T(spec, SimConfig(master_seed=71, **common), workers=2)
    cfg = SimConfig(master_seed=72, snapshot_times=(0, n // 2, n + 3),
                    **common)
    summaries = []

    def fn(s):
        summaries.append(s)
        return float(s.W_N)

    est = conditional_estimate(spec, cfg, n, fn, workers=2)
    return pmf, est, summaries


@pytest.mark.parametrize("name", sorted(zoo.STOCK_MODELS))
def test_grouping_changes_no_result(name, monkeypatch):
    # GROUP = 1 advances every chunk alone, on its own stream
    spec = zoo.stock_model(name)
    alone = _grouped_run(spec, 8, 1, monkeypatch)
    for group in (3, GROUP):
        assert _grouped_run(spec, 8, group, monkeypatch) == alone
    cfg = SimConfig(master_seed=71, max_steps=12, population_cap=40)
    capped = montecarlo._run_chunks(spec, cfg, [(0, CHUNK)], 12)[1]
    assert capped.any()  # the cap bites


def test_a_serial_run_holds_one_group_at_a_time():
    spec = zoo.two_type_cascade()
    estimate_pmf_T(spec, SimConfig(master_seed=5, replicates=10, max_steps=2))
    cfg = SimConfig(master_seed=5, replicates=200_000, max_steps=30)
    tracemalloc.start()
    try:
        estimate_pmf_T(spec, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000


# ----------------------------------------------------------------- golden

# Captured from the sampler before the per-family draws moved onto the
# laws: every draw must come off the same stream in the same order.
GOLDEN_PMF_COUNTS = {
    "two_type_cascade": [369, 313, 192, 125, 113, 82, 64, 60, 43, 29,
                         30, 30, 24, 13, 24, 18, 16, 20, 15, 16],
    "micro_table": [792, 229, 115, 85, 55, 49, 49, 32, 26, 24,
                    27, 19, 23, 19, 10, 11, 16, 12, 9, 12],
}
GOLDEN_TRAJECTORIES = {
    # (T, W_N, early extinction, snapshots at 1, 5, 20); streams 0..5
    "two_type_cascade": [
        ((60, "max_steps"), 35, 9, {1: (5, 0), 5: (7, 34), 20: (0, 223)}),
        (8, 3, 1, {1: (0, 3), 5: (0, 6), 20: (0, 0)}),
        (22, 35, 9, {1: (8, 1), 5: (6, 20), 20: (0, 7)}),
        (3, 1, 1, {1: (0, 1), 5: (0, 0), 20: (0, 0)}),
        (3, 2, 1, {1: (0, 2), 5: (0, 0), 20: (0, 0)}),
        ((60, "max_steps"), 686, 36, {1: (2, 1), 5: (3, 13), 20: (41, 297)}),
    ],
    "micro_table": [
        (1, 0, 1, {1: (0, 0), 5: (0, 0), 20: (0, 0)}),
        (4, 1, 3, {1: (2, 0), 5: (0, 0), 20: (0, 0)}),
        (1, 0, 1, {1: (0, 0), 5: (0, 0), 20: (0, 0)}),
        (3, 0, 3, {1: (2, 0), 5: (0, 0), 20: (0, 0)}),
        ((60, "max_steps"), 1, 4, {1: (2, 0), 5: (0, 4), 20: (0, 10)}),
        (6, 1, 2, {1: (1, 1), 5: (0, 2), 20: (0, 0)}),
    ],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_PMF_COUNTS))
def test_golden_pmf_counts(name):
    est = estimate_pmf_T(zoo.stock_model(name),
                         SimConfig(master_seed=2024, replicates=2048,
                                   max_steps=20))
    counts = [round(e.value * 2048) for _, e in sorted(est.items())]
    assert counts == GOLDEN_PMF_COUNTS[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_TRAJECTORIES))
def test_golden_trajectories(name):
    spec = zoo.stock_model(name)
    cfg = SimConfig(master_seed=2024, max_steps=60, snapshot_times=(1, 5, 20))
    for stream, want in enumerate(GOLDEN_TRAJECTORIES[name]):
        s = simulate_once(spec, cfg, stream)
        T = (s.T.at, s.T.reason) if s.censored else s.T
        assert (T, s.W_N, s.early_extinction_time, dict(s.snapshots)) == want


# -------------------------------------------------------------- properties


@settings(max_examples=40, deadline=None)
@given(spec=model_specs(max_types=3))
def test_random_models_conserve_and_repeat(spec):
    cfg = SimConfig(master_seed=31, max_steps=8, population_cap=10**6)
    s = check_replay(spec, cfg, 1)
    assert s == simulate_once(spec, cfg, 1)
    if isinstance(s.T, int):
        assert 1 <= s.T <= 8
    assert s.W_N >= 0
