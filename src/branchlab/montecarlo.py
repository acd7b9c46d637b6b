"""Forward simulation of the cascade by aggregate type counts.

Populations are stored as count vectors, never as individual particles:
each generation draws the summed offspring of all same-type parents in
one batch through the law's ``draws`` (Poisson sums collapse exactly,
Geometric sums via negative binomial, table rows via a multinomial
split).  Replicates run in fixed chunks, each chunk on its own
counter-based RNG stream keyed by (master_seed, chunk index), so
results are reproducible bit for bit no matter how many worker
processes participate in a run.  Workers only simulate; functionals are
always evaluated in the calling process.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import partial
from typing import Callable, Mapping

import numpy as np

from .errors import AcceptanceTooLow
from .model import ProcessSpec

__all__ = [
    "Censored",
    "EstimateWithCI",
    "SimConfig",
    "TrajectorySummary",
    "conditional_estimate",
    "estimate_pmf_T",
    "simulate_once",
]

# Replicates per RNG stream.  Part of the reproducibility contract:
# changing it reshuffles which replicate sees which random draw.
CHUNK = 1024

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class SimConfig:
    """Knobs for a simulation run.

    ``snapshot_times`` lists the generations at which population
    vectors should be recorded; they are stored sorted and deduplicated.
    ``population_cap`` bounds the total particle count; a trajectory
    that overshoots it stops evolving and is reported as censored.
    """

    master_seed: int
    replicates: int = 10_000
    max_steps: int = 1_000
    snapshot_times: tuple[int, ...] = ()
    population_cap: int = 10**9

    def __post_init__(self):
        if not isinstance(self.master_seed, int):
            raise ValueError("master_seed must be an integer")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if self.population_cap < 1:
            raise ValueError("population_cap must be >= 1")
        times = tuple(sorted({int(m) for m in self.snapshot_times}))
        if times and times[0] < 0:
            raise ValueError("snapshot times must be >= 0")
        if times and times[-1] > self.max_steps:
            raise ValueError("snapshot times must not exceed max_steps")
        object.__setattr__(self, "snapshot_times", times)


@dataclass(frozen=True)
class Censored:
    """Marks an extinction time that was not observed.

    ``at`` is the last generation actually simulated; ``reason`` is
    either "max_steps" or "population_cap".
    """

    at: int
    reason: str = "max_steps"


@dataclass(frozen=True)
class TrajectorySummary:
    """What survives of one simulated trajectory.

    ``T`` is the extinction time, or a ``Censored`` marker when the run
    ended first.  ``snapshots`` maps requested generations to population
    vectors.  ``W_N`` counts every last-type child born to a parent of
    any earlier type, accumulated over the whole trajectory.
    ``early_extinction_time`` is the first generation at which all
    types below the last were simultaneously empty, or None if that was
    never observed within the simulated window.
    """

    T: int | Censored
    snapshots: Mapping[int, tuple[int, ...]]
    W_N: int
    early_extinction_time: int | None

    def __post_init__(self):
        if self.W_N < 0:
            raise ValueError("W_N must be nonnegative")
        for m, vec in self.snapshots.items():
            if any(c < 0 for c in vec):
                raise ValueError(f"negative count in snapshot at m={m}")
            if not self.censored and m >= self.T and any(vec):
                raise ValueError(
                    f"snapshot at m={m} nonzero after extinction at {self.T}"
                )

    @property
    def censored(self) -> bool:
        return isinstance(self.T, Censored)


@dataclass(frozen=True)
class EstimateWithCI:
    """Point estimate with its sampling error.

    ``acceptance_rate`` is the fraction of replicates that satisfied
    the conditioning event (1.0 for unconditional estimates).
    """

    value: float
    stderr: float
    replicates: int
    acceptance_rate: float

    def __post_init__(self):
        if self.stderr < 0.0:
            raise ValueError("stderr must be nonnegative")
        if not 0.0 <= self.acceptance_rate <= 1.0:
            raise ValueError("acceptance rate must lie in [0, 1]")


def _run_chunk(spec: ProcessSpec, config: SimConfig, stream_index: int,
               count: int, horizon: int, flows=None):
    """Advance ``count`` replicates on one RNG stream for ``horizon`` steps.

    Returns per-replicate arrays: extinction time (0 = not observed),
    cap-censoring step (0 = never), first lower-block extinction step
    (-1 = never), accumulated last-type immigrant count, and recorded
    snapshots.  ``flows`` is an audit hook for single-replicate runs:
    called once per step with (t, parents vector, flow matrix, children
    vector) where flow[i][j] counts type-j children of type-i parents.
    """
    n = spec.n_types
    key = [config.master_seed & _MASK64, stream_index & _MASK64]
    rng = np.random.Generator(np.random.Philox(key=key))

    z = np.zeros((count, n), dtype=np.int64)
    z[:, 0] = 1
    T = np.zeros(count, dtype=np.int64)
    capped = np.zeros(count, dtype=np.int64)
    early = np.full(count, -1, dtype=np.int64)
    if n == 1:
        early[:] = 0  # the block below the last type is empty from the start
    w = np.zeros(count, dtype=np.int64)
    snaps = {m: z.copy() for m in config.snapshot_times if m == 0}
    snap_set = set(config.snapshot_times)
    alive = np.ones(count, dtype=bool)

    for t in range(1, horizon + 1):
        idx = np.flatnonzero(alive)
        if idx.size == 0:
            break
        zt = z[idx]
        new = np.zeros_like(zt)
        feed = np.zeros(idx.size, dtype=np.int64)
        flow_mat = np.zeros((n, n), dtype=np.int64) if flows is not None else None
        for i, law in enumerate(spec.laws):
            sub = np.flatnonzero(zt[:, i] > 0)
            if sub.size == 0:
                continue
            for j, vals in law.draws(zt[sub, i], rng):
                new[sub, j] += vals
                if j == n - 1 and i < n - 1:
                    feed[sub] += vals
                if flow_mat is not None:
                    flow_mat[i, j] += int(vals.sum())
        if flows is not None:
            flows(t, zt[0].copy(), flow_mat, new[0].copy())

        z[idx] = new
        w[idx] += feed
        totals = new.sum(axis=1)
        if n >= 2:
            lows = totals - new[:, n - 1]
            hit = (lows == 0) & (early[idx] < 0)
            early[idx[hit]] = t
        died = totals == 0
        T[idx[died]] = t
        over = totals > config.population_cap
        capped[idx[over]] = t
        alive[idx] = ~(died | over)
        if t in snap_set:
            snaps[t] = z.copy()

    for m in config.snapshot_times:
        # reached only when every replicate stopped early; dead rows are
        # genuinely zero from then on, capped rows get filtered upstream
        if m not in snaps:
            snaps[m] = z.copy()
    return T, capped, early, w, snaps


def _summary_from_row(config: SimConfig, horizon: int, r: int,
                      T, capped, early, w, snaps) -> TrajectorySummary:
    if T[r] > 0:
        t_field: int | Censored = int(T[r])
        cutoff = horizon
    elif capped[r] > 0:
        t_field = Censored(int(capped[r]), "population_cap")
        cutoff = int(capped[r])  # later snapshots were never simulated
    else:
        t_field = Censored(horizon, "max_steps")
        cutoff = horizon
    snapshots = {m: tuple(int(x) for x in arr[r])
                 for m, arr in sorted(snaps.items()) if m <= cutoff}
    return TrajectorySummary(
        T=t_field,
        snapshots=snapshots,
        W_N=int(w[r]),
        early_extinction_time=int(early[r]) if early[r] >= 0 else None,
    )


def simulate_once(spec: ProcessSpec, config: SimConfig, stream_index: int,
                  *, record_flows: Callable | None = None) -> TrajectorySummary:
    """One trajectory from a single type-1 ancestor, on its own stream.

    Deterministic given (master_seed, stream_index).  ``record_flows``
    is called each generation with (t, parents, flow matrix, children)
    so tests can audit that the population update conserves offspring.
    """
    out = _run_chunk(spec, config, stream_index, 1, config.max_steps,
                     flows=record_flows)
    return _summary_from_row(config, config.max_steps, 0, *out)


def _chunk_layout(total: int) -> list[tuple[int, int]]:
    layout = []
    start = 0
    while start < total:
        layout.append((len(layout), min(CHUNK, total - start)))
        start += CHUNK
    return layout


def _pool_size(workers: int, chunks: int) -> int:
    """Worker processes for a run: never more than chunks or cores."""
    return max(1, min(workers, chunks, os.cpu_count() or 1))


def _map_chunks(job, layout, workers: int) -> list:
    """``job`` over every (index, size) pair, results in chunk order.

    ``job`` must pickle (a module-level function, or a partial of one)
    whenever more than one process is used.
    """
    procs = _pool_size(workers, len(layout))
    if procs <= 1:
        return [job(pair) for pair in layout]
    from concurrent.futures import ProcessPoolExecutor

    # about four batches per process: few round trips, even finish
    chunksize = -(-len(layout) // (4 * procs))
    with ProcessPoolExecutor(max_workers=procs) as pool:
        return list(pool.map(job, layout, chunksize=chunksize))


def _pmf_job(spec: ProcessSpec, config: SimConfig, pair) -> np.ndarray:
    """Extinction-time counts of one chunk, indexed by generation."""
    index, size = pair
    T, *_ = _run_chunk(spec, config, index, size, config.max_steps)
    return np.bincount(T[T > 0], minlength=config.max_steps + 1)


def _accepted_job(spec: ProcessSpec, config: SimConfig, n: int, pair):
    """The rows of one chunk that die at exactly ``n``.

    Same layout as ``_run_chunk``'s result, sliced to the accepted rows.
    """
    index, size = pair
    T, capped, early, w, snaps = _run_chunk(spec, config, index, size, n)
    rows = np.flatnonzero(T == n)
    return (T[rows], capped[rows], early[rows], w[rows],
            {m: arr[rows] for m, arr in snaps.items()})


def estimate_pmf_T(spec: ProcessSpec, config: SimConfig, *,
                   workers: int = 1) -> dict[int, EstimateWithCI]:
    """Empirical extinction-time distribution with binomial errors.

    Returns one entry per generation up to ``config.max_steps``; mass
    escaping past the horizon (or censored by the population cap) is
    simply absent, so the values sum to at most one.  Output is
    bitwise identical for any ``workers`` value: chunk results are
    integer counts and merging is plain addition.
    """
    job = partial(_pmf_job, spec, config)
    counts = sum(_map_chunks(job, _chunk_layout(config.replicates), workers))
    reps = config.replicates
    out = {}
    for t in range(1, config.max_steps + 1):
        p = int(counts[t]) / reps
        stderr = math.sqrt(p * (1.0 - p) / reps)
        out[t] = EstimateWithCI(p, stderr, reps, 1.0)
    return out


def conditional_estimate(spec: ProcessSpec, config: SimConfig, n: int,
                         functional: Callable[[TrajectorySummary], float], *,
                         workers: int = 1) -> EstimateWithCI:
    """Mean of a trajectory functional given extinction at exactly ``n``.

    Straight rejection: every replicate runs ``n`` generations at most,
    only those extinct at ``n`` on the nose are kept, and the
    functional is evaluated on their summaries.  Raises
    AcceptanceTooLow when no replicate hits the event.  Workers return
    the accepted rows only; the functional runs here, in chunk order,
    so it need not pickle and the estimate does not depend on the
    worker count.
    """
    if not 1 <= n <= config.max_steps:
        raise ValueError("target extinction time must lie in [1, max_steps]")

    job = partial(_accepted_job, spec, config, n)
    values: list[float] = []
    for rows in _map_chunks(job, _chunk_layout(config.replicates), workers):
        for r in range(rows[0].size):
            summary = _summary_from_row(config, n, r, *rows)
            values.append(float(functional(summary)))
    hits = len(values)
    if hits == 0:
        raise AcceptanceTooLow(n, config.replicates)
    arr = np.asarray(values)
    mean = float(arr.mean())
    stderr = float(arr.std(ddof=1) / math.sqrt(hits)) if hits > 1 else math.inf
    return EstimateWithCI(mean, stderr, config.replicates,
                          hits / config.replicates)
