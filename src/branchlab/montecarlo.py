"""Forward simulation of the cascade by aggregate type counts.

Populations are stored as count vectors, never as individual particles:
each generation draws the summed offspring of all same-type parents in
one batch through the law's ``draws`` (Poisson sums collapse exactly,
Geometric sums via negative binomial, table rows via a multinomial
split).  Replicates run in fixed chunks, each chunk on its own
counter-based RNG stream keyed by (master_seed, chunk index), so
results are reproducible bit for bit no matter how many worker
processes participate in a run.  One process advances a group of
chunks together: each chunk still makes its own draws on its own
stream, while the bookkeeping of a generation (totals, deaths, the
cap, snapshots) runs once for the whole group.  Workers only simulate
whole groups; functionals are always evaluated in the calling process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Mapping

import numpy as np

from .errors import AcceptanceTooLow
from .model import ProcessSpec
from .numerics import cores

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
# Chunks one process advances together.  Changes no bit: only how many
# chunks share each pass of the per-generation bookkeeping, and with it
# the peak memory of a run.
GROUP = 16

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


def _run_chunks(spec: ProcessSpec, config: SimConfig, group, horizon: int):
    """Advance the replicates of ``group`` for ``horizon`` steps.

    ``group`` is a run of consecutive (stream index, size) chunks, each
    but the last of CHUNK rows, so row r belongs to chunk r // CHUNK.
    Every chunk draws from its own stream exactly what it would draw
    alone: per generation, law and child, one call on its parents of
    that type in row order.  Everything else runs once per generation
    for the whole group, over one count column per type of the live
    rows.

    Returns per-row arrays: extinction time (0 = not observed),
    cap-censoring step (0 = never), first lower-block extinction step
    (-1 = never), accumulated last-type immigrant count, and recorded
    snapshots (zero where a row no longer lived).
    """
    n = spec.n_types
    rngs = [np.random.Generator(np.random.Philox(
        key=[config.master_seed & _MASK64, index & _MASK64])) for index, _ in group]
    rows = sum(size for _, size in group)
    bounds = CHUNK * np.arange(1, len(group))

    T = np.zeros(rows, dtype=np.int64)
    capped = np.zeros(rows, dtype=np.int64)
    # with one type the block below the last is empty from the start
    early = np.full(rows, 0 if n == 1 else -1, dtype=np.int64)
    w = np.zeros(rows, dtype=np.int64)
    snaps = {m: np.zeros((rows, n), dtype=np.int64) for m in config.snapshot_times}
    if 0 in snaps:
        snaps[0][:, 0] = 1
    idx = np.arange(rows)
    live = [np.full(rows, int(i == 0), dtype=np.int64) for i in range(n)]

    for t in range(1, horizon + 1):
        if idx.size == 0:
            break
        new = [np.zeros(idx.size, dtype=np.int64) for _ in range(n)]
        for i, law in enumerate(spec.laws):
            sub = np.flatnonzero(live[i])
            if sub.size == 0:
                continue
            full = sub.size == idx.size
            parents = live[i] if full else live[i][sub]
            cut = np.searchsorted(idx[sub], bounds) if bounds.size else ()
            cuts = (0, *cut, sub.size)
            drawn = [dict(law.draws(parents[lo:hi], rng))
                     for rng, lo, hi in zip(rngs, cuts, cuts[1:]) if lo < hi]
            for j in drawn[0]:
                vals = np.concatenate([chunk[j] for chunk in drawn])
                if full:
                    new[j] += vals
                else:
                    new[j][sub] += vals
                if j == n - 1 and i < n - 1:
                    w[idx if full else idx[sub]] += vals

        lows = sum(new[:-1])  # 0 for one type, whose early is already 0
        totals = lows + new[-1]
        hit = (lows == 0) & (early[idx] < 0)
        early[idx[hit]] = t
        died = totals == 0
        T[idx[died]] = t
        over = totals > config.population_cap
        capped[idx[over]] = t
        if t in snaps:
            snaps[t][idx] = np.stack(new, axis=1)
        stop = died | over
        if stop.any():
            keep = ~stop
            idx = idx[keep]
            new = [col[keep] for col in new]
        live = new
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


def simulate_once(spec: ProcessSpec, config: SimConfig,
                  stream_index: int) -> TrajectorySummary:
    """One trajectory from a single type-1 ancestor, on its own stream.

    Deterministic given (master_seed, stream_index).
    """
    out = _run_chunks(spec, config, [(stream_index, 1)], config.max_steps)
    return _summary_from_row(config, config.max_steps, 0, *out)


def _chunk_layout(total: int) -> list[list[tuple[int, int]]]:
    """The (stream index, size) chunks of ``total`` replicates, CHUNK
    rows each but the last, in groups of GROUP consecutive chunks."""
    chunks = [(c, min(CHUNK, total - c * CHUNK))
              for c in range(-(-total // CHUNK))]
    return [chunks[g:g + GROUP] for g in range(0, len(chunks), GROUP)]


def _pool_size(workers: int, groups: int) -> int:
    """Worker processes for a run: never more than groups or the cores
    this process may run on."""
    return max(1, min(workers, groups, cores()))


def _map_groups(job, groups, workers: int) -> list:
    """``job`` over every group of chunks, results in group order.

    ``job`` must pickle (a module-level function, or a partial of one)
    whenever more than one process is used.
    """
    procs = _pool_size(workers, len(groups))
    if procs <= 1:
        return [job(group) for group in groups]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=procs) as pool:
        return list(pool.map(job, groups))


def _pmf_job(spec: ProcessSpec, config: SimConfig, group) -> np.ndarray:
    """Extinction-time counts of one group, indexed by generation."""
    T, *_ = _run_chunks(spec, config, group, config.max_steps)
    return np.bincount(T[T > 0], minlength=config.max_steps + 1)


def _accepted_job(spec: ProcessSpec, config: SimConfig, n: int, group):
    """The rows of one group that die at exactly ``n``.

    Same layout as ``_run_chunks``'s result, sliced to the accepted rows.
    """
    T, capped, early, w, snaps = _run_chunks(spec, config, group, n)
    rows = np.flatnonzero(T == n)
    return (T[rows], capped[rows], early[rows], w[rows],
            {m: arr[rows] for m, arr in snaps.items()})


def estimate_pmf_T(spec: ProcessSpec, config: SimConfig, *,
                   workers: int = 1) -> dict[int, EstimateWithCI]:
    """Empirical extinction-time distribution with binomial errors.

    Returns one entry per generation up to ``config.max_steps``; mass
    escaping past the horizon (or censored by the population cap) is
    simply absent, so the values sum to at most one.  Output is
    bitwise identical for any ``workers`` value: group results are
    integer counts and merging is plain addition.
    """
    job = partial(_pmf_job, spec, config)
    counts = sum(_map_groups(job, _chunk_layout(config.replicates), workers))
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
    for rows in _map_groups(job, _chunk_layout(config.replicates), workers):
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
