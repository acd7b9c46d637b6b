"""Reference sampler: one Monte Carlo stream replayed a generation at a time.

``replay(spec, config, index)`` follows the trajectory that
``montecarlo.simulate_once(spec, config, index)`` samples, on its own
``Philox(key=[master_seed, index])`` stream: per generation, each law
with live parents, in type order, draws their summed children through
``law.draws``, the calls the sampler makes for a chunk of one row.  It
shares no code with the sampler's chunk loop, and it keeps what that
loop does not: the flows of every generation.  ``check_replay``
requires the replay to be ``simulate_once`` and its flows to conserve
the population.
"""

from __future__ import annotations

import numpy as np

from branchlab.montecarlo import Censored, TrajectorySummary, simulate_once

_MASK64 = (1 << 64) - 1


def replay(spec, config, index):
    """(summary, flows) of stream ``index``; flows holds (t, parents,
    flow, children) per generation, where flow[i, j] counts the type-j
    children of type-i parents."""
    n = spec.n_types
    rng = np.random.Generator(np.random.Philox(
        key=[config.master_seed & _MASK64, index & _MASK64]))
    parents = np.zeros(n, dtype=np.int64)
    parents[0] = 1
    snapshots = {m: (0,) * n for m in config.snapshot_times}
    if 0 in snapshots:
        snapshots[0] = tuple(int(c) for c in parents)
    flows, w, early = [], 0, 0 if n == 1 else None
    T = Censored(config.max_steps, "max_steps")
    for t in range(1, config.max_steps + 1):
        flow = np.zeros((n, n), dtype=np.int64)
        children = np.zeros(n, dtype=np.int64)
        for i, law in enumerate(spec.laws):
            if parents[i] > 0:
                for j, kids in law.draws(parents[i:i + 1], rng):
                    flow[i, j] += kids[0]
                    children[j] += kids[0]
        flows.append((t, parents, flow, children))
        w += int(flow[:-1, -1].sum())
        if early is None and not children[:-1].any():
            early = t
        if t in snapshots:
            snapshots[t] = tuple(int(c) for c in children)
        parents = children
        if not children.any():
            T = t
            break
        if children.sum() > config.population_cap:
            T = Censored(t, "population_cap")
            # later generations were never simulated
            snapshots = {m: v for m, v in snapshots.items() if m <= t}
            break
    return TrajectorySummary(T=T, snapshots=snapshots, W_N=w,
                             early_extinction_time=early), flows


def check_replay(spec, config, index) -> TrajectorySummary:
    """The replay of stream ``index`` is ``simulate_once``'s trajectory,
    and its flows conserve the population: every child of generation t
    is a parent of generation t + 1, no parent has children of a lower
    type, and the summary's W_N is the last type's children of the
    other types."""
    summary, flows = replay(spec, config, index)
    assert summary == simulate_once(spec, config, index)
    assert flows
    n = spec.n_types
    prev = flows[0][1]
    for t, parents, flow, children in flows:
        assert np.array_equal(prev, parents)
        assert np.array_equal(flow.sum(axis=0), children)
        assert not np.tril(flow, -1).any()
        assert parents.min() >= 0 and children.min() >= 0
        prev = children
    assert summary.W_N == sum(int(flow[:n - 1, n - 1].sum())
                              for _, _, flow, _ in flows)
    if not summary.censored:
        assert summary.T == flows[-1][0] and not prev.any()
    return summary
