"""Per-layer metrics for a traced run.

A traced run times one untraced round, then the same round under the
tracer (workload id "body"), then a probe (workload id "probe") that
calls every traced layer once on small fixed inputs.  A function's
metrics come from the body when the round calls it and from the probe
otherwise, so every metric is measured on every workload; the README
says which layers each workload leaves to the probe.  Per-call costs
of the hot primitives (families, numerics, the model maps, the table
build) come from microbenchmarks run with the tracer removed.
"""

from __future__ import annotations

import contextlib
import io
import os
import statistics
import time

from tracing import Tracer, self_seconds

STOCK = ("single_geometric", "two_type_cascade", "three_type_chain", "micro_table")


def probe(mods, specs, yaml_paths, outdir, nproc, functional) -> None:
    """Small fixed calls into every traced layer (not seed-dependent)."""
    cli, experiments, mc = mods.cli, mods.experiments, mods.montecarlo
    for path in yaml_paths.values():
        mods.config.load_model(path)
    spec = specs["two_type_cascade"]
    experiments.verify_deathfin(spec, n=400, ks=(1,), s_grid=(0.6,), n_u=4000)
    experiments.verify_death(spec, n=400, k=20, lambdas=(1.0,))
    experiments.verify_finalstage(spec, n=400, xs=(0.5,))
    with contextlib.redirect_stdout(io.StringIO()):
        cli.run(cli.RunRequest(command="extinction", model="micro_table", n=2000,
                               output=os.path.join(outdir, "probe_extinction.csv")))
    pmf_cfg = mc.SimConfig(master_seed=1, replicates=4096, max_steps=30)
    for workers in (1, nproc):
        mc.estimate_pmf_T(spec, pmf_cfg, workers=workers)
    cond_cfg = mc.SimConfig(master_seed=1, replicates=16384, max_steps=25,
                            snapshot_times=(20,))
    mc.conditional_estimate(spec, cond_cfg, 25, functional, workers=1)


def _per_call(fn, args, loops: int, repeat: int = 5) -> float:
    """Median over ``repeat`` passes of the mean seconds per call."""
    samples = []
    for _ in range(repeat):
        start = time.perf_counter()
        for _ in range(loops):
            for a in args:
                fn(*a)
        samples.append((time.perf_counter() - start) / (loops * len(args)))
    return statistics.median(samples)


def microbenchmarks(mods, specs, yaml_paths) -> dict:
    fam, num, model, pgf = mods.families, mods.numerics, mods.model, mods.pgf
    out = {}
    ds = [10.0 ** (-k / 10.0) for k in range(1, 80)]
    for name, law in (("geometric", fam.Geometric(1.0)), ("poisson", fam.Poisson(1.0))):
        out[f"families.{name}.survival_ns"] = (
            1e9 * _per_call(law.survival, [(d,) for d in ds], 200), "ns")
        out[f"families.{name}.pgf_diff_ns"] = (
            1e9 * _per_call(law.pgf_diff, [(d, 0.01 * d) for d in ds], 200), "ns")
    out["numerics.complement_product_ns"] = (
        1e9 * _per_call(num.complement_product, [([d, 0.5 * d],) for d in ds], 200), "ns")
    out["numerics.power_diff_ns"] = (
        1e9 * _per_call(num.power_diff, [(1.0 - d, 0.01 * d, 2) for d in ds], 200), "ns")
    out["numerics.neumaier_sum_ns"] = (
        1e9 * _per_call(num.neumaier_sum, [([0.4, 0.4 * d, 0.2 * d],) for d in ds], 200), "ns")

    for name in STOCK:
        spec = specs[name]
        table = pgf.build_survival_table(spec, 100)
        d = [float(x) for x in table.d[:, 100]]
        gap = [float(x) for x in table.pmf[:, 100]]
        out[f"model.survival_map_us.{name}"] = (
            1e6 * _per_call(model.survival_map, [(spec, d)], 5000), "us")
        out[f"model.pair_diff_map_us.{name}"] = (
            1e6 * _per_call(model.pair_diff_map, [(spec, d, gap)], 5000), "us")
        steps = 2000
        seconds = _per_call(pgf.build_survival_table, [(spec, steps)], 1, repeat=3)
        out[f"pgf.build_survival_table.steps_per_s.{name}"] = (steps / seconds, "steps/s")

    out["config.load_model_ms"] = (1e3 * statistics.median(
        _per_call(mods.config.load_model, [(p,)], 3) for p in yaml_paths.values()), "ms")

    mc = mods.montecarlo
    cfg = mc.SimConfig(master_seed=1, max_steps=30)
    streams = [(specs["two_type_cascade"], cfg, i) for i in range(200)]
    out["montecarlo.simulate_once_us"] = (1e6 * _per_call(mc.simulate_once, streams, 1), "us")
    return out


class _Pick:
    """Spans and counts of one function, body first, probe as fallback."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.self_s = self_seconds(tracer.spans)

    def spans(self, name):
        body = [s for s in self.tracer.spans if s.name == name and s.workload == "body"]
        return body or [s for s in self.tracer.spans
                        if s.name == name and s.workload == "probe"]

    def count(self, name):
        return (self.tracer.counts.get(("body", name))
                or self.tracer.counts.get(("probe", name), 0))

    def self_time(self, spans):
        return sum(self.self_s[id(s)] for s in spans)

    def layer_self(self, layer):
        """Self time of a layer: its outermost spans only (no double count)."""
        def top(s):
            return s.layer == layer and (s.parent is None or s.parent.layer != layer)

        body = [s for s in self.tracer.spans if top(s) and s.workload == "body"]
        return self.self_time(body or [s for s in self.tracer.spans
                                       if top(s) and s.workload == "probe"])


def _mean(values):
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def span_metrics(tracer: Tracer, nproc: int) -> dict:
    pick = _Pick(tracer)
    out = {}
    for name in ("model.survival_map", "model.pair_diff_map"):
        out[f"{name}.calls"] = (pick.count(name), "count")
    out["pgf.build_survival_table.calls"] = (
        len(pick.spans("pgf.build_survival_table")), "count")
    for name in ("pgf.conditional_transform", "pgf.harmonic_U"):
        spans = pick.spans(name)
        out[f"{name}.calls"] = (len(spans), "count")
        out[f"{name}.mean_s"] = (_mean(s.seconds for s in spans), "s")
    # the cli layer's self time is cli.run.self_s below
    for layer in ("experiments", "pgf", "montecarlo", "config"):
        out[f"{layer}.self_s"] = (pick.layer_self(layer), "s")
    for short in ("deathfin", "death", "finalstage"):
        out[f"experiments.{short}.self_s"] = (
            pick.self_time(pick.spans(f"experiments.verify_{short}")), "s")

    pmf = pick.spans("montecarlo.estimate_pmf_T")
    out["montecarlo.estimate_pmf_T_s.serial"] = (
        _mean(s.seconds for s in pmf if s.attrs["workers"] == 1), "s")
    out["montecarlo.estimate_pmf_T_s.parallel"] = (
        _mean(s.seconds for s in pmf if s.attrs["workers"] == nproc), "s")
    cond = pick.spans("montecarlo.conditional_estimate")
    out["montecarlo.conditional_estimate_s"] = (_mean(s.seconds for s in cond), "s")
    out["montecarlo.acceptance"] = (
        sum(s.attrs["accepted"] for s in cond) / sum(s.attrs["replicates"] for s in cond),
        "ratio")
    functional = pick.spans("callback.functional")
    out["montecarlo.functional.calls"] = (len(functional), "count")
    out["montecarlo.functional.self_s"] = (sum(s.seconds for s in functional), "s")

    runs = pick.spans("cli.run")
    run_self = pick.self_time(runs)
    nbytes = sum(s.attrs["bytes"] for s in runs)
    out["cli.run.self_s"] = (run_self, "s")
    out["cli.artifact_bytes"] = (nbytes, "bytes")
    out["cli.artifact_mb_per_s"] = (nbytes / 1e6 / run_self, "MB/s")
    out["trace.spans"] = (len(tracer.spans), "count")
    return out
