"""branchlab benchmark: one workload, end-to-end or per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload conditional-limits --seed 1 \
        --seconds 30 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` reports the per-layer metrics and
writes the spans under perfbench_out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
MODELS_DIR = os.path.join(HERE, "models")
STOCK = ("single_geometric", "two_type_cascade", "three_type_chain", "micro_table")
OUTDIR = "perfbench_out"
MODULES = ("cli", "config", "experiments", "families", "model", "montecarlo",
           "numerics", "pgf", "zoo")
MIN_ROUNDS = 2
SETUP_REPEATS = 5

SETUP_CODE = """\
import sys
sys.path.insert(0, "src")
import branchlab
from branchlab.config import load_model
for path in sys.argv[1:]:
    load_model(path)
"""


def setup_seconds(yaml_paths) -> float:
    """Wall time of a fresh interpreter that imports branchlab and loads
    the stock models from YAML."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE, *yaml_paths],
                   check=True, stdin=subprocess.DEVNULL)
    return time.perf_counter() - start


def import_branchlab() -> types.SimpleNamespace:
    """The branchlab package and the modules the benchmark drives."""
    return types.SimpleNamespace(
        package=importlib.import_module("branchlab"),
        **{name: importlib.import_module(f"branchlab.{name}") for name in MODULES})


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_rounds(wl, seconds: float, errors: list, between) -> list:
    """Rounds until the next one would end past ``seconds`` (at least
    MIN_ROUNDS, at most the workload's MAX_ROUNDS if it has one).
    ``between`` runs untimed after each round."""
    max_rounds = getattr(wl, "MAX_ROUNDS", None)
    rounds = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        ops = wl.round(len(rounds))
        rounds.append((time.perf_counter() - t0, ops))
        errors += wl.check_round(len(rounds) - 1, ops)
        between()
        elapsed = time.perf_counter() - start
        if len(rounds) >= MIN_ROUNDS and (
                elapsed * (len(rounds) + 1) / len(rounds) > seconds
                or len(rounds) == max_rounds):
            return rounds


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "branchlab", "__init__.py")):
        print("perfbench: ./src/branchlab not found; run from the repository root",
              file=sys.stderr)
        return 2
    yaml_paths = {name: os.path.join(MODELS_DIR, f"{name}.yaml") for name in STOCK}
    # set-up samples are spread over the run, one before the first round
    # and one after each, so that their median does not rest on the
    # machine's speed during a single second
    setup = []

    def sample_setup():
        setup.append(setup_seconds(list(yaml_paths.values())))

    if not args.trace:
        sample_setup()

    sys.path.insert(0, src)
    mods = import_branchlab()
    if not os.path.abspath(mods.package.__file__).startswith(src + os.sep):
        print(f"perfbench: imported branchlab from {mods.package.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    errors = []
    specs = {}
    for name, path in yaml_paths.items():
        specs[name] = mods.config.load_model(path)
        if specs[name] != mods.zoo.stock_model(name):
            errors.append(f"config: {path} does not load as the stock model {name}")

    # artifacts of the operations; deleted at the end (tens of MB)
    outdir = os.path.join(OUTDIR, f"work-{args.workload}-seed{args.seed}")
    os.makedirs(outdir, exist_ok=True)
    nproc = os.cpu_count() or 1
    wl = workloads.WORKLOADS[args.workload](mods, args.seed, specs, outdir, nproc)
    wl.prepare()

    if args.trace:
        metrics, rounds = traced(wl, mods, specs, yaml_paths, outdir, nproc, errors, args)
    else:
        rounds = run_rounds(wl, args.seconds, errors, sample_setup)
        while len(setup) < SETUP_REPEATS:
            sample_setup()
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (statistics.median(wall for wall, _ in rounds), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    details = {"round_s": [wall for wall, _ in rounds], **wl.details(rounds)}
    errors += wl.finish()
    shutil.rmtree(outdir)

    ops = [op for _, round_ops in rounds for op in round_ops]
    for op in ops:
        if not op.ok:
            print(f"perfbench: {op.name} failed: {op.result!r}", file=sys.stderr)
    for msg in errors:
        print(f"perfbench: check failed: {msg}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": len(ops),
        "failed": sum(not op.ok for op in ops),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    line = json.dumps(result)
    print(f"perfbench: details {json.dumps(details)}", file=sys.stderr)
    with open(os.path.join(OUTDIR, f"result-{args.workload}-seed{args.seed}"
                                   f"-trace{args.trace}.json"), "w") as fh:
        json.dump({**result, "details": details}, fh)
    print(line)
    return 0


def traced(wl, mods, specs, yaml_paths, outdir, nproc, errors, args):
    """One untraced round, the same round traced, then the probe."""
    import layers
    import workloads
    from tracing import Tracer

    t0 = time.perf_counter()
    first = wl.round(0)
    untraced = time.perf_counter() - t0
    errors += wl.check_round(0, first)

    tracer = Tracer()
    functional = getattr(wl, "functional", None) or workloads.Functional(0.6, 20)
    functional.tracer = tracer
    with tracer:
        t0 = time.perf_counter()
        second = wl.round(0)
        traced_wall = time.perf_counter() - t0
        errors += wl.check_round(0, second)
        tracer.workload = "probe"
        layers.probe(mods, specs, yaml_paths, outdir, nproc, functional)
    functional.tracer = None
    tracer.write(os.path.join(OUTDIR, f"trace-{args.workload}-seed{args.seed}.jsonl"))

    metrics = layers.span_metrics(tracer, nproc)
    metrics["trace.overhead_s"] = (traced_wall - untraced, "s")
    metrics.update(layers.microbenchmarks(mods, specs, yaml_paths))
    return metrics, [(untraced, first), (traced_wall, second)]


if __name__ == "__main__":
    sys.exit(main())
