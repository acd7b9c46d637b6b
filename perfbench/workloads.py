"""The three benchmark workloads.

Each workload runs in rounds.  A round calls the same operations in the
same order, one after another from this process (a closed loop: each
call starts when the previous one has returned), and only the calls
are timed.  Checks run between rounds and after the last one, outside
the timed region.  Inputs come from the ``--seed`` argument only.

Every check compares against ``reference`` (which does not import
branchlab) or against a property the method must have: byte-identical
artifacts, bitwise worker invariance.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random
import statistics
import time
from dataclasses import dataclass

import reference


@dataclass
class Op:
    name: str
    seconds: float
    ok: bool
    result: object


def timed(name: str, fn) -> Op:
    """Run one operation; an exception marks it failed, not the run."""
    start = time.perf_counter()
    try:
        result = fn()
        ok = True
    except Exception as exc:  # an operation that raises is a failed one
        result = exc
        ok = False
    return Op(name, time.perf_counter() - start, ok, result)


def cli_op(cli, name: str, **request) -> Op:
    """One ``cli.run`` call; a nonzero exit status fails the operation."""
    req = cli.RunRequest(**request)
    with contextlib.redirect_stdout(io.StringIO()):
        op = timed(name, lambda: cli.run(req))
    if op.ok and op.result != 0:
        op.ok = False
    return op


def rel_err(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


def seed_bits(*parts) -> int:
    """63 bits derived from the seed and a label, stable across Pythons."""
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


class Workload:
    """``mods`` holds the branchlab modules; calls go through their
    attributes so that the tracer's wrappers are seen."""

    name = ""

    def __init__(self, mods, seed: int, specs: dict, outdir: str, nproc: int):
        self.mods = mods
        self.seed = seed
        self.specs = specs
        self.outdir = outdir
        self.nproc = nproc
        self.rng = random.Random(seed)

    def prepare(self) -> None:
        """Untimed work before the first round (references)."""

    def round(self, r: int) -> list[Op]:
        raise NotImplementedError

    def check_round(self, r: int, ops: list[Op]) -> list[str]:
        return []

    def finish(self) -> list[str]:
        """Checks that need every round, run once after the last."""
        return []

    def details(self, rounds: list[tuple[float, list[Op]]]) -> dict:
        """Figures of the workload's own operations (not BENCHMARK.json metrics)."""
        raise NotImplementedError

    def path(self, name: str) -> str:
        return os.path.join(self.outdir, name)


def _by_name(rounds, name) -> list[Op]:
    return [op for _, ops in rounds for op in ops if op.name == name]


# ---------------------------------------------------------------------------


class ConditionalLimits(Workload):
    """theorem deathfin, death and finalstage on two_type_cascade, n = 2e4.

    The seed sets the order of the three commands within a round.
    """

    name = "conditional-limits"
    THEOREMS = ("deathfin", "death", "finalstage")

    def __init__(self, *a):
        super().__init__(*a)
        self.order = list(self.THEOREMS)
        self.rng.shuffle(self.order)

    def round(self, r):
        return [cli_op(self.mods.cli, t, command="theorem", target=t, model="two_type_cascade",
                       format="json", output=self.path(f"theorem_{t}.json"))
                for t in self.order]

    def check_round(self, r, ops):
        errors = []
        for op in ops:
            if not op.ok:
                continue
            with open(self.path(f"theorem_{op.name}.json")) as fh:
                rows = json.load(fh)["report"]["rows"]
            errors += [f"theorem {op.name} {row['part']}: {msg}"
                       for row in rows for msg in self._check_row(op.name, row)]
        return errors

    @staticmethod
    def _check_row(theorem, row):
        value, params = row["value"], row["params"]
        if row["part"] == "normalization":
            if abs(value - 1.0) > 1e-9:
                yield f"normalization {value!r} is not 1 within 1e-9"
            return
        if theorem == "deathfin":
            # the remark rows are the same bracket at s = 1
            want = reference.deathfin_bracket(params["s"], int(params["k"]))
            tol = 1e-3
        elif theorem == "death":
            want = reference.death_limit(params["lam"])
            tol = 0.10
        else:
            want = reference.midlife_limit(params["lam"], params["x"], 2)
            tol = 0.01
        if not rel_err(value, want) <= tol:
            yield f"value {value!r} not within {tol:g} of {want!r}"

    def details(self, rounds):
        return {f"theorem_{t}_s": statistics.median(op.seconds for op in _by_name(rounds, t))
                for t in self.THEOREMS}


# ---------------------------------------------------------------------------


class ExtinctionTables(Workload):
    """branchlab extinction to n = 1e5 on a table law and a product law.

    One command per model and round: the table law writes CSV, the
    product law JSON.  The seed sets the order of the two commands and
    picks six of the checkpoints compared with the 40-digit reference.
    """

    name = "extinction-tables"
    N = 100_000
    MODELS = (("micro_table", "csv", "table_law"),
              ("three_type_chain", "json", "product_law"))

    def __init__(self, *a):
        super().__init__(*a)
        self.order = list(self.MODELS)
        self.rng.shuffle(self.order)
        fixed = {1, 2, 10, 100, 1000, 10_000, self.N}
        self.checkpoints = sorted(fixed | set(self.rng.sample(range(3, self.N), 6)))
        self.digests = {}

    def prepare(self):
        self.ref = {m: reference.orbit(m, self.N, self.checkpoints)
                    for m, _, _ in self.MODELS}

    def round(self, r):
        return [cli_op(self.mods.cli, f"{m}.{f}", command="extinction", model=m, n=self.N,
                       format=f, output=self.path(f"extinction_{m}.{f}"))
                for m, f, _ in self.order]

    def check_round(self, r, ops):
        errors = []
        for op in ops:
            if not op.ok:
                continue
            with open(self.path(f"extinction_{op.name}"), "rb") as fh:
                digest = hashlib.file_digest(fh, "sha256").hexdigest()
            first = self.digests.setdefault(op.name, digest)
            if digest != first:
                errors.append(f"extinction {op.name}: round {r} artifact differs "
                              "from round 0 for the same request")
        return errors

    def _rows(self, model, fmt) -> dict[int, list[float]]:
        """Checkpoint rows of one artifact, parsed back from disk."""
        wanted = {str(n) for n in self.checkpoints}
        path = self.path(f"extinction_{model}.{fmt}")
        with open(path, newline="") as fh:
            if fmt == "json":
                rows = json.load(fh)["table"]["rows"]
            else:
                rows = csv.reader(line for line in fh if not line.startswith("#"))
                next(rows)  # column names
            return {int(row[0]): [float(x) for x in row[1:]]
                    for row in rows if str(row[0]) in wanted}

    def finish(self):
        errors = []
        for model, fmt, _ in self.MODELS:
            if f"{model}.{fmt}" not in self.digests:
                continue  # the command failed in every round
            errors += [f"{model}.{fmt} {msg}" for msg in self._check_table(
                model, self._rows(model, fmt))]
        return errors

    def _check_table(self, model, got):
        n_types = reference.n_types(model)
        for n in self.checkpoints:
            want_d, want_p = self.ref[model][n]
            row = got.get(n)
            if row is None:
                yield f"no row n={n}"
                continue
            for i in range(n_types):
                for label, v, w in (("survival", row[i], want_d[i]),
                                    ("pmf", row[n_types + i], want_p[i])):
                    if not rel_err(v, w) <= 1e-10:
                        yield f"{label} type {i + 1} n={n}: {v!r} against {w!r}"
        row = got.get(self.N)
        gamma, c, g = reference.amplitudes(model)
        for i in range(n_types if row else 0):
            scaled_d = row[i] * self.N ** gamma[i]
            scaled_p = row[n_types + i] * self.N ** (1.0 + gamma[i])
            if not rel_err(scaled_d, c[i]) <= 0.01:
                yield f"type {i + 1}: d(n) n^gamma = {scaled_d!r}, amplitude {c[i]!r}"
            if not rel_err(scaled_p, g[i]) <= 0.01:
                yield f"type {i + 1}: pmf(n) n^(1+gamma) = {scaled_p!r}, amplitude {g[i]!r}"

    def details(self, rounds):
        return {f"extinction_{label}_rows_per_s": statistics.median(
                    self.N / op.seconds for op in _by_name(rounds, f"{model}.{fmt}"))
                for model, fmt, label in self.MODELS}


# ---------------------------------------------------------------------------


class Functional:
    """s ** (last-type count at m): the statistic under the conditioning."""

    def __init__(self, s: float, m: int):
        self.s = s
        self.m = m
        self.tracer = None

    def __call__(self, summary) -> float:
        if self.tracer is None:
            return self.s ** summary.snapshots[self.m][-1]
        span = self.tracer.open("callback.functional")
        try:
            return self.s ** summary.snapshots[self.m][-1]
        finally:
            self.tracer.close(span)


def _kl(x: float, p: float) -> float:
    """Bernoulli relative entropy KL(x || p)."""
    out = 0.0
    if x > 0.0:
        out += x * math.log(x / p)
    if x < 1.0:
        out += (1.0 - x) * math.log((1.0 - x) / (1.0 - p))
    return out


class MonteCarlo(Workload):
    """estimate_pmf_T and conditional_estimate on two_type_cascade.

    Each runs at workers=1 and at workers=nproc; the exact engine adds
    the 30-step table and the exact conditional beside them, as the
    ``mc`` command does.  Round r uses Monte Carlo master seeds hashed
    from (seed, r).

    The statistical checks have a false-alarm rate of at most ALPHA per
    run for a correct program: MAX_ROUNDS rounds at most, TESTS tests
    per round, each at ALPHA / (MAX_ROUNDS * TESTS) by a Chernoff bound
    (counts) or a Bernstein bound (the conditional mean).
    """

    name = "monte-carlo"
    MODEL = "two_type_cascade"
    REPLICATES = 200_000
    MAX_STEPS = 30
    N, M, S = 25, 20, 0.6
    ALPHA = 1e-3
    MAX_ROUNDS = 16
    TESTS = MAX_STEPS + 3  # pmf bins, censored mass, acceptance, mean

    def __init__(self, *a):
        super().__init__(*a)
        self.spec = self.specs[self.MODEL]
        self.functional = Functional(self.S, self.M)
        self.log_threshold = math.log(2.0 * self.MAX_ROUNDS * self.TESTS / self.ALPHA)

    def prepare(self):
        self.ref_pmf = reference.extinction_pmf(self.MODEL, self.MAX_STEPS)
        s = [1.0, self.S]
        self.ref_cond = reference.conditional(self.MODEL, self.N, self.M, s)
        second = reference.conditional(self.MODEL, self.N, self.M, [1.0, self.S ** 2])
        self.ref_var = second - self.ref_cond ** 2

    def configs(self, r):
        sim = self.mods.montecarlo.SimConfig
        return (sim(master_seed=seed_bits(self.seed, r, "pmf"),
                    replicates=self.REPLICATES, max_steps=self.MAX_STEPS),
                sim(master_seed=seed_bits(self.seed, r, "conditional"),
                    replicates=self.REPLICATES, max_steps=self.N,
                    snapshot_times=(self.M,)))

    def round(self, r):
        pmf_cfg, cond_cfg = self.configs(r)
        montecarlo, pgf = self.mods.montecarlo, self.mods.pgf
        ops = []
        for label, workers in (("serial", 1), ("parallel", self.nproc)):
            ops.append(timed(f"pmf.{label}", lambda w=workers: montecarlo.estimate_pmf_T(
                self.spec, pmf_cfg, workers=w)))
        for label, workers in (("serial", 1), ("parallel", self.nproc)):
            ops.append(timed(f"conditional.{label}", lambda w=workers: montecarlo.conditional_estimate(
                self.spec, cond_cfg, self.N, self.functional, workers=w)))

        def exact():
            table = pgf.build_survival_table(self.spec, self.MAX_STEPS)
            value = pgf.conditional_transform(self.spec, table, (1.0, self.S),
                                              m=self.M, n=self.N)
            return table, value

        ops.append(timed("exact", exact))
        return ops

    def _count_test(self, label, hits, reps, p):
        """Two-sided Chernoff test of a binomial count against p."""
        if reps * _kl(hits / reps, p) > self.log_threshold:
            return [f"{label}: {hits} of {reps} against probability {p!r}"]
        return []

    def check_round(self, r, ops):
        got = {op.name: op.result for op in ops if op.ok}
        errors = []
        for kind in ("pmf", "conditional"):
            a, b = got.get(f"{kind}.serial"), got.get(f"{kind}.parallel")
            if a is not None and b is not None and _fingerprint(a) != _fingerprint(b):
                errors.append(f"{kind}: workers=1 and workers={self.nproc} differ")
        pmf = got.get("pmf.serial", got.get("pmf.parallel"))
        if pmf is not None:
            counts = [round(pmf[t].value * self.REPLICATES) for t in range(1, self.MAX_STEPS + 1)]
            for t, (k, p) in enumerate(zip(counts, self.ref_pmf), start=1):
                errors += self._count_test(f"round {r} P(T={t})", k, self.REPLICATES, p)
            errors += self._count_test(f"round {r} P(T>{self.MAX_STEPS})",
                                       self.REPLICATES - sum(counts), self.REPLICATES,
                                       1.0 - sum(self.ref_pmf))
        est = got.get("conditional.serial", got.get("conditional.parallel"))
        if est is not None:
            hits = round(est.acceptance_rate * est.replicates)
            errors += self._count_test(f"round {r} acceptance", hits, est.replicates,
                                       self.ref_pmf[self.N - 1])
            # Bernstein: P(|mean - mu| >= e) <= 2 exp(-H e^2 / (2 var + 2e/3))
            e = abs(est.value - self.ref_cond)
            if hits * e * e / (2.0 * self.ref_var + 2.0 * e / 3.0) > self.log_threshold:
                errors.append(f"round {r} conditional mean {est.value!r} over {hits} "
                              f"hits against {self.ref_cond!r}")
        if "exact" in got:
            table, value = got["exact"]
            for t, p in enumerate(self.ref_pmf, start=1):
                if not rel_err(float(table.pmf[0, t]), p) <= 1e-10:
                    errors.append(f"exact P(T={t}) {table.pmf[0, t]!r} against {p!r}")
            if not rel_err(value, self.ref_cond) <= 1e-10:
                errors.append(f"exact conditional {value!r} against {self.ref_cond!r}")
        return errors

    def rep_generations(self, pmf) -> int:
        counts = [round(pmf[t].value * self.REPLICATES) for t in range(1, self.MAX_STEPS + 1)]
        censored = self.REPLICATES - sum(counts)
        return sum(t * k for t, k in enumerate(counts, start=1)) + censored * self.MAX_STEPS

    def details(self, rounds):
        # throughput: all work of the run over all time spent on it
        def rate(name, work):
            ops = [op for op in _by_name(rounds, name) if op.ok]
            if not ops:
                return None
            return sum(work(op.result) for op in ops) / sum(op.seconds for op in ops)

        def accepted(est):
            return round(est.acceptance_rate * est.replicates)

        return {
            "mc_serial_rep_gens_per_s": rate("pmf.serial", self.rep_generations),
            "mc_parallel_rep_gens_per_s": rate("pmf.parallel", self.rep_generations),
            "mc_accepted_per_s": rate("conditional.parallel", accepted),
        }


def _fingerprint(result) -> str:
    """Bit-exact text form of an estimate or a pmf dict of estimates."""
    def one(e):
        return (f"{e.value.hex()} {e.stderr.hex()} {e.replicates} "
                f"{e.acceptance_rate.hex()}")

    if isinstance(result, dict):
        return ";".join(f"{t}:{one(e)}" for t, e in sorted(result.items()))
    return one(result)


WORKLOADS = {w.name: w for w in (ConditionalLimits, ExtinctionTables, MonteCarlo)}
