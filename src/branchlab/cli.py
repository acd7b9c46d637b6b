"""Command-line front end.

Parses model configs, dispatches engine, Monte Carlo, and experiment
runs, and writes the results as CSV (canonical) or JSON artifacts.
Every artifact embeds the resolved run configuration as header
comments, numbers carry 17 significant digits, and identical requests
(seed included) produce byte-identical files.  Exit status: 0 for
success or a PASS verdict, 1 for a FAIL verdict or a failed run, 2
for usage and configuration errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shutil
import sys
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from itertools import chain
from pathlib import Path
from typing import (Callable, Collection, Iterable, Iterator, Mapping,
                    NamedTuple, Sequence)

from .config import load_model
from .constants import constant_set
from .errors import BranchLabError, ConfigError, HypothesisViolation
from .experiments import (
    ConvergenceReport,
    _clean,
    _fmt,
    verify_death,
    verify_deathfin,
    verify_diff_lemmas,
    verify_finalstage,
    verify_foster,
    verify_laplace_W,
    verify_local,
)
from .model import ProcessSpec, _collect_moments, check_assumptions
from .pgf import build_survival_table, conditional_transform, extinction_time_pmf
from .zoo import STOCK_MODELS, stock_model

__all__ = ["RunRequest", "main", "run"]


@dataclass(frozen=True)
class RunRequest:
    """One CLI invocation.

    ``command`` is the subcommand; ``target`` carries the theorem or
    lemma id when the command takes one.  ``model`` is either a stock
    model name or a path to a YAML config.  A field named in ``_FLAGS``
    is None unless given; ``_READS`` states which of them each command
    reads and their defaults.
    """

    command: str
    target: str | None = None
    model: str = "two_type_cascade"
    n: int | None = None
    m: int | None = None
    k: int | None = None
    lam: float | None = None
    s: float | None = None
    x: float | None = None
    seed: int | None = None
    replicates: int | None = None
    workers: int | None = None
    output: str | None = None
    format: str = "csv"
    plotdata: bool | None = None


class UsageError(Exception):
    def __init__(self, message: str, *, field: str | None = None,
                 stanza: str | None = None):
        super().__init__(message)
        self.field = field
        self.stanza = stanza


_MODEL_STANZA = """\
  types: 2
  laws:
    - parent: 1
      kind: product
      children:
        1: {family: geometric, mean: 1.0}
        2: {family: poisson, mean: 1.0}
    - parent: 2
      kind: product
      children:
        2: {family: geometric, mean: 1.0}"""

_EXAMPLES = {
    "validate": "branchlab validate --model two_type_cascade",
    "constants": "branchlab constants --model three_type_chain --format json",
    "extinction": "branchlab extinction --model single_geometric --n 1000",
    "conditional":
        "branchlab conditional --model two_type_cascade --n 200 --m 150 --s 0.6",
    "mc": "branchlab mc --model two_type_cascade --n 30 --replicates 100000",
    "mc --m": "branchlab mc --model two_type_cascade --n 30 --m 20 --s 0.5",
    "theorem": "branchlab theorem death --n 20000 --k 200 --lambda 1",
    "lemma": "branchlab lemma laplace --model two_type_cascade",
}


@dataclass
class Table:
    """Tabular artifact for the non-experiment commands.

    Field names follow ``ConvergenceReport`` so that ``_emit`` serves
    both; ``passed`` is None for commands without a verdict.  ``rows``
    is any re-iterable with ``len`` whose cells are Python scalars, and
    each curve is an iterable of ``(x, y)`` pairs.
    """

    experiment: str
    model: str
    columns: tuple[str, ...]
    rows: Collection[tuple]
    meta: dict
    passed: bool | None = None
    curves: Mapping[str, Iterable[tuple[float, float]]] | None = None

    def frame(self, fmt: str, config: dict) -> tuple[str, str]:
        """The text before and after the rows: the JSON is ``json.dump``'s
        (``indent=2, sort_keys=True``) with a NUL string for the rows."""
        if fmt == "csv":
            head = [*_config_lines(config), f"# table={self.experiment}\n",
                    f"# model={self.model}\n"]
            if self.passed is not None:
                head.append(f"# verdict={'PASS' if self.passed else 'FAIL'}\n")
            head += [f"# {key}={_fmt(self.meta[key])}\n"
                     for key in sorted(self.meta)]
            return "".join(head) + ",".join(self.columns) + "\n", ""
        doc = {"table": self.experiment, "model": self.model,
               "verdict": self.passed,
               "meta": {k: _clean(v) for k, v in self.meta.items()},
               "columns": list(self.columns), "rows": "\0"}
        head, _, tail = json.dumps({"config": config, "table": doc}, indent=2,
                                   sort_keys=True).partition('"\\u0000"')
        return head, ("\n    ]" if self.rows else "[]") + tail + "\n"

    def lines(self, fmt: str, rows: Iterable, first: bool = True) -> Iterator[str]:
        """The text of ``rows``, a contiguous run of ``self.rows``, row
        by row; JSON writes non-finite floats as null, and its ``first``
        run opens the list of rows that a later run continues."""
        if fmt == "csv":
            # one format for an int then floats, as in every extinction
            # row: '%d' and '%.17g' write what _fmt writes for them
            plain = (int,) + (float,) * (len(self.columns) - 1)
            line = "%d" + ",%.17g" * (len(self.columns) - 1) + "\n"
            for row in rows:
                if tuple(map(type, row)) == plain:
                    yield line % row
                else:
                    yield ",".join([format(c, ".17g") if type(c) is float
                                    else _fmt(c) for c in row]) + "\n"
            return
        opening = "[\n" if first else ",\n"
        for row in rows:
            cells = [repr(c) if type(c) is int or (type(c) is float
                                                   and math.isfinite(c))
                     else json.dumps(_clean(c)) for c in row]
            yield (opening + "      [\n        " + ",\n        ".join(cells)
                   + "\n      ]")
            opening = ",\n"


_BLOCK = 4096  # rows that _TableRows converts to Python floats at a time


class _TableRows:
    """Rows ``(n, columns[0][i], columns[1][i], ...)`` with n = start +
    i + 1 over equal-length 1-D float arrays, converted to Python
    scalars one block at a time: only the arrays and one block of rows
    are ever held, and every pass walks the arrays afresh."""

    def __init__(self, *columns, start: int = 0):
        self.columns, self.start = columns, start

    def __len__(self) -> int:
        return len(self.columns[0])

    def __iter__(self) -> Iterator[tuple]:
        for lo in range(0, len(self), _BLOCK):
            hi = min(lo + _BLOCK, len(self))
            yield from zip(range(self.start + lo + 1, self.start + hi + 1),
                           *[c[lo:hi].tolist() for c in self.columns])

    def split(self) -> list[_TableRows]:
        """These rows in contiguous runs, one per core that formats them
        (at most one per block; one without ``os.fork``)."""
        cores = (os.cpu_count() or 1) if hasattr(os, "fork") else 1
        count = max(1, min(cores, len(self) // _BLOCK))
        cuts = [len(self) * i // count for i in range(count + 1)]
        return [_TableRows(*[c[lo:hi] for c in self.columns],
                           start=self.start + lo)
                for lo, hi in zip(cuts, cuts[1:])]


# ------------------------------------------------------------- model lookup


def _resolve_model(name_or_path: str) -> ProcessSpec:
    if name_or_path in STOCK_MODELS:
        return stock_model(name_or_path)
    if Path(name_or_path).exists():
        return load_model(name_or_path)
    known = ", ".join(sorted(STOCK_MODELS))
    raise UsageError(
        f"'{name_or_path}' is neither a stock model ({known}) nor a "
        "readable config file",
        field="model", stanza=_MODEL_STANZA)


def _check_request(req: RunRequest) -> Mapping[str, object]:
    """Refuse a malformed request; returns what its command reads."""
    if req.command not in _HANDLERS:
        raise UsageError(f"unknown command '{req.command}'", field="command")
    targets = {"theorem": _THEOREMS, "lemma": _LEMMAS}.get(req.command, {})
    if targets and req.target not in targets:
        known = ", ".join(sorted(targets))
        problem = (f"command '{req.command}' requires a target"
                   if req.target is None
                   else f"unknown {req.command} target '{req.target}'")
        raise UsageError(f"{problem} (one of {known})", field="target",
                         stanza="  " + _EXAMPLES[req.command])
    if not targets and req.target is not None:
        raise UsageError(f"command '{req.command}' takes no target",
                         field="target")
    if req.format not in ("csv", "json"):
        raise UsageError(f"unknown format '{req.format}'", field="format")
    if req.workers is not None and req.workers < 1:
        raise UsageError("workers must be at least 1", field="workers")
    if req.replicates is not None and req.replicates < 1:
        raise UsageError(
            f"replicates must be at least 1 (got {req.replicates})",
            field="replicates", stanza="  " + _EXAMPLES["mc"])
    for name in ("n", "m", "k"):
        value = getattr(req, name)
        if value is not None and value < 0:
            raise UsageError(f"{name} must be nonnegative", field=name)
    if req.s is not None and not 0.0 <= req.s <= 1.0:
        raise UsageError("s must lie in [0, 1]", field="s")
    if req.x is not None and not 0.0 < req.x < 1.0:
        raise UsageError("x must lie in (0, 1)", field="x")
    if req.lam is not None and req.lam < 0.0:
        raise UsageError("lambda must be nonnegative", field="lambda")
    if req.command in ("theorem", "lemma"):
        key, what = req.target, f"{req.command} {req.target}"
    else:
        key = what = "mc --m" if req.command == "mc" and req.m is not None \
            else req.command
    reads = _READS[key]
    for name, flag in _FLAGS.items():
        value = getattr(req, name)
        if value is not None and name not in reads:
            if key == "mc" and name in _READS["mc --m"]:
                raise UsageError(f"'mc' reads --{flag} only with --m",
                                 field=flag)
            raise UsageError(f"'{what}' does not read --{flag}", field=flag)
        if value is None and reads.get(name) is _REQUIRED:
            raise UsageError(f"command '{req.command}' requires --{flag}",
                             field=flag, stanza="  " + _EXAMPLES[key])
    return reads


# ----------------------------------------------------------------- commands


def _cmd_validate(req: RunRequest, spec: ProcessSpec):
    md = _collect_moments(spec)
    violations = check_assumptions(spec)
    bad = {(v.kind, v.type_index) for v in violations}
    n = spec.n_types

    rows: list[tuple] = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            rows.append(("mean", f"{i}->{j}", md.mean_matrix[i - 1][j - 1], None))
    for i in range(1, n + 1):
        rows.append(("own_mean", str(i), md.mean_matrix[i - 1][i - 1],
                     ("non_critical", i) not in bad))
    for i in range(1, n):
        rows.append(("link_mean", f"{i}->{i + 1}", md.link_means[i - 1],
                     ("missing_link", i) not in bad))
    for i in range(1, n + 1):
        rows.append(("half_variance", str(i), md.b[i - 1],
                     ("degenerate_variance", i) not in bad))
    for v in violations:
        rows.append(("violation", str(v.type_index), math.nan, False))

    table = Table("validate", spec.name, ("quantity", "index", "value", "ok"),
                  rows, {"n_types": n, "violations": len(violations)},
                  passed=not violations)
    return table


def _cmd_constants(req: RunRequest, spec: ProcessSpec):
    from .model import validate_hypothesis_A

    cs = constant_set(validate_hypothesis_A(spec))
    rows: list[tuple] = []
    for i in range(1, cs.n_types + 1):
        rows.append(("decay_exponent", str(i), cs.gamma[i - 1]))
        rows.append(("survival_amplitude", str(i), cs.survival_amplitude[i - 1]))
        rows.append(("local_amplitude", str(i), cs.local_amplitude[i - 1]))
        rows.append(("half_variance", str(i), cs.b[i - 1]))
    for i, d in enumerate(cs.chain, start=1):
        rows.append(("chain", str(i), d))
    for i, mean in enumerate(cs.link_means, start=1):
        rows.append(("link_mean", f"{i}->{i + 1}", mean))
    return Table("constants", spec.name, ("quantity", "index", "value"),
                 rows, {"n_types": cs.n_types})


def _cmd_extinction(req: RunRequest, spec: ProcessSpec):
    n = req.n
    if n < 1:
        raise UsageError("n must be at least 1", field="n")
    table = build_survival_table(spec, n)
    table._check(1, n)  # a truncated table raises PrecisionLoss here
    types = range(1, spec.n_types + 1)
    cols = ["n"]
    cols += [f"survival:type={i}" for i in types]
    cols += [f"pmf:type={i}" for i in types]
    columns = (*table.d[:, 1:], *table.pmf[:, 1:])
    curves = None
    if req.plotdata:
        # one curve per value column, against n
        curves = {label: _TableRows(c) for label, c in zip(cols[1:], columns)}
    return Table("extinction", spec.name, tuple(cols), _TableRows(*columns),
                 {"n_types": spec.n_types}, curves=curves)


def _cmd_conditional(req: RunRequest, spec: ProcessSpec):
    if not req.m < req.n:
        raise UsageError("m must be smaller than n", field="m",
                         stanza="  " + _EXAMPLES["conditional"])
    value = _exact_conditional(req, spec, build_survival_table(spec, req.n))
    rows = [(req.n, req.m, req.s, value)]
    return Table("conditional", spec.name, ("n", "m", "s", "value"), rows,
                 {"n_types": spec.n_types})


def _exact_conditional(req: RunRequest, spec: ProcessSpec, table) -> float:
    """E[s^(last-type count at m) | T = n] for the request, exactly."""
    args = (1.0,) * (spec.n_types - 1) + (req.s,)
    return conditional_transform(spec, table, args, m=req.m, n=req.n)


def _cmd_mc(req: RunRequest, spec: ProcessSpec):
    from .montecarlo import SimConfig, conditional_estimate, estimate_pmf_T

    n = req.n
    if n < 1:
        raise UsageError("n must be at least 1", field="n")
    if req.m is not None and not req.m < n:
        raise UsageError("m must be smaller than n", field="m")
    config = SimConfig(master_seed=req.seed, replicates=req.replicates,
                       max_steps=n,
                       snapshot_times=() if req.m is None else (req.m,))
    table = build_survival_table(spec, n)

    if req.m is not None:
        # conditional mode: E[s^(last-type count at m) | extinction at n]
        est = conditional_estimate(
            spec, config, n,
            lambda summary: req.s ** summary.snapshots[req.m][-1],
            workers=req.workers)
        exact = _exact_conditional(req, spec, table)
        z = (est.value - exact) / est.stderr if est.stderr > 0 else math.nan
        rows = [(n, req.m, req.s, est.value, est.stderr, est.acceptance_rate,
                 exact, z)]
        return Table("mc", spec.name,
                     ("n", "m", "s", "estimate", "stderr", "acceptance",
                      "exact", "z"),
                     rows, {"replicates": config.replicates,
                            "seed": req.seed, "mode": "conditional"})

    estimates = estimate_pmf_T(spec, config, workers=req.workers)
    rows = []
    curves: dict[str, list[tuple[float, float]]] = {"estimate": [], "exact": []}
    for nn in sorted(estimates):
        est = estimates[nn]
        exact = extinction_time_pmf(table, 1, nn)
        z = (est.value - exact) / est.stderr if est.stderr > 0 else math.nan
        rows.append((nn, est.value, est.stderr, exact, z))
        curves["estimate"].append((float(nn), est.value))
        curves["exact"].append((float(nn), exact))
    return Table("mc", spec.name, ("n", "estimate", "stderr", "exact", "z"),
                 rows, {"replicates": config.replicates, "seed": req.seed,
                        "mode": "pmf"},
                 curves=curves)


# target -> driver; values stay bare callables so that a tracer can
# swap a driver in place
_THEOREMS: dict[str, Callable] = {
    "foster": verify_foster,
    "local": verify_local,
    "finalstage": verify_finalstage,
    "death": verify_death,
    "deathfin": verify_deathfin,
}

_LEMMAS: dict[str, Callable] = {
    "laplace": verify_laplace_W,
    "diff": verify_diff_lemmas,
}


def _same(value):
    return value


def _single(value):
    return (value,)


class _Driver(NamedTuple):
    """A target's field: given, it reaches the driver as
    ``keyword=convert(value)``; otherwise the driver's default holds."""

    keyword: str
    convert: Callable = _same


_REQUIRED = object()  # a field the command needs and has no default for

_MC = {"n": 30, "replicates": 10_000, "seed": 0, "workers": 1}

# command, mc mode or theorem/lemma target -> {request field it reads:
# its default}; a None default leaves the field unset unless given, and
# every set field but `plotdata` goes into the `# config:` header
_READS: dict[str, Mapping[str, object]] = {
    "validate": {},
    "constants": {},
    "extinction": {"n": 1000, "plotdata": None},
    "conditional": {"n": _REQUIRED, "m": _REQUIRED, "s": _REQUIRED},
    "mc": {**_MC, "plotdata": None},
    "mc --m": {**_MC, "m": _REQUIRED, "s": _REQUIRED},
    "foster": {"n": _Driver("n"), "plotdata": None},
    "local": {"n": _Driver("n"), "plotdata": None},
    "finalstage": {"n": _Driver("n"), "lam": _Driver("lam"),
                   "x": _Driver("xs", _single), "plotdata": None},
    "death": {"n": _Driver("n"), "k": _Driver("k"),
              "lam": _Driver("lambdas", _single), "plotdata": None},
    "deathfin": {"n": _Driver("n"), "k": _Driver("ks", _single),
                 "s": _Driver("s_grid", _single), "plotdata": None},
    "laplace": {"plotdata": None},
    "diff": {"n": _Driver("n"), "lam": _Driver("lam"), "plotdata": None},
}

# request field -> its flag, for the fields a command may read
_FLAGS = {"n": "n", "m": "m", "k": "k", "lam": "lambda", "s": "s", "x": "x",
          "seed": "seed", "replicates": "replicates", "workers": "workers",
          "plotdata": "plotdata"}


def _cmd_experiment(req: RunRequest, spec: ProcessSpec):
    fn = (_THEOREMS if req.command == "theorem" else _LEMMAS)[req.target]
    return fn(spec, **{arg.keyword: arg.convert(getattr(req, name))
                       for name, arg in _READS[req.target].items()
                       if arg is not None and getattr(req, name) is not None})


# ------------------------------------------------------------ artifact I/O


def _config_lines(resolved: dict) -> list[str]:
    return [f"# config:{key}={_fmt(resolved[key])}\n" for key in sorted(resolved)]


def _artifact_path(req: RunRequest, exp_id: str, model_name: str) -> Path:
    if req.output is not None:
        return Path(req.output)
    outdir = Path(os.environ.get("BRANCHLAB_OUTDIR", "."))
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    return outdir / f"{exp_id}_{model_name}_{stamp}.{req.format}"


def _slug(label: str) -> str:
    return re.sub(r"[^0-9A-Za-z._=+-]+", "-", label).strip("-") or "curve"


def _write_jobs(jobs: Iterable[tuple[Path, Iterable[str]]]) -> None:
    for path, lines in jobs:
        with open(path, "w") as fh:
            fh.writelines(lines)


def _write_parts(path: Path, head: str, parts: list, tail: str, files: list):
    """Write ``head``, the k parts and ``tail`` to ``path`` and each
    ``(path, lines)`` of ``files``.  Job j of [*parts, *files] runs here if
    j % k == 0, else in forked child j % k, which writes its part to a
    temporary file, appended here in order, and leaves by ``os._exit``,
    flushing no inherited buffer.  No child or temporary file is left."""
    k = len(parts)
    temps = [path.with_name(f".{path.name}.{os.getpid()}.{w}") for w in range(1, k)]
    jobs = [(path, chain([head], parts[0])), *zip(temps, parts[1:]), *files]
    children: list[int] = []
    try:
        for w in range(1, k):
            pid = os.fork()
            if pid == 0:
                try:
                    _write_jobs(jobs[w::k])
                    os._exit(0)
                except Exception:
                    sys.excepthook(*sys.exc_info())
                finally:
                    os._exit(1)
            children.append(pid)
        _write_jobs(jobs[::k])
        with open(path, "a") as fh:
            for temp in temps:
                status = os.waitpid(children[0], 0)[1]
                del children[0]
                if status:
                    raise BranchLabError("a part writer failed")
                with open(temp, "rb") as part:
                    shutil.copyfileobj(part, fh.buffer)
            fh.write(tail)
    finally:
        for pid in children:
            os.waitpid(pid, 0)
        for temp in temps:
            temp.unlink(missing_ok=True)


def _emit(req: RunRequest, resolved: dict,
          payload: ConvergenceReport | Table) -> tuple[int, list[Path]]:
    exp_id, model_name, verdict = payload.experiment, payload.model, payload.passed
    path = _artifact_path(req, exp_id, model_name)
    path.parent.mkdir(parents=True, exist_ok=True)
    if isinstance(payload, Table):
        # streamed: a table's text is never held in memory whole
        head, tail = payload.frame(req.format, resolved)
        rows = payload.rows
        runs = rows.split() if isinstance(rows, _TableRows) else [rows]
        parts = [payload.lines(req.format, run, first=i == 0)
                 for i, run in enumerate(runs)]
    else:
        head = ("".join(_config_lines(resolved)) + payload.to_csv()
                if req.format == "csv" else
                json.dumps({"config": resolved, "report": payload.to_doc()},
                           indent=2, sort_keys=True) + "\n")
        parts, tail = [()], ""
    # a .dat per curve; '%.17g' writes an int n as _fmt(float(n)) does
    curves = (payload.curves if req.plotdata else None) or {}
    files = [(path.with_name(f"{path.stem}_{_slug(label)}.dat"),
              ("%.17g %.17g\n" % point for point in curves[label]))
             for label in sorted(curves)]
    _write_parts(path, head, parts, tail, files)
    written = [path, *(p for p, _ in files)]

    if verdict is None:
        print(f"{exp_id} {model_name}: ok")
        code = 0
    else:
        print(f"{exp_id} {model_name}: {'PASS' if verdict else 'FAIL'}")
        code = 0 if verdict else 1
    for p in written:
        print(f"wrote {p}")
    return code, written


_HANDLERS = {
    "validate": _cmd_validate,
    "constants": _cmd_constants,
    "extinction": _cmd_extinction,
    "conditional": _cmd_conditional,
    "mc": _cmd_mc,
    "theorem": _cmd_experiment,
    "lemma": _cmd_experiment,
}


def _print_usage_error(exc: UsageError) -> None:
    print(f"error: {exc}", file=sys.stderr)
    if exc.field is not None:
        print(f"field: {exc.field}", file=sys.stderr)
    if exc.stanza is not None:
        print(f"example:\n{exc.stanza}", file=sys.stderr)


def run(request: RunRequest) -> int:
    """Execute one request; returns the process exit status."""
    try:
        reads = _check_request(request)
        spec = _resolve_model(request.model)
        request = replace(request, **{
            name: default for name, default in reads.items()
            if getattr(request, name) is None
            and not isinstance(default, _Driver)})
        # --plotdata adds .dat files and leaves the artifact as it is
        resolved = {name: getattr(request, name) for name in
                    ("command", "target", "model", "format", *reads)
                    if name != "plotdata"
                    and getattr(request, name) is not None}
        payload = _HANDLERS[request.command](request, spec)
        code, _ = _emit(request, resolved, payload)
        return code
    except UsageError as exc:
        _print_usage_error(exc)
        return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        if exc.field is not None:
            print(f"field: {exc.field}", file=sys.stderr)
        print(f"example:\n{_MODEL_STANZA}", file=sys.stderr)
        return 2
    except HypothesisViolation as exc:
        print(f"model fails the standing assumptions: {exc}", file=sys.stderr)
        print(f"inspect it with: branchlab validate --model {request.model}",
              file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BranchLabError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="branchlab",
        description="Exact and Monte Carlo analysis of strongly critical "
                    "decomposable branching cascades.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--model", default="two_type_cascade",
                        help="stock model name or YAML config path")
    common.add_argument("--n", type=int)
    common.add_argument("--m", type=int)
    common.add_argument("--k", type=int)
    common.add_argument("--lambda", dest="lam", type=float)
    common.add_argument("--s", type=float)
    common.add_argument("--x", type=float)
    common.add_argument("--seed", type=int)
    common.add_argument("--replicates", type=int)
    common.add_argument("--workers", type=int,
                        help="worker processes for the mc replicate "
                             "chunks (at most one per core)")
    common.add_argument("--output", help="artifact path (default: "
                        "<experiment>_<model>_<timestamp>.<format> under "
                        "$BRANCHLAB_OUTDIR or the working directory)")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--plotdata", action="store_true", default=None,
                        help="also write two-column .dat files per curve")

    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [
        ("validate", "check the standing assumptions, print moments"),
        ("constants", "print the derived constants"),
        ("extinction", "tabulate survival and extinction-time pmf"),
        ("conditional", "conditional pgf of the last type at time m "
                        "given extinction at n"),
        ("mc", "Monte Carlo estimates against exact values"),
    ]:
        sub.add_parser(name, parents=[common], help=helptext)
    p_theorem = sub.add_parser("theorem", parents=[common],
                               help="run a limit-theorem experiment")
    p_theorem.add_argument("target", choices=sorted(_THEOREMS))
    p_lemma = sub.add_parser("lemma", parents=[common],
                             help="run a building-block experiment")
    p_lemma.add_argument("target", choices=sorted(_LEMMAS))
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    return run(RunRequest(**vars(args)))


if __name__ == "__main__":
    sys.exit(main())
