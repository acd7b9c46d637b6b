"""Convergence experiments: finite-horizon runs against limit formulas.

Each driver evaluates the exact engine on a parameter grid, divides by
the corresponding limit value, and reports the ratios.  Verdicts are
judged against tolerance bands frozen from pilot runs at half and a
quarter of the target horizon (the limits come with no convergence
rates, so acceptance has to be trend-based).  Registered bands live in
``data/bands.json``; unregistered model/experiment pairs fall back to
an on-the-fly pilot with the same rule.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .constants import constant_set
from .errors import PrecisionLoss, SlowConvergence, UnreachableEvent
from .model import ProcessSpec, validate_hypothesis_A
from .numerics import richardson_derivative
from .pgf import (
    SurvivalTable,
    build_survival_table,
    censored_transform,
    conditional_transform,
    extinction_time_pmf,
    harmonic_U,
    terminal_gap,
    w_transform,
    w_weighted_mean,
)

__all__ = [
    "ConvergenceReport",
    "ReportRow",
    "band_for",
    "calibrate",
    "limit_death",
    "limit_deathfin",
    "limit_finalstage",
    "load_bands",
    "make_u_evaluator",
    "verify_death",
    "verify_deathfin",
    "verify_diff_lemmas",
    "verify_finalstage",
    "verify_foster",
    "verify_laplace_W",
    "verify_local",
]

DEFAULT_N_GRID = (100, 316, 1000, 3162, 10000)

# |ratio - center| may tick up by this much between consecutive grid
# points and still count as a monotone approach (roundoff headroom)
_MONOTONE_SLACK = 1e-9
_BURN_IN = 100

_RECOVERABLE = (PrecisionLoss, SlowConvergence, UnreachableEvent)

# pilots run at half and a quarter of the largest horizon, never below
# this, so every driver's table reaches at least this far as well
_MIN_PILOT = 4


def _fmt(x) -> str:
    """One artifact cell: 17 significant digits, lowercase booleans."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _clean(x):
    """JSON has no NaN or infinity: non-finite floats become null."""
    if isinstance(x, float) and not math.isfinite(x):
        return None
    return x


@dataclass(frozen=True)
class ReportRow:
    """One grid point: finite-horizon value against its limit."""

    part: str
    params: tuple[tuple[str, float], ...]
    value: float
    limit: float
    precision_ok: bool = True

    @property
    def ratio(self) -> float:
        if self.limit == 0.0 or math.isnan(self.limit):
            return math.nan
        return self.value / self.limit


@dataclass(frozen=True)
class ConvergenceReport:
    """Grid, rows, bands, and the verdict for one experiment run.

    ``bands`` maps part labels to (lo, hi) intervals on the final
    ratio (on the final value for parts whose limit is zero).
    ``passed`` is True only when every part sits in its band and all
    rows used by the verdict are precision-clean.
    """

    experiment: str
    model: str
    grid: tuple[tuple[str, tuple[float, ...]], ...]
    rows: tuple[ReportRow, ...]
    bands: Mapping[str, tuple[float, float]]
    passed: bool
    details: Mapping[str, object] = field(default_factory=dict)

    def csv_lines(self) -> Iterator[str]:
        """The CSV artifact, one newline-terminated line at a time."""
        cols: list[str] = []
        for row in self.rows:
            for name, _ in row.params:
                if name not in cols:
                    cols.append(name)
        yield f"# experiment={self.experiment}\n"
        yield f"# model={self.model}\n"
        yield f"# passed={_fmt(self.passed)}\n"
        for name, values in self.grid:
            yield f"# grid:{name}={','.join(_fmt(v) for v in values)}\n"
        for part in sorted(self.bands):
            lo, hi = self.bands[part]
            yield f"# band:{part or 'all'}=[{_fmt(lo)},{_fmt(hi)}]\n"
        for key in sorted(self.details):
            yield f"# {key}={_fmt(self.details[key])}\n"
        yield "part," + ",".join(cols) + ",value,limit,ratio,precision_ok\n"
        for row in self.rows:
            have = dict(row.params)
            cells = [row.part]
            cells += [_fmt(have[c]) if c in have else "" for c in cols]
            cells += [_fmt(row.value), _fmt(row.limit), _fmt(row.ratio),
                      _fmt(row.precision_ok)]
            yield ",".join(cells) + "\n"

    def to_csv(self) -> str:
        return "".join(self.csv_lines())

    def to_doc(self) -> dict:
        return {
            "experiment": self.experiment,
            "model": self.model,
            "passed": self.passed,
            "grid": {name: list(values) for name, values in self.grid},
            "bands": {part or "all": list(b) for part, b in self.bands.items()},
            "details": {k: _clean(v) for k, v in self.details.items()},
            "rows": [
                {
                    "part": r.part,
                    "params": dict(r.params),
                    "value": _clean(r.value),
                    "limit": _clean(r.limit),
                    "ratio": _clean(r.ratio),
                    "precision_ok": r.precision_ok,
                }
                for r in self.rows
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_doc(), indent=2, sort_keys=True)

    @property
    def curves(self) -> dict[str, list[tuple[float, float]]]:
        """One curve per part for ``--plotdata``: ratio (else value)
        against ``n`` (else the row's first parameter)."""
        curves: dict[str, list[tuple[float, float]]] = {}
        for row in self.rows:
            params = dict(row.params)
            x = params.get("n")
            if x is None and params:
                x = next(iter(params.values()))
            if x is None:
                continue
            y = row.ratio if math.isfinite(row.ratio) else row.value
            curves.setdefault(row.part or self.experiment, []).append(
                (float(x), float(y)))
        return curves


# ------------------------------------------------------------------ bands


@lru_cache(maxsize=1)
def load_bands() -> dict:
    """Frozen tolerance bands shipped with the package."""
    ref = resources.files("branchlab").joinpath("data/bands.json")
    try:
        return json.loads(ref.read_text())
    except FileNotFoundError:
        return {}


def _band_key(experiment: str, part: str, model: str) -> str:
    return f"{experiment}:{part}@{model}" if part else f"{experiment}@{model}"


# calibrate() flips this on so every part recomputes its pilot band
_calibrating = False


def band_for(experiment: str, part: str, model: str):
    if _calibrating:
        return None
    entry = load_bands().get(_band_key(experiment, part, model))
    if entry is None:
        return None
    return (entry["lo"], entry["hi"])


def pilot_band(half: float, quarter: float) -> tuple[float, float]:
    """Band rule used everywhere: centered on the half-horizon pilot value,
    width set by the drift between the two pilots with a 2% floor."""
    hw = max(2.5 * abs(half - quarter), 0.02 * max(1.0, abs(half)))
    return (half - hw, half + hw)


def _in_band(x: float, band: tuple[float, float]) -> bool:
    return math.isfinite(x) and band[0] <= x <= band[1]


# ------------------------------------------------------------ limit values


def limit_finalstage(lam: float, x: float, n_types: int) -> float:
    """Limiting conditional Laplace transform for the mid-life regime
    (observation point a fixed fraction x of the extinction time)."""
    if lam < 0.0:
        raise ValueError("lambda must be nonnegative")
    if not 0.0 < x < 1.0:
        raise ValueError("x must lie in (0, 1)")
    if n_types < 1:
        raise ValueError("need at least one type")
    expo = -1.0 + 0.5 ** (n_types - 1)
    a = 1.0 + lam * (1.0 - x)
    c = 1.0 + lam * x * (1.0 - x)
    return (a / c) ** expo / (c * c)


def limit_death(lam: float) -> float:
    """Limiting transform when the observation point trails the
    extinction time by k steps with k large but k = o(n)."""
    if lam < 0.0:
        raise ValueError("lambda must be nonnegative")
    return 1.0 / ((1.0 + lam) ** 2)


def limit_deathfin(s_N: float, k: int, u_eval: Callable[[float], float],
                   table: SurvivalTable) -> float:
    """Limiting last-type pgf a fixed k steps before extinction:
    U(s_N q_{k+1}) - U(s_N q_k).

    ``u_eval`` maps s in [0,1) to the harmonic-measure generating
    function U; the terminal one-type extinction probabilities q_k come
    from ``table``.
    """
    if not 0.0 <= s_N < 1.0:
        raise ValueError("s_N must lie in [0, 1)")
    if k < 0:
        raise ValueError("k must be nonnegative")
    n = table.spec.n_types
    q_k = table.extinct_by(n, k)
    q_k1 = table.extinct_by(n, k + 1)
    return u_eval(s_N * q_k1) - u_eval(s_N * q_k)


def make_u_evaluator(spec: ProcessSpec, n_u: int = 10**5):
    """Harmonic-measure evaluator at a fixed large horizon, memoized."""

    @lru_cache(maxsize=256)
    def u_eval(s: float) -> float:
        return harmonic_U(spec, s, n_u).value

    return u_eval


# --------------------------------------------------------------- plumbing


def _guarded(fn: Callable[[], float]) -> tuple[float, bool]:
    try:
        return fn(), True
    except _RECOVERABLE:
        return math.nan, False


def _monotone_toward(rows: Sequence[ReportRow], center: float,
                     burn_in: float = _BURN_IN) -> bool:
    """Does the ratio trend steadily toward ``center`` after burn-in?

    Accepts either a shrinking distance to the center or a monotone
    ratio sequence (which covers convergence that crosses the center
    once and settles from the other side); oscillation fails.  Runaway
    monotone drift is caught separately by the band check.
    """
    ratios = [r.ratio for r in rows
              if dict(r.params).get("n", burn_in) >= burn_in
              and r.precision_ok and math.isfinite(r.ratio)]
    dists = [abs(x - center) for x in ratios]
    shrinking = all(b <= a + _MONOTONE_SLACK for a, b in zip(dists, dists[1:]))
    rising = all(b >= a - _MONOTONE_SLACK for a, b in zip(ratios, ratios[1:]))
    falling = all(b <= a + _MONOTONE_SLACK for a, b in zip(ratios, ratios[1:]))
    return shrinking or rising or falling


def _resolve_band(experiment: str, part: str, model: str,
                  pilot: Callable[[], tuple[float, float]],
                  details: dict) -> tuple[float, float]:
    stored = band_for(experiment, part, model)
    if stored is not None:
        details[f"band_source:{part or 'all'}"] = "registry"
        return stored
    half, quarter = pilot()
    details[f"band_source:{part or 'all'}"] = "pilot"
    details[f"pilot:{part or 'all'}"] = (half, quarter)
    return pilot_band(half, quarter)


def _score(value: float, limit: float) -> float:
    """What a band constrains: the ratio, or the value when the limit is 0."""
    return value if limit == 0.0 else value / limit


def _run_part(experiment: str, model: str, part: str, grid: Sequence[int],
              params: tuple[tuple[str, float], ...], limit: float,
              value: Callable[[int], float], details: dict,
              floor: int = _MIN_PILOT,
              ) -> tuple[list[ReportRow], tuple[float, float], bool]:
    """Rows, band and verdict of one part: a guarded row per horizon in
    ``grid``, the band from the registry or else from pilots at half and
    a quarter of the largest horizon (never below ``floor``, which the
    death drivers raise above their offset k, since a pilot observes
    k steps before its horizon), and a verdict that wants clean rows and
    the last row's score in band."""
    rows = []
    for n in grid:
        v, ok = _guarded(lambda: value(n))
        rows.append(ReportRow(part, (("n", float(n)),) + params, v, limit, ok))
    n_max = max(grid)
    band = _resolve_band(
        experiment, part, model,
        lambda: tuple(_score(value(max(floor, n_max // d)), limit)
                      for d in (2, 4)),
        details)
    ok = (all(r.precision_ok for r in rows)
          and _in_band(_score(rows[-1].value, limit), band))
    return rows, band, ok


def _driver_table(spec: ProcessSpec, horizon: int) -> SurvivalTable:
    """A table for the largest grid horizon and for the pilots."""
    return build_survival_table(spec, max(_MIN_PILOT, horizon))


def _normalization_row(value: Callable[[], float],
                       params: tuple[tuple[str, float], ...],
                       details: dict) -> tuple[ReportRow, bool]:
    """The lambda = 0 row: the vacuous conditional must be exactly 1."""
    norm, ok = _guarded(value)
    details["normalization_error"] = abs(norm - 1.0)
    return (ReportRow("normalization", params, norm, 1.0, ok),
            ok and abs(norm - 1.0) <= 1e-9)


# ------------------------------------------------- survival / local pmf


def _power_law_report(experiment: str, spec: ProcessSpec,
                      n_grid: Sequence[int], types,
                      value_at: Callable, scale_of: Callable) -> ConvergenceReport:
    consts = constant_set(validate_hypothesis_A(spec))
    n_grid = tuple(int(n) for n in n_grid)
    table = _driver_table(spec, max(n_grid))
    which = tuple(types) if types else tuple(range(1, spec.n_types + 1))

    rows: list[ReportRow] = []
    bands: dict[str, tuple[float, float]] = {}
    details: dict[str, object] = {}
    passed = True
    for i in which:
        part = f"type={i}"
        part_rows, bands[part], ok = _run_part(
            experiment, spec.name, part, n_grid, (), scale_of(consts, i),
            lambda n, i=i: value_at(table, consts, i, n), details)
        rows.extend(part_rows)
        mono = _monotone_toward(part_rows, 1.0)
        details[f"final_ratio:{part}"] = part_rows[-1].ratio
        details[f"monotone:{part}"] = mono
        passed = passed and ok and mono

    return ConvergenceReport(
        experiment=experiment, model=spec.name,
        grid=(("n", tuple(float(n) for n in n_grid)),),
        rows=tuple(rows), bands=bands, passed=passed, details=details)


def verify_foster(spec: ProcessSpec, n_grid: Sequence[int] = DEFAULT_N_GRID,
                  *, types: Iterable[int] | None = None) -> ConvergenceReport:
    """Survival probability from a type-i root against its power law.

    Rows carry d_i(n) * n**gamma_i, whose limit is the survival
    amplitude; the verdict wants a monotone approach that ends inside
    the band.
    """
    return _power_law_report(
        "foster", spec, n_grid, types,
        value_at=lambda table, consts, i, n:
            table.survival(i, n) * float(n) ** consts.gamma[i - 1],
        scale_of=lambda consts, i: consts.survival_amplitude[i - 1])


def verify_local(spec: ProcessSpec, n_grid: Sequence[int] = DEFAULT_N_GRID,
                 *, types: Iterable[int] | None = None) -> ConvergenceReport:
    """Extinction-time pmf from a type-i root against its power law.

    Rows carry pmf(n) * n**(1 + gamma_i) over the local amplitude.
    """
    return _power_law_report(
        "local", spec, n_grid, types,
        value_at=lambda table, consts, i, n:
            extinction_time_pmf(table, i, n) * float(n) ** (1.0 + consts.gamma[i - 1]),
        scale_of=lambda consts, i: consts.local_amplitude[i - 1])


# ------------------------------------------------- conditioned transforms


def _cond_value(spec: ProcessSpec, table: SurvivalTable, theta: float,
                m: int, n: int, s_lower: float = 1.0) -> float:
    s = [s_lower] * (spec.n_types - 1) + [math.exp(-theta)]
    return conditional_transform(spec, table, tuple(s), m=m, n=n)


def verify_finalstage(spec: ProcessSpec, *, n: int = 20_000, lam: float = 1.0,
                      xs: Sequence[float] = (0.25, 0.5, 0.75)) -> ConvergenceReport:
    """Conditional transform at m = x*n given extinction exactly at n.

    Includes a normalization row (lambda = 0 must give exactly the
    vacuous conditional 1), an insensitivity spot check with the lower
    types' arguments dropped to 0.5 (the limit must not move), and a
    regime-match detail tying the x near 1 limit to the trailing-window
    limit.
    """
    b_N = constant_set(validate_hypothesis_A(spec)).b[-1]
    table = _driver_table(spec, n)

    rows: list[ReportRow] = []
    bands: dict[str, tuple[float, float]] = {}
    details: dict[str, object] = {}
    passed = True

    def finite(nn: int, x: float, s_lower: float = 1.0) -> float:
        return _cond_value(spec, table, lam / (b_N * nn), round(x * nn), nn,
                           s_lower)

    checks = [(f"x={x:g}", x, 1.0) for x in xs]
    checks.append(("insensitivity:x=0.5", 0.5, 0.5))
    for part, x, s_lower in checks:
        part_rows, bands[part], ok = _run_part(
            "finalstage", spec.name, part, (n,), (("lam", lam), ("x", x)),
            limit_finalstage(lam, x, spec.n_types),
            lambda nn, x=x, s_lower=s_lower: finite(nn, x, s_lower), details)
        rows.extend(part_rows)
        passed = passed and ok

    norm_row, ok = _normalization_row(
        lambda: _cond_value(spec, table, 0.0, round(0.5 * n), n),
        (("n", float(n)), ("lam", 0.0), ("x", 0.5)), details)
    rows.append(norm_row)
    passed = passed and ok

    # where the two asymptotic regimes meet, their limits must agree
    x_hi = 0.99
    match = (limit_finalstage(lam, x_hi, spec.n_types)
             / limit_death(lam * (1.0 - x_hi)))
    details["regime_match_ratio"] = match
    passed = passed and abs(match - 1.0) <= 0.05

    return ConvergenceReport(
        experiment="finalstage", model=spec.name,
        grid=(("n", (float(n),)), ("lam", (lam,)),
              ("x", tuple(float(x) for x in xs))),
        rows=tuple(rows), bands=bands, passed=passed, details=details)


def verify_death(spec: ProcessSpec, *, n: int = 20_000, k: int = 200,
                 lambdas: Sequence[float] = (0.5, 1.0, 2.0)) -> ConvergenceReport:
    """Conditional transform k steps before extinction at n, k = o(n)."""
    if not 1 <= k < n:
        raise ValueError("need 1 <= k < n")
    b_N = constant_set(validate_hypothesis_A(spec)).b[-1]
    table = _driver_table(spec, n)

    rows: list[ReportRow] = []
    bands: dict[str, tuple[float, float]] = {}
    details: dict[str, object] = {}
    passed = True

    def finite(nn: int, lam: float, s_lower: float = 1.0) -> float:
        return _cond_value(spec, table, lam / (b_N * k), nn - k, nn, s_lower)

    checks = [(f"lam={lam:g}", lam, 1.0) for lam in lambdas]
    checks.append(("insensitivity:lam=1", 1.0, 0.5))
    for part, lam, s_lower in checks:
        part_rows, bands[part], ok = _run_part(
            "death", spec.name, part, (n,), (("k", float(k)), ("lam", lam)),
            limit_death(lam),
            lambda nn, lam=lam, s_lower=s_lower: finite(nn, lam, s_lower),
            details, floor=max(_MIN_PILOT, k + 1))
        rows.extend(part_rows)
        passed = passed and ok

    norm_row, ok = _normalization_row(
        lambda: finite(n, 0.0),
        (("n", float(n)), ("k", float(k)), ("lam", 0.0)), details)
    rows.append(norm_row)
    passed = passed and ok

    return ConvergenceReport(
        experiment="death", model=spec.name,
        grid=(("n", (float(n),)), ("k", (float(k),)),
              ("lam", tuple(float(v) for v in lambdas))),
        rows=tuple(rows), bands=bands, passed=passed, details=details)


def verify_deathfin(spec: ProcessSpec, *, n: int = 20_000,
                    ks: Sequence[int] = (0, 1, 2, 5),
                    s_grid: Sequence[float] = (0.3, 0.6, 0.9),
                    n_u: int = 10**5) -> ConvergenceReport:
    """Last-type pgf a fixed number of steps before extinction.

    The finite-n side conditions at m = n - (k+1) so that the window
    between observation and extinction matches the index pairing of
    the limit's bracket U(s q_{k+1}) - U(s q_k); the finite/limit ratio
    then converges to 1.  The remark rows pin the bracket at s = 1,
    which telescopes to exactly 1.
    """
    validate_hypothesis_A(spec)
    table = _driver_table(spec, n)
    u_eval = make_u_evaluator(spec, n_u)

    rows: list[ReportRow] = []
    bands: dict[str, tuple[float, float]] = {}
    details: dict[str, object] = {}
    passed = True

    def finite(nn: int, k: int, s: float) -> float:
        return _cond_value(spec, table, -math.log(s), nn - (k + 1), nn)

    for k in ks:
        for s in s_grid:
            part = f"k={k},s={s:g}"
            part_rows, bands[part], ok = _run_part(
                "deathfin", spec.name, part, (n,), (("k", float(k)), ("s", s)),
                limit_deathfin(s, k, u_eval, table),
                lambda nn, k=k, s=s: finite(nn, k, s), details,
                floor=max(_MIN_PILOT, k + 1))
            rows.extend(part_rows)
            passed = passed and ok

        # the limit's bracket at s_N -> 1 telescopes to exactly one
        terminal = spec.n_types
        bracket, ok = _guarded(
            lambda: u_eval(table.extinct_by(terminal, k + 1))
            - u_eval(table.extinct_by(terminal, k)))
        rows.append(ReportRow(f"remark:k={k}", (("k", float(k)), ("s", 1.0)),
                              bracket, 1.0, ok))
        details[f"remark_error:k={k}"] = abs(bracket - 1.0)
        passed = passed and ok and abs(bracket - 1.0) <= 2e-3

    return ConvergenceReport(
        experiment="deathfin", model=spec.name,
        grid=(("n", (float(n),)), ("k", tuple(float(k) for k in ks)),
              ("s", tuple(float(s) for s in s_grid))),
        rows=tuple(rows), bands=bands, passed=passed, details=details)


# --------------------------------------------------------- W functionals


def verify_laplace_W(spec: ProcessSpec, *,
                     thetas: Sequence[float] | None = None) -> ConvergenceReport:
    """Small-argument tail of the accumulated-immigrants transform.

    Regresses log(1 - E[exp(-theta W)]) on log(theta): the slope
    estimates the leading survival exponent and the intercept the
    amplitude in front of it.
    """
    if spec.n_types < 2:
        raise ValueError("the accumulated count is degenerate for one type")
    consts = constant_set(validate_hypothesis_A(spec))
    gamma1 = consts.gamma[0]
    amplitude = consts.chain[-1]
    if thetas is None:
        thetas = tuple(np.geomspace(1e-5, 1e-2, 13))
    thetas = tuple(float(t) for t in thetas)

    def one(theta: float) -> ReportRow:
        value, ok = _guarded(
            lambda: 1.0 - w_transform(spec, math.exp(-theta)).value)
        return ReportRow("", (("theta", theta),), value,
                         amplitude * theta ** gamma1, ok)

    rows = [one(theta) for theta in thetas]
    clean = [r for r in rows if r.precision_ok and r.value > 0.0]
    if len(clean) < 4:
        raise PrecisionLoss(len(clean),
                            "too few usable transform values to regress")
    logt = np.log([dict(r.params)["theta"] for r in clean])
    logv = np.log([r.value for r in clean])
    slope, intercept = np.polyfit(logt, logv, 1)
    amp_ratio = math.exp(intercept) / amplitude

    details: dict[str, object] = {
        "slope": float(slope),
        "gamma_1": gamma1,
        "amplitude_estimate": math.exp(intercept),
        "amplitude_ratio": amp_ratio,
    }
    bands: dict[str, tuple[float, float]] = {}
    slope_band = band_for("laplace_W", "slope", spec.name)
    if slope_band is None:
        slope_band = (gamma1 - 0.03, gamma1 + 0.03)
        details["band_source:slope"] = "declared-default"
    else:
        details["band_source:slope"] = "registry"
    bands["slope"] = slope_band

    def amp_pilot():
        # pilot regression over the coarse upper half of the grid
        upper = len(clean) // 2
        s, i = np.polyfit(logt[upper:], logv[upper:], 1)
        return amp_ratio, math.exp(i) / amplitude

    amp_band = _resolve_band("laplace_W", "amplitude", spec.name, amp_pilot,
                             details)
    bands["amplitude"] = amp_band

    passed = (all(r.precision_ok for r in rows)
              and _in_band(float(slope), slope_band)
              and _in_band(amp_ratio, amp_band))
    return ConvergenceReport(
        experiment="laplace_W", model=spec.name,
        grid=(("theta", thetas),),
        rows=tuple(rows), bands=bands, passed=passed, details=details)


def verify_diff_lemmas(spec: ProcessSpec, *,
                       n_grid: Sequence[int] = (1000, 3162, 10000),
                       lam: float = 1.0,
                       parts: Sequence[str] | None = None) -> ConvergenceReport:
    """Scaled building-block quantities against their limits.

    Parts: "window_gap" (terminal iterate increment over a shrinking
    window), "weighted_mean" (size-biased transform of the accumulated
    count), "censored_mean" (the same with the lower block forced out
    early), "local_mean" (size-biased last-type count near extinction,
    lower block censored), and "no_previous" (lower block conditioned
    to be gone well before a late extinction; limit zero, so its band
    constrains the value itself).
    """
    consts = constant_set(validate_hypothesis_A(spec))
    b_N = consts.b[-1]
    gamma1 = consts.gamma[0]
    g1 = consts.local_amplitude[0]
    n_grid = tuple(int(n) for n in n_grid)
    multi = spec.n_types >= 2
    if parts is None:
        parts = (("window_gap", "weighted_mean", "censored_mean",
                  "local_mean", "no_previous") if multi else ("window_gap",))
    unknown = set(parts) - {"window_gap", "weighted_mean", "censored_mean",
                            "local_mean", "no_previous"}
    if unknown:
        raise ValueError(f"unknown parts: {sorted(unknown)}")
    if not multi and set(parts) != {"window_gap"}:
        raise ValueError("only window_gap is defined for a single type")
    table = _driver_table(spec, max(n_grid))

    evaluators: dict[str, tuple[Callable[[int], float], float]] = {}

    def gap_value(n: int) -> float:
        k = round(math.sqrt(n))
        s = math.exp(-lam / (b_N * k))
        return (b_N * lam * n * n / k) * terminal_gap(spec, s, n - k)

    evaluators["window_gap"] = (gap_value, 1.0)

    if multi:
        wm_limit = b_N * g1 / lam ** (1.0 - gamma1)

        def wm_value(n: int) -> float:
            return w_weighted_mean(spec, lam, n) / n ** (1.0 - gamma1)

        def cwm_value(n: int) -> float:
            t = round(n ** (2.0 / 3.0))
            return (w_weighted_mean(spec, lam, n, horizon=t)
                    / n ** (1.0 - gamma1))

        def lm_value(n: int) -> float:
            k = round(math.sqrt(n))
            t = round(n ** (2.0 / 3.0))
            m = n - k
            theta0 = lam / (b_N * k)
            ones = (1.0,) * (spec.n_types - 1)

            def f(theta: float) -> float:
                return censored_transform(
                    spec, table, ones + (math.exp(-theta),), t, m)

            deriv = richardson_derivative(f, theta0, theta0 * 1e-4)
            return -(n ** (1.0 + gamma1) / k ** 2) * deriv

        evaluators["weighted_mean"] = (wm_value, wm_limit)
        evaluators["censored_mean"] = (cwm_value, wm_limit)
        evaluators["local_mean"] = (lm_value, b_N * g1 / lam ** 2)

    rows: list[ReportRow] = []
    bands: dict[str, tuple[float, float]] = {}
    details: dict[str, object] = {}
    passed = True

    for part in parts:
        if part == "no_previous":
            continue
        value_at, limit = evaluators[part]
        part_rows, bands[part], ok = _run_part(
            "diff_lemmas", spec.name, part, n_grid, (("lam", lam),), limit,
            value_at, details)
        rows.extend(part_rows)
        details[f"final_ratio:{part}"] = part_rows[-1].ratio
        passed = passed and ok

    if "no_previous" in parts:
        ones = (1.0,) * spec.n_types
        for expo in (0.6, 0.75):
            part = f"no_previous:e={expo:g}"

            def value_at(n: int, expo=expo) -> float:
                l = round(n ** expo)
                return 1.0 - censored_transform(spec, table, ones, l, l, n)

            part_rows, band, _ = _run_part(
                "diff_lemmas", spec.name, part, n_grid, (("e", expo),), 0.0,
                value_at, details)
            rows.extend(part_rows)
            # limit is zero: constrain the value, from below by nothing
            band = bands[part] = (0.0, max(band[1], band[0]))
            final = part_rows[-1]
            ok_rows = all(r.precision_ok for r in part_rows)
            decreasing = all(b.value <= a.value + _MONOTONE_SLACK
                             for a, b in zip(part_rows, part_rows[1:]))
            details[f"final_value:{part}"] = final.value
            details[f"decreasing:{part}"] = decreasing
            passed = (passed and ok_rows and decreasing
                      and _in_band(final.value, band))

    return ConvergenceReport(
        experiment="diff_lemmas", model=spec.name,
        grid=(("n", tuple(float(n) for n in n_grid)), ("lam", (lam,))),
        rows=tuple(rows), bands=bands, passed=passed, details=details)


# ------------------------------------------------------------- calibration


def _registered_runs():
    from . import zoo

    geo = zoo.single_geometric()
    casc = zoo.two_type_cascade()
    chain = zoo.three_type_chain()
    return [
        ("foster", geo, verify_foster, {}),
        ("foster", casc, verify_foster, {}),
        ("foster", chain, verify_foster, {}),
        ("local", geo, verify_local, {}),
        ("local", casc, verify_local, {}),
        ("local", chain, verify_local, {}),
        ("finalstage", geo, verify_finalstage, {}),
        ("finalstage", casc, verify_finalstage, {}),
        ("death", geo, verify_death, {}),
        ("death", casc, verify_death, {}),
        ("deathfin", geo, verify_deathfin, {}),
        ("deathfin", casc, verify_deathfin, {}),
        ("laplace_W", casc, verify_laplace_W, {}),
        ("laplace_W", chain, verify_laplace_W, {}),
        ("diff_lemmas", geo, verify_diff_lemmas, {}),
        ("diff_lemmas", casc, verify_diff_lemmas, {}),
    ]


def calibrate(out_path=None) -> dict:
    """Re-freeze the tolerance bands for the stock models.

    Runs every registered experiment with the registry masked so each
    part computes its pilot band, then writes the collected bands to
    ``data/bands.json`` (or ``out_path``).  Slope bands for the
    transform-tail regression are declared at the acceptance tolerance
    rather than piloted.
    """
    global _calibrating
    entries: dict[str, dict] = {}
    _calibrating = True
    try:
        for experiment, spec, fn, kw in _registered_runs():
            report = fn(spec, **kw)
            for part in sorted(report.bands):
                lo, hi = report.bands[part]
                key = _band_key(experiment, part, spec.name)
                entry: dict = {"lo": lo, "hi": hi}
                pilot = report.details.get(f"pilot:{part or 'all'}")
                if pilot is not None:
                    entry["pilot"] = list(pilot)
                if report.details.get(f"band_source:{part or 'all'}") \
                        == "declared-default":
                    entry["declared"] = True
                entries[key] = entry
    finally:
        _calibrating = False
    if out_path is None:
        out_path = resources.files("branchlab").joinpath("data/bands.json")
    with open(str(out_path), "w") as fh:
        fh.write(json.dumps(entries, indent=2, sort_keys=True) + "\n")
    load_bands.cache_clear()
    return entries
