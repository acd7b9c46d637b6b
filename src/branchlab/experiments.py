"""Convergence experiments: finite-horizon runs against limit formulas.

Each driver evaluates the exact engine on a parameter grid, divides by
the corresponding limit value, and reports the ratios.  Verdicts are
judged against tolerance bands from one rule: pilot values at half and
a quarter of the requested horizon, computed with the run (the limits
come with no convergence rates, so acceptance has to be trend-based).
Each band is recorded with the pilot pair it came from.  ``death`` and
``deathfin`` take their pilots as checkpoints of the orbit that gives
the largest horizon's row, so the pilots cost them no orbit steps.
A driver's parts are evaluated by one ``fork_map`` call, one process
per core and part where each part runs an orbit of at least
``FORK_MIN`` steps, and assembled in order here, so a report does not
depend on the number of processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

from .constants import constant_set
from .errors import PrecisionLoss, SlowConvergence, UnreachableEvent
from .model import ProcessSpec, validate_hypothesis_A
from .numerics import FORK_MIN, cores, fork_map, richardson_derivative
from .pgf import (
    SurvivalTable,
    build_survival_table,
    censored_transform,
    conditional_orbit,
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
    "limit_death",
    "limit_deathfin",
    "limit_finalstage",
    "make_u_evaluator",
    "verify_death",
    "verify_deathfin",
    "verify_diff_lemmas",
    "verify_finalstage",
    "verify_foster",
    "verify_laplace_W",
    "verify_local",
]

# |ratio - center| may tick up by this much between consecutive grid
# points and still count as a monotone approach (roundoff headroom)
_MONOTONE_SLACK = 1e-9
_BURN_IN = 100

_RECOVERABLE = (PrecisionLoss, SlowConvergence, UnreachableEvent)

# pilots run at half and a quarter of the largest horizon, never below
# this, so every driver's table reaches at least this far as well
_MIN_PILOT = 4

# the smallest horizon of every diff_lemmas part: from n = 5 on, the
# local mean's censor time round(n**(2/3)) stays at or below its
# observation time n - round(sqrt(n))
_DIFF_FLOOR = 5


def _fmt(x) -> str:
    """One artifact cell: 17 significant digits, lowercase booleans."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _clean(x):
    """JSON has no NaN or infinity: non-finite floats become null, also
    inside a band or a pilot pair."""
    if isinstance(x, tuple):
        return [_clean(v) for v in x]
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
            "bands": {part or "all": _clean(b) for part, b in self.bands.items()},
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


def make_u_evaluator(spec: ProcessSpec, n_u: int = 10**4):
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


def _monotone_toward(rows: Sequence[ReportRow], center: float) -> bool:
    """Does the ratio trend steadily toward ``center`` after burn-in?

    Accepts either a shrinking distance to the center or a monotone
    ratio sequence (which covers convergence that crosses the center
    once and settles from the other side); oscillation fails.  Runaway
    monotone drift is caught separately by the band check.
    """
    ratios = [r.ratio for r in rows
              if dict(r.params).get("n", _BURN_IN) >= _BURN_IN
              and r.precision_ok and math.isfinite(r.ratio)]
    dists = [abs(x - center) for x in ratios]
    shrinking = all(b <= a + _MONOTONE_SLACK for a, b in zip(dists, dists[1:]))
    rising = all(b >= a - _MONOTONE_SLACK for a, b in zip(ratios, ratios[1:]))
    falling = all(b <= a + _MONOTONE_SLACK for a, b in zip(ratios, ratios[1:]))
    return shrinking or rising or falling


def _score(value: float, limit: float) -> float:
    """What a band constrains: the ratio, or the value when the limit is 0."""
    return value if limit == 0.0 else value / limit


class _Part(NamedTuple):
    """One part of a driver: its label, the horizons of its rows, the
    rows' other parameters, its limit, its value at a horizon, and the
    smallest horizon it can evaluate, which ``_driver_table`` has
    checked the grid against."""

    label: str
    grid: Sequence[int]
    params: tuple[tuple[str, float], ...]
    limit: float
    value: Callable[[int], float]
    floor: int = 1

    @property
    def pilots(self) -> list[int]:
        """Half and a quarter of the largest horizon, never below
        ``_MIN_PILOT`` nor below the floor."""
        return [max(_MIN_PILOT, self.floor, max(self.grid) // d) for d in (2, 4)]

    def evaluate(self) -> dict[int, tuple[float, bool]]:
        """``value``, guarded, at every horizon of the grid and at the
        pilots, in ascending order, so that a checkpointed orbit runs
        once."""
        return {n: _guarded(lambda: self.value(n))
                for n in sorted({*self.grid, *self.pilots})}


def _run_part(part: _Part, got: Mapping[int, tuple[float, bool]],
              details: dict) -> tuple[list[ReportRow], tuple[float, float], bool]:
    """Rows, band and verdict of one part from its evaluated values
    ``got``: the grid gives the rows, the pilots the band (recorded as
    ``pilot:`` details; a failed pilot is nan), and the verdict wants
    every horizon clean and the last row's score in band."""
    rows = [ReportRow(part.label, (("n", float(n)),) + part.params, got[n][0],
                      part.limit, got[n][1]) for n in part.grid]
    half, quarter = (_score(got[n][0], part.limit) for n in part.pilots)
    details[f"pilot:{part.label or 'all'}"] = (half, quarter)
    band = pilot_band(half, quarter)
    ok = (all(clean for _, clean in got.values())
          and _in_band(_score(rows[-1].value, part.limit), band))
    return rows, band, ok


def _driver_table(spec: ProcessSpec, n: int, floor: int = 1) -> SurvivalTable:
    """A table for the largest horizon ``n`` and for the pilots; an ``n``
    below ``floor``, the smallest horizon the driver's parts can
    evaluate, is refused before any part runs."""
    if n < floor:
        raise ValueError(f"horizons start at {floor}, got n={n}")
    return build_survival_table(spec, max(_MIN_PILOT, n))


def _log_grid(lo: int, hi: int, points: int) -> tuple[int, ...]:
    """Up to ``points`` log-spaced integer horizons from lo to hi, or hi
    alone when hi <= lo."""
    if hi <= lo:
        return (hi,)
    import numpy as np

    return tuple(sorted({int(round(v)) for v in np.geomspace(lo, hi, points)}))


@dataclass
class _Accumulator:
    """Rows, bands, details and verdict of one driver run, frozen by
    ``report`` into the run's one ``ConvergenceReport``.  Every part of
    the run goes through ``parts``, in one call."""

    experiment: str
    model: str
    rows: list[ReportRow] = field(default_factory=list)
    bands: dict[str, tuple[float, float]] = field(default_factory=dict)
    details: dict[str, object] = field(default_factory=dict)
    passed: bool = True

    def parts(self, parts: Sequence[_Part],
              orbit: int = 0) -> Iterator[tuple[list[ReportRow], bool]]:
        """Each part's rows and verdict, in the order of ``parts``.

        Every part is evaluated by one ``fork_map`` call, one process
        per core and part if each part runs an orbit of ``orbit`` steps,
        at least ``FORK_MIN``; parts that cost less than a fork, such as
        lookups in the driver's table, leave ``orbit`` at 0 and run in
        this process.  Then, as the caller asks for the next part,
        ``_run_part`` assembles it and its band and pilots are recorded.
        The caller adds the rows and the verdict, so that rows and
        details it adds between parts keep their place.
        """
        procs = cores() if orbit >= FORK_MIN else 1
        for part, got in zip(parts, fork_map(_Part.evaluate, parts, procs)):
            rows, self.bands[part.label], ok = _run_part(part, got, self.details)
            yield rows, ok

    def add(self, ok: bool, *rows: ReportRow) -> None:
        """Extra rows, or none, and the verdict they carry."""
        self.rows.extend(rows)
        self.passed = self.passed and ok

    def normalization(self, value: Callable[[], float],
                      params: tuple[tuple[str, float], ...]) -> None:
        """The lambda = 0 row: the vacuous conditional must be exactly 1."""
        norm, ok = _guarded(value)
        self.details["normalization_error"] = abs(norm - 1.0)
        self.add(ok and abs(norm - 1.0) <= 1e-9,
                 ReportRow("normalization", params, norm, 1.0, ok))

    def report(self, *grid: tuple[str, tuple[float, ...]]) -> ConvergenceReport:
        return ConvergenceReport(
            experiment=self.experiment, model=self.model, grid=grid,
            rows=tuple(self.rows), bands=self.bands, passed=self.passed,
            details=self.details)


# ------------------------------------------------- survival / local pmf


def _power_law_report(experiment: str, spec: ProcessSpec, n: int,
                      value_at: Callable, scale_of: Callable) -> ConvergenceReport:
    consts = constant_set(validate_hypothesis_A(spec))
    n_grid = _log_grid(100, n, 5)
    table = _driver_table(spec, n)
    acc = _Accumulator(experiment, spec.name)
    parts = [_Part(f"type={i}", n_grid, (), scale_of(consts, i),
                   lambda n, i=i: value_at(table, consts, i, n))
             for i in range(1, spec.n_types + 1)]
    for part, (rows, ok) in zip(parts, acc.parts(parts)):
        mono = _monotone_toward(rows, 1.0)
        acc.details[f"final_ratio:{part.label}"] = rows[-1].ratio
        acc.details[f"monotone:{part.label}"] = mono
        acc.add(ok and mono, *rows)
    return acc.report(("n", tuple(float(n) for n in n_grid)))


def verify_foster(spec: ProcessSpec, n: int = 10_000) -> ConvergenceReport:
    """Survival probability from a type-i root against its power law, on
    up to five log-spaced horizons from 100 to ``n`` (``n`` alone up to
    100).

    Rows carry d_i(n) * n**gamma_i, whose limit is the survival
    amplitude; the verdict wants a monotone approach that ends inside
    the band.
    """
    return _power_law_report(
        "foster", spec, n,
        value_at=lambda table, consts, i, n:
            table.survival(i, n) * float(n) ** consts.gamma[i - 1],
        scale_of=lambda consts, i: consts.survival_amplitude[i - 1])


def verify_local(spec: ProcessSpec, n: int = 10_000) -> ConvergenceReport:
    """Extinction-time pmf from a type-i root against its power law, on
    the horizons of ``verify_foster``.

    Rows carry pmf(n) * n**(1 + gamma_i) over the local amplitude.
    """
    return _power_law_report(
        "local", spec, n,
        value_at=lambda table, consts, i, n:
            extinction_time_pmf(table, i, n) * float(n) ** (1.0 + consts.gamma[i - 1]),
        scale_of=lambda consts, i: consts.local_amplitude[i - 1])


# ------------------------------------------------- conditioned transforms


def _cond_point(spec: ProcessSpec, theta: float,
                s_lower: float = 1.0) -> tuple[float, ...]:
    """The transform's argument: exp(-theta) on the last type, s_lower
    on the others."""
    return (s_lower,) * (spec.n_types - 1) + (math.exp(-theta),)


def _least_horizon(x: float) -> int:
    """The smallest horizon n whose observation time round(x * n) comes
    before n; from there on every horizon's does."""
    n = max(1, math.floor(0.5 / (1.0 - x)))  # below it, (1 - x) * n < 1/2
    while round(x * n) >= n:
        n += 1
    return n


def verify_finalstage(spec: ProcessSpec, *, n: int = 20_000, lam: float = 1.0,
                      xs: Sequence[float] = (0.25, 0.5, 0.75)) -> ConvergenceReport:
    """Conditional transform at m = round(x*n) given extinction exactly
    at n, for an n at which every part's m comes before n.

    Includes a normalization row (lambda = 0 must give exactly the
    vacuous conditional 1), an insensitivity spot check with the lower
    types' arguments dropped to 0.5 (the limit must not move), and a
    regime-match detail tying the x near 1 limit to the trailing-window
    limit.
    """
    checks = [(f"x={x:g}", x, 1.0) for x in xs]
    checks.append(("insensitivity:x=0.5", 0.5, 0.5))
    least = max(_least_horizon(x) for _, x, _ in checks)
    b_N = constant_set(validate_hypothesis_A(spec)).b[-1]
    table = _driver_table(spec, n, least)
    acc = _Accumulator("finalstage", spec.name)

    def finite(nn: int, x: float, s_lower: float = 1.0) -> float:
        return conditional_transform(
            spec, table, _cond_point(spec, lam / (b_N * nn), s_lower),
            round(x * nn), nn)

    for rows, ok in acc.parts([
            _Part(part, (n,), (("lam", lam), ("x", x)),
                  limit_finalstage(lam, x, spec.n_types),
                  lambda nn, x=x, s_lower=s_lower: finite(nn, x, s_lower),
                  least)
            for part, x, s_lower in checks], orbit=n):
        acc.add(ok, *rows)

    acc.normalization(lambda: conditional_transform(
                          spec, table, _cond_point(spec, 0.0), round(0.5 * n), n),
                      (("n", float(n)), ("lam", 0.0), ("x", 0.5)))

    # where the two asymptotic regimes meet, their limits must agree
    x_hi = 0.99
    match = (limit_finalstage(lam, x_hi, spec.n_types)
             / limit_death(lam * (1.0 - x_hi)))
    acc.details["regime_match_ratio"] = match
    acc.add(abs(match - 1.0) <= 0.05)

    return acc.report(("n", (float(n),)), ("lam", (lam,)),
                      ("x", tuple(float(x) for x in xs)))


def verify_death(spec: ProcessSpec, *, n: int = 20_000, k: int = 200,
                 lambdas: Sequence[float] = (0.5, 1.0, 2.0)) -> ConvergenceReport:
    """Conditional transform k steps before extinction at n, k = o(n)."""
    if k < 1:
        raise ValueError(f"need k >= 1, got k={k}")
    b_N = constant_set(validate_hypothesis_A(spec)).b[-1]
    table = _driver_table(spec, n, k + 1)
    acc = _Accumulator("death", spec.name)

    def orbit(lam: float, s_lower: float = 1.0) -> Callable[[int], float]:
        # one orbit gives the row at n and both pilots
        return conditional_orbit(
            spec, table, _cond_point(spec, lam / (b_N * k), s_lower), k)

    checks = [(f"lam={lam:g}", lam, 1.0) for lam in lambdas]
    checks.append(("insensitivity:lam=1", 1.0, 0.5))
    for rows, ok in acc.parts([
            _Part(part, (n,), (("k", float(k)), ("lam", lam)),
                  limit_death(lam), orbit(lam, s_lower), k + 1)
            for part, lam, s_lower in checks], orbit=n):
        acc.add(ok, *rows)

    acc.normalization(lambda: orbit(0.0)(n),
                      (("n", float(n)), ("k", float(k)), ("lam", 0.0)))

    return acc.report(("n", (float(n),)), ("k", (float(k),)),
                      ("lam", tuple(float(v) for v in lambdas)))


def verify_deathfin(spec: ProcessSpec, *, n: int = 20_000,
                    ks: Sequence[int] = (0, 1, 2, 5),
                    s_grid: Sequence[float] = (0.3, 0.6, 0.9),
                    n_u: int = 10**4) -> ConvergenceReport:
    """Last-type pgf a fixed number of steps before extinction.

    The finite-n side conditions at m = n - (k+1) so that the window
    between observation and extinction matches the index pairing of
    the limit's bracket U(s q_{k+1}) - U(s q_k); the finite/limit ratio
    then converges to 1.  The remark rows pin the bracket at s = 1,
    which telescopes to exactly 1.
    """
    for k in ks:
        if k < 0:
            raise ValueError(f"need k >= 0, got k={k}")
    for s in s_grid:
        if not 0.0 < s < 1.0:
            raise ValueError(f"need 0 < s < 1, got s={s}")
    validate_hypothesis_A(spec)
    table = _driver_table(spec, n, max(ks, default=0) + 1)
    u_eval = make_u_evaluator(spec, n_u)
    acc = _Accumulator("deathfin", spec.name)
    # one orbit gives the row at n and both pilots; the limits, and the
    # memoized U values they read, are computed here, before the parts
    assembled = acc.parts([
        _Part(f"k={k},s={s:g}", (n,), (("k", float(k)), ("s", s)),
              limit_deathfin(s, k, u_eval, table),
              conditional_orbit(spec, table, _cond_point(spec, -math.log(s)),
                                k + 1),
              k + 1)
        for k in ks for s in s_grid], orbit=n)

    for k in ks:
        for rows, ok in islice(assembled, len(s_grid)):
            acc.add(ok, *rows)

        # the limit's bracket at s_N -> 1 telescopes to exactly one
        terminal = spec.n_types
        bracket, ok = _guarded(
            lambda: u_eval(table.extinct_by(terminal, k + 1))
            - u_eval(table.extinct_by(terminal, k)))
        acc.details[f"remark_error:k={k}"] = abs(bracket - 1.0)
        acc.add(ok and abs(bracket - 1.0) <= 2e-3,
                ReportRow(f"remark:k={k}", (("k", float(k)), ("s", 1.0)),
                          bracket, 1.0, ok))

    return acc.report(("n", (float(n),)), ("k", tuple(float(k) for k in ks)),
                      ("s", tuple(float(s) for s in s_grid)))


# --------------------------------------------------------- W functionals


def verify_laplace_W(spec: ProcessSpec) -> ConvergenceReport:
    """Small-argument tail of the accumulated-immigrants transform.

    Regresses log(1 - E[exp(-theta W)]) on log(theta) over 13 points
    from theta = 1e-5 to 1e-2: the slope estimates the leading survival
    exponent and the intercept the amplitude in front of it.
    """
    if spec.n_types < 2:
        raise ValueError("the accumulated count is degenerate for one type")
    import numpy as np

    consts = constant_set(validate_hypothesis_A(spec))
    gamma1 = consts.gamma[0]
    amplitude = consts.chain[-1]
    thetas = tuple(float(t) for t in np.geomspace(1e-5, 1e-2, 13))

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

    acc = _Accumulator("laplace_W", spec.name)
    acc.details.update(slope=float(slope), gamma_1=gamma1,
                       amplitude_estimate=math.exp(intercept),
                       amplitude_ratio=amp_ratio)
    slope_band = acc.bands["slope"] = (gamma1 - 0.03, gamma1 + 0.03)

    # pilot regression over the coarse upper half of the grid
    upper = len(clean) // 2
    _, coarse = np.polyfit(logt[upper:], logv[upper:], 1)
    pilot = acc.details["pilot:amplitude"] = (
        amp_ratio, math.exp(coarse) / amplitude)
    amp_band = acc.bands["amplitude"] = pilot_band(*pilot)

    acc.add(all(r.precision_ok for r in rows)
            and _in_band(float(slope), slope_band)
            and _in_band(amp_ratio, amp_band), *rows)
    return acc.report(("theta", thetas))


def verify_diff_lemmas(spec: ProcessSpec, *, n: int = 10_000,
                       lam: float = 1.0) -> ConvergenceReport:
    """Scaled building-block quantities against their limits, on up to
    three log-spaced horizons from max(100, n // 10) to ``n`` (``n``
    alone up to 100, and at least 5).

    Parts, all of them for two or more types and only the first for
    one: "window_gap" (terminal iterate increment over a shrinking
    window), "weighted_mean" (size-biased transform of the accumulated
    count), "censored_mean" (the same with the lower block forced out
    early), "local_mean" (size-biased last-type count near extinction,
    lower block censored), and "no_previous:e=0.6" and "e=0.75" (lower
    block conditioned to be gone by n**e, well before a late
    extinction; limit zero, so its band constrains the value itself,
    which must also decrease along the grid).
    """
    consts = constant_set(validate_hypothesis_A(spec))
    b_N = consts.b[-1]
    gamma1 = consts.gamma[0]
    g1 = consts.local_amplitude[0]
    n_grid = _log_grid(max(100, n // 10), n, 3)
    grid = (("n", tuple(float(nn) for nn in n_grid)), ("lam", (lam,)))
    table = _driver_table(spec, n, _DIFF_FLOOR)
    acc = _Accumulator("diff_lemmas", spec.name)

    def gap_value(n: int) -> float:
        k = round(math.sqrt(n))
        s = math.exp(-lam / (b_N * k))
        return (b_N * lam * n * n / k) * terminal_gap(spec, s, n - k)

    def wm_value(n: int) -> float:
        return w_weighted_mean(spec, lam, n) / n ** (1.0 - gamma1)

    def cwm_value(n: int) -> float:
        t = round(n ** (2.0 / 3.0))
        return w_weighted_mean(spec, lam, n, horizon=t) / n ** (1.0 - gamma1)

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

    def no_previous(n: int, expo: float) -> float:
        l = round(n ** expo)
        return 1.0 - censored_transform(spec, table, (1.0,) * spec.n_types,
                                        l, l, n)

    def ratio_part(part: str, value_at: Callable[[int], float],
                   limit: float) -> _Part:
        return _Part(part, n_grid, (("lam", lam),), limit, value_at,
                     _DIFF_FLOOR)

    parts = [ratio_part("window_gap", gap_value, 1.0)]
    if spec.n_types >= 2:
        wm_limit = b_N * g1 / lam ** (1.0 - gamma1)
        parts += [ratio_part("weighted_mean", wm_value, wm_limit),
                  ratio_part("censored_mean", cwm_value, wm_limit),
                  ratio_part("local_mean", lm_value, b_N * g1 / lam ** 2)]
        parts += [_Part(f"no_previous:e={expo:g}", n_grid, (("e", expo),),
                        0.0, lambda n, expo=expo: no_previous(n, expo),
                        _DIFF_FLOOR)
                  for expo in (0.6, 0.75)]

    # the parts run in one process: at the default n they cost 0.4 to 11
    # ms each, and forked on a 2-core machine they measured slower
    # (29 -> 37 ms)
    for part, (rows, ok) in zip(parts, acc.parts(parts)):
        if part.limit != 0.0:
            acc.add(ok, *rows)
            acc.details[f"final_ratio:{part.label}"] = rows[-1].ratio
            continue
        # limit is zero: constrain the value, from below by nothing
        lo, hi = acc.bands[part.label]
        band = acc.bands[part.label] = (0.0, max(hi, lo))
        decreasing = all(b.value <= a.value + _MONOTONE_SLACK
                         for a, b in zip(rows, rows[1:]))
        acc.details[f"final_value:{part.label}"] = rows[-1].value
        acc.details[f"decreasing:{part.label}"] = decreasing
        acc.add(all(r.precision_ok for r in rows) and decreasing
                and _in_band(rows[-1].value, band), *rows)

    return acc.report(*grid)
