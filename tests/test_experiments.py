"""Tests for the convergence-experiment drivers and limit formulas.

Every band comes from one rule, pilot values at half and a quarter of
the requested horizon, computed with the run; the driver smoke tests
assert a full pass on the stock models at their default horizons, and
the band tests check that a band follows the horizon asked for and
that the ``death``/``deathfin`` pilots cost no orbit steps.
"""

import json
import math

import pytest

from branchlab import experiments
from branchlab.errors import PrecisionLoss
from branchlab.experiments import (
    ConvergenceReport,
    ReportRow,
    _Accumulator,
    _guarded,
    _log_grid,
    _monotone_toward,
    _Part,
    limit_death,
    limit_deathfin,
    limit_finalstage,
    make_u_evaluator,
    pilot_band,
    verify_death,
    verify_deathfin,
    verify_diff_lemmas,
    verify_finalstage,
    verify_foster,
    verify_laplace_W,
    verify_local,
)
from branchlab.families import Geometric, PointMass
from branchlab.model import Kernel, ProcessSpec, ProductLaw
from branchlab.pgf import build_survival_table
from branchlab.zoo import (
    micro_table,
    single_geometric,
    three_type_chain,
    two_type_cascade,
)


# ------------------------------------------------------------------ limits


class TestLimitFormulas:
    def test_finalstage_midpoint_two_types(self):
        # hand-evaluated: a = 1.5, c = 1.25, exponent -1/2
        want = (1.5 / 1.25) ** -0.5 / 1.25**2
        assert limit_finalstage(1.0, 0.5, 2) == pytest.approx(want, rel=1e-15)
        assert want == pytest.approx(0.5842373946, rel=1e-9)

    def test_finalstage_early_observation_matches_pure_survival(self):
        # x -> 0: c -> 1 and the value collapses to (1+lam)**(-1+2**(1-N))
        for lam in (0.5, 1.0, 2.0):
            for n_types in (1, 2, 3):
                want = (1.0 + lam) ** (-1.0 + 0.5 ** (n_types - 1))
                got = limit_finalstage(lam, 1e-9, n_types)
                assert got == pytest.approx(want, rel=1e-6)

    def test_finalstage_zero_lambda_is_one(self):
        for x in (0.1, 0.5, 0.9):
            for n_types in (1, 2, 4):
                assert limit_finalstage(0.0, x, n_types) == 1.0

    def test_finalstage_validation(self):
        with pytest.raises(ValueError):
            limit_finalstage(1.0, 0.0, 2)
        with pytest.raises(ValueError):
            limit_finalstage(1.0, 1.0, 2)
        with pytest.raises(ValueError):
            limit_finalstage(-0.5, 0.5, 2)
        with pytest.raises(ValueError):
            limit_finalstage(1.0, 0.5, 0)

    def test_death_closed_form(self):
        assert limit_death(0.0) == 1.0
        assert limit_death(1.0) == 0.25
        assert limit_death(3.0) == pytest.approx(1.0 / 16.0)
        with pytest.raises(ValueError):
            limit_death(-0.1)

    def test_regimes_agree_where_they_meet(self):
        # late x in the mid-life formula vs a k = (1-x) n trailing window
        for lam in (0.5, 1.0, 2.0):
            a = limit_finalstage(lam, 0.999, 2)
            b = limit_death(lam * 0.001)
            assert a == pytest.approx(b, rel=5e-3)


@pytest.fixture(scope="module")
def geo_setup():
    spec = single_geometric()
    table = build_survival_table(spec, 50)
    u_eval = make_u_evaluator(spec, 10**5)
    return table, u_eval


class TestLimitDeathfin:
    def test_matches_geometric_closed_form(self, geo_setup):
        # U(s) = s/(1-s) and the k-step death probability is k/(k+1)
        table, u_eval = geo_setup

        def exact(s, k):
            u = lambda y: y / (1.0 - y)
            q0, q1 = k / (k + 1.0), (k + 1.0) / (k + 2.0)
            return u(s * q1) - u(s * q0)

        for k in (0, 1, 2, 5):
            for s in (0.3, 0.6, 0.9):
                got = limit_deathfin(s, k, u_eval, table)
                assert got == pytest.approx(exact(s, k), rel=1e-3)

    def test_zero_argument_gives_zero(self, geo_setup):
        table, u_eval = geo_setup
        assert limit_deathfin(0.0, 3, u_eval, table) == 0.0

    def test_bracket_telescopes_to_one_at_full_argument(self, geo_setup):
        # U(q_{k+1}) - U(q_k) = (k+1) - k exactly for the geometric model
        table, u_eval = geo_setup
        for k in (0, 1, 4):
            got = u_eval(table.extinct_by(1, k + 1)) - u_eval(table.extinct_by(1, k))
            assert got == pytest.approx(1.0, abs=2e-3)

    def test_validation(self, geo_setup):
        table, u_eval = geo_setup
        with pytest.raises(ValueError):
            limit_deathfin(1.0, 1, u_eval, table)
        with pytest.raises(ValueError):
            limit_deathfin(-0.1, 1, u_eval, table)
        with pytest.raises(ValueError):
            limit_deathfin(0.5, -1, u_eval, table)

    def test_evaluator_is_memoized(self):
        u_eval = make_u_evaluator(single_geometric(), 10**4)
        u_eval(0.5)
        before = u_eval.cache_info().hits
        u_eval(0.5)
        assert u_eval.cache_info().hits == before + 1


# ----------------------------------------------------------- report object


def _row(part, n, value, limit, ok=True):
    return ReportRow(part, (("n", float(n)),), value, limit, ok)


class TestReportRow:
    def test_ratio(self):
        assert _row("a", 10, 3.0, 2.0).ratio == 1.5
        assert math.isnan(_row("a", 10, 3.0, 0.0).ratio)
        assert math.isnan(_row("a", 10, 3.0, math.nan).ratio)


class TestConvergenceReport:
    @pytest.fixture()
    def report(self):
        rows = (
            _row("a", 100, 1.25, 1.0),
            _row("a", 200, 1.125, 1.0),
            ReportRow("b", (("theta", 0.5),), math.nan, 0.0, False),
        )
        return ConvergenceReport(
            experiment="demo", model="toy",
            grid=(("n", (100.0, 200.0)),),
            rows=rows, bands={"a": (0.9, 1.3), "": (0.0, 1.0)},
            passed=False, details={"note": 1.5, "flag": True})

    def test_csv_layout_and_precision(self, report):
        text = report.to_csv()
        lines = text.splitlines()
        assert lines[0] == "# experiment=demo"
        assert "# passed=false" in lines
        assert "# band:all=[0,1]" in lines
        assert "# band:a=[0.90000000000000002,1.3]" in lines
        header = next(l for l in lines if l.startswith("part,"))
        assert header == "part,n,theta,value,limit,ratio,precision_ok"
        first = next(l for l in lines if l.startswith("a,"))
        cells = first.split(",")
        assert float(cells[1]) == 100.0 and cells[2] == ""
        # 17 significant digits survive a parse round trip
        assert float(cells[3]) == 1.25

    def test_csv_is_deterministic(self, report):
        assert report.to_csv() == report.to_csv()

    def test_json_maps_non_finite_to_null(self, report):
        doc = json.loads(json.dumps(report.to_doc(), indent=2, sort_keys=True))
        assert doc["passed"] is False
        bad = [r for r in doc["rows"] if r["part"] == "b"][0]
        assert bad["value"] is None and bad["ratio"] is None
        assert doc["bands"]["all"] == [0.0, 1.0]


# ----------------------------------------------------------- verdict gears


class TestVerdictHelpers:
    def test_pilot_band_floor_and_drift(self):
        lo, hi = pilot_band(1.0, 1.0)
        assert (lo, hi) == (0.98, 1.02)
        lo, hi = pilot_band(1.0, 0.9)
        assert (lo, hi) == pytest.approx((0.75, 1.25))

    def test_guarded_catches_recoverable(self):
        def boom():
            raise PrecisionLoss(1, "test")

        value, ok = _guarded(boom)
        assert math.isnan(value) and not ok
        assert _guarded(lambda: 2.0) == (2.0, True)

    def test_monotone_accepts_shrinking_distance(self):
        rows = [_row("a", n, v, 1.0)
                for n, v in [(100, 1.3), (1000, 1.1), (10000, 1.01)]]
        assert _monotone_toward(rows, 1.0)

    def test_monotone_accepts_crossing_then_settling(self):
        # approach from below that overshoots and drifts up a hair
        vals = [0.982, 0.995, 0.9997, 1.00069, 1.00071]
        rows = [_row("a", 100 * (i + 1), v, 1.0) for i, v in enumerate(vals)]
        assert _monotone_toward(rows, 1.0)

    def test_monotone_rejects_oscillation(self):
        vals = [0.9, 1.2, 0.95, 1.1]
        rows = [_row("a", 100 * (i + 1), v, 1.0) for i, v in enumerate(vals)]
        assert not _monotone_toward(rows, 1.0)

    def test_monotone_ignores_burn_in(self):
        rows = [_row("a", 10, 5.0, 1.0), _row("a", 100, 1.2, 1.0),
                _row("a", 1000, 1.1, 1.0)]
        assert _monotone_toward(rows, 1.0)


def _run_part(label, grid, params, limit, value, details, floor=1):
    """One part evaluated and assembled, as ``_Accumulator.parts`` does."""
    part = _Part(label, grid, params, limit, value, floor)
    return experiments._run_part(part, part.evaluate(), details)


class TestRunPart:
    """The part/band/verdict routine every ratio driver goes through."""

    def test_recoverable_failure_gives_nan_row_and_failed_verdict(self):
        def value(n):
            if n == 200:
                raise PrecisionLoss(n, "test")
            return 1.0

        details = {}
        rows, band, ok = _run_part("a", (100, 200), (("lam", 1.0),), 1.0,
                                   value, details)
        assert [r.params for r in rows] == [
            (("n", 100.0), ("lam", 1.0)), (("n", 200.0), ("lam", 1.0))]
        assert rows[0].value == 1.0 and rows[0].precision_ok
        assert math.isnan(rows[1].value) and not rows[1].precision_ok
        assert band == pilot_band(1.0, 1.0)
        assert not ok

    def test_every_horizon_runs_once_in_ascending_order(self):
        # a checkpointed orbit continues from one horizon to the next
        calls = []

        def value(n):
            calls.append(n)
            return 0.25

        details = {}
        rows, band, ok = _run_part("lam=1", (1000, 2000), (), 0.25, value,
                                   details)
        assert calls == [500, 1000, 2000]
        assert [r.value for r in rows] == [0.25, 0.25]
        assert details == {"pilot:lam=1": (1.0, 1.0)}
        assert band == pilot_band(1.0, 1.0) and ok

    def test_a_failing_pilot_fails_the_part_and_keeps_the_rows(self):
        def value(n):
            if n == 250:
                raise PrecisionLoss(n, "test")
            return 1.0

        details = {}
        rows, band, ok = _run_part("a", (1000,), (), 1.0, value, details)
        assert rows[0].value == 1.0 and rows[0].precision_ok
        half, quarter = details["pilot:a"]
        assert half == 1.0 and math.isnan(quarter)
        assert all(math.isnan(edge) for edge in band)
        assert not ok

    def test_pilot_band_without_registry_entry(self):
        details = {}
        rows, band, ok = _run_part("a", (10, 1000), (), 2.0,
                                   lambda n: 2.0 + 1.0 / n, details)
        half, quarter = (2.0 + 1.0 / 500) / 2.0, (2.0 + 1.0 / 250) / 2.0
        assert details["pilot:a"] == (half, quarter)
        assert band == pilot_band(half, quarter)
        assert ok

    def test_zero_limit_pilots_the_value_itself(self):
        details = {}
        rows, band, _ = _run_part("z", (400,), (), 0.0, lambda n: 1.0 / n,
                                  details)
        assert details["pilot:z"] == (1.0 / 200, 1.0 / 100)
        assert math.isnan(rows[0].ratio)


class TestAccumulator:
    """The rows, bands, details and verdict of one driver run."""

    def test_parts_and_extra_rows_keep_their_order(self):
        acc = _Accumulator("demo", "toy")
        (rows, ok), = acc.parts([_Part("a", (100, 200), (), 1.0,
                                       lambda n: 1.0)])
        acc.add(ok, *rows)
        remark = ReportRow("remark", (), 1.0, 1.0)
        acc.add(True, remark)
        report = acc.report(("n", (100.0, 200.0)))
        assert report.passed
        assert report.rows == (*rows, remark)
        assert report.bands == {"a": pilot_band(1.0, 1.0)}
        assert report.grid == (("n", (100.0, 200.0)),)
        acc.add(False)
        assert not acc.report().passed

    def test_a_part_out_of_its_band_fails_the_run(self):
        acc = _Accumulator("demo", "toy")
        for rows, ok in acc.parts([_Part("a", (100,), (), 1.0,
                                         lambda n: 2.0 if n == 100 else 1.0)]):
            acc.add(ok, *rows)
        acc.add(True)
        assert not acc.report().passed


# ------------------------------------------------------------ driver runs


class TestDrivers:
    def test_foster_registered_models_pass(self):
        for spec in (single_geometric(), two_type_cascade()):
            rep = verify_foster(spec)
            assert rep.passed
            assert rep.bands["type=1"] == pilot_band(
                *rep.details["pilot:type=1"])

    def test_local_pilot_fallback_on_unregistered_model(self):
        rep = verify_local(micro_table())
        assert rep.passed
        assert "pilot:type=1" in rep.details

    def test_foster_crossing_convergence_still_passes(self):
        # this model's type-1 ratio crosses 1 and settles from above
        rep = verify_foster(micro_table())
        assert rep.passed and rep.details["monotone:type=1"]

    def test_horizon_below_the_pilot_floor_still_reports(self):
        # pilots never run below n = 4, so the drivers' tables reach 4
        # even when the largest horizon is shorter
        rep = verify_foster(micro_table(), n=3)
        assert "pilot:type=1" in rep.details
        assert all(r.precision_ok for r in rep.rows)
        rep = verify_finalstage(micro_table(), n=3)
        assert "pilot:x=0.5" in rep.details
        assert all(r.precision_ok for r in rep.rows)

    def test_default_grids_are_the_log_grids_of_n(self):
        # foster and local at the default n = 10000, and diff_lemmas
        assert _log_grid(100, 10_000, 5) == (100, 316, 1000, 3162, 10000)
        assert _log_grid(1000, 10_000, 3) == (1000, 3162, 10000)
        assert _log_grid(100, 50, 5) == (50,)

    def test_death_pilots_run_above_the_offset(self):
        # the pilots observe k steps before their horizon, so half and a
        # quarter of n below k must not ask for a negative observation
        # time: both pilots run at k + 1 here
        rep = verify_death(micro_table(), n=100, k=80)
        half, quarter = rep.details["pilot:lam=1"]
        assert half == quarter
        rep = verify_deathfin(micro_table(), n=8, ks=(5,), n_u=1000)
        half, quarter = rep.details["pilot:k=5,s=0.3"]
        assert half == quarter

    def test_finalstage_cascade(self):
        rep = verify_finalstage(two_type_cascade())
        assert rep.passed
        assert abs(rep.details["regime_match_ratio"] - 1.0) <= 0.05
        parts = {r.part for r in rep.rows}
        assert {"x=0.25", "x=0.5", "x=0.75", "insensitivity:x=0.5"} <= parts

    def test_death_cascade(self):
        rep = verify_death(two_type_cascade())
        assert rep.passed
        finals = {r.part: r.ratio for r in rep.rows}
        for part in ("lam=0.5", "lam=1", "lam=2"):
            lo, hi = rep.bands[part]
            assert lo <= finals[part] <= hi

    def test_death_validates_window(self):
        with pytest.raises(ValueError):
            verify_death(two_type_cascade(), n=100, k=0)
        with pytest.raises(ValueError):
            verify_death(two_type_cascade(), n=100, k=100)

    def test_deathfin_cascade_plateau_and_remark(self):
        rep = verify_deathfin(two_type_cascade())
        assert rep.passed
        for k in (0, 1, 2, 5):
            assert rep.details[f"remark_error:k={k}"] <= 2e-3
        # the finite/limit ratio plateaus at 1
        r = [row for row in rep.rows if row.part == "k=1,s=0.6"][0]
        assert r.ratio == pytest.approx(1.0, rel=1e-3)

    def test_laplace_cascade_slope_near_half(self):
        rep = verify_laplace_W(two_type_cascade())
        assert rep.passed
        assert rep.details["slope"] == pytest.approx(0.5, abs=0.03)
        assert "amplitude_ratio" in rep.details

    def test_laplace_chain_slope_near_quarter(self):
        rep = verify_laplace_W(three_type_chain())
        assert rep.passed
        assert rep.details["slope"] == pytest.approx(0.25, abs=0.03)

    def test_laplace_rejects_single_type(self):
        with pytest.raises(ValueError):
            verify_laplace_W(single_geometric())

    def test_diff_lemmas_cascade(self):
        rep = verify_diff_lemmas(two_type_cascade())
        assert rep.passed
        parts = {r.part for r in rep.rows}
        assert {"window_gap", "weighted_mean", "censored_mean",
                "local_mean", "no_previous:e=0.6"} <= parts
        assert rep.details["decreasing:no_previous:e=0.75"]

    def test_diff_lemmas_single_type_window_only(self):
        rep = verify_diff_lemmas(single_geometric())
        assert rep.passed
        assert {r.part for r in rep.rows} == {"window_gap"}

    def test_reports_are_deterministic(self):
        a = verify_death(two_type_cascade(), n=2000, k=40)
        b = verify_death(two_type_cascade(), n=2000, k=40)
        assert a.to_csv() == b.to_csv()
        assert (json.dumps(a.to_doc(), indent=2, sort_keys=True)
                == json.dumps(b.to_doc(), indent=2, sort_keys=True))


# ------------------------------------------------------------------ bands


def _zero_mass_chain():
    """Five types in a line, each feeding the next one exactly one
    child: extinction at n = 1..4 has zero mass, at n = 12 it has not."""
    laws = tuple(ProductLaw(parent=i, children={i: Geometric(1.0),
                                                i + 1: PointMass(1)})
                 for i in range(1, 5))
    return ProcessSpec(n_types=5, laws=laws + (
        ProductLaw(parent=5, children={5: Geometric(1.0)}),), name="chain5")


def _counting(spec):
    """Install a kernel on ``spec`` whose ``advance`` adds up its steps
    (``kernel`` is a cached property, so it lives in the instance dict)."""
    kernel = spec.kernel
    steps = []

    def advance(da, delta, n):
        steps.append(n)
        return kernel.advance(da, delta, n)

    spec.__dict__["kernel"] = kernel._replace(advance=advance)
    return steps


class TestBands:
    """One band rule: pilots at half and a quarter of the horizon asked
    for, computed with the run."""

    def test_bands_follow_the_requested_horizon(self):
        spec = two_type_cascade()
        rep = verify_deathfin(spec, n=200, n_u=1000)
        half = verify_deathfin(spec, n=100, n_u=1000)
        quarter = verify_deathfin(spec, n=50, n_u=1000)
        parts = [p for p in rep.bands]
        assert len(parts) == 12
        for part in parts:
            pilot = rep.details[f"pilot:{part}"]
            assert rep.bands[part] == pilot_band(*pilot)
            assert pilot == tuple(
                next(r.ratio for r in run.rows if r.part == part)
                for run in (half, quarter))

    def test_deathfin_pilots_cost_no_orbit_steps(self):
        spec = three_type_chain()
        steps = _counting(spec)
        n, ks = 200, (0, 1, 2, 5)
        rep = verify_deathfin(spec, n=n, ks=ks, n_u=1000)
        assert len(rep.bands) == 3 * len(ks)
        assert sum(steps) == sum(3 * (n - k - 1) for k in ks)

    def test_death_pilots_cost_no_orbit_steps(self):
        spec = three_type_chain()
        steps = _counting(spec)
        n, k = 200, 20
        rep = verify_death(spec, n=n, k=k)
        # four parts, one orbit of n - k steps each
        assert len(rep.bands) == 4
        assert sum(steps) == 4 * (n - k)

    def test_finalstage_steps_are_its_parts_orbits(self):
        # each part runs one orbit of round(x * nn) steps per horizon nn:
        # the row at n and the pilots at n/2 and n/4
        spec = three_type_chain()
        steps = _counting(spec)
        n = 200
        rep = verify_finalstage(spec, n=n)
        xs = (0.25, 0.5, 0.75, 0.5)  # the insensitivity part is at x = 0.5
        assert len(rep.bands) == len(xs)
        assert sum(steps) == sum(round(x * nn) for x in xs
                                 for nn in (n, n // 2, n // 4))

    @pytest.mark.parametrize("run", [
        lambda spec: verify_finalstage(spec, n=12),
        lambda spec: verify_deathfin(spec, n=12, ks=(2,), n_u=1000),
    ], ids=["finalstage", "deathfin"])
    def test_an_unreachable_pilot_fails_its_part_only(self, run):
        # the n/4 pilot at 4 has P(T = 4) = 0; the rows at 12 are fine
        rep = run(_zero_mass_chain())
        assert not rep.passed
        assert all(r.precision_ok and math.isfinite(r.value)
                   for r in rep.rows)
        for part, band in rep.bands.items():
            half, quarter = rep.details[f"pilot:{part}"]
            assert math.isfinite(half) and math.isnan(quarter)
            assert all(math.isnan(edge) for edge in band)
        doc = json.loads(json.dumps(rep.to_doc(), allow_nan=False))
        assert all(b == [None, None] for b in doc["bands"].values())
