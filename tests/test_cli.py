"""End-to-end tests for the command-line front end.

Everything runs through main(argv) with --output pointed at tmp_path,
so no test touches the working directory or the environment except
where the default-naming behavior itself is under test.
"""

import dataclasses
import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from branchlab import cli
from branchlab.cli import RunRequest, main, run
from branchlab.errors import PrecisionLoss
from branchlab.experiments import _fmt, verify_death, verify_deathfin
from branchlab.pgf import build_survival_table, extinction_time_pmf
from branchlab.zoo import STOCK_MODELS, stock_model, two_type_cascade

GOOD_YAML = """\
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
      2: {family: geometric, mean: 1.0}
"""

BAD_YAML = """\
types: 2
laws:
  - parent: 1
    kind: product
    children:
      1: {family: geometric}
"""


def read_rows(path):
    lines = [l for l in path.read_text().splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    return header, [l.split(",") for l in lines[1:]]


class TestExitCodes:
    def test_validate_stock_model_passes(self, tmp_path, capsys):
        out = tmp_path / "v.csv"
        assert main(["validate", "--model", "two_type_cascade",
                     "--output", str(out)]) == 0
        assert "PASS" in capsys.readouterr().out
        header, rows = read_rows(out)
        assert header == ["quantity", "index", "value", "ok"]
        quantities = {r[0] for r in rows}
        assert {"mean", "own_mean", "link_mean", "half_variance"} <= quantities

    def test_validate_noncritical_model_fails(self, tmp_path, capsys):
        cfg = tmp_path / "super.yaml"
        cfg.write_text(GOOD_YAML.replace("geometric, mean: 1.0}",
                                         "geometric, mean: 1.5}"))
        out = tmp_path / "v.csv"
        assert main(["validate", "--model", str(cfg),
                     "--output", str(out)]) == 1
        assert "FAIL" in capsys.readouterr().out
        assert "# verdict=FAIL" in out.read_text()

    def test_death_with_offset_beyond_the_pilots_reports(self, tmp_path):
        out = tmp_path / "death.csv"
        assert main(["theorem", "death", "--model", "micro_table",
                     "--n", "100", "--k", "80", "--output", str(out)]) in (0, 1)
        assert "# passed=" in out.read_text()

    @pytest.mark.parametrize("argv", [
        ["theorem", "finalstage", "--n", "12"],
        ["theorem", "deathfin", "--n", "12", "--k", "2"],
    ], ids=["finalstage", "deathfin"])
    def test_an_unreachable_pilot_fails_the_verdict_not_the_run(
            self, argv, tmp_path, capsys):
        # five types in a line, each feeding the next one child: the n/4
        # pilot at 4 has P(T = 4) = 0, the rows at n = 12 do not
        cfg = tmp_path / "chain5.yaml"
        cfg.write_text("types: 5\nlaws:\n" + "".join(
            f"  - parent: {i}\n    kind: product\n    children:\n"
            f"      {i}: {{family: geometric, mean: 1.0}}\n"
            + (f"      {i + 1}: {{family: pointmass, k: 1}}\n" if i < 5 else "")
            for i in range(1, 6)))
        out = tmp_path / "run.json"
        assert main(argv + ["--model", str(cfg), "--format", "json",
                            "--output", str(out)]) == 1
        assert "run failed" not in capsys.readouterr().err

        def refuse(token):
            raise ValueError(f"{token} in a JSON artifact")

        report = json.loads(out.read_text(), parse_constant=refuse)["report"]
        assert not report["passed"]
        assert all(row["precision_ok"] for row in report["rows"])
        assert all(band == [None, None] for band in report["bands"].values())
        assert all(report["details"][f"pilot:{part}"][1] is None
                   for part in report["bands"])

    def test_zero_replicates_is_usage_error_naming_the_field(self, capsys):
        assert main(["mc", "--replicates", "0"]) == 2
        err = capsys.readouterr().err
        assert "replicates" in err and "example" in err

    def test_malformed_config_is_exit_2_with_stanza(self, tmp_path, capsys):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(BAD_YAML)
        assert main(["constants", "--model", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "example:" in err

    def test_unknown_model_is_exit_2(self, capsys):
        assert main(["constants", "--model", "no_such_model"]) == 2
        err = capsys.readouterr().err
        assert "field: model" in err

    def test_invalid_model_for_computation_is_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "super.yaml"
        cfg.write_text(GOOD_YAML.replace("geometric, mean: 1.0}",
                                         "geometric, mean: 1.5}"))
        assert main(["constants", "--model", str(cfg)]) == 2
        assert "validate" in capsys.readouterr().err

    def test_missing_required_override(self, capsys):
        assert main(["conditional", "--n", "50"]) == 2
        assert "field: m" in capsys.readouterr().err

    def test_bad_subcommand_is_exit_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_deathfin_offset_outside_the_horizon_is_rejected(self, tmp_path,
                                                               capsys):
        # checked before any table is built, naming the smallest
        # horizon k + 1 as death does
        for k in (100, 150):
            with pytest.raises(ValueError,
                               match=f"horizons start at {k + 1}, got n=100"):
                verify_deathfin(two_type_cascade(), n=100, ks=(k,))
        out = tmp_path / "df.csv"
        assert main(["theorem", "deathfin", "--n", "100", "--k", "150",
                     "--output", str(out)]) == 2
        assert "horizons start at 151, got n=100" in capsys.readouterr().err
        assert not out.exists()
        # s = 0 and s = 1 put the orbit's argument or the limit's bracket
        # out of range; both are rejected up front, naming s
        for s in (0.0, 1.0):
            with pytest.raises(ValueError, match=f"s={s}"):
                verify_deathfin(two_type_cascade(), n=100, s_grid=(s,))
            assert main(["theorem", "deathfin", "--n", "400", "--k", "1",
                         "--s", str(s), "--output", str(out)]) == 2
            assert f"s={s}" in capsys.readouterr().err
            assert not out.exists()


class TestArtifacts:
    def test_identical_requests_give_byte_identical_csv(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            code = main(["mc", "--model", "single_geometric", "--n", "8",
                         "--replicates", "5000", "--seed", "11",
                         "--workers", "3", "--output", str(out)])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_resolved_config_lands_in_header(self, tmp_path):
        out = tmp_path / "x.csv"
        main(["extinction", "--model", "single_geometric", "--n", "50",
              "--output", str(out)])
        text = out.read_text()
        assert "# config:command=extinction" in text
        assert "# config:n=50" in text
        assert "# config:model=single_geometric" in text

    def test_json_format(self, tmp_path):
        out = tmp_path / "x.json"
        main(["conditional", "--model", "two_type_cascade", "--n", "60",
              "--m", "40", "--s", "0.5", "--format", "json",
              "--output", str(out)])
        doc = json.loads(out.read_text())
        assert doc["config"]["command"] == "conditional"
        assert doc["table"]["columns"] == ["n", "m", "s", "value"]
        value = doc["table"]["rows"][0][3]
        assert 0.0 < value <= 1.0

    def test_json_report_artifact_is_the_report_document(self, tmp_path):
        out = tmp_path / "death.json"
        assert main(["theorem", "death", "--n", "2000", "--k", "40",
                     "--format", "json", "--output", str(out)]) == 0
        report = verify_death(two_type_cascade(), n=2000, k=40)
        config = {"command": "theorem", "target": "death", "format": "json",
                  "model": "two_type_cascade", "n": 2000, "k": 40}
        doc = {"config": config, "report": report.to_doc()}
        assert out.read_text() == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def test_csv_report_artifact_is_config_then_the_report(self, tmp_path):
        out = tmp_path / "death.csv"
        assert main(["theorem", "death", "--n", "2000", "--k", "40",
                     "--output", str(out)]) == 0
        report = verify_death(two_type_cascade(), n=2000, k=40)
        config = ("# config:command=theorem\n# config:format=csv\n"
                  "# config:k=40\n# config:model=two_type_cascade\n"
                  "# config:n=2000\n# config:target=death\n")
        assert out.read_text() == config + report.to_csv()
        assert report.to_csv() == "".join(report.csv_lines())

    def test_workers_is_an_mc_option(self, tmp_path, capsys):
        out = tmp_path / "mc.csv"
        assert main(["mc", "--model", "single_geometric", "--n", "5",
                     "--replicates", "200", "--workers", "2",
                     "--output", str(out)]) == 0
        assert "# config:workers=2" in out.read_text()
        out = tmp_path / "ext.csv"
        assert main(["extinction", "--workers", "2", "--output", str(out)]) == 2
        assert main(["extinction", "--model", "single_geometric", "--n", "5",
                     "--output", str(out)]) == 0
        assert "workers" not in out.read_text()

    def test_default_naming_under_outdir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BRANCHLAB_OUTDIR", str(tmp_path))
        assert main(["constants", "--model", "single_geometric"]) == 0
        files = list(tmp_path.glob("constants_single_geometric_*.csv"))
        assert len(files) == 1

    def test_plotdata_emits_two_column_files(self, tmp_path):
        out = tmp_path / "ext.csv"
        main(["extinction", "--model", "two_type_cascade", "--n", "20",
              "--plotdata", "--output", str(out)])
        dats = sorted(p.name for p in tmp_path.glob("ext_*.dat"))
        assert "ext_survival-type=1.dat" in dats
        assert "ext_pmf-type=2.dat" in dats
        lines = (tmp_path / "ext_pmf-type=1.dat").read_text().splitlines()
        assert len(lines) == 20
        x, y = lines[0].split()
        assert float(x) == 1.0 and 0.0 <= float(y) <= 1.0


_SMALL_RUNS = {
    "foster": ["theorem", "foster", "--n", "400"],
    "local": ["theorem", "local", "--n", "400"],
    "finalstage": ["theorem", "finalstage", "--n", "400"],
    "death": ["theorem", "death", "--n", "400", "--k", "20"],
    "deathfin": ["theorem", "deathfin", "--n", "400", "--k", "2",
                 "--s", "0.6"],
    "laplace": ["lemma", "laplace"],
    "diff": ["lemma", "diff", "--n", "400"],
}


@pytest.mark.parametrize("target", sorted({*cli._THEOREMS, *cli._LEMMAS}))
def test_every_target_writes_a_json_artifact(target, tmp_path):
    # a numpy scalar in a verdict or a value would fail the JSON encoder;
    # a target without a small run here fails on the lookup
    out = tmp_path / f"{target}.json"
    assert main(_SMALL_RUNS[target] + ["--model", "two_type_cascade",
                                       "--format", "json",
                                       "--output", str(out)]) in (0, 1)
    with open(out) as fh:
        doc = json.load(fh)
    assert doc["config"]["target"] == target
    assert type(doc["report"]["passed"]) is bool


# one flag per command or target that it does not read
_UNREAD = {
    "validate": ("--n", "7", "n"),
    "constants": ("--s", "0.4", "s"),
    "extinction": ("--k", "3", "k"),
    "conditional": ("--x", "0.3", "x"),
    "mc": ("--lambda", "2", "lambda"),
    "mc --m": ("--x", "0.3", "x"),
    "foster": ("--k", "5", "k"),
    "local": ("--lambda", "1", "lambda"),
    "finalstage": ("--s", "0.5", "s"),
    "death": ("--replicates", "10", "replicates"),
    "deathfin": ("--lambda", "2", "lambda"),
    "laplace": ("--n", "100", "n"),
    "diff": ("--m", "10", "m"),
}


# a run of each command that reads every flag given
_COMMAND_RUNS = {
    "validate": ["validate"],
    "constants": ["constants"],
    "extinction": ["extinction", "--n", "5"],
    "conditional": ["conditional", "--n", "20", "--m", "10", "--s", "0.5"],
    "mc": ["mc", "--n", "5", "--replicates", "50"],
    "mc --m": ["mc", "--n", "5", "--m", "3", "--s", "0.5",
               "--replicates", "50"],
}


@pytest.mark.parametrize("target", sorted(cli._READS))
def test_a_flag_the_target_does_not_read_exits_2(target, tmp_path, capsys):
    flag, value, field = _UNREAD[target]
    out = tmp_path / f"{target}.csv"
    argv = {**_SMALL_RUNS, **_COMMAND_RUNS}[target]
    assert main(argv + [flag, value, "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"does not read {flag}" in err and f"field: {field}" in err
    assert not out.exists()


# the commands and modes that read --seed and --workers, and those whose
# artifact has curves for --plotdata
_SEEDED = {"mc", "mc --m"}
_CURVED = {"extinction", "mc", *cli._THEOREMS, *cli._LEMMAS}


def _request(argv, **fields):
    return RunRequest(**{**vars(cli._build_parser().parse_args(argv)),
                         **fields})


@pytest.mark.parametrize("target", sorted(cli._READS))
def test_seed_plotdata_and_workers_show_or_exit_2(target, tmp_path, capsys):
    argv = {**_SMALL_RUNS, **_COMMAND_RUNS}[target]
    for field, extra, reads in (
            ("seed", {"seed": 1}, target in _SEEDED),
            ("plotdata", {"plotdata": True}, target in _CURVED),
            ("workers", {"workers": 2}, target in _SEEDED)):
        out = tmp_path / f"{field}.csv"
        code = run(_request(argv + ["--output", str(out)], **extra))
        err = capsys.readouterr().err
        dats = list(tmp_path.glob(f"{field}_*.dat"))
        if not reads:
            assert code == 2 and f"field: {field}" in err
            assert not out.exists() and not dats
        elif field == "plotdata":
            assert code in (0, 1) and dats
        else:
            assert code == 0
            assert f"# config:{field}={extra[field]}\n" in out.read_text()


@pytest.mark.parametrize("argv", [["conditional", "--n", "60", "--m", "40"],
                                  ["mc", "--m", "6"]])
def test_a_missing_flag_exits_2_with_an_example(argv, tmp_path, capsys):
    out = tmp_path / "a.csv"
    assert main(argv + ["--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert "requires --s" in err and "field: s" in err
    assert f"example:\n  branchlab {argv[0]} " in err
    assert not out.exists()


@pytest.mark.parametrize("fields,field", [
    ({"command": "theorem"}, "target"),
    ({"command": "theorem", "target": "nosuch"}, "target"),
    ({"command": "lemma", "target": "foster"}, "target"),
    ({"command": "nosuch"}, "command"),
    ({"command": "validate", "target": "death"}, "target"),
])
def test_an_unknown_command_or_target_exits_2(fields, field, tmp_path,
                                              capsys):
    # requests built directly, which the parser's choices never see
    out = tmp_path / "a.csv"
    assert run(RunRequest(**fields, output=str(out))) == 2
    assert f"field: {field}" in capsys.readouterr().err
    assert not out.exists()


def test_the_parser_gives_every_request_field_and_leaves_flags_unset():
    # a flag the parser defaults cannot be told from a given one, so the
    # flag table could not refuse it
    fields = {f.name: f.default for f in dataclasses.fields(RunRequest)}
    unset = dict.fromkeys(cli._FLAGS)
    assert {name: fields[name] for name in cli._FLAGS} == unset
    targets = {"theorem": [min(cli._THEOREMS)], "lemma": [min(cli._LEMMAS)]}
    seen = set()
    for command in cli._HANDLERS:
        args = vars(cli._build_parser().parse_args(
            [command] + targets.get(command, [])))
        assert {name: args[name] for name in cli._FLAGS} == unset
        seen |= args.keys()
    assert seen == fields.keys()


# the reference encoders: the whole document through json.dumps, and
# each CSV row as the _fmt of every cell


def _null(cell):
    return None if isinstance(cell, float) and not math.isfinite(cell) else cell


def _reference_json(config, table):
    doc = {"table": table.experiment, "model": table.model,
           "verdict": table.passed,
           "meta": {k: _null(v) for k, v in table.meta.items()},
           "columns": list(table.columns),
           "rows": [[_null(c) for c in row] for row in table.rows]}
    return json.dumps({"config": config, "table": doc}, indent=2,
                      sort_keys=True) + "\n"


def _reference_csv_rows(table):
    return [",".join(table.columns)] + [",".join(_fmt(c) for c in row)
                                        for row in table.rows]


def _assert_artifacts_match_the_reference(argv, tmp_path, monkeypatch):
    """Run ``argv`` in both formats; each artifact must equal what the
    reference encoders make of the table ``_emit`` was handed."""
    seen = []
    emit = cli._emit

    def capture(req, resolved, payload):
        seen.append((dict(resolved), payload))
        return emit(req, resolved, payload)

    monkeypatch.setattr(cli, "_emit", capture)
    for fmt in ("csv", "json"):
        out = tmp_path / f"artifact.{fmt}"
        assert main(argv + ["--format", fmt, "--output", str(out)]) in (0, 1)
        config, table = seen.pop()
        assert isinstance(table, cli.Table)
        if fmt == "json":
            assert out.read_text() == _reference_json(config, table)
        else:
            lines = out.read_text().splitlines()
            assert lines[len(lines) - len(table.rows) - 1:] == \
                _reference_csv_rows(table)
    return table


_TABLE_RUNS = {
    "validate": ["validate"],
    "constants": ["constants"],
    "extinction": ["extinction", "--n", "300"],
    "conditional": ["conditional", "--n", "60", "--m", "40", "--s", "0.5"],
    "mc-pmf": ["mc", "--n", "8", "--replicates", "500", "--seed", "3"],
    "mc-conditional": ["mc", "--n", "8", "--m", "5", "--s", "0.5",
                       "--replicates", "4000", "--seed", "4"],
}


@pytest.mark.parametrize("model", sorted(STOCK_MODELS))
@pytest.mark.parametrize("run", sorted(_TABLE_RUNS))
def test_table_artifacts_equal_the_reference_encoders(run, model, tmp_path,
                                                       monkeypatch):
    table = _assert_artifacts_match_the_reference(
        _TABLE_RUNS[run] + ["--model", model], tmp_path, monkeypatch)
    assert table.rows


def test_non_finite_cells_are_written_as_null(tmp_path, monkeypatch):
    cfg = tmp_path / "super.yaml"
    cfg.write_text(GOOD_YAML.replace("geometric, mean: 1.0}",
                                     "geometric, mean: 1.5}"))
    table = _assert_artifacts_match_the_reference(
        ["validate", "--model", str(cfg)], tmp_path, monkeypatch)
    assert any(isinstance(c, float) and math.isnan(c)
               for row in table.rows for c in row)
    assert "        null" in (tmp_path / "artifact.json").read_text()


def _composed(table, fmt, config, cut):
    """The artifact a Table's head, rows and tail make, with the rows
    written as the runs ``rows[:cut]`` and ``rows[cut:]``."""
    head, tail = table.frame(fmt, config)
    return (head + "".join(table.lines(fmt, table.rows[:cut]))
            + "".join(table.lines(fmt, table.rows[cut:], first=not cut))
            + tail)


def test_every_kind_of_cell_is_written_as_json_writes_it():
    cells = (0, -7, 2**70, 0.1, -0.0, 1e-300, 1.5e300, math.nan, math.inf,
             -math.inf, None, True, False, "a,\"b\"\\\t", "\u00e9", "",
             np.float64(0.3), np.float64(math.nan))
    config = {"command": "x", "model": "m", "n": 3}
    # rows of one int followed by floats, next to rows that only nearly are
    plain = (1, 0.1, -0.0, 1e-300, 1.5e300, math.nan, -math.inf)
    plain_rows = [plain, (2**70,) + plain[1:], (True,) + plain[1:],
                  (1.0,) + plain[1:], plain[:-1] + (np.float64(0.3),),
                  plain[:-1] + (7,)]
    for rows in ([cells, cells[::-1]], [cells[:1]], [], plain_rows):
        width = len(rows[0]) if rows else len(cells)
        table = cli.Table("t", "m", tuple(f"c{i}" for i in range(width)),
                          rows, {"n_types": 1, "w": math.nan}, passed=True)
        # the whole table as one run of rows, and as two runs cut at
        # every row boundary
        for cut in range(1, len(rows) + 1) if rows else [0]:
            assert _composed(table, "json", config, cut) == \
                _reference_json(config, table)
            lines = _composed(table, "csv", config, cut).splitlines()
            assert lines[len(lines) - len(rows) - 1:] == \
                _reference_csv_rows(table)


def test_plotdata_points_are_written_as_each_cell_was(tmp_path, capsys):
    points = [(1, 0.1), (100_000, 1e-300), (2**60 + 1, -0.0),
              (0.5, math.nan), (3.0, -math.inf), (7, np.float64(0.3))]
    table = cli.Table("t", "m", ("c",), [], {}, curves={"a curve": points})
    req = RunRequest("validate", plotdata=True, output=str(tmp_path / "p.csv"))
    assert cli._emit(req, {}, table)[0] == 0
    assert (tmp_path / "p_a-curve.dat").read_text() == "".join(
        f"{_fmt(float(x))} {_fmt(float(y))}\n" for x, y in points)


# `extinction` hands _emit a view over the table arrays; the rows and
# curves it once assembled in full stay here as the oracle

_B = cli._BLOCK


def _assembled_rows(table, n):
    return list(zip(range(1, n + 1), *table.d[:, 1:].tolist(),
                    *table.pmf[:, 1:].tolist()))


def _assembled_curves(columns, rows):
    return {label: [(float(row[0]), row[c]) for row in rows]
            for c, label in enumerate(columns[1:], start=1)}


@pytest.mark.parametrize("model", ["micro_table", "three_type_chain"])
@pytest.mark.parametrize("n", [1, _B - 1, _B, _B + 1, 2 * _B + 3])
def test_extinction_view_writes_what_the_assembled_rows_write(
        model, n, tmp_path, monkeypatch):
    seen = []
    emit = cli._emit

    def capture(req, resolved, payload):
        seen.append((req, resolved, payload))
        return emit(req, resolved, payload)

    monkeypatch.setattr(cli, "_emit", capture)
    rows = _assembled_rows(build_survival_table(stock_model(model), n), n)
    for fmt in ("csv", "json"):
        view_dir, old_dir = tmp_path / fmt / "view", tmp_path / fmt / "old"
        assert main(["extinction", "--model", model, "--n", str(n),
                     "--format", fmt, "--plotdata",
                     "--output", str(view_dir / f"ext.{fmt}")]) == 0
        req, resolved, table = seen.pop()
        old = dataclasses.replace(
            table, rows=rows, curves=_assembled_curves(table.columns, rows))
        emit(dataclasses.replace(req, output=str(old_dir / f"ext.{fmt}")),
             resolved, old)
        written = {p.name: p.read_bytes() for p in view_dir.iterdir()}
        assert len(written) == 1 + 2 * stock_model(model).n_types
        assert written == {p.name: p.read_bytes() for p in old_dir.iterdir()}

        view = table.rows
        assert len(view) == n
        assert list(view) == rows and list(view) == rows
        assert all(type(row[0]) is int
                   and all(type(c) is float for c in row[1:]) for row in view)


@pytest.mark.parametrize("plotdata", [None, True])
def test_extinction_holds_only_the_table_arrays_and_one_block(plotdata,
                                                              tmp_path):
    n = 50_000
    table = build_survival_table(stock_model("three_type_chain"), n)
    arrays = table.d.nbytes + table.pmf.nbytes
    del table

    def extinction(n, name):
        return run(RunRequest("extinction", model="three_type_chain", n=n,
                              format="json", plotdata=plotdata,
                              output=str(tmp_path / name)))

    assert extinction(5, "warm.json") == 0  # imports and caches load here
    tracemalloc.start()
    try:
        assert extinction(n, "ext.json") == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < arrays + 1_500_000


# `extinction` formats its rows in contiguous parts, one per core: the
# parent writes part 0 and a forked child each other part

def _extinction_files(model, n, fmt, out):
    assert main(["extinction", "--model", model, "--n", str(n), "--format",
                 fmt, "--plotdata", "--output", str(out / f"ext.{fmt}")]) == 0
    return {p.name: p.read_bytes() for p in out.iterdir()}


def _counting_fork(monkeypatch):
    forks = []
    fork = os.fork

    def counted():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks


@pytest.mark.parametrize("model", ["micro_table", "three_type_chain"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_extinction_parts_write_the_bytes_of_one_part(model, fmt, tmp_path,
                                                      monkeypatch, capsys):
    n = 3 * _B + 5  # three parts of 4097, 4098 and 4098 rows
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    one = _extinction_files(model, n, fmt, tmp_path / "one")
    forks = _counting_fork(monkeypatch)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    parted = _extinction_files(model, n, fmt, tmp_path / "parted")
    assert len(forks) == 2
    assert parted == one and len(one) == 1 + 2 * stock_model(model).n_types
    text = one[f"ext.{fmt}"].decode()
    if fmt == "json":
        rows = json.loads(text)["table"]["rows"]
    else:
        rows = [line.split(",") for line in text.splitlines()
                if line[:1].isdigit()]
    assert [int(row[0]) for row in rows] == list(range(1, n + 1))


def test_extinction_forks_only_for_two_blocks_of_rows(tmp_path, monkeypatch,
                                                      capsys):
    def refused():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(os, "fork", refused)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    for fmt in ("csv", "json"):
        assert main(["extinction", "--model", "three_type_chain", "--n",
                     str(2 * _B - 1), "--format", fmt, "--plotdata",
                     "--output", str(tmp_path / f"ext.{fmt}")]) == 0
    plotted = [*_SMALL_RUNS.values(), _TABLE_RUNS["mc-pmf"]]
    for argv in [*_TABLE_RUNS.values(), *(a + ["--plotdata"] for a in plotted)]:
        for fmt in ("csv", "json"):
            assert main(argv + ["--format", fmt, "--output",
                                str(tmp_path / f"other.{fmt}")]) in (0, 1)


@pytest.mark.parametrize("failing", [0, 1, 2])
def test_a_failing_part_fails_the_run_and_leaves_nothing_behind(
        failing, tmp_path, monkeypatch, capsys):
    rows = cli._TableRows.__iter__

    def iterate(self):  # the parts start at rows 0, 4097 and 8195
        if self.start // 4097 == failing:
            raise PrecisionLoss("part failed")
        return rows(self)

    monkeypatch.setattr(cli._TableRows, "__iter__", iterate)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    forks = _counting_fork(monkeypatch)
    out = tmp_path / "ext.csv"
    assert main(["extinction", "--model", "micro_table", "--n", str(3 * _B + 5),
                 "--output", str(out)]) == 1
    assert len(forks) == 2
    assert "run failed:" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == [out.name]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_mc_reads_s_only_in_conditional_mode(tmp_path, capsys):
    out = tmp_path / "mc.csv"
    assert main(["mc", "--n", "5", "--replicates", "50", "--s", "0.5",
                 "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert "reads --s only with --m" in err and "field: s" in err
    assert not out.exists()


class TestCommands:
    def test_theorem_death_writes_ratio_column(self, tmp_path, capsys):
        out = tmp_path / "death.csv"
        code = main(["theorem", "death", "--n", "4000", "--k", "60",
                     "--lambda", "1", "--output", str(out)])
        assert code == 0
        assert "PASS" in capsys.readouterr().out
        header, rows = read_rows(out)
        assert "ratio" in header
        i = header.index("ratio")
        lam_row = [r for r in rows if r[0] == "lam=1"][0]
        assert abs(float(lam_row[i]) - 1.0) < 0.1
        # limit column carries the closed-form value
        j = header.index("limit")
        assert float(lam_row[j]) == 0.25

    def test_theorem_foster_grid_override(self, tmp_path):
        out = tmp_path / "f.csv"
        assert main(["theorem", "foster", "--model", "single_geometric",
                     "--n", "2000", "--output", str(out)]) == 0
        text = out.read_text()
        assert "# grid:n=100,317,447,632,894,1265,1789,2000" not in text
        assert "# config:n=2000" in text

    def test_lemma_laplace(self, tmp_path):
        out = tmp_path / "lap.json"
        code = main(["lemma", "laplace", "--model", "two_type_cascade",
                     "--format", "json", "--output", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["report"]["passed"] is True
        assert abs(doc["report"]["details"]["slope"] - 0.5) < 0.03

    def test_mc_conditional_mode_matches_exact(self, tmp_path):
        out = tmp_path / "mcc.csv"
        code = main(["mc", "--model", "single_geometric", "--n", "12",
                     "--m", "8", "--s", "0.5", "--replicates", "60000",
                     "--seed", "5", "--workers", "2", "--output", str(out)])
        assert code == 0
        header, rows = read_rows(out)
        z = float(rows[0][header.index("z")])
        assert abs(z) < 4.0

    def test_mc_pmf_mode_agrees_with_exact(self, tmp_path):
        out = tmp_path / "mc.csv"
        main(["mc", "--model", "single_geometric", "--n", "10",
              "--replicates", "40000", "--seed", "2", "--output", str(out)])
        header, rows = read_rows(out)
        zs = [float(r[header.index("z")]) for r in rows]
        assert all(math.isnan(z) or abs(z) < 5.0 for z in zs)

    def test_extinction_rows_match_the_checked_accessors(self, tmp_path):
        out = tmp_path / "ext.json"
        assert main(["extinction", "--model", "two_type_cascade", "--n", "40",
                     "--format", "json", "--output", str(out)]) == 0
        table = build_survival_table(two_type_cascade(), 40)
        want = [[m] + [table.survival(i, m) for i in (1, 2)]
                + [extinction_time_pmf(table, i, m) for i in (1, 2)]
                for m in range(1, 41)]
        assert json.loads(out.read_text())["table"]["rows"] == want

    def test_extinction_on_truncated_table_fails_with_precision_loss(
            self, tmp_path, monkeypatch, capsys):
        def truncated(spec, n_max):
            table = build_survival_table(spec, n_max)
            table.truncated_at = 30
            table.d[:, 30:] = math.nan
            table.pmf[:, 30:] = math.nan
            return table

        monkeypatch.setattr(cli, "build_survival_table", truncated)
        out = tmp_path / "ext.csv"
        assert main(["extinction", "--model", "single_geometric", "--n", "50",
                     "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert "run failed" in err and "truncated at step 30" in err
        assert not out.exists()

    def test_run_accepts_request_object(self, tmp_path):
        req = RunRequest(command="constants", model="two_type_cascade",
                         output=str(tmp_path / "c.csv"))
        assert run(req) == 0
        header, rows = read_rows(tmp_path / "c.csv")
        got = {(r[0], r[1]): float(r[2]) for r in rows}
        assert got[("decay_exponent", "1")] == 0.5
        assert got[("chain", "1")] == 1.0


class TestValidationBounds:
    @pytest.mark.parametrize("argv", [
        ["extinction", "--n", "0"],
        ["conditional", "--n", "50", "--m", "50", "--s", "0.5"],
        ["conditional", "--n", "50", "--m", "10", "--s", "1.5"],
        ["theorem", "finalstage", "--x", "0"],
        ["theorem", "death", "--lambda", "-1"],
        ["mc", "--workers", "0"],
        ["theorem", "finalstage", "--n", "0"],
        ["theorem", "foster", "--n", "0"],
        ["lemma", "diff", "--n", "0"],
    ])
    def test_out_of_range_overrides_exit_2(self, argv, capsys, tmp_path,
                                           monkeypatch):
        monkeypatch.setenv("BRANCHLAB_OUTDIR", str(tmp_path))
        assert main(argv) == 2
        assert capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, least", [
        # the x = 0.75 part observes at round(0.75 n), before n from n = 3
        (["theorem", "finalstage", "--n", "2"], 3),
        # the local mean's censor time n^(2/3) passes n - sqrt(n) below 5
        (["lemma", "diff", "--n", "4"], 5),
        # the default offsets: deathfin's largest k is 5, death's k is 200
        (["theorem", "deathfin", "--n", "3"], 6),
        (["theorem", "death", "--n", "150"], 201),
    ])
    def test_horizons_below_the_smallest_are_refused_by_name(
            self, argv, least, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("BRANCHLAB_OUTDIR", str(tmp_path))
        assert main(argv) == 2
        assert f"horizons start at {least}, got n=" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_death_offset_below_one_keeps_its_own_message(
            self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("BRANCHLAB_OUTDIR", str(tmp_path))
        assert main(["theorem", "death", "--k", "0"]) == 2
        assert "need k >= 1, got k=0" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        # the n/4 pilot at 50 would observe at round(0.99 * 50) = 50
        ["theorem", "finalstage", "--model", "micro_table", "--x", "0.99",
         "--n", "200"],
        # the pilot at 4 would censor at t = 3 after m = 2
        ["lemma", "diff", "--model", "micro_table", "--n", "8"],
    ])
    def test_pilots_run_from_the_smallest_horizon(self, argv, tmp_path,
                                                  monkeypatch):
        monkeypatch.setenv("BRANCHLAB_OUTDIR", str(tmp_path))
        assert main(argv) in (0, 1)
        (artifact,) = tmp_path.iterdir()
        assert "# pilot:" in artifact.read_text()
