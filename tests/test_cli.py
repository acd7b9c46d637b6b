"""End-to-end tests for the command-line front end.

Everything runs through main(argv) with --output pointed at tmp_path,
so no test touches the working directory or the environment except
where the default-naming behavior itself is under test.
"""

import json
import math
import os

import pytest

from branchlab import cli
from branchlab.cli import RunRequest, main, run
from branchlab.experiments import verify_death
from branchlab.pgf import build_survival_table, extinction_time_pmf
from branchlab.zoo import two_type_cascade

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
        doc = {"config": config, "report": json.loads(report.to_json())}
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
    ])
    def test_out_of_range_overrides_exit_2(self, argv, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err
