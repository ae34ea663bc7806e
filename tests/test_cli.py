import csv
import json
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import geoent as ge
from geoent import cli, reports
from geoent.cli import NUMERIC_ERROR, USAGE_ERROR, main


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def scale_checks(tmp_path_factory):
    """Every ScaleCheck that `verify --suite scale` makes, in order, from one passing run."""
    checks = []
    real = reports.scale_invariance_check

    def spy(*args, **kwargs):
        checks.append(real(*args, **kwargs))
        return checks[-1]

    out = tmp_path_factory.mktemp("scale") / "v.txt"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reports, "scale_invariance_check", spy)
        assert run("verify", "--suite", "scale", "-o", out) == 0
    assert len(checks) == 6
    return checks


class TestStateCommand:
    def test_w4(self, tmp_path, capsys):
        out = tmp_path / "w4.json"
        assert run("state", "--family", "w", "--n", 4, "-o", out) == 0
        assert "n=4 support=4" in capsys.readouterr().out
        psi = ge.load_state(out)
        assert psi.allclose(ge.w(4), 1e-15)

    def test_cluster4(self, tmp_path):
        out = tmp_path / "c4.json"
        assert run("state", "--family", "cluster4", "-o", out) == 0
        assert ge.load_state(out).allclose(ge.cluster4(), 1e-15)

    def test_asym_w_uniform_is_w(self, tmp_path):
        out = tmp_path / "s.json"
        assert run("state", "--family", "asym_w", "--gamma", "1,1,1", "-o", out) == 0
        assert ge.load_state(out).allclose(ge.w(3), 1e-15)

    def test_recipe_echo(self, tmp_path):
        out = tmp_path / "m.json"
        assert run("state", "--family", "magnon", "--n", 4, "--k", 2, "-o", out) == 0
        doc = json.loads(out.read_text())
        assert doc["recipe"]["family"] == "magnon"

    @pytest.mark.parametrize("amplitudes, message", [
        ("[]", "need at least one qubit"),
        ("[[1, 0], [0, 0], [0, 0]]", "amplitude vector has length 3"),
    ], ids=["empty", "length-3"])
    def test_explicit_amplitudes_of_bad_length(self, tmp_path, capsys, amplitudes, message):
        code = run("state", "--family", "explicit", "--amplitudes", amplitudes,
                   "-o", tmp_path / "x.json")
        assert code == USAGE_ERROR
        assert message in capsys.readouterr().err

    def test_invalid_recipe(self, tmp_path, capsys):
        code = run("state", "--family", "w", "-o", tmp_path / "x.json")
        assert code == 2
        assert "error" in capsys.readouterr().err


@pytest.fixture
def w4_file(tmp_path):
    path = tmp_path / "w4.json"
    ge.save_state(ge.w(4), path)
    return path


class TestEgkCommand:
    def test_absolute(self, w4_file, capsys):
        assert run("egk", w4_file, "--k", 2) == 0
        out = capsys.readouterr().out
        assert "0.25" in out and "1|2,3,4" in out

    def test_relative_partition(self, w4_file, capsys):
        assert run("egk", w4_file, "--k", 2, "--partition", "1,2|3,4") == 0
        assert "0.5" in capsys.readouterr().out

    def test_json_format(self, w4_file, tmp_path):
        out = tmp_path / "r.json"
        assert run("egk", w4_file, "--k", 2, "--format", "json", "-o", out) == 0
        doc = json.loads(out.read_text())
        assert doc["absolute_e"] == pytest.approx(0.25, abs=1e-9)
        assert doc["argmin_partitions"] == ["1|2,3,4"]

    def test_w6_tripartition(self, tmp_path, capsys):
        path = tmp_path / "w6.json"
        ge.save_state(ge.w(6), path)
        assert run("egk", path, "--k", 3, "--partition", "1,2|3,4|5,6") == 0
        value = float(capsys.readouterr().out.split("=")[1])
        assert value == pytest.approx(5 / 9, abs=1e-9)

    @pytest.mark.parametrize("argv", [["--k", 3], ["--k", 2, "--partition", "1,2|3,4"]],
                             ids=["absolute", "partition"])
    def test_csv_format(self, w4_file, tmp_path, argv):
        out = tmp_path / "r.csv"
        assert run("egk", w4_file, *argv, "--format", "csv", "--restarts", 16, "-o", out) == 0
        header, values = csv.reader(out.read_text().splitlines())
        record = dict(zip(header, values, strict=True))
        if "--partition" in argv:
            assert out.read_text().splitlines()[1] == '2,"1,2|3,4",0.5,0.5'
            assert record["partition"] == "1,2|3,4"
        else:
            assert json.loads(record["argmin_partitions"]) == ["1|2|3,4"]

    def test_bad_partition_string(self, w4_file, capsys):
        assert run("egk", w4_file, "--k", 2, "--partition", "1,2|zz") == 2

    def test_partition_k_mismatch(self, w4_file):
        assert run("egk", w4_file, "--k", 3, "--partition", "1,2|3,4") == 2

    def test_k_out_of_range(self, w4_file):
        assert run("egk", w4_file, "--k", 9) == 2

    def test_missing_file(self, tmp_path):
        assert run("egk", tmp_path / "nope.json", "--k", 2) == 2

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_nonfinite_tol_is_usage_error(self, w4_file, tol, capsys):
        assert run("egk", w4_file, "--k", 3, "--tol", tol) == USAGE_ERROR
        assert "error: tol must be finite" in capsys.readouterr().err

    def test_negative_seed_is_usage_error(self, w4_file, capsys):
        assert run("egk", w4_file, "--k", 3, "--seed", -1) == USAGE_ERROR
        assert "error: seed must be an integer >= 0" in capsys.readouterr().err

    def test_numerical_fault_exit_code(self, w4_file, monkeypatch, capsys):
        def fault(*args, **kwargs):
            raise ge.NumericalFaultError("ascent monotonicity violated; numerical fault")

        monkeypatch.setattr(cli, "best_overlap", fault)
        assert run("egk", w4_file, "--k", 3, "--partition", "1|2|3,4") == NUMERIC_ERROR == 4
        assert "error: ascent monotonicity violated" in capsys.readouterr().err


class TestHierarchyCommand:
    def test_magnon42(self, tmp_path):
        path = tmp_path / "m.json"
        ge.save_state(ge.magnon(4, 2), path)
        out = tmp_path / "report.json"
        assert run("hierarchy", path, "-o", out) == 0
        doc = json.loads(out.read_text())
        values = {e["k"]: e["absolute_e"] for e in doc["entries"]}
        assert values[2] == pytest.approx(1 / 3, abs=1e-9)
        assert values[3] == pytest.approx(0.583, abs=5e-4)
        assert values[4] == pytest.approx(0.625, abs=5e-4)
        assert doc["monotonic"] is True

    def test_cap_exceeded_exit_3(self, tmp_path, capsys):
        path = tmp_path / "r9.json"
        ge.save_state(ge.random_state(9, 0), path)
        assert run("hierarchy", path, "--restarts", 4) == 3
        assert "shapes" in capsys.readouterr().err

    def test_csv_format(self, tmp_path):
        path = tmp_path / "w4.json"
        ge.save_state(ge.w(4), path)
        out = tmp_path / "report.csv"
        assert run("hierarchy", path, "--format", "csv", "-o", out) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "k,absolute_e,argmin_partitions,monotonic"
        assert lines[1].startswith("2,0.25,")


class TestTablesCommand:
    def test_table_one_csv(self, tmp_path):
        out = tmp_path / "t1.csv"
        assert run("tables", "--table", "I", "-o", out) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "state,k,shape,exact,closed_value,numeric_value,abs_diff"
        w_rows = {line.split(",")[2]: line.split(",") for line in lines[5:]}
        assert w_rows["1|1|1|1"][3] == "37/64"
        assert float(w_rows["1|3"][5]) == pytest.approx(0.25, abs=1e-7)

    def test_table_four_json_degeneracy(self, tmp_path):
        out = tmp_path / "t4.json"
        assert run("tables", "--table", "IV", "--format", "json", "-o", out) == 0
        doc = json.loads(out.read_text())
        assert len(doc["degenerate_rows"]) == 3

    def test_unknown_table(self):
        with pytest.raises(SystemExit) as err:
            run("tables", "--table", "X")
        assert err.value.code == 2


class TestWorkersFlag:
    @pytest.mark.parametrize("argv", [["tables", "--table", "I"], ["curves", "--figure", "3"]])
    def test_rejected_where_nothing_is_scanned(self, argv):
        with pytest.raises(SystemExit) as err:
            run(*argv, "--workers", 2)
        assert err.value.code == 2

    @pytest.mark.parametrize("argv", [["egk", "s.json", "--k", "2"], ["hierarchy", "s.json"],
                                      ["verify"]])
    def test_accepted_where_partitions_are_scanned(self, argv):
        assert cli.build_parser().parse_args(argv + ["--workers", "2"]).workers == 2

    @pytest.mark.parametrize("workers", [0, -5])
    @pytest.mark.parametrize("argv", [["hierarchy"], ["egk", "--k", "2"],
                                      ["egk", "--k", "2", "--partition", "1|2,3"],
                                      ["verify", "--suite", "lemmas"]])
    def test_bad_count_is_a_usage_error(self, argv, workers, tmp_path, capsys):
        state = tmp_path / "s.json"
        assert run("state", "--family", "w", "--n", 3, "-o", state) == 0
        if argv[0] != "verify":
            argv = [argv[0], state, *argv[1:]]
        with pytest.raises(SystemExit) as err:
            run(*argv, "--workers", workers, "-o", tmp_path / "out")
        assert err.value.code == USAGE_ERROR
        assert "workers must be an int >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestModuleEntryPoint:
    def test_python_dash_m_runs_the_cli(self):
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run([sys.executable, "-m", "geoent", "tables", "--table", "I"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("state,k,shape,")


class TestCurvesCommand:
    def test_figure_three(self, tmp_path):
        out = tmp_path / "f3.csv"
        assert run("curves", "--figure", "3", "--eta-points", 5,
                   "--n-list", "2,5", "-o", out) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "eta,e2_1_vs_rest_n2,e2_1_vs_rest_n5"
        first = [float(x) for x in lines[1].split(",")]
        assert first[1] == pytest.approx(0.5, abs=1e-6)
        assert first[2] == pytest.approx(0.2, abs=1e-6)

    def test_figure_five_surface(self, tmp_path):
        out = tmp_path / "f5.csv"
        assert run("curves", "--figure", "5", "--gamma-points", 5, "-o", out) == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        surface = {(float(r[0]), float(r[1])): float(r[2]) for r in rows}
        assert surface[(0.5, 0.5)] == pytest.approx(1 / 3, abs=1e-12)
        assert surface[(0.0, 0.0)] == 0.0

    def test_unknown_figure(self):
        with pytest.raises(SystemExit) as err:
            run("curves", "--figure", "9")
        assert err.value.code == 2


class TestVerifyCommand:
    def test_lemmas_pass(self, tmp_path):
        out = tmp_path / "v.txt"
        assert run("verify", "--suite", "lemmas", "-o", out) == 0
        text = out.read_text()
        assert "[PASS] criterion-11" in text
        assert "overall: PASS" in text

    def test_negative_control_tampered_reference(self, tmp_path, monkeypatch):
        # w4's 1|3 reference moved from 1/4 to 0.26: that row, and only it, fails.
        ghz4, (name, build, closed_form, rows) = reports._TABLES["I"]
        rows = rows[:3] + [((1, 3), Fraction(26, 100))]
        monkeypatch.setitem(reports._TABLES, "I", [ghz4, (name, build, closed_form, rows)])
        out = tmp_path / "v.txt"
        assert run("verify", "--suite", "tables", "-o", out) == 1
        mismatched = [line for line in out.read_text().splitlines() if "MISMATCH" in line]
        assert len(mismatched) == 1 and mismatched[0].lstrip().startswith("w4 K=2 1|3:")

    @pytest.mark.parametrize("flag", ["--numeric-tol", "--monotonicity-states"])
    def test_deleted_flags_rejected(self, flag):
        with pytest.raises(SystemExit) as err:
            run("verify", "--suite", "lemmas", flag, "1")
        assert err.value.code == USAGE_ERROR

    @pytest.mark.parametrize("side", ["base_e", "scaled_e"])
    @pytest.mark.parametrize("case", range(6))
    def test_scale_suite_rejects_1e6_error(self, case, side, scale_checks,
                                           monkeypatch, tmp_path):
        # Negative control: an error of 1e-6 on either side of any scale case,
        # exact invariance or checked exception, fails the suite.
        checks = list(scale_checks)
        checks[case] = replace(checks[case], **{side: getattr(checks[case], side) + 1e-6})
        replay = iter(checks)
        monkeypatch.setattr(reports, "scale_invariance_check",
                            lambda *args, **kwargs: next(replay))
        out = tmp_path / "v.txt"
        assert run("verify", "--suite", "scale", "-o", out) == 1
        assert "MISMATCH" in out.read_text()

    def test_seeded_reports_identical(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert run("verify", "--suite", "oracle", "--seed", 7, "-o", a) == 0
        assert run("verify", "--suite", "oracle", "--seed", 7, "-o", b) == 0
        assert a.read_bytes() == b.read_bytes()
