"""Command-line wiring: exit codes, artifacts, determinism, error JSON."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from bayeslens.cli import main

TOY_CSV = "a,b\n0,0\n1,2\n2,4\n"
TOY_META = '{"chains": [0, 0, 1]}'


def write_toy(tmp_path):
    loglik = tmp_path / "loglik.csv"
    loglik.write_text(TOY_CSV)
    meta = tmp_path / "meta.json"
    meta.write_text(TOY_META)
    return loglik, meta


def read_json(path):
    return json.loads(path.read_text())


@pytest.mark.filterwarnings("ignore:too few draws")
class TestInfluenceCommand:
    def test_toy_footer_values(self, tmp_path):
        loglik, meta = write_toy(tmp_path)
        out = tmp_path / "out"
        code = main(
            ["influence", "--loglik", str(loglik), "--meta", str(meta), "--out", str(out)]
        )
        assert code == 0
        totals = read_json(out / "influence_report.json")["totals"]
        assert totals["p_w"] == pytest.approx(5.0)
        assert totals["p_v"] == pytest.approx(18.0)
        assert totals["conflict_ratio"] == pytest.approx(3.6)
        assert totals["flagged"] is True

    def test_strict_flag_exit_two(self, tmp_path):
        loglik, meta = write_toy(tmp_path)
        out = tmp_path / "out"
        code = main(
            [
                "influence",
                "--loglik", str(loglik),
                "--meta", str(meta),
                "--out", str(out),
                "--strict",
            ]
        )
        assert code == 2
        assert (out / "influence_report.csv").exists()

    def test_missing_metadata_exit_one_chain_mismatch(self, tmp_path, capsys):
        loglik = tmp_path / "loglik.csv"
        loglik.write_text(TOY_CSV)
        code = main(
            [
                "influence",
                "--loglik", str(loglik),
                "--meta", str(tmp_path / "absent.json"),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ChainMismatch"

    def test_groups_all_in_one_matches_global(self, tmp_path):
        loglik, meta = write_toy(tmp_path)
        groups = tmp_path / "groups.json"
        groups.write_text('{"a": "all", "b": "all"}')
        out = tmp_path / "out"
        code = main(
            [
                "conflict",
                "--loglik", str(loglik),
                "--meta", str(meta),
                "--groups", str(groups),
                "--out", str(out),
            ]
        )
        assert code == 0
        group_report = read_json(out / "group_conflict.json")
        totals = read_json(out / "influence_report.json")["totals"]
        assert group_report["ratio"][0] == pytest.approx(totals["conflict_ratio"])

    def test_group_only_flag_drives_exit_two(self, tmp_path):
        """Strict mode fires on a flagged group even when the global ratio is low."""
        # columns a, b cancel (anti-correlated); c, d coincide (cross-conflict 4)
        base = np.array([0.0, 3.0, -3.0, 1.0, -1.0, 0.0])
        trend = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
        table = np.column_stack([base, -base, trend, trend])
        lines = ["a,b,c,d"] + [",".join(str(v) for v in row) for row in table]
        loglik = tmp_path / "loglik.csv"
        loglik.write_text("\n".join(lines) + "\n")
        meta = tmp_path / "meta.json"
        meta.write_text('{"chains": [0, 0, 0, 1, 1, 1]}')
        groups = tmp_path / "groups.json"
        groups.write_text('{"a": "null", "b": "null", "c": "dup", "d": "dup"}')
        out = tmp_path / "out"
        code = main(
            ["conflict", "--loglik", str(loglik), "--meta", str(meta),
             "--groups", str(groups), "--out", str(out), "--strict"]
        )
        assert code == 2
        report = read_json(out / "group_conflict.json")
        assert report["flagged_groups"] == ["dup"]
        totals = read_json(out / "influence_report.json")["totals"]
        assert totals["flagged"] is False

    @pytest.mark.parametrize(
        "group_map, error",
        [("{bad", "UncoveredObsId"), ('{"a": "g", "zz": "g"}', "UnknownObsId")],
    )
    def test_bad_group_map_fails_closed(self, tmp_path, capsys, group_map, error):
        """A bad group map exits 1 with one JSON error line and writes nothing."""
        loglik, meta = write_toy(tmp_path)
        groups = tmp_path / "groups.json"
        groups.write_text(group_map)
        out = tmp_path / "out"
        code = main(
            ["conflict", "--loglik", str(loglik), "--meta", str(meta),
             "--groups", str(groups), "--out", str(out)]
        )
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == error
        assert not out.exists()

    @pytest.mark.parametrize(
        "chains",
        [["x", "x", "y"], [0.5, 0.5, 1.7], [True, True, False], [0, 0, True]],
        ids=["strings", "floats", "booleans", "int_and_bool"],
    )
    def test_non_integer_chain_labels_fail_closed(self, tmp_path, capsys, chains):
        loglik, meta = write_toy(tmp_path)
        meta.write_text(json.dumps({"chains": chains}))
        out = tmp_path / "out"
        code = main(
            ["influence", "--loglik", str(loglik), "--meta", str(meta), "--out", str(out)]
        )
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "ChainMismatch"
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_header_only_csv_one_error_line(self, tmp_path, capsys):
        """A CSV without data rows exits 1 with one JSON line and no warning."""
        loglik, meta = write_toy(tmp_path)
        loglik.write_text("a,b\n")
        code = main(
            ["influence", "--loglik", str(loglik), "--meta", str(meta),
             "--out", str(tmp_path / "out")]
        )
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "MalformedCsv"
        assert err["message"].endswith("no data rows")

    def test_pv_group_factor_off(self, tmp_path):
        loglik, meta = write_toy(tmp_path)
        groups = tmp_path / "groups.json"
        groups.write_text('{"a": "ga", "b": "gb"}')
        out = tmp_path / "out"
        main(
            [
                "conflict",
                "--loglik", str(loglik),
                "--meta", str(meta),
                "--groups", str(groups),
                "--out", str(out),
                "--pv-group-factor", "off",
            ]
        )
        report = read_json(out / "group_conflict.json")
        np.testing.assert_allclose(report["ratio"], [1.0, 1.0])


class TestSimulateAndPipeline:
    def run_pipeline(self, base, seed=42):
        corpus = base / "corpus"
        diag = base / "diag"
        assert main(
            ["simulate", "--demo", "--draws", "600", "--chains", "4",
             "--seed", str(seed), "--out", str(corpus)]
        ) == 0
        assert main(
            ["influence", "--loglik", str(corpus / "loglik.csv"),
             "--meta", str(corpus / "metadata.json"), "--out", str(diag)]
        ) == 0
        assert main(
            ["leverage", "--pred", str(corpus / "predictive.csv"),
             "--meta", str(corpus / "metadata.json"),
             "--seed", str(seed), "--out", str(diag)]
        ) == 0
        assert main(
            ["outliers", "--loglik", str(corpus / "loglik.csv"),
             "--meta", str(corpus / "metadata.json"),
             "--pred", str(corpus / "predictive.csv"),
             "--seed", str(seed), "--out", str(diag)]
        ) == 0
        assert main(
            ["oracle", "--spec", str(corpus / "spec_used.json"), "--out", str(diag)]
        ) == 0
        return corpus, diag

    def test_full_pipeline_artifacts(self, tmp_path):
        corpus, diag = self.run_pipeline(tmp_path)
        for name in (
            "influence_report.csv",
            "influence_report.json",
            "hat_values.csv",
            "hat_values.json",
            "clout.csv",
            "scree.csv",
            "eigen.json",
            "linear_diagnostics.json",
            "linear_diagnostics.csv",
        ):
            assert (diag / name).exists(), name

    def test_outputs_round_trip_through_loaders(self, tmp_path):
        from bayeslens.sample_store import load_predictive, load_samples

        corpus, _ = self.run_pipeline(tmp_path)
        samples = load_samples(corpus / "loglik.csv", corpus / "metadata.json")
        pred = load_predictive(corpus / "predictive.csv", corpus / "metadata.json")
        assert samples.n_draws == 600
        assert pred.family == "normal_known_var"

    def test_planted_simulation(self, tmp_path):
        corpus = tmp_path / "corpus"
        code = main(
            ["simulate", "--demo", "--draws", "100", "--chains", "2",
             "--outlier-idx", "3", "--leverage-idx", "11",
             "--out", str(corpus)]
        )
        assert code == 0
        spec = read_json(corpus / "spec_used.json")
        assert len(spec["y"]) == 40

    def test_trunc_rank_out_of_range(self, tmp_path, capsys):
        corpus, _ = self.run_pipeline(tmp_path)
        code = main(
            ["outliers", "--loglik", str(corpus / "loglik.csv"),
             "--meta", str(corpus / "metadata.json"),
             "--pred", str(corpus / "predictive.csv"),
             "--trunc-rank", "99", "--out", str(tmp_path / "bad")]
        )
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "RankOutOfRange"

    def test_report_csv_numbers_round_trip(self, tmp_path):
        """CSV cells reparse to the exact float64 values of the JSON report."""
        _, diag = self.run_pipeline(tmp_path)
        report = read_json(diag / "influence_report.json")
        lines = (diag / "influence_report.csv").read_text().splitlines()
        for row, line in enumerate(lines[1:]):
            cells = line.split(",")
            assert float(cells[1]) == report["per_observation"]["linf"][row]
            assert float(cells[3]) == report["per_observation"]["dinf"][row]
            assert float(cells[5]) == report["per_observation"]["clinf"][row]

    def test_zero_hat_value_exit_one(self, tmp_path, capsys):
        # constant predictive draws give zero hat-values for every observation
        pred = tmp_path / "pred.csv"
        pred.write_text("a.mean,a.var,b.mean,b.var\n" + "0,1,0,1\n" * 4)
        meta = tmp_path / "meta.json"
        meta.write_text('{"chains": [0, 0, 1, 1], "families": "normal_known_var"}')
        loglik = tmp_path / "loglik.csv"
        loglik.write_text("a,b\n0,0\n1,2\n2,4\n0.5,1\n")
        code = main(
            ["outliers", "--loglik", str(loglik), "--meta", str(meta),
             "--pred", str(pred), "--out", str(tmp_path / "out")]
        )
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ZeroHatValue"
        assert "'a'" in err["message"]


class TestOracleCommand:
    def test_intercept_only_spec(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps(
                {"X": [[1.0], [1.0], [1.0]], "y": [0.0, 0.0, 3.0],
                 "sigma2": 1.0, "Psi": [[0.0]]}
            )
        )
        out = tmp_path / "out"
        assert main(["oracle", "--spec", str(spec), "--out", str(out)]) == 0
        payload = read_json(out / "linear_diagnostics.json")
        assert payload["p_v"] == pytest.approx(1.0)
        assert payload["p_d"] == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "text",
        [
            json.dumps({"X": [[1.0], [1.0]], "y": [0.0, 0.0, 3.0],
                        "sigma2": 1.0, "Psi": [[0.0]]}),
            '{"X": [[1.0], [1.0]], "y": [0.0,',
        ],
        ids=["shape_mismatch", "truncated"],
    )
    def test_bad_spec_exit_one(self, tmp_path, capsys, text):
        """A mis-shaped or truncated spec exits 1 with one JSON error line."""
        spec = tmp_path / "spec.json"
        spec.write_text(text)
        out = tmp_path / "out"
        assert main(["oracle", "--spec", str(spec), "--out", str(out)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "InvalidParameter"
        assert not out.exists()

    def test_missing_spec_file(self, tmp_path, capsys):
        code = main(
            ["oracle", "--spec", str(tmp_path / "none.json"),
             "--out", str(tmp_path / "out")]
        )
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "FileNotFoundError"


class TestDeterminism:
    def test_same_seed_byte_identical(self, tmp_path):
        pipeline = TestSimulateAndPipeline()
        corpus1, diag1 = pipeline.run_pipeline(tmp_path / "run1")
        corpus2, diag2 = pipeline.run_pipeline(tmp_path / "run2")
        for directory1, directory2 in ((corpus1, corpus2), (diag1, diag2)):
            names = sorted(p.name for p in directory1.iterdir())
            assert names == sorted(p.name for p in directory2.iterdir())
            for name in names:
                assert (directory1 / name).read_bytes() == (
                    directory2 / name
                ).read_bytes(), name

    def test_different_seed_differs(self, tmp_path):
        pipeline = TestSimulateAndPipeline()
        _, diag1 = pipeline.run_pipeline(tmp_path / "a", seed=1)
        _, diag2 = pipeline.run_pipeline(tmp_path / "b", seed=2)
        assert (diag1 / "influence_report.csv").read_bytes() != (
            diag2 / "influence_report.csv"
        ).read_bytes()

    def test_bytes_independent_of_blas_thread_count(self, tmp_path):
        """The demo pipeline writes the same outlier artifacts under 1 and 2
        OpenBLAS threads (the eigensolver is the BLAS-heavy step)."""
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [src, env.get("PYTHONPATH")])
            )
            corpus = tmp_path / threads / "corpus"
            diag = tmp_path / threads / "diag"
            for argv in (
                ["simulate", "--demo", "--draws", "600", "--out", str(corpus)],
                ["outliers", "--loglik", str(corpus / "loglik.csv"),
                 "--meta", str(corpus / "metadata.json"),
                 "--pred", str(corpus / "predictive.csv"), "--out", str(diag)],
            ):
                subprocess.run(
                    [sys.executable, "-m", "bayeslens.cli", *argv],
                    env=env, check=True, capture_output=True, timeout=120,
                )
            outputs.append(diag)
        for name in ("clout.csv", "scree.csv", "eigen.json"):
            assert (outputs[0] / name).read_bytes() == (
                outputs[1] / name
            ).read_bytes(), name
