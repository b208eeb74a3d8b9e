"""Command-line wiring: exit codes, artifacts, determinism, error JSON."""

import contextlib
import csv
import io
import json
import os
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bayeslens import LogLikSamples, PredictiveDraws
from bayeslens import influence as influence_mod
from bayeslens import linear_oracle as oracle_mod
from bayeslens.cli import build_parser, main
from bayeslens.io_utils import format_float
from bayeslens.sample_store import write_loglik_csv, write_metadata_json, write_predictive_csv

TOY_CSV = "a,b\n0,0\n1,2\n2,4\n"
TOY_META = '{"chains": [0, 0, 1]}'


def write_toy(tmp_path):
    loglik = tmp_path / "loglik.csv"
    loglik.write_text(TOY_CSV)
    meta = tmp_path / "meta.json"
    meta.write_text(TOY_META)
    return loglik, meta


def no_constant(name):
    raise ValueError(f"not JSON: {name}")


def read_json(path):
    """Parse an artifact as strict JSON: NaN and Infinity are refused."""
    return json.loads(path.read_text(), parse_constant=no_constant)


def child_env(**extra):
    """Environment for a fresh interpreter that imports bayeslens from ``src``."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


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
        [("{bad", "UncoveredObsId"), ('{"a": "g", "zz": "g"}', "UnknownObsId"),
         ('{"a": null, "b": "g"}', "UncoveredObsId"),
         ('{"a": true, "b": "g"}', "UncoveredObsId"),
         ('{"a": [1, 2], "b": "g"}', "UncoveredObsId"),
         ('{"a": {"g": 1}, "b": "g"}', "UncoveredObsId")],
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

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command", ["influence", "conflict"])
    def test_non_finite_threshold_fails_closed(self, tmp_path, capsys, command, threshold):
        """A threshold that is not finite exits 1 and writes nothing."""
        loglik, meta = write_toy(tmp_path)
        groups = tmp_path / "groups.json"
        groups.write_text('{"a": "g", "b": "g"}')
        out = tmp_path / "out"
        inputs = ["--groups", str(groups)] if command == "conflict" else []
        code = main(
            [command, "--loglik", str(loglik), "--meta", str(meta), *inputs,
             f"--threshold={threshold}", "--out", str(out)]
        )
        assert code == 1
        assert_one_error_line(capsys, "InvalidParameter")
        assert not out.exists()

    @pytest.mark.parametrize(
        "chains",
        [["x", "x", "y"], [0.5, 0.5, 1.7], [True, True, False], [0, 0, True],
         [0, 0, 10**30]],
        ids=["strings", "floats", "booleans", "int_and_bool", "beyond_int64"],
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

    def test_pv_group_factor_off(self, tmp_path, capsys):
        """The per-group p_v always keeps its factor 2: ``--pv-group-factor``
        is an unknown flag, refused with one JSON line, writing nothing."""
        loglik, meta = write_toy(tmp_path)
        groups = tmp_path / "groups.json"
        groups.write_text('{"a": "ga", "b": "gb"}')
        out = tmp_path / "out"
        code = main(
            [
                "conflict",
                "--loglik", str(loglik),
                "--meta", str(meta),
                "--groups", str(groups),
                "--out", str(out),
                "--pv-group-factor", "off",
            ]
        )
        assert code == 1
        assert_one_error_line(capsys, "InvalidParameter")
        assert not out.exists()


def assert_one_error_line(capsys, error):
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == error


class TestUsageErrors:
    @pytest.mark.parametrize(
        "flags, subcommand",
        [(["--threshold", "abc"], True), (["--threshold", "-inf"], True),
         (["--bogus"], True), ([], False)],
        ids=["threshold_abc", "threshold_minus_inf", "unknown_flag", "no_subcommand"],
    )
    def test_usage_error_fails_closed(self, tmp_path, capsys, flags, subcommand):
        """A malformed command line exits 1 with one JSON line and writes nothing."""
        loglik, meta = write_toy(tmp_path)
        out = tmp_path / "out"
        argv = ["--out", str(out)]
        if subcommand:
            argv = ["influence", "--loglik", str(loglik), "--meta", str(meta),
                    *flags] + argv
        assert main(argv) == 1
        assert_one_error_line(capsys, "InvalidParameter")
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value",
        [("--threshold", "abc"), ("--seed", "-1"), ("--seed", "x"),
         ("--trunc-rank", "abc")],
    )
    def test_message_names_flag_and_value(self, tmp_path, capsys, flag, value):
        """Each flag is given to a command that takes it."""
        loglik, meta = write_toy(tmp_path)
        inputs = {
            "--threshold": ["influence", "--loglik", str(loglik)],
            "--seed": ["leverage", "--pred", str(loglik)],
            "--trunc-rank": ["outliers", "--loglik", str(loglik), "--pred", str(loglik)],
        }[flag]
        code = main([*inputs, "--meta", str(meta), f"{flag}={value}",
                     "--out", str(tmp_path / "out")])
        assert code == 1
        message = json.loads(capsys.readouterr().err)["message"]
        assert flag in message and repr(value) in message, message

    @pytest.mark.parametrize(
        "command, flags",
        [("influence", ["--groups", "groups.json"]), ("influence", ["--seed", "1"]),
         ("conflict", ["--groups", "groups.json", "--seed", "1"]),
         ("influence", ["--pv-group-factor", "on"]), ("oracle", ["--seed", "1"])],
        ids=["influence_groups", "influence_seed", "conflict_seed",
             "influence_pv_group_factor", "oracle_seed"],
    )
    def test_flag_the_command_does_not_take(self, demo_corpus, tmp_path, capsys,
                                            command, flags):
        """Only ``conflict`` takes a group map, and only ``simulate``,
        ``leverage`` and ``outliers`` take a seed: elsewhere either flag is
        unknown, and the command exits 1 with one JSON line, writing nothing."""
        out = tmp_path / "out"
        argv = [command] + [str(demo_corpus / f) if f.endswith(".json") else f for f in flags]
        for flag, name in NEEDS[command].items():
            argv += [flag, str(demo_corpus / name)]
        assert main(argv + ["--out", str(out)]) == 1
        assert_one_error_line(capsys, "InvalidParameter")
        assert not out.exists()

    def test_half_planted_simulate(self, tmp_path, capsys):
        """``--outlier-idx`` without ``--leverage-idx`` is a usage error."""
        out = tmp_path / "out"
        assert main(["simulate", "--demo", "--outlier-idx", "3", "--out", str(out)]) == 1
        assert_one_error_line(capsys, "InvalidParameter")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["influence", "conflict"])
    def test_threshold_default_is_the_library_default(self, command):
        """``--threshold`` defaults to ``influence.CONFLICT_THRESHOLD``, the
        flag level of ``influence_report`` and ``CrossConflict.flagged``."""
        argv = [command, "--loglik", "x.csv", "--meta", "m.json"]
        if command == "conflict":
            argv += ["--groups", "g.json"]
        assert build_parser().parse_args(argv).threshold == influence_mod.CONFLICT_THRESHOLD

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["influence", "--help"])
        assert exc.value.code == 0
        assert "--threshold" in capsys.readouterr().out


class _ArrayMemoryError(MemoryError):
    """Stands in for numpy's private subclass of ``MemoryError``."""


def test_allocation_failure_fails_closed(tmp_path, capsys, monkeypatch):
    """A failed allocation exits 1 with one ``MemoryError`` line, whatever
    the subclass, and writes nothing."""
    def exhausted(*args, **kwargs):
        raise _ArrayMemoryError("Unable to allocate 21.8 TiB")

    monkeypatch.setattr(oracle_mod, "exact_sampler", exhausted)
    out = tmp_path / "out"
    assert main(["simulate", "--demo", "--draws", str(10**12), "--out", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1, lines
    assert json.loads(lines[0]) == {"error": "MemoryError",
                                    "message": "Unable to allocate 21.8 TiB"}
    assert not out.exists()


class TestBadInputsFailClosed:
    @pytest.mark.parametrize(
        "trials",
        ['"x"', "2.5", "true", "1e30", str(10**30), "0", "[3]"],
        ids=["string", "float", "boolean", "huge_float", "beyond_int64", "zero", "list"],
    )
    def test_bad_binomial_trials(self, tmp_path, capsys, trials):
        """A trial count that is not an integer >= 1 exits 1 and writes nothing."""
        pred = tmp_path / "pred.csv"
        pred.write_text("a.prob,b.prob\n0.25,0.5\n0.5,0.5\n0.75,0.5\n0.5,0.5\n")
        meta = tmp_path / "meta.json"
        meta.write_text(
            '{"chains": [0, 0, 1, 1], "families": "binomial", '
            '"trials": {"a": %s, "b": 4}}' % trials
        )
        out = tmp_path / "out"
        code = main(["leverage", "--pred", str(pred), "--meta", str(meta), "--out", str(out)])
        assert code == 1
        assert_one_error_line(capsys, "InvalidParameter")
        assert not out.exists()

    @pytest.mark.parametrize(
        "var",
        ['"1.5"', "true", "null", "[2]", None, "0", str(10**400)],
        ids=["string", "boolean", "null", "list", "missing", "zero", "beyond_float"],
    )
    def test_bad_known_variance(self, tmp_path, capsys, var):
        """A metadata variance that is not a positive JSON number, or none for
        one observation, exits 1 and writes nothing."""
        pred = tmp_path / "pred.csv"
        pred.write_text("a.mean,b.mean\n0,1\n0.5,1.5\n0,1\n1,0\n")
        entry = "" if var is None else '"a": %s, ' % var
        meta = tmp_path / "meta.json"
        meta.write_text(
            '{"chains": [0, 0, 1, 1], "families": "normal_known_var", '
            '"var": {%s"b": 1}}' % entry
        )
        out = tmp_path / "out"
        code = main(["leverage", "--pred", str(pred), "--meta", str(meta), "--out", str(out)])
        assert code == 1
        assert_one_error_line(capsys, "InvalidParameter")
        assert not out.exists()

    @pytest.mark.parametrize("value", ["1", '["normal_known_var"]'], ids=["number", "list"])
    def test_non_string_family(self, tmp_path, capsys, value):
        """A per-observation family that is not a string exits 1 with one
        FamilyMismatch line and writes nothing."""
        pred = tmp_path / "pred.csv"
        pred.write_text("a.mean,b.mean\n0,1\n0.5,1.5\n0,1\n1,0\n")
        meta = tmp_path / "meta.json"
        meta.write_text(
            '{"chains": [0, 0, 1, 1], "families": {"a": "normal_known_var", "b": %s}, '
            '"var": {"a": 1, "b": 1}}' % value
        )
        out = tmp_path / "out"
        code = main(["leverage", "--pred", str(pred), "--meta", str(meta), "--out", str(out)])
        assert code == 1
        assert_one_error_line(capsys, "FamilyMismatch")
        assert not out.exists()

    @pytest.mark.parametrize("wobble", [2e-9, 1e-3, -2e-9])
    def test_varying_known_variance(self, tmp_path, capsys, wobble):
        """A ``normal_known_var`` variance that moves across draws, given in an
        old-format ``<obs>.var`` column, exits 1 and writes nothing: the column
        is refused whatever it holds, and the variance comes from the metadata."""
        pred = tmp_path / "pred.csv"
        pred.write_text(
            "a.mean,a.var,b.mean,b.var\n"
            f"0,2,1,1\n0.5,2,1.5,1\n0,2,1,{format_float(1.0 + wobble)}\n1,2,0,1\n"
        )
        meta = tmp_path / "meta.json"
        meta.write_text('{"chains": [0, 0, 1, 1], "families": "normal_known_var", '
                        '"var": {"a": 2, "b": 1}}')
        out = tmp_path / "out"
        code = main(["leverage", "--pred", str(pred), "--meta", str(meta), "--out", str(out)])
        assert code == 1
        assert_one_error_line(capsys, "MalformedCsv")
        assert not out.exists()

    def test_known_variance_column_refused(self, tmp_path, capsys):
        """A corpus that still carries a ``<obs>.var`` column per draw exits 1
        with one JSON line that names the column and the metadata."""
        pred = tmp_path / "pred.csv"
        pred.write_text("a.mean,a.var,b.mean,b.var\n" + "0,1,0,1\n0.5,1,1,1\n" * 2)
        meta = tmp_path / "meta.json"
        meta.write_text('{"chains": [0, 0, 1, 1], "families": "normal_known_var", '
                        '"var": {"a": 1, "b": 1}}')
        out = tmp_path / "out"
        code = main(["leverage", "--pred", str(pred), "--meta", str(meta), "--out", str(out)])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "MalformedCsv"
        assert "'a.var'" in err["message"] and "metadata JSON" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "name, data, error",
        [
            ("loglik.csv", b"a,\xffb\n0,0\n1,2\n2,4\n", "MalformedCsv"),
            # past the first block the text reader decodes
            ("loglik.csv", b"a,b\n" + b"0,0\n1,2\n" * 3000 + b"2,\xff\n", "MalformedCsv"),
            ("meta.json", b'{"chains": [0, 0, 1], "note": "\xff"}', "ChainMismatch"),
            ("groups.json", b'{"a": "\xff", "b": "g"}', "UncoveredObsId"),
            ("spec.json", b'{"X": [[1.0]], "y": [\xff], "sigma2": 1, "Psi": [[0]]}',
             "InvalidParameter"),
        ],
        ids=["csv_header", "csv_data_row", "metadata", "group_map", "spec"],
    )
    def test_non_utf8_input(self, tmp_path, capsys, name, data, error):
        """A byte that is not UTF-8 gives the reader's malformed-file error."""
        loglik, meta = write_toy(tmp_path)
        groups = tmp_path / "groups.json"
        groups.write_text('{"a": "g", "b": "g"}')
        (tmp_path / name).write_bytes(data)
        out = tmp_path / "out"
        if name == "spec.json":
            argv = ["oracle", "--spec", str(tmp_path / name)]
        else:
            argv = ["conflict", "--loglik", str(loglik), "--meta", str(meta),
                    "--groups", str(groups)]
        assert main(argv + ["--out", str(out)]) == 1
        assert_one_error_line(capsys, error)
        assert not out.exists()


class TestByteOrderMark:
    @pytest.mark.parametrize("name", ["loglik.csv", "predictive.csv", "metadata.json"])
    def test_leading_mark_is_dropped(self, demo_corpus, tmp_path, name):
        """An input that starts with a UTF-8 byte-order mark, as spreadsheet
        programs write it, gives the artifacts of the same input without one."""
        marked = tmp_path / "marked"
        marked.mkdir()
        for input_name in ("loglik.csv", "predictive.csv", "metadata.json"):
            data = (demo_corpus / input_name).read_bytes()
            prefix = b"\xef\xbb\xbf" if input_name == name else b""
            (marked / input_name).write_bytes(prefix + data)
        outputs = []
        for corpus in (demo_corpus, marked):
            out = tmp_path / corpus.name / "out"
            assert main(["outliers", "--loglik", str(corpus / "loglik.csv"),
                         "--meta", str(corpus / "metadata.json"),
                         "--pred", str(corpus / "predictive.csv"), "--out", str(out)]) == 0
            outputs.append(out)
        for artifact in ("clout.csv", "scree.csv", "eigen.json"):
            assert (outputs[0] / artifact).read_bytes() == (
                outputs[1] / artifact
            ).read_bytes(), artifact


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

    def test_eigen_json_stops_at_the_numerical_rank(self, tmp_path):
        """The demo's log-likelihoods are quadratic in 3 parameters, so V has
        rank 3 + 6 = 9: eigen.json holds 9 eigenvalues, all above the
        tolerance, 9 eigenvectors, and a truncated CLOUT equal to the CLOUT up
        to round-off; scree.csv has 9 rows."""
        _, diag = self.run_pipeline(tmp_path)
        eigen = read_json(diag / "eigen.json")
        eigenvalues = np.array(eigen["eigenvalues"])
        assert eigen["numerical_rank"] == eigen["truncation_rank"] == 9
        assert eigen["rank_tolerance"] == 1e-10 * eigenvalues[0]
        assert np.all(eigenvalues > eigen["rank_tolerance"])
        assert eigenvalues.shape == (9,)
        assert np.array(eigen["eigenvectors"]).shape == (40, 9)
        np.testing.assert_allclose(eigen["clout_truncated"], eigen["clout"], rtol=1e-12)
        assert len((diag / "scree.csv").read_text().splitlines()) == 1 + 9

    def test_full_rank_writes_every_eigenvector(self, tmp_path):
        """With a full-rank V, as Poisson and gamma log-likelihoods give, the
        numerical rank and the eigenvectors written are n."""
        loglik, pred, meta = write_poisson_corpus(tmp_path / "corpus", ("a", "b", "c", "d", "e"))
        out = tmp_path / "out"
        assert main(["outliers", "--loglik", loglik, "--meta", meta, "--pred", pred,
                     "--out", str(out)]) == 0
        eigen = read_json(out / "eigen.json")
        assert eigen["numerical_rank"] == eigen["truncation_rank"] == 5
        assert np.array(eigen["eigenvectors"]).shape == (5, 5)

    def test_trunc_rank_out_of_range(self, demo_corpus, tmp_path, capsys):
        """The demo's numerical rank is 9 of n = 40: a rank past it, whose
        eigenvectors would be round-off, exits 1 with one JSON line and
        writes nothing."""
        for rank in ("10", "99"):
            out = tmp_path / rank
            code = main(["outliers", "--loglik", str(demo_corpus / "loglik.csv"),
                         "--meta", str(demo_corpus / "metadata.json"),
                         "--pred", str(demo_corpus / "predictive.csv"),
                         "--trunc-rank", rank, "--out", str(out)])
            assert code == 1
            assert_one_error_line(capsys, "RankOutOfRange")
            assert not out.exists()

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
        pred.write_text("a.mean,b.mean\n" + "0,0\n" * 4)
        meta = tmp_path / "meta.json"
        meta.write_text('{"chains": [0, 0, 1, 1], "families": "normal_known_var", '
                        '"var": {"a": 1, "b": 1}}')
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


# Each artifact CSV against the JSON written beside it: the CSV's header line,
# its row count, and its columns as computed from the JSON.
ARTIFACT_PAIRS = {
    "influence_report": (
        "influence_report.json",
        "obs_id,linf,linf_mcse,dinf,dinf_mcse,clinf,clinf_mcse",
        40,
        lambda j: [j["per_observation"][key] for key in (
            "obs_ids", "linf", "linf_mcse", "dinf", "dinf_mcse", "clinf", "clinf_mcse")],
    ),
    "hat_values": (
        "hat_values.json",
        "obs_id,hat_value,mcse,cllev",
        40,
        lambda j: [j[key] for key in ("obs_ids", "hat_values", "mcse", "cllev")],
    ),
    "clout": (
        "eigen.json",
        "obs_id,clout,clout_truncated",
        40,
        lambda j: [j[key] for key in ("obs_ids", "clout", "clout_truncated")],
    ),
    "scree": (
        "eigen.json",
        "rank,eigenvalue,cumulative_share",
        9,
        lambda j: [list(range(1, len(j["eigenvalues"]) + 1)), j["eigenvalues"],
                   (np.cumsum(j["eigenvalues"]) / np.sum(j["eigenvalues"])).tolist()],
    ),
    "group_conflict": (
        "group_conflict.json",
        "group,p_v,p_w,ratio,flagged",
        4,
        lambda j: [j[key] for key in ("group_labels", "p_v", "p_w", "ratio")]
        + [[str(g in j["flagged_groups"]).lower() for g in j["group_labels"]]],
    ),
    "linear_diagnostics": (
        "linear_diagnostics.json",
        "index,hat_value,residual,linf,dinf,zinf,cook",
        40,
        lambda j: [list(range(1, len(j["hat_diag"]) + 1))] + [j[key] for key in (
            "hat_diag", "residuals", "linf", "dinf", "zinf", "cook")],
    ),
}


@pytest.fixture(scope="module")
def demo_diagnostics(tmp_path_factory):
    """Every diagnostic artifact pair, from one demo corpus with a group map."""
    base = tmp_path_factory.mktemp("formats")
    corpus, diag = base / "corpus", base / "diag"
    assert main(["simulate", "--demo", "--draws", "600", "--out", str(corpus)]) == 0
    obs_ids = (corpus / "loglik.csv").read_text().split("\n", 1)[0].split(",")
    groups = base / "groups.json"
    groups.write_text(json.dumps({obs: f"g{i % 4}" for i, obs in enumerate(obs_ids)}))
    loglik, meta, pred = (
        str(corpus / name) for name in ("loglik.csv", "metadata.json", "predictive.csv")
    )
    for argv in (
        ["conflict", "--loglik", loglik, "--meta", meta, "--groups", str(groups),
         "--threshold", "1.1"],
        ["leverage", "--pred", pred, "--meta", meta],
        ["outliers", "--loglik", loglik, "--meta", meta, "--pred", pred,
         "--trunc-rank", "7"],
        ["oracle", "--spec", str(corpus / "spec_used.json")],
    ):
        assert main(argv + ["--out", str(diag)]) == 0
    return diag


class TestArtifactFormats:
    @pytest.mark.parametrize("name", sorted(ARTIFACT_PAIRS))
    def test_csv_matches_json(self, demo_diagnostics, name):
        """Header, row count, and every cell equal to its JSON twin, floats bit for bit."""
        json_name, header, n_rows, columns_of = ARTIFACT_PAIRS[name]
        lines = (demo_diagnostics / f"{name}.csv").read_text().splitlines()
        assert lines[0] == header
        assert len(lines) == 1 + n_rows
        cells = list(zip(*(line.split(",") for line in lines[1:])))
        expected = columns_of(read_json(demo_diagnostics / json_name))
        assert len(cells) == len(expected) == header.count(",") + 1
        for column, values in zip(cells, expected):
            assert len(values) == n_rows
            for cell, value in zip(column, values):
                if isinstance(value, float):
                    assert float(cell).hex() == value.hex(), (name, cell, value)
                else:
                    assert cell == str(value), (name, cell, value)

    def test_trunc_rank_sets_the_eigenvectors_written(self, demo_diagnostics):
        eigen = read_json(demo_diagnostics / "eigen.json")
        assert eigen["truncation_rank"] == 7
        assert eigen["numerical_rank"] == 9
        assert np.array(eigen["eigenvectors"]).shape == (40, 7)

    def test_flagged_groups_present(self, demo_diagnostics):
        """The conflict threshold leaves both flagged and unflagged groups to check."""
        flags = {line.rsplit(",", 1)[1] for line in
                 (demo_diagnostics / "group_conflict.csv").read_text().splitlines()[1:]}
        assert flags == {"true", "false"}


def write_poisson_corpus(corpus, obs_ids, draws=40):
    """Random log-likelihoods (a full-rank V) and Poisson predictive draws
    over two chains, written as ``simulate`` writes its corpus."""
    rng = np.random.default_rng(41)
    chains = [row * 2 // draws for row in range(draws)]
    n_obs = len(obs_ids)
    corpus.mkdir(parents=True)
    write_loglik_csv(
        LogLikSamples(rng.standard_normal((draws, n_obs)), chains, obs_ids),
        corpus / "loglik.csv",
    )
    pred = PredictiveDraws("poisson", rng.uniform(0.5, 6.0, (draws, n_obs, 1)), chains, obs_ids)
    write_predictive_csv(pred, corpus / "predictive.csv")
    write_metadata_json(pred, corpus / "metadata.json")
    return [str(corpus / name) for name in ("loglik.csv", "predictive.csv", "metadata.json")]


class TestCsvQuoting:
    """A text cell holding a comma, a double quote or a line break is quoted,
    so that every CSV the commands write parses back into its header's width."""

    OBS_IDS = ("x,y", 'q"z', "plain", "line\nbreak")
    LABELS = ("a,b", 'c"d\ne')

    def test_every_csv_parses_back(self, tmp_path):
        loglik, pred, meta = write_poisson_corpus(tmp_path / "corpus", self.OBS_IDS)
        groups = tmp_path / "groups.json"
        groups.write_text(json.dumps(dict(zip(self.OBS_IDS, self.LABELS * 2))))
        out = tmp_path / "out"
        for argv in (
            ["conflict", "--loglik", loglik, "--meta", meta, "--groups", str(groups)],
            ["leverage", "--pred", pred, "--meta", meta],
            ["outliers", "--loglik", loglik, "--meta", meta, "--pred", pred],
        ):
            assert main(argv + ["--out", str(out)]) == 0
        first_columns = {}
        for path in sorted(out.glob("*.csv")):
            with open(path, newline="", encoding="utf-8") as handle:
                rows = list(csv.reader(handle))
            assert {len(row) for row in rows} == {len(rows[0])}, path.name
            first_columns[path.name] = tuple(row[0] for row in rows[1:])
        assert first_columns["group_conflict.csv"] == self.LABELS
        for name in ("influence_report.csv", "hat_values.csv", "clout.csv"):
            assert first_columns[name] == self.OBS_IDS, name
        assert len(first_columns) == 5


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

    def test_singular_gram_spec(self, tmp_path):
        """With X'X singular, oracle reports no theta_hat and no sandwich check."""
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps(
                {"X": [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]], "y": [0.5, -1.0],
                 "sigma2": 1.0, "Psi": np.eye(3).tolist()}
            )
        )
        out = tmp_path / "out"
        assert main(["oracle", "--spec", str(spec), "--out", str(out)]) == 0
        payload = read_json(out / "linear_diagnostics.json")
        assert payload["theta_hat"] is None
        assert "sandwich_check" not in payload
        assert len(payload["theta_bar"]) == 3

    def test_overflowing_spec_exit_one(self, tmp_path, capsys):
        """A design whose X'X overflows exits 1 with one SingularSystem line,
        as ``simulate --spec`` does on the same file, and writes nothing."""
        spec = tmp_path / "spec.json"
        spec.write_text('{"X": [[1e200, 0], [0, 1], [1, 1]], "y": [1, 2, 3], '
                        '"sigma2": 1, "Psi": [[0, 0], [0, 0]]}')
        out = tmp_path / "out"
        assert main(["oracle", "--spec", str(spec), "--out", str(out)]) == 1
        assert_one_error_line(capsys, "SingularSystem")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["oracle", "simulate"])
    @pytest.mark.parametrize(
        "text",
        [
            # X'X = [[2, 2], [2, 2]]: singular, factored only by round-off
            '{"X": [[1, 1], [1, 1]], "y": [0, 1], "sigma2": 1, "Psi": [[0, 0], [0, 0]]}',
            # a subnormal precision factors, but its inverse overflows
            '{"X": [[0, 0], [0, 0], [0, 0]], "y": [0, 0, 0], "sigma2": 1, '
            '"Psi": [[2e-320, 1e-320], [1e-320, 2e-320]]}',
        ],
        ids=["singular_precision", "overflowing_covariance"],
    )
    def test_improper_posterior_exit_one(self, tmp_path, capsys, command, text):
        """A spec without a proper finite posterior exits 1 with one
        SingularSystem line from ``oracle`` and ``simulate --spec`` alike,
        raises no RuntimeWarning and writes nothing."""
        spec = tmp_path / "spec.json"
        spec.write_text(text)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main([command, "--spec", str(spec), "--out", str(out)]) == 1
        assert_one_error_line(capsys, "SingularSystem")
        assert not out.exists()

    def test_fits_once(self, tmp_path, monkeypatch):
        """The sandwich check reuses the diagnostics ``oracle`` already fitted."""
        calls = []
        real_fit = oracle_mod.fit

        def counting_fit(spec):
            calls.append(spec)
            return real_fit(spec)

        monkeypatch.setattr(oracle_mod, "fit", counting_fit)
        spec = tmp_path / "spec.json"
        oracle_mod.write_spec_json(
            oracle_mod.random_spec(np.random.default_rng(3), n_obs=12, n_params=2), spec
        )
        out = tmp_path / "out"
        assert main(["oracle", "--spec", str(spec), "--out", str(out)]) == 0
        assert len(calls) == 1
        assert "sandwich_check" in read_json(out / "linear_diagnostics.json")

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

    def test_warm_run_parses_no_text_and_writes_the_same_bytes(self, tmp_path, monkeypatch):
        """A second run of each diagnostic reads the sidecars the first run
        left beside the input CSVs, never calls ``np.loadtxt``, and writes
        every artifact byte for byte as the first did."""
        corpus = tmp_path / "corpus"
        assert main(["simulate", "--demo", "--draws", "600", "--chains", "4",
                     "--out", str(corpus)]) == 0
        obs_ids = (corpus / "loglik.csv").read_text().split("\n", 1)[0].split(",")
        groups = tmp_path / "groups.json"
        groups.write_text(json.dumps({obs: f"g{i % 4}" for i, obs in enumerate(obs_ids)}))
        loglik, meta, pred = (
            str(corpus / name) for name in ("loglik.csv", "metadata.json", "predictive.csv")
        )
        commands = {
            "influence": ["--loglik", loglik, "--meta", meta],
            "leverage": ["--pred", pred, "--meta", meta],
            "outliers": ["--loglik", loglik, "--meta", meta, "--pred", pred],
            "conflict": ["--loglik", loglik, "--meta", meta, "--groups", str(groups)],
        }

        def run(name):
            for command, inputs in commands.items():
                out = tmp_path / name / command
                assert main([command, *inputs, "--out", str(out)]) == 0
            return tmp_path / name

        cold = run("cold")
        assert sorted(p.name.split(".")[0] for p in corpus.glob("*.npy")) == [
            "loglik", "predictive"]
        parses = []
        loadtxt = np.loadtxt
        monkeypatch.setattr(
            np, "loadtxt", lambda *a, **k: parses.append(a) or loadtxt(*a, **k)
        )
        warm = run("warm")
        assert parses == []
        compared = 0
        for command in commands:
            names = sorted(p.name for p in (cold / command).iterdir())
            assert names == sorted(p.name for p in (warm / command).iterdir())
            for name in names:
                assert (cold / command / name).read_bytes() == (
                    warm / command / name
                ).read_bytes(), name
                compared += 1
        assert compared == 11

    def test_bytes_independent_of_blas_thread_count(self, tmp_path):
        """Every command that calls BLAS writes the same artifacts under 1 and
        2 OpenBLAS threads: the eigensolver of ``outliers``, the group sums of
        ``conflict`` (4-group map) and the pairing of ``leverage``."""
        outputs = []
        for threads in ("1", "2"):
            env = child_env(OPENBLAS_NUM_THREADS=threads)
            corpus = tmp_path / threads / "corpus"
            diag = tmp_path / threads / "diag"
            subprocess.run(
                [sys.executable, "-m", "bayeslens.cli", "simulate", "--demo",
                 "--draws", "600", "--out", str(corpus)],
                env=env, check=True, capture_output=True, timeout=120,
            )
            loglik, meta, pred = (
                str(corpus / name) for name in ("loglik.csv", "metadata.json", "predictive.csv")
            )
            obs_ids = (corpus / "loglik.csv").read_text().split("\n", 1)[0].split(",")
            groups = tmp_path / threads / "groups.json"
            groups.write_text(json.dumps({obs: f"g{i % 4}" for i, obs in enumerate(obs_ids)}))
            for argv in (
                ["outliers", "--loglik", loglik, "--meta", meta, "--pred", pred],
                ["conflict", "--loglik", loglik, "--meta", meta, "--groups", str(groups)],
                ["leverage", "--pred", pred, "--meta", meta],
            ):
                subprocess.run(
                    [sys.executable, "-m", "bayeslens.cli", *argv, "--out", str(diag)],
                    env=env, check=True, capture_output=True, timeout=120,
                )
            outputs.append(diag)
        for name in ("clout.csv", "scree.csv", "eigen.json", "group_conflict.csv",
                     "group_conflict.json", "influence_report.csv", "influence_report.json",
                     "hat_values.csv", "hat_values.json"):
            assert (outputs[0] / name).read_bytes() == (
                outputs[1] / name
            ).read_bytes(), name


# Runs ``bayeslens.cli.main`` on argv[1:], then prints the scipy modules and
# hashlib, if it loaded them.
SCIPY_PROBE = """
import json, sys
from bayeslens.cli import build_parser, main
from bayeslens.io_utils import format_float
code = main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(json.dumps(sorted(m for m in sys.modules
                        if m in ("scipy", "hashlib") or m.startswith("scipy."))))
sys.exit(code)
"""


def run_probe(argv):
    """Exit code, and scipy modules and hashlib, of a fresh interpreter running ``main(argv)``."""
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, *argv],
        env=child_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.stdout, proc.stderr
    return proc.returncode, json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def demo_corpus(tmp_path_factory):
    corpus = tmp_path_factory.mktemp("startup") / "corpus"
    assert main(["simulate", "--demo", "--draws", "600", "--out", str(corpus)]) == 0
    obs_ids = (corpus / "loglik.csv").read_text().split("\n", 1)[0].split(",")
    groups = corpus / "groups.json"
    groups.write_text(json.dumps({obs: f"g{i % 4}" for i, obs in enumerate(obs_ids)}))
    return corpus


class TestStartupImports:
    """No command on normal draws loads scipy: the diagnostics never solve a
    linear system, and the oracle behind ``simulate`` and ``oracle`` solves
    with numpy's Cholesky factor. Within bayeslens only reading a draws CSV
    loads hashlib, for the digest that names the table's sidecar."""

    def test_import_cli_loads_no_scipy(self):
        assert run_probe([]) == (0, [])

    @pytest.mark.parametrize(
        "command, inputs",
        [
            ("influence", {"--loglik": "loglik.csv"}),
            ("leverage", {"--pred": "predictive.csv"}),
            ("outliers", {"--loglik": "loglik.csv", "--pred": "predictive.csv"}),
            ("conflict", {"--loglik": "loglik.csv", "--groups": "groups.json"}),
        ],
        ids=["influence", "leverage", "outliers", "conflict"],
    )
    def test_diagnostic_loads_no_scipy(self, demo_corpus, tmp_path, command, inputs):
        argv = [command, "--meta", str(demo_corpus / "metadata.json"),
                "--out", str(tmp_path / "out")]
        for flag, name in inputs.items():
            argv += [flag, str(demo_corpus / name)]
        assert run_probe(argv) == (0, ["hashlib"])

    def test_simulate_and_oracle_in_fresh_process(self, tmp_path):
        corpus = tmp_path / "corpus"
        # numpy.random, which draws the corpus, may load hashlib itself through
        # the standard library's secrets module; oracle draws nothing
        assert run_probe(
            ["simulate", "--demo", "--draws", "600", "--out", str(corpus)]
        ) in ((0, []), (0, ["hashlib"]))
        assert run_probe(["oracle", "--spec", str(corpus / "spec_used.json"),
                          "--out", str(tmp_path / "oracle")]) == (0, [])
        assert read_json(tmp_path / "oracle" / "linear_diagnostics.json")["p_d"] > 0


class TestStrictJson:
    """A NaN result is written as null in JSON and as nan in CSV."""

    def test_group_ratio_of_a_constant_group(self, tmp_path):
        loglik = tmp_path / "loglik.csv"
        loglik.write_text("a,b,c\n0,1,0\n1,1,2\n2,1,4\n0.5,1,1\n")
        meta = tmp_path / "meta.json"
        meta.write_text('{"chains": [0, 0, 1, 1]}')
        groups = tmp_path / "groups.json"
        groups.write_text('{"a": "ga", "b": "gb", "c": "ga"}')
        out = tmp_path / "out"
        assert main(["conflict", "--loglik", str(loglik), "--meta", str(meta),
                     "--groups", str(groups), "--out", str(out)]) == 0
        report = read_json(out / "group_conflict.json")
        assert report["group_labels"] == ["ga", "gb"]
        assert report["ratio"][0] == pytest.approx(3.6)
        assert report["ratio"][1] is None
        assert (out / "group_conflict.csv").read_text().splitlines()[2] == "gb,0,0,nan,false"

    def test_mcse_from_too_few_draws(self, tmp_path):
        loglik, meta = write_toy(tmp_path)
        out = tmp_path / "out"
        assert main(["influence", "--loglik", str(loglik), "--meta", str(meta),
                     "--out", str(out)]) == 0
        report = read_json(out / "influence_report.json")
        assert report["per_observation"]["linf_mcse"] == [None, None]
        assert report["totals"]["p_w_mcse"] is None
        assert report["totals"]["p_w"] == pytest.approx(5.0)
        row = (out / "influence_report.csv").read_text().splitlines()[1].split(",")
        assert row[2] == "nan"

    def test_cllev_at_zero_leverage(self, tmp_path):
        pred = tmp_path / "pred.csv"
        pred.write_text("a.mean,b.mean\n" + "0,0\n" * 4)
        meta = tmp_path / "meta.json"
        meta.write_text('{"chains": [0, 0, 1, 1], "families": "normal_known_var", '
                        '"var": {"a": 1, "b": 1}}')
        out = tmp_path / "out"
        assert main(["leverage", "--pred", str(pred), "--meta", str(meta),
                     "--out", str(out)]) == 0
        report = read_json(out / "hat_values.json")
        assert report["hat_values"] == [0.0, 0.0]
        assert report["cllev"] == [None, None]


def run_cli(argv):
    """Exit code and stderr lines of ``bayeslens`` run in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-m", "bayeslens.cli", *argv],
        env=child_env(), capture_output=True, text=True, timeout=120,
    )
    return proc.returncode, proc.stderr.splitlines()


class TestStderrJsonLines:
    """Warnings reach stderr as JSON lines, and an error line stands alone."""

    def single_chain_corpus(self, tmp_path, constant):
        mean = "0" if constant else "{}"
        pred = tmp_path / "pred.csv"
        pred.write_text("a.mean,b.mean\n" + "".join(
            f"{mean.format(row)},{mean.format(-row)}\n" for row in range(4)))
        meta = tmp_path / "meta.json"
        meta.write_text('{"chains": [0, 0, 0, 0], "families": "normal_known_var", '
                        '"var": {"a": 1, "b": 1}}')
        loglik = tmp_path / "loglik.csv"
        loglik.write_text("a,b\n0,0\n1,2\n2,4\n0.5,1\n")
        return ["--loglik", str(loglik), "--pred", str(pred), "--meta", str(meta)]

    def test_error_exit_prints_only_the_error(self, tmp_path):
        out = tmp_path / "out"
        code, lines = run_cli(["outliers", *self.single_chain_corpus(tmp_path, True),
                               "--out", str(out)])
        assert code == 1
        assert len(lines) == 1, lines
        assert json.loads(lines[0])["error"] == "ZeroHatValue"
        assert not out.exists()

    def test_warnings_become_json_lines(self, tmp_path):
        inputs = self.single_chain_corpus(tmp_path, False)
        code, lines = run_cli(["leverage", *inputs[2:], "--out", str(tmp_path / "out")])
        assert code == 0
        records = [json.loads(line) for line in lines]
        assert records and all(set(r) == {"warning", "message"} for r in records)
        assert any(r["message"].startswith("single chain") for r in records)

    def test_warnings_carry_stable_codes(self, tmp_path):
        """A package warning is named by its code, not by its class."""
        inputs = self.single_chain_corpus(tmp_path, False)
        code, lines = run_cli(["leverage", *inputs[2:], "--out", str(tmp_path / "lev")])
        assert code == 0
        assert [json.loads(line)["warning"] for line in lines] == ["single_chain"]
        # three draws: halves of one and two draws cannot replicate an MCSE
        loglik = tmp_path / "loglik3.csv"
        loglik.write_text("a,b\n0,0\n1,2\n2,4\n")
        meta = tmp_path / "meta3.json"
        meta.write_text('{"chains": [0, 0, 0]}')
        code, lines = run_cli(["influence", "--loglik", str(loglik), "--meta", str(meta),
                               "--out", str(tmp_path / "inf")])
        assert code == 0
        assert [json.loads(line)["warning"] for line in lines] == ["too_few_draws_for_mcse"]


CORPUS_FILES = ("loglik.csv", "metadata.json", "predictive.csv", "spec_used.json",
                "groups.json", "absent.json", "")
# each subcommand's input files, then the other flags it accepts
NEEDS = {
    "influence": {"--loglik": "loglik.csv", "--meta": "metadata.json"},
    "conflict": {"--loglik": "loglik.csv", "--meta": "metadata.json",
                 "--groups": "groups.json"},
    "leverage": {"--pred": "predictive.csv", "--meta": "metadata.json"},
    "outliers": {"--loglik": "loglik.csv", "--meta": "metadata.json",
                 "--pred": "predictive.csv"},
    "oracle": {"--spec": "spec_used.json"},
    "simulate": {},
}
OPTIONS = {
    "influence": ["--threshold", "--strict"],
    "conflict": ["--threshold", "--strict"],
    "leverage": ["--kl-symmetrize", "--seed"],
    "outliers": ["--trunc-rank", "--kl-symmetrize", "--seed"],
    "oracle": [],
    "simulate": ["--chains", "--outlier-idx", "--leverage-idx", "--seed"],
}
JUNK = ("", "-", "--", "-x", "--bogus", "nan", "-inf", "1e999", "0x10", "on",
        "influence", "--threshold=nan", "--seed=-1", "--draws=", "--trunc-rank=0")


@st.composite
def fuzz_argv(draw, corpus):
    """An argv list: a subcommand (or junk); its input flags, each kept, given
    another value or dropped; then up to six more flags and junk tokens, most
    of them flags the subcommand accepts. Integer values stay within 100, so
    that no draw count is large."""
    paths = st.sampled_from([str(corpus / name) for name in CORPUS_FILES])
    ints = st.integers(-3, 100).map(str)
    floats = st.one_of(st.sampled_from(["1.5", "-2", "abc"]), st.floats().map(repr))
    values = {
        "--loglik": paths, "--meta": paths, "--pred": paths, "--groups": paths,
        "--spec": paths, "--seed": ints, "--draws": ints, "--chains": ints,
        "--trunc-rank": ints, "--outlier-idx": ints, "--leverage-idx": ints,
        "--threshold": floats,
        "--strict": None, "--kl-symmetrize": None, "--demo": None,
    }
    command = draw(st.sampled_from([*NEEDS] * 3 + ["bogus", ""]))
    argv = [command] if command else []
    needs = dict(NEEDS.get(command, {}))
    if command == "simulate":
        argv += draw(st.sampled_from([["--demo"], ["--spec", str(corpus / "spec_used.json")]]))
        # the default of 4000 draws is never used
        needs["--draws"] = None
    for flag, name in needs.items():
        how = draw(st.sampled_from(["keep"] * 6 + ["other", "drop"]))
        if how == "keep" and name is not None:
            argv += [flag, str(corpus / name)]
        elif how != "drop" or name is None:
            argv += [flag, draw(values[flag])]
    # a command with no flags of its own draws from every flag
    own = OPTIONS.get(command) or sorted(values)
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["own"] * 6 + ["any", "junk"]))
        if kind == "junk":
            argv.append(draw(st.sampled_from(JUNK)))
            continue
        flag = draw(st.sampled_from(own if kind == "own" else sorted(values)))
        argv.append(flag)
        if values[flag] is not None:
            argv.append(draw(values[flag]))
    return argv


class TestFuzzMain:
    """``main`` on generated command lines over a demo corpus (Hypothesis)."""

    @pytest.mark.filterwarnings("ignore")
    def test_exit_codes_and_error_lines(self, demo_corpus, tmp_path, monkeypatch):
        # nothing is written relative to the working directory
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "out"

        @settings(max_examples=200, derandomize=True, deadline=None)
        @given(fuzz_argv(demo_corpus))
        def check(argv):
            shutil.rmtree(out, ignore_errors=True)
            err = io.StringIO()
            # a SystemExit from argparse would escape main and fail the test
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(argv + ["--out", str(out)])
            assert code in (0, 1, 2)
            if code == 1:
                lines = err.getvalue().splitlines()
                assert len(lines) == 1, lines
                assert set(json.loads(lines[0])) == {"error", "message"}
                assert not out.exists()
            if code == 2:
                assert "--strict" in argv

        check()
