"""Ingestion, validation, and group-aggregation tests."""

import hashlib
import io
import os
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bayeslens import GroupMap, LogLikSamples, PredictiveDraws, cross_conflict
from bayeslens.errors import (
    ChainMismatch,
    DegenerateSample,
    DiagnosticsError,
    DuplicateObsId,
    FamilyMismatch,
    InvalidParameter,
    MalformedCsv,
    NonFiniteValue,
    UncoveredObsId,
    UnknownObsId,
)
from bayeslens import io_utils, sample_store
from bayeslens.io_utils import dump_json, format_float, write_csv_rows
from bayeslens.sample_store import (
    _read_csv_table,
    _read_csv_table_checked,
    chain_order,
    check_aligned,
    load_group_map,
    load_predictive,
    load_samples,
    replicate_groups,
    write_loglik_csv,
    write_metadata_json,
    write_predictive_csv,
)

FAMILY_NAMES = ("normal_known_var", "normal", "poisson", "binomial", "gamma")


def write_corpus(tmp_path, csv_text, chains, name="loglik.csv", **meta_extra):
    loglik = tmp_path / name
    loglik.write_text(csv_text)
    meta = tmp_path / "metadata.json"
    import json

    payload = {"chains": chains}
    payload.update(meta_extra)
    meta.write_text(json.dumps(payload))
    return loglik, meta


class TestLoadSamples:
    def test_direct_parse(self, tmp_path):
        """A 3-row, 2-column CSV with chain labels parses into S=3, n=2."""
        loglik, meta = write_corpus(tmp_path, "a,b\n0,0\n1,2\n2,4\n", [1, 1, 2])
        samples = load_samples(loglik, meta)
        assert samples.n_draws == 3
        assert samples.n_obs == 2
        assert samples.obs_ids == ("a", "b")
        np.testing.assert_array_equal(samples.values, [[0, 0], [1, 2], [2, 4]])
        np.testing.assert_array_equal(samples.draw_chain, [1, 1, 2])

    def test_inf_cell_rejected(self, tmp_path):
        """An 'inf' cell raises NonFiniteValue naming the cell."""
        loglik, meta = write_corpus(tmp_path, "a,b\n0,1\n2,inf\n", [1, 1])
        with pytest.raises(NonFiniteValue, match="row 2, column 'b'"):
            load_samples(loglik, meta)

    def test_nan_cell_rejected(self, tmp_path):
        loglik, meta = write_corpus(tmp_path, "a,b\n0,1\nnan,3\n", [1, 1])
        with pytest.raises(NonFiniteValue, match="column 'a'"):
            load_samples(loglik, meta)

    def test_duplicate_header(self, tmp_path):
        """Header 'a,a' raises DuplicateObsId."""
        loglik, meta = write_corpus(tmp_path, "a,a\n0,1\n2,3\n", [1, 1])
        with pytest.raises(DuplicateObsId):
            load_samples(loglik, meta)

    def test_ragged_row(self, tmp_path):
        loglik, meta = write_corpus(tmp_path, "a,b\n0,1\n2\n", [1, 1])
        with pytest.raises(MalformedCsv, match="data row 2"):
            load_samples(loglik, meta)

    def test_non_numeric_cell(self, tmp_path):
        loglik, meta = write_corpus(tmp_path, "a,b\n0,1\nx,3\n", [1, 1])
        with pytest.raises(MalformedCsv, match="non-numeric"):
            load_samples(loglik, meta)

    def test_chain_length_mismatch(self, tmp_path):
        loglik, meta = write_corpus(tmp_path, "a,b\n0,1\n2,3\n", [1, 1, 1])
        with pytest.raises(ChainMismatch):
            load_samples(loglik, meta)

    def test_missing_metadata_is_chain_mismatch(self, tmp_path):
        loglik = tmp_path / "loglik.csv"
        loglik.write_text("a,b\n0,1\n2,3\n")
        with pytest.raises(ChainMismatch, match="not found"):
            load_samples(loglik, tmp_path / "nope.json")

    def test_single_draw_rejected(self, tmp_path):
        loglik, meta = write_corpus(tmp_path, "a,b\n0,1\n", [1])
        with pytest.raises(DegenerateSample):
            load_samples(loglik, meta)

    def test_empty_file(self, tmp_path):
        loglik, meta = write_corpus(tmp_path, "", [1])
        with pytest.raises(MalformedCsv):
            load_samples(loglik, meta)

    def test_comment_like_row_rejected(self, tmp_path):
        """A data row starting with '#' is a malformed cell, not a comment."""
        loglik, meta = write_corpus(tmp_path, "a,b\n#1,2\n3,4\n", [1, 1])
        with pytest.raises(MalformedCsv, match="data row 1, column 'a': '#1'"):
            load_samples(loglik, meta)

    def test_quoted_header_cell(self, tmp_path):
        loglik, meta = write_corpus(tmp_path, '"x,y",b\n1,2\n3,4\n', [1, 1])
        samples = load_samples(loglik, meta)
        assert samples.obs_ids == ("x,y", "b")
        np.testing.assert_array_equal(samples.values, [[1, 2], [3, 4]])

    def test_single_column(self, tmp_path):
        loglik, meta = write_corpus(tmp_path, "a\n1\n2\n3\n", [0, 0, 1])
        header, values = _read_csv_table(loglik)
        assert header == ["a"]
        assert values.shape == (3, 1)
        np.testing.assert_array_equal(values, _read_csv_table_checked(loglik)[1])
        assert load_samples(loglik, meta).values.shape == (3, 1)

    def test_single_row_single_column(self, tmp_path):
        loglik, meta = write_corpus(tmp_path, "a\n1\n", [0])
        assert _read_csv_table(loglik)[1].shape == (1, 1)
        with pytest.raises(DegenerateSample):
            load_samples(loglik, meta)


# Cells on which float() and numpy's C parser disagree, or which only one of
# them accepts, next to cells that are not finite or not numbers at all.
TRICKY_CELLS = [
    "1_000", "\uff11", "\u0663", "1\r", '"1.5"', " 1", "2 ", "\t3", " 4\t",
    "nan", "inf", "-inf", "1e400", "",
]
BLANK_LINES = ["", " ", "\t", "  \t "]


@st.composite
def draws_csv_text(draw):
    n_cols = draw(st.integers(1, 3))
    names = [f"c{i}" for i in range(n_cols)]
    if draw(st.booleans()):
        names[0] = '"c,0"'
    if n_cols > 1 and draw(st.booleans()):
        names[-1] = f" {names[-1]}\t"
    finite = st.floats(allow_nan=False, allow_infinity=False).map(format_float)
    # one_of picks a branch uniformly, so repeats weight the common cases
    cell = st.one_of(*[finite] * 6, st.sampled_from(TRICKY_CELLS))
    row = st.lists(cell, min_size=n_cols, max_size=n_cols).map(",".join)
    ragged = st.lists(cell, min_size=0, max_size=n_cols + 1).map(",".join)
    line = st.one_of(*[row] * 6, ragged, st.sampled_from(BLANK_LINES))
    lines = [",".join(names)] + draw(st.lists(line, min_size=1, max_size=5))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    # a byte-order mark, as spreadsheet programs write before UTF-8 text
    bom = draw(st.sampled_from(["", "\ufeff"]))
    return bom + eol.join(lines) + draw(st.sampled_from(["", eol]))


def _parse_outcome(reader, path):
    try:
        header, values = reader(path)
    except DiagnosticsError as exc:
        return type(exc), str(exc)
    return header, values.shape, values.tobytes()


def sidecars(directory):
    return sorted(p.name for p in directory.iterdir() if p.name.endswith(".npy"))


def sidecar_of(path):
    """The sidecar path for the bytes ``path`` holds now."""
    return path.parent / f"{path.name}.{hashlib.sha256(path.read_bytes()).hexdigest()}.npy"


class TestParsersAgree:
    @settings(
        derandomize=True,
        deadline=None,
        max_examples=300,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(text=draws_csv_text())
    def test_fast_and_checked_parsers_agree(self, tmp_path, text):
        """Both parsers return the same bits, or raise the same error, on a
        cold read and on a warm read after it."""
        path = tmp_path / "draws.csv"
        for name in sidecars(tmp_path):
            (tmp_path / name).unlink()
        path.write_bytes(text.encode("utf-8"))
        checked = _parse_outcome(_read_csv_table_checked, path)
        assert _parse_outcome(_read_csv_table, path) == checked
        if isinstance(checked[0], type):
            assert sidecars(tmp_path) == []
        assert _parse_outcome(_read_csv_table, path) == checked


class TestRoundTrip:
    def test_serialize_then_load_is_identity(self, tmp_path):
        """Emitted CSV keeps full float64 round-trip precision."""
        rng = np.random.default_rng(42)
        values = rng.standard_normal((20, 4)) * 10.0 ** rng.integers(-8, 9, (20, 4))
        samples = LogLikSamples(
            values=values, draw_chain=[0] * 10 + [1] * 10, obs_ids=("a", "b", "c", "d")
        )
        write_loglik_csv(samples, tmp_path / "out.csv")
        write_metadata_json(samples, tmp_path / "out.json")
        again = load_samples(tmp_path / "out.csv", tmp_path / "out.json")
        np.testing.assert_array_equal(again.values, samples.values)
        np.testing.assert_array_equal(again.draw_chain, samples.draw_chain)
        assert again.obs_ids == samples.obs_ids

    def test_predictive_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        params = np.stack(
            [rng.standard_normal((6, 3)), rng.uniform(0.5, 2.0, (6, 3))], axis=2
        )
        pred = PredictiveDraws(
            family="normal",
            params=params,
            draw_chain=[0, 0, 0, 1, 1, 1],
            obs_ids=("a", "b", "c"),
        )
        write_predictive_csv(pred, tmp_path / "pred.csv")
        write_metadata_json(pred, tmp_path / "meta.json")
        again = load_predictive(tmp_path / "pred.csv", tmp_path / "meta.json")
        assert again.family == "normal"
        np.testing.assert_array_equal(again.params, pred.params)

    @pytest.mark.parametrize("family", FAMILY_NAMES)
    def test_predictive_round_trip_every_family(self, tmp_path, random_predictive, family):
        pred = random_predictive(family, np.random.default_rng(8), 6, 3)
        write_predictive_csv(pred, tmp_path / "pred.csv")
        write_metadata_json(pred, tmp_path / "meta.json")
        again = load_predictive(tmp_path / "pred.csv", tmp_path / "meta.json")
        assert again.family == family
        assert again.obs_ids == pred.obs_ids
        np.testing.assert_array_equal(again.params, pred.params)
        np.testing.assert_array_equal(again.draw_chain, pred.draw_chain)
        if family == "binomial":
            np.testing.assert_array_equal(again.fixed, [1, 2, 3])
        elif family == "normal_known_var":
            np.testing.assert_array_equal(again.fixed, pred.fixed)
        else:
            assert again.fixed is None

    def test_written_bytes_match_per_cell_format(self, tmp_path):
        """Each cell is written as format_float of its value, comma-joined."""
        rng = np.random.default_rng(3)
        # more rows than one write block, and extreme magnitudes
        values = rng.standard_normal((2500, 3)) * 10.0 ** rng.integers(-300, 300, (2500, 3))
        values[0] = [-0.0, 5e-324, 1.7976931348623157e308]
        samples = LogLikSamples(
            values=values, draw_chain=[0] * 1250 + [1] * 1250, obs_ids=("a", "b", "c")
        )
        write_loglik_csv(samples, tmp_path / "out.csv")
        expected = "a,b,c\n" + "".join(
            ",".join(format_float(v) for v in row) + "\n" for row in values
        )
        assert (tmp_path / "out.csv").read_bytes() == expected.encode("utf-8")

    def test_predictive_columns_in_any_order(self, tmp_path):
        """Observations keep first-appearance order; params follow the family order."""
        pred_file = tmp_path / "pred.csv"
        pred_file.write_text("b.var,a.mean,b.mean,a.var\n1,2,3,4\n5,6,7,8\n")
        meta = tmp_path / "meta.json"
        meta.write_text('{"chains": [0, 1], "families": "normal"}')
        pred = load_predictive(pred_file, meta)
        assert pred.obs_ids == ("b", "a")
        np.testing.assert_array_equal(
            pred.params, [[[3, 1], [2, 4]], [[7, 5], [6, 8]]]
        )


def rows_then_disk_error():
    yield ("a", 1.0)
    raise OSError("no space left on device")


class TestAtomicWrites:
    """Artifacts are written whole or not at all."""

    @pytest.mark.parametrize("old", [None, "kept\n"], ids=["absent", "existing"])
    @pytest.mark.parametrize(
        "write, error",
        [
            (lambda path: write_csv_rows(
                path, ["obs_id", "x"], "%s,%.17g", rows_then_disk_error()), OSError),
            # json.dump has written part of the document when it meets the object
            (lambda path: dump_json(path, {"a": 1.0, "b": object()}), TypeError),
        ],
        ids=["csv", "json"],
    )
    def test_failed_write_leaves_target_as_it_was(self, tmp_path, old, write, error):
        target = tmp_path / "artifact"
        if old is not None:
            target.write_text(old)
        with pytest.raises(error):
            write(target)
        assert [p.name for p in tmp_path.iterdir()] == ([] if old is None else ["artifact"])
        if old is not None:
            assert target.read_text() == old

    def test_success_replaces_target_and_leaves_no_temporary(self, tmp_path):
        target = tmp_path / "artifact.csv"
        target.write_text("old\n")
        write_csv_rows(target, ["obs_id", "x"], "%s,%.17g", [("a", 0.1), ("b", -0.0)])
        assert target.read_text() == "obs_id,x\na,0.10000000000000001\nb,-0\n"
        assert [p.name for p in tmp_path.iterdir()] == ["artifact.csv"]


TABLE_CSV = "a,b\n0.5,1.25\n2.5,3.75\n"


def npy_bytes(array, version=None):
    """The ``.npy`` file of ``array``, as ``np.save`` writes it by default."""
    buffer = io.BytesIO()
    np.lib.format.write_array(buffer, array, version=version)
    return buffer.getvalue()


TABLE = np.array([[0.5, 1.25], [2.5, 3.75]])

# Each maps the good sidecar's bytes to a file that must not be trusted.
BAD_SIDECARS = {
    "empty": lambda good: b"",
    "garbage": lambda good: b"not a numpy file\n",
    "truncated": lambda good: good[:-8],
    "extended": lambda good: good + bytes(8),
    "wrong_shape": lambda good: npy_bytes(np.ones((2, 3))),
    "one_dimensional": lambda good: npy_bytes(TABLE.ravel()),
    "no_rows": lambda good: npy_bytes(np.ones((0, 2))),
    "non_finite": lambda good: npy_bytes(np.array([[0.5, np.inf], [2.5, 3.75]])),
    "float32": lambda good: npy_bytes(TABLE.astype(np.float32)),
    "big_endian": lambda good: npy_bytes(TABLE.astype(">f8")),
    "fortran_order": lambda good: npy_bytes(np.asfortranarray(TABLE)),
    "object": lambda good: npy_bytes(TABLE.astype(object)),
    "version_2": lambda good: npy_bytes(TABLE, version=(2, 0)),
}


def count_loadtxt(monkeypatch):
    """A list that gains one entry per ``np.loadtxt`` call from now on."""
    calls = []
    loadtxt = np.loadtxt

    def counted(*args, **kwargs):
        calls.append(args)
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counted)
    return calls


def table_outcome(path):
    header, values = _read_csv_table(path)
    return header, values.dtype.str, values.shape, values.tobytes(), values.flags.writeable


def write_draws(tmp_path, kind, random_predictive):
    rng = np.random.default_rng(12)
    if kind == "loglik":
        data = LogLikSamples(
            values=rng.standard_normal((40, 3)),
            draw_chain=np.repeat([0, 1], 20),
            obs_ids=("a", "b", "c"),
        )
        write_loglik_csv(data, tmp_path / "draws.csv")
    else:
        data = random_predictive(kind, rng, 40, 3)
        write_predictive_csv(data, tmp_path / "draws.csv")
    write_metadata_json(data, tmp_path / "meta.json")
    return tmp_path / "draws.csv"


def load_draws(tmp_path, kind):
    if kind == "loglik":
        return load_samples(tmp_path / "draws.csv", tmp_path / "meta.json")
    return load_predictive(tmp_path / "draws.csv", tmp_path / "meta.json")


def container_state(container):
    """Each field of a container; an array as its dtype, shape, strides and bytes."""
    return {
        name: (value.dtype.str, value.shape, value.strides, value.tobytes(),
               value.flags.writeable)
        if isinstance(value, np.ndarray) else value
        for name, value in vars(container).items()
    }


class TestSidecar:
    """A parsed table is saved beside its CSV and read back in place of the text."""

    @pytest.mark.parametrize("kind", ["loglik", "normal", "normal_known_var", "binomial"])
    def test_warm_load_is_bit_identical(self, tmp_path, random_predictive, monkeypatch, kind):
        csv_path = write_draws(tmp_path, kind, random_predictive)
        cold = load_draws(tmp_path, kind)
        assert sidecars(tmp_path) == [sidecar_of(csv_path).name]
        calls = count_loadtxt(monkeypatch)
        warm = load_draws(tmp_path, kind)
        assert calls == []
        assert container_state(warm) == container_state(cold)
        if kind == "normal_known_var":
            # the means are the whole (S, n) table, viewed as (S, n, 1)
            assert warm.params.flags.c_contiguous

    def test_sidecar_holds_the_table_as_npy(self, tmp_path):
        csv_path = tmp_path / "draws.csv"
        csv_path.write_text(TABLE_CSV)
        _read_csv_table(csv_path)
        assert sidecar_of(csv_path).read_bytes() == npy_bytes(TABLE)

    def test_edited_csv_is_parsed_again(self, tmp_path, monkeypatch):
        """The new bytes' sidecar replaces the old one. Files not named like a
        sidecar of this CSV stay: another CSV's sidecar, even when that CSV's
        name extends this one's, and other ``.npy`` files beside it."""
        csv_path = tmp_path / "draws.csv"
        csv_path.write_text(TABLE_CSV)
        other_csv = tmp_path / "draws.csv.old.csv"
        other_csv.write_text(TABLE_CSV)
        _read_csv_table(other_csv)
        bystanders = [
            tmp_path / "draws.csv.notes.npy",
            tmp_path / f"draws.csv.{'A' * 64}.npy",
            tmp_path / f"draws.csv.{'a' * 63}.npy",
        ]
        for path in bystanders:
            path.write_bytes(npy_bytes(TABLE))
        _read_csv_table(csv_path)
        edited = TABLE_CSV.replace("3.75", "3.76")
        csv_path.write_text(edited)
        calls = count_loadtxt(monkeypatch)
        header, values = _read_csv_table(csv_path)
        assert len(calls) == 1
        assert values.tolist() == [[0.5, 1.25], [2.5, 3.76]]
        kept = [sidecar_of(csv_path), sidecar_of(other_csv), *bystanders]
        assert sidecars(tmp_path) == sorted(path.name for path in kept)

    @pytest.mark.parametrize("corrupt", sorted(BAD_SIDECARS))
    def test_bad_sidecar_is_a_miss_and_replaced(self, tmp_path, monkeypatch, corrupt):
        csv_path = tmp_path / "draws.csv"
        csv_path.write_text(TABLE_CSV)
        expected = table_outcome(csv_path)
        sidecar = sidecar_of(csv_path)
        good = sidecar.read_bytes()
        sidecar.write_bytes(BAD_SIDECARS[corrupt](good))
        calls = count_loadtxt(monkeypatch)
        assert table_outcome(csv_path) == expected
        assert len(calls) == 1
        assert sidecar.read_bytes() == good

    @pytest.mark.parametrize("failure", ["open", "save", "replace"])
    def test_failed_save_changes_nothing(self, tmp_path, monkeypatch, failure):
        """The load returns its table and leaves no file behind. Root ignores
        file modes, so the failures are injected."""
        csv_path = tmp_path / "draws.csv"
        csv_path.write_text(TABLE_CSV)

        def disk_full(*args, **kwargs):
            raise OSError(28, "No space left on device")

        if failure == "open":
            real_open = open

            def no_new_files(file, mode="r", *args, **kwargs):
                if "x" in mode:
                    raise PermissionError(13, "Permission denied", file)
                return real_open(file, mode, *args, **kwargs)

            monkeypatch.setattr(io_utils, "open", no_new_files, raising=False)
        elif failure == "save":
            def partial_save(handle, values, **kwargs):
                handle.write(b"\x93NUMPY")
                disk_full()

            monkeypatch.setattr(np, "save", partial_save)
        else:
            monkeypatch.setattr(os, "replace", disk_full)
        assert table_outcome(csv_path) == (["a", "b"], "<f8", (2, 2), TABLE.tobytes(), False)
        assert [p.name for p in tmp_path.iterdir()] == ["draws.csv"]

    def test_csv_changed_between_hash_and_parse_gets_no_sidecar(self, tmp_path, monkeypatch):
        csv_path = tmp_path / "draws.csv"
        csv_path.write_text(TABLE_CSV)
        lookup = sample_store._load_sidecar

        def rewrite_then_lookup(path, n_cols):
            csv_path.write_text(TABLE_CSV.replace("3.75", "3.76"))
            return lookup(path, n_cols)

        monkeypatch.setattr(sample_store, "_load_sidecar", rewrite_then_lookup)
        header, values = _read_csv_table(csv_path)
        assert values.tolist() == [[0.5, 1.25], [2.5, 3.76]]
        assert sidecars(tmp_path) == []

    def test_failed_parse_gets_no_sidecar(self, tmp_path):
        csv_path = tmp_path / "draws.csv"
        csv_path.write_text("a,b\n0.5,1.25\n2.5,x\n")
        for _ in range(2):
            with pytest.raises(MalformedCsv, match="non-numeric cell at data row 2"):
                _read_csv_table(csv_path)
            assert sidecars(tmp_path) == []

    def test_fifo_is_read_once_without_sidecar(self, tmp_path):
        fifo = tmp_path / "draws.csv"
        os.mkfifo(fifo)
        threading.Thread(target=fifo.write_text, args=(TABLE_CSV,), daemon=True).start()
        result = []
        reader = threading.Thread(
            target=lambda: result.append(table_outcome(fifo)), daemon=True
        )
        reader.start()
        reader.join(timeout=60)
        # a second open of the FIFO would wait for a writer that never comes
        assert not reader.is_alive()
        assert result == [(["a", "b"], "<f8", (2, 2), TABLE.tobytes(), False)]
        assert sidecars(tmp_path) == []


class TestContainerErrors:
    def test_obs_id_count_mismatch(self):
        with pytest.raises(MalformedCsv, match="got 3 obs ids for 2 columns"):
            LogLikSamples(values=np.zeros((2, 2)), draw_chain=[0, 1], obs_ids="abc")
        with pytest.raises(MalformedCsv, match="got 3 obs ids for 2 columns"):
            PredictiveDraws(
                family="poisson", params=np.ones((2, 2, 1)), draw_chain=[0, 1], obs_ids="abc"
            )

    def test_values_must_be_two_dimensional(self):
        with pytest.raises(InvalidParameter, match="2-d"):
            LogLikSamples(values=np.zeros(4), draw_chain=[0, 0, 1, 1], obs_ids="abcd")

    @pytest.mark.parametrize("kind", ["loglik", "predictive"])
    def test_same_draw_axis_checks(self, kind):
        """Both containers name a non-finite value's draw row and observation,
        refuse a single draw, and keep read-only chain labels."""
        def make(array, draw_chain):
            if kind == "loglik":
                return LogLikSamples(values=array, draw_chain=draw_chain, obs_ids="ab")
            return PredictiveDraws(family="poisson", params=array,
                                   draw_chain=draw_chain, obs_ids="ab")

        array = np.ones((3, 2) if kind == "loglik" else (3, 2, 1))
        array[2, 1] = np.nan
        with pytest.raises(NonFiniteValue, match="draw row 3, observation 'b'"):
            make(array, [0, 0, 1])
        with pytest.raises(DegenerateSample, match="at least 2 draws"):
            make(array[:1], [0])
        assert not make(array[:2], [0, 1]).draw_chain.flags.writeable


def two_draws(chains=(0, 1), ids="ab", n_obs=2):
    """Two draws of zeros with the given chain labels and ids."""
    return LogLikSamples(values=np.zeros((2, n_obs)), draw_chain=list(chains), obs_ids=ids)


def write_file(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def load_pred_header(tmp_path, header, family):
    pred = write_file(tmp_path, "pred.csv", f"{header}\n1,2\n3,4\n")
    meta = write_file(tmp_path, "meta.json", f'{{"chains": [0, 1], "families": "{family}"}}')
    return load_predictive(pred, meta)


CHECKED_INPUTS = {
    # the loaders check the label count first, so the containers' own check is
    # reached only from the library
    "chain_count": (lambda tmp: two_draws(chains=(0, 0, 1)), ChainMismatch,
                    "chain metadata has 3 entries but there are 2 draws"),
    "negative_chain": (lambda tmp: two_draws(chains=(0, -1)), ChainMismatch,
                       "non-negative integers"),
    "no_observation": (lambda tmp: two_draws(ids="", n_obs=0), DegenerateSample,
                       "at least 1 observation"),
    "unaligned_ids": (
        lambda tmp: check_aligned(two_draws(), PredictiveDraws(
            family="poisson", params=np.ones((2, 2, 1)), draw_chain=[0, 1], obs_ids="ba")),
        UnknownObsId, "do not match"),
    "empty_group_map": (lambda tmp: GroupMap({}), UncoveredObsId, "group map is empty"),
    "unknown_group_member": (
        lambda tmp: cross_conflict(two_draws(), GroupMap({"a": "g", "b": "g", "z": "g"})),
        UnknownObsId, "group map references unknown observations: ['z']"),
    "uncovered_observation": (
        lambda tmp: cross_conflict(two_draws(), GroupMap({"a": "g"})),
        UncoveredObsId, "group map does not cover observations: ['b']"),
    "empty_column_name": (
        lambda tmp: load_samples(write_file(tmp, "loglik.csv", "a,,b\n0,1,2\n3,4,5\n"),
                                 write_file(tmp, "meta.json", '{"chains": [0, 1]}')),
        MalformedCsv, "header contains an empty column name"),
    "metadata_not_object": (
        lambda tmp: load_samples(write_file(tmp, "loglik.csv", "a\n0\n1\n"),
                                 write_file(tmp, "meta.json", "[0, 1]")),
        ChainMismatch, "metadata must be an object with a 'chains' list"),
    "repeated_column": (lambda tmp: load_pred_header(tmp, "a.rate,a.rate", "poisson"),
                        DuplicateObsId, "repeated column 'a.rate'"),
    "missing_column": (lambda tmp: load_pred_header(tmp, "a.mean,b.mean", "normal"),
                       MalformedCsv, "observation 'a' is missing columns ['var']"),
    "group_map_not_object": (
        lambda tmp: load_group_map(write_file(tmp, "groups.json", '["a", "b"]')),
        UncoveredObsId, "group map must be a JSON object"),
}


@pytest.mark.parametrize("case", CHECKED_INPUTS)
def test_checked_input_raises_its_typed_error(tmp_path, case):
    build, error, fragment = CHECKED_INPUTS[case]
    with pytest.raises(error) as caught:
        build(tmp_path)
    assert fragment in str(caught.value)


def contain(kind, array):
    """The array a container keeps for ``array``: log-likelihood values or params."""
    if kind == "loglik":
        return LogLikSamples(values=array, draw_chain=[0, 0, 1, 1], obs_ids="ab").values
    return PredictiveDraws(
        family="poisson", params=array, draw_chain=[0, 0, 1, 1], obs_ids="ab"
    ).params


@pytest.mark.parametrize("kind", ["loglik", "predictive"])
class TestOwnership:
    """A container shares only an array that nothing can write to."""

    def fresh(self, kind):
        shape = (4, 2) if kind == "loglik" else (4, 2, 1)
        return np.random.default_rng(5).uniform(0.5, 2.0, shape)

    def test_writable_input_is_copied(self, kind):
        array = self.fresh(kind)
        kept = contain(kind, array)
        before = kept.copy()
        array[...] = 7.0
        np.testing.assert_array_equal(kept, before)
        assert not kept.flags.writeable

    def test_read_only_input_is_shared(self, kind):
        array = self.fresh(kind)
        array.setflags(write=False)
        assert np.shares_memory(contain(kind, array), array)

    def test_read_only_view_of_writable_base_is_copied(self, kind):
        base = self.fresh(kind)
        view = base[:]
        view.setflags(write=False)
        kept = contain(kind, view)
        assert not np.shares_memory(kept, base)
        base[...] = 7.0
        assert not np.any(kept == 7.0)

    @pytest.mark.parametrize("layout", ["fortran", "column_slice"])
    def test_read_only_strided_input_is_copied_in_c_order(self, kind, layout):
        """Only a C-contiguous array is shared: the folds' bits depend on the layout."""
        array = self.fresh(kind)
        # a read-only Fortran-ordered array, or half of a read-only one twice as wide
        base = np.asfortranarray(array) if layout == "fortran" else np.concatenate([array] * 2, 1)
        base.setflags(write=False)
        array = base[:, :2]
        kept = contain(kind, array)
        assert kept.flags.c_contiguous and not kept.flags.writeable
        assert not np.shares_memory(kept, array)
        np.testing.assert_array_equal(kept, array)

    def test_read_only_float32_is_converted(self, kind):
        array = self.fresh(kind).astype(np.float32)
        array.setflags(write=False)
        kept = contain(kind, array)
        assert kept.dtype == np.float64
        np.testing.assert_array_equal(kept, array)


def traced_peak(load):
    """``load()`` and the peak of traced memory while it ran."""
    tracemalloc.start()
    try:
        result = load()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def traced_load(directory, warm, load):
    """``traced_peak(load)``, after a first ``load()`` that saves a sidecar if ``warm``."""
    if warm:
        load()
        assert sidecars(directory)
    else:
        assert sidecars(directory) == []
    return traced_peak(load)


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
class TestLoaderMemory:
    """The loaders hand the parsed or saved table to the container: no gathered
    or kept copy. A warm load reads the table from the sidecar a first load left."""

    def test_load_samples_peak(self, tmp_path, warm):
        samples = LogLikSamples(
            values=np.random.default_rng(9).standard_normal((8000, 40)),
            draw_chain=np.repeat(np.arange(4), 2000),
            obs_ids=tuple(f"o{i}" for i in range(40)),
        )
        write_loglik_csv(samples, tmp_path / "loglik.csv")
        write_metadata_json(samples, tmp_path / "meta.json")
        loaded, peak = traced_load(
            tmp_path, warm,
            lambda: load_samples(tmp_path / "loglik.csv", tmp_path / "meta.json"),
        )
        np.testing.assert_array_equal(loaded.values, samples.values)
        assert peak <= 1.5 * loaded.values.nbytes

    def test_load_predictive_peak(self, tmp_path, random_predictive, warm):
        pred = random_predictive("normal", np.random.default_rng(10), 8000, 40)
        write_predictive_csv(pred, tmp_path / "pred.csv")
        write_metadata_json(pred, tmp_path / "meta.json")
        loaded, peak = traced_load(
            tmp_path, warm,
            lambda: load_predictive(tmp_path / "pred.csv", tmp_path / "meta.json"),
        )
        np.testing.assert_array_equal(loaded.params, pred.params)
        assert peak <= 1.5 * loaded.params.nbytes

    def test_load_known_variance_peak(self, tmp_path, random_predictive, warm):
        """The means are passed on as a view of the parsed (S, n) table."""
        pred = random_predictive("normal_known_var", np.random.default_rng(11), 8000, 40)
        write_predictive_csv(pred, tmp_path / "pred.csv")
        write_metadata_json(pred, tmp_path / "meta.json")
        loaded, peak = traced_load(
            tmp_path, warm,
            lambda: load_predictive(tmp_path / "pred.csv", tmp_path / "meta.json"),
        )
        np.testing.assert_array_equal(loaded.params, pred.params)
        np.testing.assert_array_equal(loaded.fixed, pred.fixed)
        assert peak <= 1.5 * loaded.params.nbytes


class TestPredictiveDraws:
    def test_family_from_metadata(self, tmp_path):
        pred_file, meta = write_corpus(
            tmp_path,
            "a.rate,b.rate\n1.0,2.0\n1.5,2.5\n",
            [0, 1],
            name="pred.csv",
            families="poisson",
        )
        pred = load_predictive(pred_file, meta)
        assert pred.family == "poisson"
        assert pred.obs_ids == ("a", "b")
        np.testing.assert_array_equal(pred.params[:, :, 0], [[1.0, 2.0], [1.5, 2.5]])

    def test_mixed_families_rejected(self, tmp_path):
        pred_file, meta = write_corpus(
            tmp_path,
            "a.rate,b.rate\n1.0,2.0\n1.5,2.5\n",
            [0, 1],
            name="pred.csv",
            families={"a": "poisson", "b": "gamma"},
        )
        with pytest.raises(FamilyMismatch, match="mixed"):
            load_predictive(pred_file, meta)

    def test_empty_families_object_names_no_family(self, tmp_path):
        """``"families": {}`` is a metadata file that names no family, not a
        mix of families."""
        pred_file, meta = write_corpus(
            tmp_path,
            "a.rate,b.rate\n1.0,2.0\n1.5,2.5\n",
            [0, 1],
            name="pred.csv",
            families={},
        )
        with pytest.raises(FamilyMismatch, match="names no predictive family"):
            load_predictive(pred_file, meta)

    @pytest.mark.parametrize("value", [1, ["poisson"]], ids=["number", "list"])
    def test_non_string_family_rejected(self, tmp_path, value):
        """A per-observation family that is not a string is a FamilyMismatch,
        not a TypeError from sorting or hashing it."""
        pred_file, meta = write_corpus(
            tmp_path,
            "a.rate,b.rate\n1.0,2.0\n1.5,2.5\n",
            [0, 1],
            name="pred.csv",
            families={"a": "poisson", "b": value},
        )
        with pytest.raises(FamilyMismatch, match="strings"):
            load_predictive(pred_file, meta)

    def test_no_family_anywhere(self, tmp_path):
        pred_file, meta = write_corpus(
            tmp_path, "a.rate\n1.0\n1.5\n", [0, 1], name="pred.csv"
        )
        with pytest.raises(FamilyMismatch):
            load_predictive(pred_file, meta)

    def test_binomial_needs_trials(self, tmp_path):
        pred_file, meta = write_corpus(
            tmp_path,
            "a.prob\n0.25\n0.75\n",
            [0, 1],
            name="pred.csv",
            families="binomial",
        )
        with pytest.raises(InvalidParameter, match="trials"):
            load_predictive(pred_file, meta)

    def test_binomial_with_trials(self, tmp_path):
        pred_file, meta = write_corpus(
            tmp_path,
            "a.prob\n0.25\n0.75\n",
            [0, 1],
            name="pred.csv",
            families="binomial",
            trials={"a": 5},
        )
        pred = load_predictive(pred_file, meta)
        np.testing.assert_array_equal(pred.fixed, [5])

    def test_probability_bounds(self):
        with pytest.raises(InvalidParameter, match="prob"):
            PredictiveDraws(
                family="binomial",
                params=np.array([[[0.5]], [[1.0]]]),
                draw_chain=[0, 1],
                obs_ids=("a",),
                fixed=[3],
            )

    @pytest.mark.parametrize(
        "var, error",
        [(0.0, InvalidParameter), (-1.0, InvalidParameter),
         (np.nan, NonFiniteValue), (np.inf, NonFiniteValue)],
        ids=["zero", "negative", "nan", "inf"],
    )
    def test_known_variance_domain(self, var, error):
        with pytest.raises(error, match="var"):
            PredictiveDraws(
                family="normal_known_var",
                params=np.zeros((2, 2, 1)),
                draw_chain=[0, 1],
                obs_ids=("a", "b"),
                fixed=[1.0, var],
            )

    def test_fixed_constant_shape_and_presence(self):
        means = np.zeros((2, 2, 1))
        with pytest.raises(InvalidParameter, match="var"):
            PredictiveDraws(family="normal_known_var", params=means,
                            draw_chain=[0, 1], obs_ids=("a", "b"))
        with pytest.raises(InvalidParameter, match="one 'var' per observation"):
            PredictiveDraws(family="normal_known_var", params=means,
                            draw_chain=[0, 1], obs_ids=("a", "b"), fixed=[1.0])
        with pytest.raises(InvalidParameter, match="constant"):
            PredictiveDraws(family="poisson", params=means + 1.0,
                            draw_chain=[0, 1], obs_ids=("a", "b"), fixed=[1.0, 1.0])
        # a (mean, var) pair per draw is the normal family's layout, not this one's
        with pytest.raises(InvalidParameter, match="shape"):
            PredictiveDraws(family="normal_known_var", params=np.ones((2, 2, 2)),
                            draw_chain=[0, 1], obs_ids=("a", "b"), fixed=[1.0, 1.0])

    def test_negative_variance(self):
        with pytest.raises(InvalidParameter, match="var"):
            PredictiveDraws(
                family="normal",
                params=np.array([[[0.0, 1.0]], [[0.0, -1.0]]]),
                draw_chain=[0, 1],
                obs_ids=("a",),
            )

    def test_bad_column_name(self, tmp_path):
        pred_file, meta = write_corpus(
            tmp_path, "a.mean,a.sd\n0,1\n0,1\n", [0, 1],
            name="pred.csv", families="normal",
        )
        with pytest.raises(MalformedCsv):
            load_predictive(pred_file, meta)

    def test_alignment_check(self):
        samples = LogLikSamples(
            values=[[0.0, 1.0], [1.0, 2.0]], draw_chain=[0, 1], obs_ids=("a", "b")
        )
        pred = PredictiveDraws(
            family="poisson",
            params=np.ones((2, 2, 1)),
            draw_chain=[0, 1],
            obs_ids=("a", "b"),
        )
        check_aligned(samples, pred)
        other = PredictiveDraws(
            family="poisson",
            params=np.ones((2, 2, 1)),
            draw_chain=[0, 0],
            obs_ids=("a", "b"),
        )
        with pytest.raises(ChainMismatch):
            check_aligned(samples, other)


class TestReplicateGroups:
    def test_two_chains(self):
        groups = replicate_groups(np.array([0, 0, 1, 1, 1]))
        assert [g.tolist() for g in groups] == [[0, 1], [2, 3, 4]]

    def test_single_chain_halves(self):
        groups = replicate_groups(np.array([7, 7, 7, 7]))
        assert [g.tolist() for g in groups] == [[0, 1], [2, 3]]

    def test_chains_in_order_of_first_appearance(self):
        chains = [3, 3, 1, 9, 1, 3]
        groups = replicate_groups(np.array(chains))
        assert [g.tolist() for g in groups] == [[0, 1, 5], [2, 4], [3]]
        samples = LogLikSamples(values=np.zeros((6, 1)), draw_chain=chains, obs_ids=("a",))
        labels = chain_order(samples.draw_chain).tolist()
        assert labels == [3, 1, 9]
        assert all(type(label) is int for label in labels)
