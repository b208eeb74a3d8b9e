"""Posterior-draw data model: ingestion, validation, chains, grouping.

The store is sampler-agnostic. Log-likelihood draws arrive as a decimal CSV
whose header row names the observations and whose subsequent rows each hold
one posterior draw; chain structure arrives in a companion JSON file.
Predictive-distribution draws use the same row order with columns named
``<obs_id>.<param>``, one per per-draw parameter; a family's per-observation
constant (binomial trials, a known variance) sits once in the JSON. All
containers are immutable after construction and safe to share across
threads: they keep a float64 array that nothing can write to as it is, and
copy any other input.
"""

from __future__ import annotations

import csv
import itertools
import math
import numbers
import os
import re
import warnings
from contextlib import suppress
from dataclasses import dataclass, field

import numpy as np

from .errors import (
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
from .families import FAMILIES, check_params, lookup
from .io_utils import dump_json, open_text, read_json, save_array, write_csv_rows


def _number_array(values, kind: type, error: type[DiagnosticsError], message: str):
    """``values`` as an array of ``kind`` (``int`` or ``float``); ``error(message)``
    unless each is a non-boolean number of that kind, where an int is also a float."""
    # Types are checked before the cast, which would truncate 0.5 to an int,
    # read True and "1.5" as numbers, and overflow beyond int64.
    # The exact built-in types go first: the ABC test is slow per item.
    kinds, exact, scalar = {
        int: ("iu", (int,), numbers.Integral),
        float: ("iuf", (int, float), numbers.Real),
    }[kind]
    if isinstance(values, np.ndarray):
        typed = values.dtype.kind in kinds
    else:
        items = values if np.iterable(values) else [values]
        typed = all(
            type(v) in exact or (isinstance(v, scalar) and not isinstance(v, bool))
            for v in items
        )
    if typed:
        try:
            return np.array(values, dtype=int) if kind is int else _frozen_float_array(values)
        except OverflowError:
            pass
    raise error(message)


def _chain_array(draw_chain, n_draws: int) -> np.ndarray:
    """Validated chain labels: one non-negative, non-boolean integer per draw."""
    # Single-draw chains are accepted here; operations that need two draws
    # per chain (stream pairing, replicate standard errors) enforce it.
    labels = _number_array(
        draw_chain, int, ChainMismatch, "chain labels must be non-negative integers"
    )
    if labels.shape != (n_draws,):
        raise ChainMismatch(
            f"chain metadata has {labels.shape[0] if labels.ndim == 1 else '?'} "
            f"entries but there are {n_draws} draws"
        )
    if np.any(labels < 0):
        raise ChainMismatch("chain labels must be non-negative integers")
    labels.setflags(write=False)
    return labels


def _frozen_float_array(values) -> np.ndarray:
    """``values`` as a read-only float64 array, shared when nothing can write to it.

    A read-only float64 ndarray whose bases are read-only arrays too is kept
    without a copy; any other input is copied, so the caller's array can
    change afterwards without changing the container.
    """
    if type(values) is np.ndarray and values.dtype == np.float64:
        base = values
        while isinstance(base, np.ndarray) and not base.flags.writeable:
            base = base.base
        # a writable array, or a foreign buffer (bytes, mmap), ends the walk
        if base is None:
            return values
    values = np.array(values, dtype=float)
    values.setflags(write=False)
    return values


def _validate_obs_ids(obs_ids) -> tuple[str, ...]:
    ids = tuple(str(i) for i in obs_ids)
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise DuplicateObsId(f"duplicate observation ids: {dupes}")
    return ids


def _check_draw_axes(values: np.ndarray, obs_ids, draw_chain):
    """The checks both draw containers make on an array with draws on axis 0
    and observations on axis 1: at least 2 draws and 1 observation, one id
    per observation, finite values and one chain label per draw. Returns the
    ids and the read-only chain labels."""
    n_draws, n_obs = values.shape[:2]
    if n_draws < 2:
        raise DegenerateSample(f"need at least 2 draws, got {n_draws}")
    if n_obs < 1:
        raise DegenerateSample("need at least 1 observation")
    ids = _validate_obs_ids(obs_ids)
    if len(ids) != n_obs:
        raise MalformedCsv(f"got {len(ids)} obs ids for {n_obs} columns")
    if not np.all(np.isfinite(values)):
        row, col = np.argwhere(~np.isfinite(values))[0][:2]
        raise NonFiniteValue(
            f"non-finite value at draw row {row + 1}, observation '{ids[col]}'"
        )
    return ids, _chain_array(draw_chain, n_draws)


@dataclass(frozen=True)
class LogLikSamples:
    """S x n matrix of per-draw, per-observation log-likelihood values (nats)."""

    values: np.ndarray
    draw_chain: np.ndarray
    obs_ids: tuple[str, ...]

    def __post_init__(self):
        values = _frozen_float_array(self.values)
        if values.ndim != 2:
            raise InvalidParameter("values must be a 2-d (draws x observations) array")
        obs_ids, draw_chain = _check_draw_axes(values, self.obs_ids, self.draw_chain)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "draw_chain", draw_chain)
        object.__setattr__(self, "obs_ids", obs_ids)

    @property
    def n_draws(self) -> int:
        return self.values.shape[0]

    @property
    def n_obs(self) -> int:
        return self.values.shape[1]

    @property
    def chain_labels(self) -> list[int]:
        """Chain labels in order of first appearance."""
        return chain_order(self.draw_chain).tolist()


def chain_order(draw_chain: np.ndarray) -> np.ndarray:
    """The distinct chain labels in order of first appearance."""
    labels, first = np.unique(draw_chain, return_index=True)
    return labels[np.argsort(first)]


def replicate_groups(draw_chain: np.ndarray) -> list[np.ndarray]:
    """Row-index groups used for replicate-based Monte Carlo standard errors.

    One group per chain when there are two or more chains; otherwise the
    draws are split in half. Each group's indices ascend.
    """
    draw_chain = np.asarray(draw_chain)
    labels = chain_order(draw_chain)
    if labels.size >= 2:
        return [np.flatnonzero(draw_chain == label) for label in labels]
    half = draw_chain.shape[0] // 2
    rows = np.arange(draw_chain.shape[0])
    return [rows[:half], rows[half:]]


@dataclass(frozen=True)
class PredictiveDraws:
    """Per-draw, per-observation predictive-distribution parameters.

    ``params`` has shape (S, n, k) with the parameter order of
    ``FAMILIES[family].params``. A family's per-observation constant is
    stored once per observation in ``fixed``, shape (n,): integer trial
    counts for binomial, the known variance for ``normal_known_var``
    (whose ``params`` are the (S, n, 1) means), ``None`` otherwise. The
    files keep the same split: the predictive CSV holds ``params`` and the
    metadata JSON holds ``fixed`` as ``{"trials" or "var": {obs_id: value}}``.
    """

    family: str
    params: np.ndarray
    draw_chain: np.ndarray
    obs_ids: tuple[str, ...]
    fixed: np.ndarray | None = None

    def __post_init__(self):
        spec = lookup(self.family, FamilyMismatch)
        params = _frozen_float_array(self.params)
        if params.ndim != 3 or params.shape[2] != len(spec.params):
            raise InvalidParameter(
                f"params must have shape (draws, observations, "
                f"{len(spec.params)}) for family '{self.family}'"
            )
        obs_ids, draw_chain = _check_draw_axes(params, self.obs_ids, self.draw_chain)
        fixed = self.fixed
        # a constant given to a family without one is refused by check_params
        if fixed is not None and spec.fixed is not None:
            kind, what = (int, "integers") if spec.fixed == "trials" else (float, "numbers")
            fixed = _number_array(
                fixed, kind, InvalidParameter, f"{self.family} '{spec.fixed}' must be {what}"
            )
            if fixed.shape != (len(obs_ids),):
                raise InvalidParameter(
                    f"{self.family} needs one '{spec.fixed}' per observation"
                )
            if not np.all(np.isfinite(fixed)):
                raise NonFiniteValue(f"{self.family} '{spec.fixed}' is not finite")
            fixed.setflags(write=False)
        check_params(self.family, params, fixed)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "draw_chain", draw_chain)
        object.__setattr__(self, "obs_ids", obs_ids)
        object.__setattr__(self, "fixed", fixed)

    @property
    def n_draws(self) -> int:
        return self.params.shape[0]

    @property
    def n_obs(self) -> int:
        return self.params.shape[1]


def check_aligned(samples: LogLikSamples, pred: PredictiveDraws) -> None:
    """Require a predictive-draw set to line up with its companion samples."""
    if pred.obs_ids != samples.obs_ids:
        raise UnknownObsId(
            "predictive observation ids do not match the log-likelihood samples"
        )
    if pred.n_draws != samples.n_draws or not np.array_equal(
        pred.draw_chain, samples.draw_chain
    ):
        raise ChainMismatch(
            "predictive draws and log-likelihood samples have different "
            "draw counts or chain labels"
        )


@dataclass(frozen=True)
class GroupMap:
    """Partition of observations into named groups (e.g. days, hospitals)."""

    assignment: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if not self.assignment:
            raise UncoveredObsId("group map is empty")
        # a label is a string or a number; str() would make null, true or a
        # list into groups named "None", "True" or "[1, 2]"
        unlabelled = sorted(
            str(obs)
            for obs, label in self.assignment.items()
            if not isinstance(label, (str, numbers.Real)) or isinstance(label, bool)
        )
        if unlabelled:
            raise UncoveredObsId(
                f"group labels must be strings or numbers; not for {unlabelled}"
            )
        object.__setattr__(
            self, "assignment", {str(k): str(v) for k, v in self.assignment.items()}
        )

    @classmethod
    def identity(cls, obs_ids) -> "GroupMap":
        return cls({str(i): str(i) for i in obs_ids})

    @classmethod
    def single_group(cls, obs_ids, label: str = "all") -> "GroupMap":
        return cls({str(i): label for i in obs_ids})


def group_members(data, groups: GroupMap) -> dict[str, list[int]]:
    """Column indices per group, groups ordered by first appearance in the data.

    ``data`` is anything with an ``obs_ids`` sequence (samples, hat-values).
    Raises UnknownObsId for map entries that are not in the data and
    UncoveredObsId for columns the map misses.
    """
    known = set(data.obs_ids)
    unknown = sorted(set(groups.assignment) - known)
    if unknown:
        raise UnknownObsId(f"group map references unknown observations: {unknown}")
    uncovered = sorted(known - set(groups.assignment))
    if uncovered:
        raise UncoveredObsId(f"group map does not cover observations: {uncovered}")
    members: dict[str, list[int]] = {}
    for col, obs in enumerate(data.obs_ids):
        members.setdefault(groups.assignment[obs], []).append(col)
    return members


def aggregate(samples: LogLikSamples, groups: GroupMap) -> LogLikSamples:
    """Sum log-likelihood columns within each group.

    Group labels become the new observation ids; chain labels are preserved.
    """
    members = group_members(samples, groups)
    columns = [
        samples.values[:, idx].sum(axis=1) for idx in members.values()
    ]
    values = np.column_stack(columns)
    values.setflags(write=False)
    return LogLikSamples(
        values=values,
        draw_chain=samples.draw_chain,
        obs_ids=tuple(members),
    )


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

# Bytes per read when a file is only hashed, not decoded.
_HASH_BLOCK_BYTES = 1 << 16


def _header_row(handle) -> list[str]:
    return [cell.strip() for cell in next(csv.reader(handle), [])]


def _hash_rest(handle) -> None:
    """Read ``handle``'s file to its end below the text layer, so its digest is complete."""
    while handle.buffer.read(_HASH_BLOCK_BYTES):
        pass


def _read_csv_table(path: str | os.PathLike) -> tuple[list[str], np.ndarray]:
    """Read a draws CSV: header row of column names, float data rows (read-only).

    The data rows go through numpy's C parser. Its result is kept only when
    it is one the validating parser would return as well; any other file is
    read again by ``_read_csv_table_checked``, which is the only source of
    error messages.

    A regular file's table is also saved beside it as the sidecar
    ``<path>.<SHA-256 of the file's bytes>.npy``, and a later read of the
    same bytes loads the sidecar in place of parsing the text. The file is
    hashed in the pass that reads its header and again while it is parsed;
    the sidecar is saved only when both digests agree, so it never holds a
    table parsed from other bytes than its name says. Once it is saved, the
    sidecars of earlier contents of the file are removed. Saving and removing
    are best effort: an OSError leaves no sidecar or keeps an old one.
    """
    # hashlib loads OpenSSL on first use: commands that read no CSV never need it
    import hashlib
    sidecar = None
    if os.path.isfile(path):
        lookup = hashlib.sha256()
        with open_text(path, MalformedCsv, lookup) as handle:
            header = _header_row(handle)
            _hash_rest(handle)
        sidecar = f"{os.fspath(path)}.{lookup.hexdigest()}.npy"
        values = _load_sidecar(sidecar, len(header)) if header and all(header) else None
        if values is not None:
            return header, values
    parsed = hashlib.sha256()
    with open_text(path, MalformedCsv, parsed) as handle:
        header = _header_row(handle)
        values = _parse_rows(handle, len(header)) if header and all(header) else None
        if values is not None:
            _hash_rest(handle)
    if values is None:
        header, values = _read_csv_table_checked(path)
    elif sidecar == f"{os.fspath(path)}.{parsed.hexdigest()}.npy":
        # the digest of the very bytes parsed names the sidecar, or none is saved
        with suppress(OSError):
            save_array(sidecar, values)
            _remove_stale_sidecars(path, sidecar)
    values.setflags(write=False)
    return header, values


def _remove_stale_sidecars(path: str | os.PathLike, keep: str) -> None:
    """Remove the sidecars beside ``path``, files named ``<basename>.<64
    lowercase hex>.npy``, other than ``keep``."""
    directory, base = os.path.split(os.fspath(path))
    stale = re.compile(re.escape(base) + r"\.[0-9a-f]{64}\.npy")
    for name in os.listdir(directory or "."):
        if stale.fullmatch(name) and name != os.path.basename(keep):
            with suppress(OSError):
                os.remove(os.path.join(directory, name))


def _parse_rows(handle, n_cols: int) -> np.ndarray | None:
    """numpy's parse of the rows after the header, or None unless the checked
    parser would return the same table: at least one row of ``n_cols``
    finite values."""
    try:
        # loadtxt warns on a file without data rows, which the checked
        # parser reports as an error. comments=None: a row starting
        # with '#' is malformed, not a comment.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            values = np.loadtxt(handle, delimiter=",", comments=None, ndmin=2, dtype=float)
    except ValueError:
        return None
    if values.shape[0] >= 1 and values.shape[1] == n_cols and np.isfinite(values).all():
        return values
    return None


def _load_sidecar(path: str, n_cols: int) -> np.ndarray | None:
    """The read-only table saved in ``path``, or None unless it is a valid one.

    Valid is what ``np.save`` writes for a parsed table: a version 1.0
    ``.npy`` header for a C-order ``<f8`` array of ``n_cols`` columns and at
    least one row, followed by exactly that many bytes, every value finite.
    The header is checked before any data is read, so no object array is
    unpickled and nothing larger than the file is allocated.
    """
    try:
        with open(path, "rb") as handle:
            if np.lib.format.read_magic(handle) != (1, 0):
                return None
            shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(handle)
            if (
                dtype != np.dtype("<f8")
                or fortran_order
                or len(shape) != 2
                or shape[0] < 1
                or shape[1] != n_cols
            ):
                return None
            count = shape[0] * shape[1]
            if os.fstat(handle.fileno()).st_size != handle.tell() + count * dtype.itemsize:
                return None
            values = np.fromfile(handle, dtype=dtype, count=count)
    except (OSError, ValueError):
        return None
    # the size check also covers a file that shrank after fstat
    if values.size != count or not np.isfinite(values).all():
        return None
    # read-only before the reshape, so no writable base is left under the view
    values.setflags(write=False)
    return values.reshape(shape)


def _read_csv_table_checked(path: str | os.PathLike) -> tuple[list[str], np.ndarray]:
    """Parse a draws CSV cell by cell, naming the row, column and cell of an error."""
    with open_text(path, MalformedCsv) as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise MalformedCsv(f"{path}: file is empty") from None
        header = [cell.strip() for cell in header]
        if any(not cell for cell in header):
            raise MalformedCsv(f"{path}: header contains an empty column name")
        n_cols = len(header)
        rows: list[list[float]] = []
        for row_num, cells in enumerate(reader, start=1):
            if not cells:
                continue
            if len(cells) != n_cols:
                raise MalformedCsv(
                    f"{path}: data row {row_num} has {len(cells)} cells, expected {n_cols}"
                )
            parsed = []
            for col, cell in enumerate(cells):
                try:
                    value = float(cell)
                except ValueError:
                    raise MalformedCsv(
                        f"{path}: non-numeric cell at data row {row_num}, "
                        f"column '{header[col]}': {cell.strip()!r}"
                    ) from None
                if not math.isfinite(value):
                    raise NonFiniteValue(
                        f"{path}: non-finite value at data row {row_num}, "
                        f"column '{header[col]}': {cell.strip()!r}"
                    )
                parsed.append(value)
            rows.append(parsed)
    if not rows:
        raise MalformedCsv(f"{path}: no data rows")
    return header, np.array(rows, dtype=float)


def _read_metadata(path: str | os.PathLike, n_rows: int) -> dict:
    if not os.path.exists(path):
        raise ChainMismatch(f"metadata file not found: {path}")
    meta = read_json(path, ChainMismatch, "metadata")
    if not isinstance(meta, dict) or "chains" not in meta:
        raise ChainMismatch(f"{path}: metadata must be an object with a 'chains' list")
    chains = meta["chains"]
    if not isinstance(chains, list) or len(chains) != n_rows:
        raise ChainMismatch(
            f"{path}: metadata lists {len(chains) if isinstance(chains, list) else '?'} "
            f"chain labels but the CSV has {n_rows} draws"
        )
    return meta


def load_samples(loglik_file: str | os.PathLike, metadata_file: str | os.PathLike) -> LogLikSamples:
    """Load log-likelihood draws from a CSV plus its chain-metadata JSON.

    The CSV header row gives observation ids; each subsequent row is one
    posterior draw. The metadata JSON must contain ``{"chains": [...]}``
    with one label per draw. The parsed table may be saved beside the CSV as
    a ``.npy`` sidecar that later loads of the same bytes read instead.
    """
    obs_ids, values = _read_csv_table(loglik_file)
    meta = _read_metadata(metadata_file, values.shape[0])
    return LogLikSamples(values=values, draw_chain=meta["chains"], obs_ids=tuple(obs_ids))


def _resolve_family(meta: dict, family: str | None) -> str:
    if family is not None:
        return family
    tag = meta.get("families")
    if tag is None:
        raise FamilyMismatch("no predictive family given and none in metadata")
    if isinstance(tag, str):
        return tag
    if isinstance(tag, dict) and all(isinstance(value, str) for value in tag.values()):
        distinct = sorted(set(tag.values()))
        if len(distinct) != 1:
            raise FamilyMismatch(f"mixed per-observation families: {distinct}")
        return distinct[0]
    raise FamilyMismatch("metadata 'families' must be a string or an object of strings")


# The names of the per-observation constants, which the metadata JSON holds
# and a predictive CSV never does.
_CONSTANTS = ", ".join(sorted({spec.fixed for spec in FAMILIES.values() if spec.fixed}))


def load_predictive(
    pred_file: str | os.PathLike,
    metadata_file: str | os.PathLike,
    family: str | None = None,
) -> PredictiveDraws:
    """Load predictive-parameter draws from a ``<obs_id>.<param>`` CSV.

    The columns are the family's per-draw parameters, ``FAMILIES[family].params``.
    The family comes from the ``family`` argument or from the metadata
    ``families`` entry. A family's per-observation constant comes from the
    metadata object named after it, one JSON number per observation: the
    binomial ``trials`` and the ``normal_known_var`` ``var``. The parsed table
    may be saved beside the CSV as a ``.npy`` sidecar, as in ``load_samples``.
    """
    header, table = _read_csv_table(pred_file)
    meta = _read_metadata(metadata_file, table.shape[0])
    family = _resolve_family(meta, family)
    spec = lookup(family, FamilyMismatch)

    # observation -> {param: column index}, observations in first-appearance order
    columns: dict[str, dict[str, int]] = {}
    for idx, name in enumerate(header):
        obs, sep, param = name.rpartition(".")
        if not sep or param not in spec.params or not obs:
            raise MalformedCsv(
                f"{pred_file}: column '{name}' is not of the form "
                f"<obs_id>.<param> with param in {spec.params}; a per-observation "
                f"constant ({_CONSTANTS}) belongs in the metadata JSON"
            )
        found = columns.setdefault(obs, {})
        if param in found:
            raise DuplicateObsId(f"{pred_file}: repeated column '{name}'")
        found[param] = idx
    for obs, found in columns.items():
        missing = [p for p in spec.params if p not in found]
        if missing:
            raise MalformedCsv(
                f"{pred_file}: observation '{obs}' is missing columns {missing}"
            )
    order = tuple(columns)

    idx = [found[param] for found in columns.values() for param in spec.params]
    if idx != list(range(len(header))):
        # ``take`` gives a C-ordered copy, which the reshape below only views
        table = table.take(idx, axis=1)
        table.setflags(write=False)
    params = table.reshape(table.shape[0], len(order), len(spec.params))

    fixed = None
    if spec.fixed is not None:
        raw = meta.get(spec.fixed)
        if not isinstance(raw, dict):
            raise InvalidParameter(
                f"{family} predictive draws need a metadata '{spec.fixed}' object"
            )
        missing = [obs for obs in order if obs not in raw]
        if missing:
            raise InvalidParameter(
                f"metadata '{spec.fixed}' misses observations: {missing}"
            )
        fixed = [raw[obs] for obs in order]

    return PredictiveDraws(
        family=family,
        params=params,
        draw_chain=meta["chains"],
        obs_ids=order,
        fixed=fixed,
    )


def write_loglik_csv(samples: LogLikSamples, path: str | os.PathLike) -> None:
    """Emit draws as decimal CSV with full round-trip precision."""
    _write_draws_csv(path, samples.obs_ids, samples.values)


_WRITE_BLOCK_ROWS = 1024


def _write_draws_csv(path: str | os.PathLike, header, table: np.ndarray) -> None:
    # One format per row over Python floats (``tolist``) writes the bytes of
    # io_utils.format_float on each cell, in less time than per-cell calls.
    # Converting a block of rows at a time bounds the Python floats alive.
    blocks = (
        table[start:start + _WRITE_BLOCK_ROWS].tolist()
        for start in range(0, table.shape[0], _WRITE_BLOCK_ROWS)
    )
    row_format = ",".join(["%.17g"] * table.shape[1])
    write_csv_rows(path, header, row_format, itertools.chain.from_iterable(blocks))


def write_metadata_json(
    samples: LogLikSamples | PredictiveDraws,
    path: str | os.PathLike,
) -> None:
    """Emit the chain labels; for predictive draws also the family and, when it
    has one, its per-observation constant as ``{obs_id: value}``."""
    meta: dict = {"chains": samples.draw_chain.tolist()}
    if isinstance(samples, PredictiveDraws):
        meta["families"] = samples.family
        if samples.fixed is not None:
            meta[FAMILIES[samples.family].fixed] = dict(
                zip(samples.obs_ids, samples.fixed.tolist())
            )
    dump_json(path, meta)


def write_predictive_csv(pred: PredictiveDraws, path: str | os.PathLike) -> None:
    """Emit predictive draws as ``<obs_id>.<param>`` columns of the per-draw
    parameters; ``write_metadata_json`` writes the per-observation constant."""
    names = FAMILIES[pred.family].params
    header = [f"{obs}.{param}" for obs in pred.obs_ids for param in names]
    _write_draws_csv(path, header, pred.params.reshape(pred.n_draws, -1))


def load_group_map(path: str | os.PathLike) -> GroupMap:
    """Load a group map from a JSON object of ``{obs_id: group_label}``."""
    raw = read_json(path, UncoveredObsId, "group map")
    if not isinstance(raw, dict):
        raise UncoveredObsId(f"{path}: group map must be a JSON object")
    return GroupMap(raw)
