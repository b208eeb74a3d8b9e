"""Posterior-draw data model: ingestion, validation, chains, grouping.

The store is sampler-agnostic. Log-likelihood draws arrive as a decimal CSV
whose header row names the observations and whose subsequent rows each hold
one posterior draw; chain structure arrives in a companion JSON file.
Predictive-distribution draws use the same row order with columns named
``<obs_id>.<param>``. All containers are immutable after construction and
safe to share across threads: they keep a float64 array that nothing can
write to as it is, and copy any other input.
"""

from __future__ import annotations

import csv
import itertools
import math
import numbers
import os
import warnings
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
from .io_utils import dump_json, format_float, open_text, read_json, write_csv_rows


def _integer_array(values, error: type[DiagnosticsError], message: str) -> np.ndarray:
    """``values`` as an int array; ``error(message)`` unless each is a non-boolean integer."""
    # Types are checked before the int cast, which truncates 0.5 and True
    # and overflows beyond int64.
    if isinstance(values, np.ndarray):
        integral = values.dtype.kind in "iu"
    else:
        items = values if np.iterable(values) else [values]
        integral = all(
            isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in items
        )
    if integral:
        try:
            return np.array(values, dtype=int)
        except OverflowError:
            pass
    raise error(message)


def _chain_array(draw_chain, n_draws: int) -> np.ndarray:
    """Validated chain labels: one non-negative, non-boolean integer per draw."""
    # Single-draw chains are accepted here; operations that need two draws
    # per chain (stream pairing, replicate standard errors) enforce it.
    labels = _integer_array(
        draw_chain, ChainMismatch, "chain labels must be non-negative integers"
    )
    if labels.shape != (n_draws,):
        raise ChainMismatch(
            f"chain metadata has {labels.shape[0] if labels.ndim == 1 else '?'} "
            f"entries but there are {n_draws} draws"
        )
    if np.any(labels < 0):
        raise ChainMismatch("chain labels must be non-negative integers")
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
        n_draws, n_obs = values.shape
        if n_draws < 2:
            raise DegenerateSample(f"need at least 2 draws, got {n_draws}")
        if n_obs < 1:
            raise DegenerateSample("need at least 1 observation")
        if not np.all(np.isfinite(values)):
            row, col = np.argwhere(~np.isfinite(values))[0]
            ids = _validate_obs_ids(self.obs_ids)
            raise NonFiniteValue(
                f"non-finite value at draw row {row + 1}, column '{ids[col]}'"
            )
        obs_ids = _validate_obs_ids(self.obs_ids)
        if len(obs_ids) != n_obs:
            raise MalformedCsv(f"got {len(obs_ids)} obs ids for {n_obs} columns")
        draw_chain = _chain_array(self.draw_chain, n_draws)
        draw_chain.setflags(write=False)
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
    (whose ``params`` are the (S, n, 1) means), ``None`` otherwise.
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
        n_draws, n_obs, _ = params.shape
        if n_draws < 2:
            raise DegenerateSample(f"need at least 2 draws, got {n_draws}")
        if not np.all(np.isfinite(params)):
            raise NonFiniteValue("predictive parameters contain non-finite values")
        obs_ids = _validate_obs_ids(self.obs_ids)
        if len(obs_ids) != n_obs:
            raise MalformedCsv(f"got {len(obs_ids)} obs ids for {n_obs} columns")
        draw_chain = _chain_array(self.draw_chain, n_draws)
        fixed = self.fixed
        # a constant given to a family without one is refused by check_params
        if fixed is not None and spec.fixed is not None:
            if spec.fixed == "trials":
                fixed = _integer_array(fixed, InvalidParameter, "trial counts must be integers")
            else:
                fixed = _frozen_float_array(fixed)
            if fixed.shape != (n_obs,):
                raise InvalidParameter(
                    f"{self.family} needs one '{spec.fixed}' per observation"
                )
            if not np.all(np.isfinite(fixed)):
                raise NonFiniteValue(f"{self.family} '{spec.fixed}' is not finite")
            fixed.setflags(write=False)
        check_params(self.family, params, fixed)
        draw_chain.setflags(write=False)
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

    @property
    def labels(self) -> list[str]:
        """Group labels in first-appearance order of the assignment."""
        return list(dict.fromkeys(self.assignment.values()))

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

def _read_csv_table(path: str | os.PathLike) -> tuple[list[str], np.ndarray]:
    """Read a draws CSV: header row of column names, float data rows (read-only).

    The data rows go through numpy's C parser. Its result is kept only when
    it is one the validating parser would return as well; any other file is
    read again by ``_read_csv_table_checked``, which is the only source of
    error messages.
    """
    with open_text(path, MalformedCsv) as handle:
        header = [cell.strip() for cell in next(csv.reader(handle), [])]
        if header and all(header):
            try:
                # loadtxt warns on a file without data rows, which the checked
                # parser reports as an error. comments=None: a row starting
                # with '#' is malformed, not a comment.
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)
                    values = np.loadtxt(
                        handle, delimiter=",", comments=None, ndmin=2, dtype=float
                    )
            except ValueError:
                pass
            else:
                if (
                    values.shape[0] >= 1
                    and values.shape[1] == len(header)
                    and np.isfinite(values).all()
                ):
                    values.setflags(write=False)
                    return header, values
    header, values = _read_csv_table_checked(path)
    values.setflags(write=False)
    return header, values


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
    with one label per draw.
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
    if isinstance(tag, dict):
        distinct = sorted(set(tag.values()))
        if len(distinct) != 1:
            raise FamilyMismatch(f"mixed per-observation families: {distinct}")
        return distinct[0]
    raise FamilyMismatch("metadata 'families' must be a string or an object")


# Binomial trial counts are the one per-observation constant read from the
# metadata JSON; a family's other constant (the known variance) is a CSV
# column beside its per-draw parameters.
_METADATA_CONSTANT = "trials"


def _csv_params(family: str) -> tuple[str, ...]:
    """The ``<param>`` names of a family's predictive CSV columns, in order."""
    spec = FAMILIES[family]
    if spec.fixed in (None, _METADATA_CONSTANT):
        return spec.params
    return spec.params + (spec.fixed,)


def _constant_down_draws(family: str, name: str, column: np.ndarray) -> np.ndarray:
    """The first draw's row of an (S, n) column that must not vary across draws.

    Raises InvalidParameter unless every draw is within a relative 1e-9 of
    the first, checked through two reductions, not draw-sized temporaries.
    """
    first = column[0]
    spread = np.maximum(column.max(axis=0) - first, first - column.min(axis=0))
    if np.any(spread > 1e-9 * np.abs(first)):
        raise InvalidParameter(
            f"{family} '{name}' must be the same in every draw of an observation"
        )
    return first


def load_predictive(
    pred_file: str | os.PathLike,
    metadata_file: str | os.PathLike,
    family: str | None = None,
) -> PredictiveDraws:
    """Load predictive-parameter draws from a ``<obs_id>.<param>`` CSV.

    The family comes from the ``family`` argument or from the metadata
    ``families`` entry; binomial trial counts come from the metadata
    ``trials`` object. A ``normal_known_var`` variance is read from the
    ``<obs_id>.var`` columns, which must hold the same value in every draw
    (to a relative 1e-9); the first draw's value is kept.
    """
    header, table = _read_csv_table(pred_file)
    meta = _read_metadata(metadata_file, table.shape[0])
    family = _resolve_family(meta, family)
    spec = lookup(family, FamilyMismatch)
    param_names = _csv_params(family)

    # observation -> {param: column index}, observations in first-appearance order
    columns: dict[str, dict[str, int]] = {}
    for idx, name in enumerate(header):
        obs, sep, param = name.rpartition(".")
        if not sep or param not in param_names or not obs:
            raise MalformedCsv(
                f"{pred_file}: column '{name}' is not of the form "
                f"<obs_id>.<param> with param in {param_names}"
            )
        found = columns.setdefault(obs, {})
        if param in found:
            raise DuplicateObsId(f"{pred_file}: repeated column '{name}'")
        found[param] = idx
    for obs, found in columns.items():
        missing = [p for p in param_names if p not in found]
        if missing:
            raise MalformedCsv(
                f"{pred_file}: observation '{obs}' is missing columns {missing}"
            )
    order = tuple(columns)

    idx = [found[param] for found in columns.values() for param in param_names]
    if idx != list(range(len(header))):
        # ``take`` gives a C-ordered copy, which the reshape below only views
        table = table.take(idx, axis=1)
        table.setflags(write=False)
    params = table.reshape(table.shape[0], len(order), len(param_names))

    fixed = None
    if len(param_names) > len(spec.params):
        # the constant's columns stay in the table; the params view skips them
        fixed = _constant_down_draws(family, spec.fixed, params[:, :, -1])
        params = params[:, :, :-1]
    elif spec.fixed is not None:
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


def _write_draws_csv(
    path: str | os.PathLike, header, table: np.ndarray, row_format: str | None = None
) -> None:
    # One format per row over Python floats (``tolist``) writes the bytes of
    # io_utils.format_float on each cell, in less time than per-cell calls.
    # Converting a block of rows at a time bounds the Python floats alive.
    blocks = (
        table[start:start + _WRITE_BLOCK_ROWS].tolist()
        for start in range(0, table.shape[0], _WRITE_BLOCK_ROWS)
    )
    if row_format is None:
        row_format = ",".join(["%.17g"] * table.shape[1])
    write_csv_rows(path, header, row_format, itertools.chain.from_iterable(blocks))


def write_metadata_json(
    samples: LogLikSamples | PredictiveDraws,
    path: str | os.PathLike,
) -> None:
    meta: dict = {"chains": samples.draw_chain.tolist()}
    if isinstance(samples, PredictiveDraws):
        meta["families"] = samples.family
        if FAMILIES[samples.family].fixed == _METADATA_CONSTANT:
            meta[_METADATA_CONSTANT] = {
                obs: int(m) for obs, m in zip(samples.obs_ids, samples.fixed)
            }
    dump_json(path, meta)


def write_predictive_csv(pred: PredictiveDraws, path: str | os.PathLike) -> None:
    """Emit predictive draws as ``<obs_id>.<param>`` columns, a known variance
    repeated in every draw."""
    names = _csv_params(pred.family)
    header = [f"{obs}.{param}" for obs in pred.obs_ids for param in names]
    per_draw = ["%.17g"] * pred.params.shape[2]
    row_format = None
    if len(names) > len(per_draw):
        # the constant's text is the same in every row, so it is part of the
        # row format and only the per-draw values are converted
        row_format = ",".join(
            ",".join([*per_draw, format_float(value)]) for value in pred.fixed.tolist()
        )
    _write_draws_csv(path, header, pred.params.reshape(pred.n_draws, -1), row_format)


def load_group_map(path: str | os.PathLike) -> GroupMap:
    """Load a group map from a JSON object of ``{obs_id: group_label}``."""
    raw = read_json(path, UncoveredObsId, "group map")
    if not isinstance(raw, dict):
        raise UncoveredObsId(f"{path}: group map must be a JSON object")
    return GroupMap(raw)
