"""Small shared serialization helpers.

All text output is deterministic: floats are emitted with 17 significant
digits (full float64 round-trip precision) and JSON keys are sorted, so a
fixed seed yields byte-identical artifacts.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager, suppress
from typing import Any

import numpy as np


def format_float(value: float) -> str:
    """Render a float with full round-trip precision."""
    return "%.17g" % value


def jsonable(obj: Any) -> Any:
    """Recursively convert numpy scalars/arrays to plain Python objects."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        if not obj.dtype.hasobject:
            # tolist already yields Python scalars in nested lists
            return obj.tolist()
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


@contextmanager
def open_text(path: str | os.PathLike, error: type[Exception]):
    """Open an input file as UTF-8 text; a byte that does not decode raises ``error``."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            yield handle
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason})") from None


def read_json(path: str | os.PathLike, error: type[Exception], what: str) -> Any:
    """Parse a UTF-8 JSON input file; undecodable bytes or invalid JSON raise ``error``."""
    with open_text(path, error) as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as exc:
            raise error(f"{path}: invalid {what} JSON ({exc})") from None


@contextmanager
def _replace_on_success(path: str | os.PathLike):
    """Write through a temporary file beside ``path``, moved onto it only once complete.

    On any failure the temporary file is removed and ``path`` is left as it was.
    """
    temporary = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(temporary, "w", encoding="utf-8", newline="") as handle:
            yield handle
        os.replace(temporary, path)
    except BaseException:
        with suppress(OSError):
            os.remove(temporary)
        raise


def dump_json(path: str | os.PathLike, payload: dict) -> None:
    """Write a JSON document with sorted keys and a trailing newline."""
    with _replace_on_success(path) as handle:
        json.dump(jsonable(payload), handle, indent=2, sort_keys=True)
        handle.write("\n")


def write_csv_rows(path: str | os.PathLike, header, row_format: str, rows) -> None:
    """Write a comma-joined CSV: the header, then ``row_format % tuple(row)`` per row.

    ``row_format`` holds one ``%`` field per column, such as ``"%s,%.17g"``;
    ``%.17g`` writes a float exactly as :func:`format_float` does.
    """
    line_format = row_format + "\n"
    with _replace_on_success(path) as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(line_format % tuple(row))
