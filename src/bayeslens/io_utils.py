"""Small shared serialization helpers.

All text output is deterministic: floats are emitted with 17 significant
digits (full float64 round-trip precision) and JSON keys are sorted, so a
fixed seed yields byte-identical artifacts.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
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


def dump_json(path: str | os.PathLike, payload: dict) -> None:
    """Write a JSON document with sorted keys and a trailing newline."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(jsonable(payload), handle, indent=2, sort_keys=True)
        handle.write("\n")


def write_csv_rows(path: str | os.PathLike, header: list[str], rows) -> None:
    """Write rows of pre-formatted strings as a simple comma-joined CSV."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(row) + "\n")
