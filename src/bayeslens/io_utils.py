"""Small shared serialization helpers.

All text output is deterministic: floats are emitted with 17 significant
digits (full float64 round-trip precision) and JSON keys are sorted, so a
fixed seed yields byte-identical artifacts. JSON output is strict: a NaN or
infinite float is written as ``null``.
"""

from __future__ import annotations

import io
import json
import math
import os
from contextlib import contextmanager, suppress
from typing import Any

import numpy as np


def format_float(value: float) -> str:
    """Render a float with full round-trip precision."""
    return "%.17g" % value


def jsonable(obj: Any) -> Any:
    """Recursively convert numpy scalars/arrays to plain Python objects.

    A NaN or infinite float becomes ``None``, which JSON writes as ``null``.
    """
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        if not obj.dtype.hasobject and (obj.dtype.kind != "f" or np.isfinite(obj).all()):
            # tolist already yields Python scalars in nested lists
            return obj.tolist()
        return jsonable(obj.tolist())
    if isinstance(obj, (float, np.floating)):
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


class _DigestingReader(io.RawIOBase):
    """An unbuffered binary file that feeds each byte read from it to a hash object."""

    def __init__(self, file: io.FileIO, digest):
        super().__init__()
        self._file = file
        self._digest = digest

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        count = self._file.readinto(buffer)
        self._digest.update(memoryview(buffer)[:count])
        return count

    def close(self) -> None:
        self._file.close()
        super().close()


@contextmanager
def open_text(path: str | os.PathLike, error: type[Exception], digest=None):
    """Open an input file as UTF-8 text; a byte that does not decode raises ``error``.

    One leading byte-order mark is dropped. With ``digest`` (a ``hashlib``
    object), every byte read from the file, the mark included, is fed to it
    in order; ``handle.buffer`` reads on past what the text layer has read.
    """
    try:
        if digest is None:
            handle = open(path, "r", encoding="utf-8-sig", newline="")
        else:
            raw = _DigestingReader(open(path, "rb", buffering=0), digest)
            handle = io.TextIOWrapper(io.BufferedReader(raw), encoding="utf-8-sig", newline="")
        with handle:
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
def _replace_on_success(path: str | os.PathLike, mode: str = "w"):
    """Write through a temporary file beside ``path``, moved onto it only once complete.

    ``mode`` opens the temporary file: ``"w"`` as UTF-8 text, ``"xb"`` as
    binary, failing if it exists. On any failure after the temporary file
    was opened, it is removed and ``path`` is left as it was.
    """
    temporary = f"{os.fspath(path)}.{os.getpid()}.tmp"
    text = {} if "b" in mode else {"encoding": "utf-8", "newline": ""}
    handle = open(temporary, mode, **text)
    try:
        with handle:
            yield handle
        os.replace(temporary, path)
    except BaseException:
        with suppress(OSError):
            os.remove(temporary)
        raise


def dump_json(path: str | os.PathLike, payload: dict) -> None:
    """Write a strict JSON document with sorted keys and a trailing newline."""
    with _replace_on_success(path) as handle:
        json.dump(jsonable(payload), handle, indent=2, sort_keys=True, allow_nan=False)
        handle.write("\n")


def csv_text(text: str) -> str:
    """``text`` as one CSV cell, quoted by RFC 4180's minimal rule.

    Only text that holds a comma, a double quote, CR or LF is quoted, with
    each double quote doubled; any other text is returned as it is.
    """
    if any(mark in text for mark in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_csv_rows(path: str | os.PathLike, header, row_format: str, rows) -> None:
    """Write a comma-joined CSV: the header, then ``row_format % tuple(row)`` per row.

    ``row_format`` holds one ``%`` field per column, such as ``"%s,%.17g"``;
    ``%.17g`` writes a float exactly as :func:`format_float` does. Header
    names pass through :func:`csv_text`; a text cell of a row must have
    passed through it already.
    """
    line_format = row_format + "\n"
    with _replace_on_success(path) as handle:
        handle.write(",".join(map(csv_text, header)) + "\n")
        for row in rows:
            handle.write(line_format % tuple(row))


def save_array(path: str | os.PathLike, values: np.ndarray) -> None:
    """Write ``values`` as a ``.npy`` file, whose bytes depend only on the array.

    The temporary file is created exclusively: a second save of ``path`` from
    another thread of this process fails instead of writing into the first's.
    """
    with _replace_on_success(path, "xb") as handle:
        np.save(handle, values, allow_pickle=False)
