"""In-memory span recorder for the traced benchmark run.

A span is one call across a layer boundary: its name (``<module>.<function>``
with the ``bayeslens.`` prefix dropped), start and end on the system-wide
monotonic clock, the index of the span that was open when it started, the
benchmark operation it belongs to, and counts of the work it did. Spans stay
in memory and are written out once, when the process is done.

``Tracer.install`` replaces every binding of a traced public function in the
loaded ``bayeslens`` modules with a recording wrapper, so calls are caught
where the calling module looks them up (``cli.load_samples``,
``cli.influence_mod.influence_report``, ``outliers.jacobi_eigendecomposition``
inside ``outlier_matrix``). The package itself is not changed.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from contextlib import contextmanager

# numpy is imported inside the helpers, so that importing this module before
# bayeslens leaves the whole package import inside the cli.startup span.

TRACED = {
    "sample_store": (
        "load_samples", "load_predictive", "load_group_map", "check_aligned",
        "write_loglik_csv", "write_predictive_csv", "write_metadata_json",
    ),
    "linear_oracle": (
        "random_spec", "exact_sampler", "fit", "load_spec_json", "write_spec_json",
    ),
    "influence": ("influence_report", "loglik_covariance", "cross_conflict"),
    "leverage": ("hat_values",),
    "outliers": (
        "outlier_matrix", "jacobi_eigendecomposition", "truncated_clout",
        "write_clout_csv", "write_scree_csv",
    ),
    "io_utils": ("dump_json", "write_csv_rows"),
}


def numerical_rank(eigenvalues) -> int:
    """Eigenvalues above n * eps * max|eigenvalue| (numpy's matrix_rank rule)."""
    import numpy as np

    values = np.asarray(eigenvalues, dtype=float)
    if values.size == 0:
        return 0
    tol = np.abs(values).max() * values.size * np.finfo(float).eps
    return int(np.sum(values > tol))


def _size(path) -> int:
    return os.path.getsize(path)


# Work counted at each boundary, from the call's bound arguments and result.
COUNTERS = {
    "sample_store.load_samples": lambda a, r: {
        "sample_store.bytes_read": _size(a["loglik_file"]) + _size(a["metadata_file"]),
        "sample_store.cells_parsed": r.values.size,
    },
    "sample_store.load_predictive": lambda a, r: {
        "sample_store.bytes_read": _size(a["pred_file"]) + _size(a["metadata_file"]),
        "sample_store.cells_parsed": r.params.size,
    },
    "sample_store.write_loglik_csv": lambda a, r: {
        "sample_store.bytes_written": _size(a["path"]),
    },
    "sample_store.write_predictive_csv": lambda a, r: {
        "sample_store.bytes_written": _size(a["path"]),
    },
    "io_utils.dump_json": lambda a, r: {"io_utils.bytes_written": _size(a["path"])},
    "io_utils.write_csv_rows": lambda a, r: {"io_utils.bytes_written": _size(a["path"])},
    "influence.influence_report": lambda a, r: {
        "influence.cells": a["samples"].values.size,
        "influence.replicates": r.n_chains,
    },
    "influence.loglik_covariance": lambda a, r: {
        "influence.cells": a["samples"].values.size,
    },
    "influence.cross_conflict": lambda a, r: {
        "influence.cells": a["samples"].values.size,
    },
    "leverage.hat_values": lambda a, r: {
        "leverage.n_pairs": r.n_pairs,
        "leverage.negative_pairs": int(r.negative_pairs.sum()),
    },
    "outliers.outlier_matrix": lambda a, r: {
        "outliers.numerical_rank": numerical_rank(r.eigenvalues),
    },
}


class Tracer:
    """Records spans for one process; ``op`` names the operation in progress."""

    def __init__(self, op: str):
        self.op = op
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "name": name,
            "op": self.op,
            "parent": self._open[-1] if self._open else None,
            "start": time.monotonic(),
            "end": None,
            "counts": {},
        }
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record["end"] = time.monotonic()
            self._open.pop()

    def wrap(self, fn, name: str):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if counter is not None:
                bound = signature.bind(*args, **kwargs).arguments
                record["counts"] = counter(bound, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every binding of a TRACED function in the loaded bayeslens modules."""
        wanted = {
            f"bayeslens.{module}.{fn}": f"{module}.{fn}"
            for module, names in TRACED.items()
            for fn in names
        }
        wrappers: dict[str, object] = {}
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "bayeslens" and not mod_name.startswith("bayeslens."):
                continue
            for attr, value in list(vars(module).items()):
                if not inspect.isfunction(value):
                    continue
                key = f"{value.__module__}.{value.__qualname__}"
                if key not in wanted:
                    continue
                if key not in wrappers:
                    wrappers[key] = self.wrap(value, wanted[key])
                setattr(module, attr, wrappers[key])

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)
