"""The ``inmem`` workload: bayeslens's library path in one process, no files.

Usage: python3 bench/inmem_child.py --seed N --n-obs N --n-params P
           --draws S --chains C --groups G --seconds T --trace 0|1 --result PATH

Imports the package, draws the spec's exact posterior, and then calls the
public diagnostics in rounds: ``influence_report``, ``hat_values``,
``loglik_covariance`` + ``outlier_matrix`` and ``cross_conflict``. Each call
is timed on its own. Untraced, rounds repeat until T seconds have passed
since the draws were ready. Traced, one untraced round runs first as the
baseline for the tracing overhead, then one round with every layer
boundary recorded (see spans.py). The result JSON holds the monotonic time
the draws were ready (the parent knows when it started this process), the
per-call times, a digest of each call's result and the values the
benchmark checks against the oracle.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import time
from contextlib import nullcontext

from spans import Tracer

OPS = ("influence", "leverage", "outliers", "conflict")


def digest(obj) -> str:
    """SHA-256 over every field of a result dataclass, arrays by their bytes."""
    import numpy as np  # already loaded inside the cli.startup span of main()

    sha = hashlib.sha256()
    for field in dataclasses.fields(obj):
        value = getattr(obj, field.name)
        sha.update(field.name.encode())
        if isinstance(value, (np.ndarray, float)):
            sha.update(np.ascontiguousarray(value, dtype=float).tobytes())
        else:
            sha.update(repr(value).encode())
    return sha.hexdigest()


def checked_values(op: str, result) -> dict:
    """The fields of one result that the benchmark checks (see run.py)."""
    if op == "influence":
        return {
            "p_w": result.p_w, "p_w_mcse": result.p_w_mcse,
            "p_v": result.p_v, "p_v_mcse": result.p_v_mcse,
            "linf": result.linf.tolist(), "linf_mcse": result.linf_mcse.tolist(),
        }
    if op == "leverage":
        return {
            "p_d_star": result.p_d_star, "p_d_star_mcse": result.p_d_star_mcse,
            "h": result.values.tolist(), "h_mcse": result.mcse.tolist(),
        }
    if op == "outliers":
        return {"eigenvalues": result.eigenvalues.tolist()}
    return {"group_p_w": result.p_w.tolist()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    for name in ("seed", "n-obs", "n-params", "draws", "chains", "groups", "trace"):
        parser.add_argument(f"--{name}", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    tracer = Tracer("setup") if args.trace else None

    def span(name):
        return tracer.span(name) if tracer else nullcontext()

    with span("cli.startup"):
        import numpy as np

        import bayeslens as bl
    with span("linear_oracle.random_spec"):
        spec = bl.random_spec(
            np.random.default_rng(args.seed), n_obs=args.n_obs, n_params=args.n_params
        )
    with span("linear_oracle.exact_sampler"):
        samples, pred = bl.exact_sampler(
            spec, draws=args.draws, chains=args.chains, seed=args.seed
        )
    ready = time.monotonic()

    groups = bl.GroupMap(
        {obs: f"g{i * args.groups // args.n_obs}" for i, obs in enumerate(samples.obs_ids)}
    )
    hat = None

    def call(op):
        nonlocal hat
        if op == "influence":
            return bl.influence_report(samples)
        if op == "leverage":
            hat = bl.hat_values(pred, seed=args.seed)
            return hat
        if op == "outliers":
            return bl.outlier_matrix(bl.loglik_covariance(samples), hat)
        return bl.cross_conflict(samples, groups)

    result = {
        "ready": ready,
        "setup_digest": digest(samples) + digest(pred),
        "times": {op: [] for op in OPS},
        "digests": {op: [] for op in OPS},
        "values": {},
        "untraced": {},
        "spans": [],
    }

    def timed_round(into):
        for op in OPS:
            start = time.perf_counter()
            out = call(op)
            into[op] = time.perf_counter() - start
            result["times"][op].append(into[op])
            result["digests"][op].append(digest(out))
            result["values"].setdefault(op, checked_values(op, out))

    if tracer is None:
        deadline = ready + args.seconds
        while True:
            timed_round({})
            if time.monotonic() >= deadline:
                break
    else:
        timed_round(result["untraced"])
        tracer.install()
        for op in OPS:
            tracer.op = op
            with tracer.span("op") as record:
                out = call(op)
            result["digests"][op].append(digest(out))
            result["times"][op].append(record["end"] - record["start"])
        result["spans"] = tracer.spans

    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
