"""bayeslens benchmark: every CLI subcommand and library call, checked against the oracle.

Usage, from the root of a checkout:

    python3 bench/run.py --workload tall|wide|inmem --seed N --seconds T --trace 0|1
                         [--size full|smoke]

The seed makes the inputs: ``random_spec(np.random.default_rng(seed), ...)``
gives the conjugate linear model, and bayeslens receives only the files or
arrays made from it. The load is a closed loop with one client: operations
run one after another and at most one child process runs at a time.

``tall`` and ``wide`` drive the CLI. Set-up is ``simulate --spec``, run
three times; then ``influence``, ``leverage``, ``outliers`` and ``conflict``
run in turn, each a fresh ``python3 -m bayeslens.cli`` child, until T
seconds have passed. ``inmem`` runs three child processes; each imports the
package, draws the exact posterior and calls the library diagnostics in
rounds for T/3 seconds (inmem_child.py).

With ``--trace 0`` the result holds the end-to-end metrics: the median
set-up and operation wall times, and the highest peak RSS of any child.
Children are started by launcher.py, a small process, so that their peak
RSS does not include this process's own (see there).
With ``--trace 1`` the operations run in passes (one set-up, then each
operation untraced and traced) until T seconds have passed, and the result
holds the per-layer metrics: each layer's self time, summed over one pass,
and the work counted at its boundaries, as medians over passes (spans.py).
README.md says why each workload and size was chosen.

Every operation's output is checked. An operation fails when its child
exits nonzero, when its artifacts differ from the first repetition in the
run, or when a check against ``fit(spec)`` fails: ``p_w``, ``p_v`` and
``p_d_star`` within the oracle gate, and the outlier matrix's numerical rank
equal to p + p(p+1)/2. The last line of standard output is the JSON result;
the lines before it print every metric with its unit, the error rate and
the environment. A fuller record goes to .bench_work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

OPS = ("influence", "leverage", "outliers", "conflict")
SETUP_REPEATS = 3
# Relative floor of the oracle gate on the totals; criterion 1 uses 0.02.
# See README.md, "Checks", for the measured errors it must clear.
GATE_REL = 0.35
CRITERION_1_REL = 0.02


@dataclass(frozen=True)
class Workload:
    kind: str  # "cli" or "inmem"
    n_obs: int
    n_params: int
    draws: int
    chains: int = 4
    groups: int = 8

    @property
    def oracle_rank(self) -> int:
        """Rank of the outlier matrix: the loglik is quadratic in theta."""
        p = self.n_params
        return p + p * (p + 1) // 2


SIZES = {
    "full": {
        "tall": Workload("cli", n_obs=40, n_params=3, draws=8_000),
        "wide": Workload("cli", n_obs=120, n_params=5, draws=1_000),
        "inmem": Workload("inmem", n_obs=40, n_params=3, draws=200_000),
    },
    "smoke": {
        "tall": Workload("cli", n_obs=10, n_params=3, draws=400),
        "wide": Workload("cli", n_obs=24, n_params=5, draws=400),
        "inmem": Workload("inmem", n_obs=10, n_params=3, draws=400),
    },
}

# Span name -> per-layer metric, where it is not "<span name>_s".
SPAN_METRIC = {
    "op": "cli.self_s",
    "cli.main": "cli.self_s",
    "cli.startup": "cli.startup_s",
    "outliers.jacobi_eigendecomposition": "outliers.eigensolve_s",
}
# Counts that describe a state, not an amount of work: a pass keeps the largest.
LEVEL_COUNTS = {
    "influence.replicates",
    "outliers.numerical_rank",
    "outliers.eigenpairs_written",
    "outliers.eigen_json_bytes",
}


@dataclass
class Child:
    start: float
    end: float
    rss_mb: float
    code: int
    log: str

    @property
    def wall(self) -> float:
        return self.end - self.start


class Launcher:
    """Runs children one at a time through launcher.py, a small process that
    times each one and takes its peak RSS from wait4 on its pid."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, "-S", os.path.join(BENCH_DIR, "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv: list[str], env: dict, log_path: str) -> Child:
        request = {"argv": argv, "env": env, "cwd": ROOT, "log": log_path}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("bench: launcher.py exited")
        done = json.loads(reply)
        return Child(done["start"], done["end"], done["maxrss_kb"] / 1024.0,
                     done["code"], log_path)

    def stop(self) -> None:
        """End the launcher; SIGTERM also kills a child it is waiting for."""
        if self.proc.poll() is None:
            self.proc.terminate()
        self.proc.wait()


def digest_dir(path: str) -> str:
    sha = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        sha.update(name.encode() + b"\0")
        with open(os.path.join(path, name), "rb") as handle:
            for block in iter(lambda: handle.read(1 << 20), b""):
                sha.update(block)
    return sha.hexdigest()


def read_values(op: str, out_dir: str) -> dict:
    """The checked fields of a CLI artifact, keyed as inmem_child.checked_values."""
    def load(name):
        with open(os.path.join(out_dir, name), encoding="utf-8") as handle:
            return json.load(handle)

    if op == "influence":
        report = load("influence_report.json")
        totals, per_obs = report["totals"], report["per_observation"]
        return {
            "p_w": totals["p_w"], "p_w_mcse": totals["p_w_mcse"],
            "p_v": totals["p_v"], "p_v_mcse": totals["p_v_mcse"],
            "linf": per_obs["linf"], "linf_mcse": per_obs["linf_mcse"],
        }
    if op == "leverage":
        hat = load("hat_values.json")
        return {
            "p_d_star": hat["p_d_star"], "p_d_star_mcse": hat["p_d_star_mcse"],
            "h": hat["hat_values"], "h_mcse": hat["mcse"],
        }
    if op == "outliers":
        return {"eigenvalues": load("eigen.json")["eigenvalues"]}
    if op == "conflict":
        return {"group_p_w": load("group_conflict.json")["p_w"]}
    return {}


def outside_gate(estimate, truth, mcse, rel: float) -> int:
    """Count of entries with |estimate - truth| > max(3 * mcse, rel * |truth|)."""
    estimate, truth, mcse = (np.asarray(x, dtype=float) for x in (estimate, truth, mcse))
    return int(np.sum(np.abs(estimate - truth) > np.maximum(3.0 * mcse, rel * np.abs(truth))))


class Run:
    """One benchmark run: its inputs, operation samples, checks and spans."""

    def __init__(self, name: str, workload: Workload, args, launcher: Launcher):
        self.name = name
        self.launcher = launcher
        self.workload = workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = args.trace
        self.dir = os.path.join(WORK, f"{name}-{args.size}-{args.seed}-{os.getpid()}")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p
        )
        self.spec = random_spec(
            np.random.default_rng(self.seed),
            n_obs=workload.n_obs,
            n_params=workload.n_params,
        )
        self.truth = None
        self.samples: dict[str, list[float]] = {op: [] for op in ("setup", *OPS)}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.peak_rss_mb = 0.0
        self.first_digest: dict[str, str] = {}
        self.verdict: dict[str, list[str]] = {}
        self.values: dict[str, dict] = {}
        self.instances: list[tuple[int, list[dict]]] = []
        self.overhead: dict[int, float] = defaultdict(float)

    # -- checks --------------------------------------------------------------

    def oracle(self, pass_index: int | None = None) -> None:
        start = time.monotonic()
        self.truth = fit(self.spec)
        if pass_index is not None:
            span = {"name": "linear_oracle.fit", "op": "oracle", "parent": None,
                    "start": start, "end": time.monotonic(), "counts": {}}
            self.instances.append((pass_index, [span]))

    def check(self, op: str, v: dict) -> list[str]:
        truth, problems = self.truth, []
        if op == "influence":
            for key, exact in (("p_w", truth.p_w), ("p_v", truth.p_v)):
                if outside_gate(v[key], exact, v[f"{key}_mcse"], GATE_REL):
                    problems.append(f"{op}: {key}={v[key]!r} misses the oracle {exact!r}")
        elif op == "leverage":
            if outside_gate(v["p_d_star"], truth.p_d, v["p_d_star_mcse"], GATE_REL):
                problems.append(f"{op}: p_d_star={v['p_d_star']!r} misses the oracle {truth.p_d!r}")
        elif op == "outliers":
            rank = numerical_rank(v["eigenvalues"])
            if rank != self.workload.oracle_rank:
                problems.append(f"{op}: numerical rank {rank}, oracle {self.workload.oracle_rank}")
        elif op == "conflict":
            total = float(np.sum(v["group_p_w"]))
            p_w = self.values["influence"]["p_w"]
            if abs(total - p_w) > 1e-9 * abs(p_w):
                problems.append(f"{op}: group p_w sum {total!r} != p_w {p_w!r}")
        return problems

    def settle(self, op: str, digest: str, values, seconds: float | None) -> None:
        """Count one attempt of ``op`` and check it; keep its time if it passed."""
        self.attempted += 1
        problems = []
        if op not in self.first_digest:
            self.first_digest[op] = digest
            self.values[op] = values() if callable(values) else values
            self.verdict[op] = self.check(op, self.values[op]) if self.values[op] else []
        elif digest != self.first_digest[op]:
            problems.append(f"{op}: output differs from the first repetition")
        problems += self.verdict[op]
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        elif seconds is not None:
            self.samples[op].append(seconds)

    def crashed(self, op: str, child: Child) -> None:
        self.attempted += 1
        self.failed += 1
        with open(child.log, encoding="utf-8", errors="replace") as handle:
            tail = handle.read()[-2000:]
        self.problems.append(f"{op}: exit {child.code}: {tail.strip()}")

    # -- CLI workloads -------------------------------------------------------

    def cli_op(self, op, cli_args, out_dir, traced=False, pass_index=None) -> Child | None:
        shutil.rmtree(out_dir, ignore_errors=True)
        tag = f"{op}-{'traced' if traced else 'plain'}"
        spans_path = os.path.join(self.dir, f"{tag}.spans.json")
        if traced:
            argv = [sys.executable, os.path.join(BENCH_DIR, "traced_cli.py"),
                    spans_path, op, "--", *cli_args]
        else:
            argv = [sys.executable, "-m", "bayeslens.cli", *cli_args]
        child = self.launcher.run(argv, self.env, os.path.join(self.dir, f"{tag}.log"))
        if child.code != 0:
            self.crashed(op, child)
            return None
        self.peak_rss_mb = max(self.peak_rss_mb, child.rss_mb)
        self.settle(op, digest_dir(out_dir), lambda: read_values(op, out_dir),
                    None if traced else child.wall)
        if traced:
            with open(spans_path, encoding="utf-8") as handle:
                spans = json.load(handle)
            root = {"name": "op", "op": op, "parent": None,
                    "start": child.start, "end": child.end, "counts": {}}
            if op == "outliers":
                eigen_path = os.path.join(out_dir, "eigen.json")
                root["counts"] = {
                    "outliers.eigenpairs_written": len(self.values["outliers"]["eigenvalues"]),
                    "outliers.eigen_json_bytes": os.path.getsize(eigen_path),
                }
            self.instances.append((pass_index, [root] + reparent(spans)))
        return child

    def run_cli(self) -> None:
        w = self.workload
        corpus = os.path.join(self.dir, "corpus")
        spec_path = os.path.join(self.dir, "spec.json")
        groups_path = os.path.join(self.dir, "groups.json")
        write_spec_json(self.spec, spec_path)
        loglik = ["--loglik", os.path.join(corpus, "loglik.csv")]
        pred = ["--pred", os.path.join(corpus, "predictive.csv")]
        meta = ["--meta", os.path.join(corpus, "metadata.json")]
        seed = ["--seed", str(self.seed)]
        out_dirs = {op: os.path.join(self.dir, op) for op in OPS}
        out_dirs["setup"] = corpus
        commands = {
            "setup": ["simulate", "--spec", spec_path, "--draws", str(w.draws),
                      "--chains", str(w.chains), *seed],
            "influence": ["influence", *loglik, *meta],
            "leverage": ["leverage", *pred, *meta, *seed],
            "outliers": ["outliers", *loglik, *meta, *pred, *seed],
            "conflict": ["conflict", *loglik, *meta, "--groups", groups_path],
        }
        for op, out_dir in out_dirs.items():
            commands[op] += ["--out", out_dir]

        def write_groups():
            """Equal groups over the observation ids in the loglik header."""
            with open(os.path.join(corpus, "loglik.csv"), encoding="utf-8") as handle:
                obs_ids = handle.readline().strip().split(",")
            with open(groups_path, "w", encoding="utf-8") as handle:
                json.dump({obs: f"g{i * w.groups // len(obs_ids)}"
                           for i, obs in enumerate(obs_ids)}, handle)

        if not self.trace:
            for _ in range(SETUP_REPEATS):
                self.cli_op("setup", commands["setup"], corpus)
            write_groups()
            self.oracle()
            deadline = time.monotonic() + self.seconds
            i = 0
            while i < len(OPS) or time.monotonic() < deadline:
                op = OPS[i % len(OPS)]
                self.cli_op(op, commands[op], out_dirs[op])
                i += 1
            return

        deadline = time.monotonic() + self.seconds
        pass_index = 0
        while True:
            self.cli_op("setup", commands["setup"], corpus, traced=True, pass_index=pass_index)
            write_groups()
            self.oracle(pass_index)
            for op in OPS:
                plain = self.cli_op(op, commands[op], out_dirs[op])
                traced = self.cli_op(op, commands[op], out_dirs[op], traced=True,
                                     pass_index=pass_index)
                if plain and traced:
                    self.overhead[pass_index] += traced.wall - plain.wall
            pass_index += 1
            if time.monotonic() >= deadline:
                return

    # -- in-memory workload --------------------------------------------------

    def inmem_child(self, seconds: float, pass_index: int | None) -> None:
        w = self.workload
        result_path = os.path.join(self.dir, "inmem.json")
        argv = [sys.executable, os.path.join(BENCH_DIR, "inmem_child.py"),
                "--seed", str(self.seed), "--n-obs", str(w.n_obs),
                "--n-params", str(w.n_params), "--draws", str(w.draws),
                "--chains", str(w.chains), "--groups", str(w.groups),
                "--seconds", repr(seconds), "--trace", str(self.trace),
                "--result", result_path]
        child = self.launcher.run(argv, self.env, os.path.join(self.dir, "inmem.log"))
        if child.code != 0:
            self.crashed("setup", child)
            return
        self.peak_rss_mb = max(self.peak_rss_mb, child.rss_mb)
        with open(result_path, encoding="utf-8") as handle:
            result = json.load(handle)
        self.settle("setup", result["setup_digest"], {}, result["ready"] - child.start)
        for op in OPS:
            for seconds_, digest in zip(result["times"][op], result["digests"][op]):
                self.settle(op, digest, result["values"][op], seconds_)
        if self.trace:
            spans = result["spans"]
            root = {"name": "op", "op": "setup", "parent": None,
                    "start": child.start, "end": result["ready"], "counts": {}}
            self.instances.append((pass_index, [root] + reparent(spans)))
            for span in spans:
                if span["name"] == "op":
                    self.overhead[pass_index] += (
                        span["end"] - span["start"] - result["untraced"][span["op"]]
                    )

    def run_inmem(self) -> None:
        if not self.trace:
            self.oracle()
            for _ in range(SETUP_REPEATS):
                self.inmem_child(self.seconds / SETUP_REPEATS, None)
            return
        deadline = time.monotonic() + self.seconds
        pass_index = 0
        while True:
            self.oracle(pass_index)
            self.inmem_child(0.0, pass_index)
            pass_index += 1
            if time.monotonic() >= deadline:
                return

    # -- metrics -------------------------------------------------------------

    def end_to_end(self) -> dict[str, list[float]]:
        found = {f"{op}_s": times for op, times in self.samples.items()}
        found["peak_rss_mb"] = [self.peak_rss_mb] if self.peak_rss_mb else []
        return found

    def per_pass(self) -> list[dict[str, float]]:
        passes: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for pass_index, spans in self.instances:
            totals = passes[pass_index]
            for span, own in zip(spans, self_times(spans)):
                totals[SPAN_METRIC.get(span["name"], span["name"] + "_s")] += own
                for key, value in span["counts"].items():
                    if key in LEVEL_COUNTS:
                        totals[key] = max(totals[key], value)
                    else:
                        totals[key] += value
        for pass_index, totals in passes.items():
            load_s = totals["sample_store.load_samples_s"] + totals["sample_store.load_predictive_s"]
            totals["sample_store.read_mb_per_s"] = (
                totals["sample_store.bytes_read"] / 1e6 / load_s if load_s > 0 else 0.0
            )
            totals["trace.overhead_s"] = self.overhead[pass_index]
            totals.update(self.accuracy_counts())
        return [passes[k] for k in sorted(passes)]

    def accuracy_counts(self) -> dict[str, int]:
        """Per-observation and total counts outside criterion 1's exact gate."""
        inf, lev, truth = self.values["influence"], self.values["leverage"], self.truth
        rel = CRITERION_1_REL
        return {
            "influence.linf_outside_gate": outside_gate(inf["linf"], truth.linf, inf["linf_mcse"], rel),
            "leverage.h_outside_gate": outside_gate(lev["h"], truth.hat_diag, lev["h_mcse"], rel),
            "oracle.totals_outside_gate": (
                outside_gate(inf["p_w"], truth.p_w, inf["p_w_mcse"], rel)
                + outside_gate(inf["p_v"], truth.p_v, inf["p_v_mcse"], rel)
                + outside_gate(lev["p_d_star"], truth.p_d, lev["p_d_star_mcse"], rel)
            ),
        }

    def op_breakdown(self) -> dict[str, dict[str, float]]:
        """Mean over passes of each operation's wall time and layer self times."""
        rows: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        n_passes = len({p for p, _ in self.instances})
        for _, spans in self.instances:
            for span, own in zip(spans, self_times(spans)):
                row = rows[span["op"]]
                row[span["name"]] += own / n_passes
                duration = (span["end"] - span["start"]) / n_passes
                if span["name"] == "op":
                    row["wall"] += duration
                elif span["name"] == "cli.main":
                    row["in_process"] += duration
        return rows


def reparent(spans: list[dict]) -> list[dict]:
    """Shift a child's span list behind a root span at index 0 and hang its
    top spans on that root; ``op`` spans stay roots of their own."""
    moved = []
    for span in spans:
        span = dict(span)
        span["parent"] = 0 if span["parent"] is None else span["parent"] + 1
        if span["name"] == "op":
            span["parent"] = None
        moved.append(span)
    return moved


def self_times(spans: list[dict]) -> list[float]:
    covered = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += span["end"] - span["start"]
    return [span["end"] - span["start"] - covered[i] for i, span in enumerate(spans)]


def environment(env: dict) -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                  capture_output=True, text=True)
            commit = done.stdout.strip() or None
        except OSError:
            pass
    sha = hashlib.sha256()
    for base, _, files in sorted(os.walk(SRC)):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                sha.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as handle:
                    sha.update(handle.read())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": commit,
        "src_sha256": sha.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": env.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": env.get("OMP_NUM_THREADS"),
    }


def main(launcher: Launcher) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES["full"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args()
    # Turn SIGTERM into SystemExit, so that the running child is killed and
    # the run's scratch directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        config = json.load(handle)
    wanted = config["per_layer" if args.trace else "end_to_end"]

    workload = SIZES[args.size][args.workload]
    run = Run(args.workload, workload, args, launcher)
    os.makedirs(run.dir)
    try:
        if workload.kind == "cli":
            run.run_cli()
        else:
            run.run_inmem()
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)

    env = environment(run.env)
    env["seed"] = args.seed
    print(f"bench {args.workload} ({args.size}: n={workload.n_obs} p={workload.n_params} "
          f"S={workload.draws} chains={workload.chains}) seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for problem in run.problems:
        print("FAILED " + problem)
    if run.failed:
        print(f"FAILED {run.failed} of {run.attempted} operations; see above")

    metrics, record = {}, {"env": env, "problems": run.problems}
    if args.trace:
        passes = run.per_pass() if "influence" in run.values and "leverage" in run.values else []
        print(f"per-layer metrics: median over {len(passes)} pass(es) of the sum over one pass")
        for spec in wanted:
            values = [p.get(spec["name"], 0.0) for p in passes]
            if values:
                metrics[spec["name"]] = {"value": statistics.median(values), "unit": spec["unit"]}
                print(f"  {spec['name']:36s} {metrics[spec['name']]['value']:14.6g} {spec['unit']}")
        print_breakdown(run.op_breakdown())
        record["passes"] = passes
        record["spans"] = run.instances
    else:
        samples = run.end_to_end()
        print(f"  {'metric':14s} {'median':>10s} {'max':>10s} {'n':>4s}  unit")
        for spec in wanted:
            values = samples.get(spec["name"], [])
            if values:
                metrics[spec["name"]] = {"value": statistics.median(values), "unit": spec["unit"]}
                print(f"  {spec['name']:14s} {statistics.median(values):10.4f} "
                      f"{max(values):10.4f} {len(values):4d}  {spec['unit']}")
        print(f"  {'error_rate':14s} {run.failed / run.attempted:10.4f} "
              f"{'':10s} {run.attempted:4d}  failed/attempted ({run.failed}/{run.attempted})")
        record["samples"] = samples

    missing = [spec["name"] for spec in wanted if spec["name"] not in metrics]
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    record_path = os.path.join(
        WORK, "results", f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json")
    record.update(metrics=metrics, attempted=run.attempted, failed=run.failed)
    with open(record_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    if missing:
        print(f"bench: no measurement for {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


def print_breakdown(rows: dict[str, dict[str, float]]) -> None:
    """Per-operation self times, and the layer splits each workload is chosen for."""
    print("per-operation self time, mean over passes (s):")
    for op, row in rows.items():
        parts = sorted(((v, k) for k, v in row.items() if k not in ("wall", "in_process")),
                       reverse=True)
        shown = " ".join(f"{k}={v:.3f}" for v, k in parts if v >= 0.0005)
        print(f"  {op:10s} wall={row['wall']:.3f} {shown}")
    loads = sum(rows[op]["sample_store.load_samples"] + rows[op]["sample_store.load_predictive"]
                for op in ("influence", "leverage") if op in rows)
    in_process = sum(rows[op]["in_process"] for op in ("influence", "leverage") if op in rows)
    if in_process > 0:
        print(f"  split: sample_store loads are {loads / in_process:.1%} of influence+leverage "
              "in-process time")
    if rows.get("outliers", {}).get("wall"):
        eig = rows["outliers"]["outliers.jacobi_eigendecomposition"]
        print(f"  split: eigensolve is {eig / rows['outliers']['wall']:.1%} of the outliers "
              "operation")
    store = sum(v for row in rows.values() for k, v in row.items() if k.startswith("sample_store."))
    print(f"  split: sample_store self time is {store:.3f} s per pass")


if __name__ == "__main__":
    # bayeslens comes from the checkout's src/, so it is imported only once
    # that is known to be there; without it the benchmark prints no result.
    if not os.path.isfile(os.path.join(SRC, "bayeslens", "cli.py")):
        print(f"bench: no bayeslens source under {SRC}", file=sys.stderr)
        sys.exit(2)
    launcher = Launcher()  # before numpy is loaded; see launcher.py
    try:
        sys.path.insert(0, SRC)
        import numpy as np
        import scipy

        from bayeslens import fit, random_spec
        from bayeslens.linear_oracle import write_spec_json
        from spans import numerical_rank

        code = main(launcher)
    finally:
        launcher.stop()
    sys.exit(code)
