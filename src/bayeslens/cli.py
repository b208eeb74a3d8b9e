"""Command-line front end: ingestion -> diagnostics -> plot-ready tables.

Subcommands: influence, leverage, outliers, conflict (influence with a
required group map), oracle, simulate. All randomness flows from one seed
(default 42), so identical inputs and flags yield byte-identical output
files. Exit codes: 0 success, 1 input or validation error, 2 when the
prior-data conflict flag fires under --strict.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import influence as influence_mod
from . import leverage as leverage_mod
from . import linear_oracle as oracle_mod
from . import outliers as outliers_mod
from .errors import DiagnosticsError
from .io_utils import dump_json, format_float, write_csv_rows
from .sample_store import (
    check_aligned,
    load_group_map,
    load_predictive,
    load_samples,
    write_loglik_csv,
    write_metadata_json,
    write_predictive_csv,
)

DEFAULT_SEED = 42


@dataclass
class RunConfig:
    """Validated per-invocation configuration."""

    command: str
    out_dir: str
    seed: int = DEFAULT_SEED
    loglik: str | None = None
    meta: str | None = None
    pred: str | None = None
    groups: str | None = None
    spec: str | None = None
    demo: bool = False
    draws: int = 4000
    chains: int = 4
    trunc_rank: int | None = None
    pv_group_factor: bool = True
    kl_symmetrize: bool = False
    threshold: float = 3.0
    strict: bool = False
    plant: dict = field(default_factory=dict)


def _fail(exc: Exception) -> int:
    code = exc.code if isinstance(exc, DiagnosticsError) else type(exc).__name__
    sys.stderr.write(
        json.dumps({"error": code, "message": str(exc)}, sort_keys=True) + "\n"
    )
    return 1


def _out_path(config: RunConfig, name: str) -> str:
    os.makedirs(config.out_dir, exist_ok=True)
    return os.path.join(config.out_dir, name)


def _write_group_conflict(config: RunConfig, result) -> None:
    header = ["group", "p_v", "p_w", "ratio", "flagged"]
    flagged = set(result.flagged(config.threshold))
    rows = (
        [
            label,
            format_float(result.p_v[i]),
            format_float(result.p_w[i]),
            format_float(result.ratio[i]),
            str(label in flagged).lower(),
        ]
        for i, label in enumerate(result.group_labels)
    )
    write_csv_rows(_out_path(config, "group_conflict.csv"), header, rows)
    dump_json(
        _out_path(config, "group_conflict.json"),
        {
            "group_labels": list(result.group_labels),
            "p_v": result.p_v,
            "p_w": result.p_w,
            "ratio": result.ratio,
            "zero_trace_groups": list(result.zero_trace),
            "flagged_groups": sorted(flagged),
            "factor_two": result.factor_two,
            "threshold": config.threshold,
        },
    )


def cmd_influence(config: RunConfig) -> int:
    samples = load_samples(config.loglik, config.meta)
    # every input is read and checked before the first artifact is written
    result = None
    if config.groups is not None:
        groups = load_group_map(config.groups)
        result = influence_mod.cross_conflict(
            samples, groups, factor_two=config.pv_group_factor
        )
    report = influence_mod.influence_report(
        samples, conflict_threshold=config.threshold
    )
    report.write_csv(_out_path(config, "influence_report.csv"))
    report.write_json(_out_path(config, "influence_report.json"))
    print("wrote influence_report.csv, influence_report.json")
    flagged = report.flagged
    if result is not None:
        _write_group_conflict(config, result)
        print("wrote group_conflict.csv, group_conflict.json")
        flagged = flagged or bool(result.flagged(config.threshold))
    print(
        f"p_w={format_float(report.p_w)} p_v={format_float(report.p_v)} "
        f"ratio={format_float(report.conflict_ratio)} flagged={report.flagged}"
    )
    if config.strict and flagged:
        return 2
    return 0


def cmd_leverage(config: RunConfig) -> int:
    pred = load_predictive(config.pred, config.meta)
    hat = leverage_mod.hat_values(
        pred, seed=config.seed, symmetrize=config.kl_symmetrize
    )
    hat.write_csv(_out_path(config, "hat_values.csv"))
    hat.write_json(_out_path(config, "hat_values.json"))
    print("wrote hat_values.csv, hat_values.json")
    print(f"p_d_star={format_float(hat.p_d_star)}")
    return 0


def cmd_outliers(config: RunConfig) -> int:
    samples = load_samples(config.loglik, config.meta)
    pred = load_predictive(config.pred, config.meta)
    check_aligned(samples, pred)
    cov = influence_mod.loglik_covariance(samples)
    hat = leverage_mod.hat_values(
        pred, seed=config.seed, symmetrize=config.kl_symmetrize
    )
    decomposition = outliers_mod.outlier_matrix(cov, hat)
    rank = config.trunc_rank if config.trunc_rank is not None else decomposition.n_obs
    truncated = outliers_mod.truncated_clout(decomposition, rank)
    outliers_mod.write_clout_csv(
        decomposition, _out_path(config, "clout.csv"), truncated
    )
    outliers_mod.write_scree_csv(decomposition, _out_path(config, "scree.csv"))
    payload = decomposition.to_dict()
    payload["truncation_rank"] = rank
    payload["clout_truncated"] = truncated
    dump_json(_out_path(config, "eigen.json"), payload)
    print("wrote clout.csv, scree.csv, eigen.json")
    return 0


def cmd_oracle(config: RunConfig) -> int:
    spec = oracle_mod.load_spec_json(config.spec)
    diagnostics = oracle_mod.fit(spec)
    payload = diagnostics.to_dict()
    if diagnostics.theta_hat is not None:
        lhs, rhs = oracle_mod.sandwich_identity_check(spec)
        payload["sandwich_check"] = {"lhs": lhs, "rhs": rhs}
    dump_json(_out_path(config, "linear_diagnostics.json"), payload)
    diagnostics.write_csv(_out_path(config, "linear_diagnostics.csv"))
    print("wrote linear_diagnostics.json, linear_diagnostics.csv")
    print(f"p_d={format_float(diagnostics.p_d)} p_w={format_float(diagnostics.p_w)} "
          f"p_v={format_float(diagnostics.p_v)}")
    return 0


def cmd_simulate(config: RunConfig) -> int:
    if config.demo:
        rng = np.random.default_rng(config.seed)
        spec = oracle_mod.random_spec(rng, n_obs=40, n_params=3)
    else:
        spec = oracle_mod.load_spec_json(config.spec)
    plant = config.plant
    if plant:
        spec = oracle_mod.plant_anomalies(
            spec,
            outlier_idx=plant["outlier_idx"],
            outlier_scale=plant["outlier_scale"],
            leverage_idx=plant["leverage_idx"],
            leverage_shift=plant["leverage_shift"],
        )
    samples, pred = oracle_mod.exact_sampler(
        spec, draws=config.draws, chains=config.chains, seed=config.seed
    )
    write_loglik_csv(samples, _out_path(config, "loglik.csv"))
    write_metadata_json(pred, _out_path(config, "metadata.json"))
    write_predictive_csv(pred, _out_path(config, "predictive.csv"))
    oracle_mod.write_spec_json(spec, _out_path(config, "spec_used.json"))
    print("wrote loglik.csv, metadata.json, predictive.csv, spec_used.json")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bayeslens",
        description=(
            "Influence, leverage, outlier, and prior-data-conflict diagnostics "
            "from posterior draws."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", default=".", help="output directory (created if absent)")
        p.add_argument(
            "--seed",
            type=int,
            default=DEFAULT_SEED,
            help=f"seed for all randomness (default {DEFAULT_SEED})",
        )

    p_inf = sub.add_parser("influence", help="per-observation influence and penalties")
    p_inf.add_argument("--loglik", required=True, help="log-likelihood draws CSV")
    p_inf.add_argument("--meta", required=True, help="chain metadata JSON")
    p_inf.add_argument("--groups", help="group map JSON for cross-conflict")
    p_inf.add_argument("--threshold", type=float, default=3.0, help="conflict flag level")
    p_inf.add_argument("--strict", action="store_true", help="exit 2 when flagged")
    p_inf.add_argument(
        "--pv-group-factor",
        choices=("on", "off"),
        default="on",
        help="keep the calibration factor 2 in per-group p_v",
    )
    add_common(p_inf)

    p_con = sub.add_parser("conflict", help="influence with a required group map")
    p_con.add_argument("--loglik", required=True)
    p_con.add_argument("--meta", required=True)
    p_con.add_argument("--groups", required=True)
    p_con.add_argument("--threshold", type=float, default=3.0)
    p_con.add_argument("--strict", action="store_true")
    p_con.add_argument("--pv-group-factor", choices=("on", "off"), default="on")
    add_common(p_con)

    p_lev = sub.add_parser("leverage", help="Bayesian hat-values from predictive draws")
    p_lev.add_argument("--pred", required=True, help="predictive draws CSV")
    p_lev.add_argument("--meta", required=True)
    p_lev.add_argument(
        "--kl-symmetrize", action="store_true", help="average both KL directions"
    )
    add_common(p_lev)

    p_out = sub.add_parser("outliers", help="outlier matrix, CLOUT, scree table")
    p_out.add_argument("--loglik", required=True)
    p_out.add_argument("--meta", required=True)
    p_out.add_argument("--pred", required=True)
    p_out.add_argument("--trunc-rank", type=int, help="eigenvalue truncation rank")
    p_out.add_argument("--kl-symmetrize", action="store_true")
    add_common(p_out)

    p_ora = sub.add_parser("oracle", help="closed-form conjugate linear diagnostics")
    p_ora.add_argument("--spec", required=True, help="model spec JSON (X, y, sigma2, Psi)")
    add_common(p_ora)

    p_sim = sub.add_parser("simulate", help="emit an exact-sampler test corpus")
    group = p_sim.add_mutually_exclusive_group(required=True)
    group.add_argument("--spec", help="model spec JSON")
    group.add_argument(
        "--demo", action="store_true", help="use a built-in randomized demo spec"
    )
    p_sim.add_argument("--draws", type=int, default=4000)
    p_sim.add_argument("--chains", type=int, default=4)
    p_sim.add_argument("--outlier-idx", type=int, help="plant a response outlier here")
    p_sim.add_argument("--outlier-scale", type=float, default=8.0)
    p_sim.add_argument("--leverage-idx", type=int, help="plant a leverage point here")
    p_sim.add_argument("--leverage-shift", type=float, default=5.0)
    add_common(p_sim)

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    config = RunConfig(
        command=args.command,
        out_dir=args.out,
        seed=args.seed,
    )
    for name in ("loglik", "meta", "pred", "groups", "spec"):
        if hasattr(args, name):
            setattr(config, name, getattr(args, name))
    if hasattr(args, "threshold"):
        config.threshold = args.threshold
        config.strict = args.strict
        config.pv_group_factor = args.pv_group_factor == "on"
    if hasattr(args, "kl_symmetrize"):
        config.kl_symmetrize = args.kl_symmetrize
    if hasattr(args, "trunc_rank"):
        config.trunc_rank = args.trunc_rank
    if args.command == "simulate":
        config.demo = args.demo
        config.draws = args.draws
        config.chains = args.chains
        planted = args.outlier_idx is not None or args.leverage_idx is not None
        if planted:
            if args.outlier_idx is None or args.leverage_idx is None:
                raise DiagnosticsError(
                    "planting needs both --outlier-idx and --leverage-idx"
                )
            config.plant = {
                "outlier_idx": args.outlier_idx,
                "outlier_scale": args.outlier_scale,
                "leverage_idx": args.leverage_idx,
                "leverage_shift": args.leverage_shift,
            }
    return config


_HANDLERS = {
    "influence": cmd_influence,
    "conflict": cmd_influence,
    "leverage": cmd_leverage,
    "outliers": cmd_outliers,
    "oracle": cmd_oracle,
    "simulate": cmd_simulate,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        return _HANDLERS[args.command](config)
    except DiagnosticsError as exc:
        return _fail(exc)
    except OSError as exc:
        return _fail(exc)


if __name__ == "__main__":
    sys.exit(main())
