"""Command-line front end: ingestion -> diagnostics -> plot-ready tables.

Subcommands: influence, leverage, outliers, conflict (influence with a
required group map), oracle, simulate. The handlers here define the CSV and
JSON format of every artifact; the library's result objects are plain data.
All randomness flows from one seed (default 42), so identical inputs and
flags yield byte-identical output files; each file is written whole or not
at all. Exit codes: 0 success, 1 input, validation or usage error (one JSON
line on stderr), 2 when the prior-data conflict flag fires under --strict.
Stderr holds JSON lines only: the error line on exit 1, otherwise one
``{"warning": ..., "message": ...}`` line per warning the command raised.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings

import numpy as np

from . import influence as influence_mod
from . import leverage as leverage_mod
from . import linear_oracle as oracle_mod
from . import outliers as outliers_mod
from .errors import DiagnosticsError, InvalidParameter
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


def _stderr_line(record: dict) -> None:
    sys.stderr.write(json.dumps(record, sort_keys=True) + "\n")


def _fail(exc: Exception) -> int:
    code = exc.code if isinstance(exc, DiagnosticsError) else type(exc).__name__
    _stderr_line({"error": code, "message": str(exc)})
    return 1


def _out_path(args: argparse.Namespace, name: str) -> str:
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _fields(result, *names: str) -> dict:
    return {name: getattr(result, name) for name in names}


def _write_influence_report(args: argparse.Namespace, report) -> None:
    columns = _fields(
        report, "linf", "linf_mcse", "dinf", "dinf_mcse", "clinf", "clinf_mcse"
    )
    write_csv_rows(
        _out_path(args, "influence_report.csv"),
        ["obs_id", *columns],
        "%s" + ",%.17g" * len(columns),
        zip(report.obs_ids, *columns.values()),
    )
    totals = _fields(
        report, "p_w", "p_w_mcse", "p_w_star", "p_w_star_mcse", "p_v", "p_v_mcse",
        "conflict_ratio", "conflict_ratio_mcse", "conflict_threshold", "flagged",
        "n_draws", "n_chains",
    )
    dump_json(
        _out_path(args, "influence_report.json"),
        {"per_observation": {"obs_ids": report.obs_ids, **columns}, "totals": totals},
    )


def _write_group_conflict(args: argparse.Namespace, result) -> None:
    flagged = set(result.flagged(args.threshold))
    write_csv_rows(
        _out_path(args, "group_conflict.csv"),
        ["group", "p_v", "p_w", "ratio", "flagged"],
        "%s,%.17g,%.17g,%.17g,%s",
        zip(result.group_labels, result.p_v, result.p_w, result.ratio,
            [str(label in flagged).lower() for label in result.group_labels]),
    )
    dump_json(
        _out_path(args, "group_conflict.json"),
        {
            **_fields(result, "group_labels", "p_v", "p_w", "ratio", "factor_two"),
            "zero_trace_groups": result.zero_trace,
            "flagged_groups": sorted(flagged),
            "threshold": args.threshold,
        },
    )


def cmd_influence(args: argparse.Namespace) -> int:
    samples = load_samples(args.loglik, args.meta)
    # every input is read and checked before the first artifact is written
    result = None
    if args.groups is not None:
        groups = load_group_map(args.groups)
        result = influence_mod.cross_conflict(
            samples, groups, factor_two=args.pv_group_factor == "on"
        )
    report = influence_mod.influence_report(
        samples, conflict_threshold=args.threshold
    )
    _write_influence_report(args, report)
    print("wrote influence_report.csv, influence_report.json")
    flagged = report.flagged
    if result is not None:
        _write_group_conflict(args, result)
        print("wrote group_conflict.csv, group_conflict.json")
        flagged = flagged or bool(result.flagged(args.threshold))
    print(
        f"p_w={format_float(report.p_w)} p_v={format_float(report.p_v)} "
        f"ratio={format_float(report.conflict_ratio)} flagged={report.flagged}"
    )
    if args.strict and flagged:
        return 2
    return 0


def cmd_leverage(args: argparse.Namespace) -> int:
    pred = load_predictive(args.pred, args.meta)
    hat = leverage_mod.hat_values(pred, seed=args.seed, symmetrize=args.kl_symmetrize)
    write_csv_rows(
        _out_path(args, "hat_values.csv"),
        ["obs_id", "hat_value", "mcse", "cllev"],
        "%s,%.17g,%.17g,%.17g",
        zip(hat.obs_ids, hat.values, hat.mcse, hat.cllev),
    )
    dump_json(
        _out_path(args, "hat_values.json"),
        {
            "hat_values": hat.values,
            **_fields(hat, "obs_ids", "mcse", "cllev", "p_d_star", "p_d_star_mcse",
                      "n_pairs", "negative_pairs"),
        },
    )
    print("wrote hat_values.csv, hat_values.json")
    print(f"p_d_star={format_float(hat.p_d_star)}")
    return 0


def cmd_outliers(args: argparse.Namespace) -> int:
    samples = load_samples(args.loglik, args.meta)
    pred = load_predictive(args.pred, args.meta)
    check_aligned(samples, pred)
    cov = influence_mod.loglik_covariance(samples)
    hat = leverage_mod.hat_values(pred, seed=args.seed, symmetrize=args.kl_symmetrize)
    decomposition = outliers_mod.outlier_matrix(cov, hat)
    rank = args.trunc_rank if args.trunc_rank is not None else decomposition.n_obs
    truncated = outliers_mod.truncated_clout(decomposition, rank)
    write_csv_rows(
        _out_path(args, "clout.csv"),
        ["obs_id", "clout", "clout_truncated"],
        "%s,%.17g,%.17g",
        zip(decomposition.obs_ids, decomposition.clout, truncated),
    )
    write_csv_rows(
        _out_path(args, "scree.csv"),
        ["rank", "eigenvalue", "cumulative_share"],
        "%d,%.17g,%.17g",
        outliers_mod.scree(decomposition),
    )
    dump_json(
        _out_path(args, "eigen.json"),
        {
            **_fields(decomposition, "obs_ids", "clout", "eigenvalues", "eigenvectors"),
            "truncation_rank": rank,
            "clout_truncated": truncated,
        },
    )
    print("wrote clout.csv, scree.csv, eigen.json")
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    spec = oracle_mod.load_spec_json(args.spec)
    diagnostics = oracle_mod.fit(spec)
    columns = _fields(
        diagnostics, "hat_diag", "residuals", "linf", "dinf", "zinf", "cook"
    )
    payload = {
        **columns,
        **_fields(diagnostics, "theta_bar", "theta_hat", "p_d", "p_w", "p_v",
                  "sandwich", "noise_variance"),
    }
    if diagnostics.theta_hat is not None:
        lhs, rhs = diagnostics.sandwich_identity()
        payload["sandwich_check"] = {"lhs": lhs, "rhs": rhs}
    dump_json(_out_path(args, "linear_diagnostics.json"), payload)
    write_csv_rows(
        _out_path(args, "linear_diagnostics.csv"),
        ["index", "hat_value", "residual", "linf", "dinf", "zinf", "cook"],
        "%d" + ",%.17g" * len(columns),
        zip(range(1, spec.n_obs + 1), *columns.values()),
    )
    print("wrote linear_diagnostics.json, linear_diagnostics.csv")
    print(f"p_d={format_float(diagnostics.p_d)} p_w={format_float(diagnostics.p_w)} "
          f"p_v={format_float(diagnostics.p_v)}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    planted = args.outlier_idx is not None
    if planted != (args.leverage_idx is not None):
        raise DiagnosticsError("planting needs both --outlier-idx and --leverage-idx")
    if args.demo:
        rng = np.random.default_rng(args.seed)
        spec = oracle_mod.random_spec(rng, n_obs=40, n_params=3)
    else:
        spec = oracle_mod.load_spec_json(args.spec)
    if planted:
        spec = oracle_mod.plant_anomalies(
            spec,
            outlier_idx=args.outlier_idx,
            outlier_scale=args.outlier_scale,
            leverage_idx=args.leverage_idx,
            leverage_shift=args.leverage_shift,
        )
    samples, pred = oracle_mod.exact_sampler(
        spec, draws=args.draws, chains=args.chains, seed=args.seed
    )
    write_loglik_csv(samples, _out_path(args, "loglik.csv"))
    write_metadata_json(pred, _out_path(args, "metadata.json"))
    write_predictive_csv(pred, _out_path(args, "predictive.csv"))
    oracle_mod.write_spec_json(spec, _out_path(args, "spec_used.json"))
    print("wrote loglik.csv, metadata.json, predictive.csv, spec_used.json")
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as ``InvalidParameter``, so that it exits 1 with
    one JSON line like any other bad input; subparsers share the class."""

    def error(self, message):
        raise InvalidParameter(message)


def _checked(convert, valid, what: str):
    """An argparse ``type``: ``convert(text)``, refused unless ``valid``."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not valid(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
            type=_checked(int, lambda seed: seed >= 0, "a non-negative integer"),
            default=DEFAULT_SEED,
            help=f"seed for all randomness (default {DEFAULT_SEED})",
        )

    for command, help_text in (
        ("influence", "per-observation influence and penalties"),
        ("conflict", "influence with a required group map"),
    ):
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--loglik", required=True, help="log-likelihood draws CSV")
        p.add_argument("--meta", required=True, help="chain metadata JSON")
        p.add_argument(
            "--groups",
            required=command == "conflict",
            help="group map JSON for cross-conflict",
        )
        p.add_argument(
            "--threshold",
            # nan never flags and would be written as non-standard JSON
            type=_checked(float, math.isfinite, "a finite number"),
            default=3.0,
            help="conflict flag level",
        )
        p.add_argument("--strict", action="store_true", help="exit 2 when flagged")
        p.add_argument(
            "--pv-group-factor",
            choices=("on", "off"),
            default="on",
            help="keep the calibration factor 2 in per-group p_v",
        )
        p.set_defaults(handler=cmd_influence)
        add_common(p)

    p_lev = sub.add_parser("leverage", help="Bayesian hat-values from predictive draws")
    p_lev.add_argument("--pred", required=True, help="predictive draws CSV")
    p_lev.add_argument("--meta", required=True)
    p_lev.add_argument(
        "--kl-symmetrize", action="store_true", help="average both KL directions"
    )
    p_lev.set_defaults(handler=cmd_leverage)
    add_common(p_lev)

    p_out = sub.add_parser("outliers", help="outlier matrix, CLOUT, scree table")
    p_out.add_argument("--loglik", required=True)
    p_out.add_argument("--meta", required=True)
    p_out.add_argument("--pred", required=True)
    p_out.add_argument("--trunc-rank", type=int, help="eigenvalue truncation rank")
    p_out.add_argument("--kl-symmetrize", action="store_true")
    p_out.set_defaults(handler=cmd_outliers)
    add_common(p_out)

    p_ora = sub.add_parser("oracle", help="closed-form conjugate linear diagnostics")
    p_ora.add_argument("--spec", required=True, help="model spec JSON (X, y, sigma2, Psi)")
    p_ora.set_defaults(handler=cmd_oracle)
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
    p_sim.set_defaults(handler=cmd_simulate)
    add_common(p_sim)

    return parser


def main(argv=None) -> int:
    # every warning is recorded, whatever the caller's filters, so that the
    # stderr lines depend on the command alone
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            args = build_parser().parse_args(argv)
            code = args.handler(args)
        except (DiagnosticsError, OSError) as exc:
            return _fail(exc)
    for warning in caught:
        _stderr_line({"warning": warning.category.__name__, "message": str(warning.message)})
    return code


if __name__ == "__main__":
    sys.exit(main())
