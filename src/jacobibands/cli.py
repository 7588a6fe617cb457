"""Command-line driver: analyze one operator, run ensembles, verify invariants."""

from __future__ import annotations

import argparse
import json
import math
import sys

from .bands import band_structure, bands_to_csv
from .bounds import evaluate_all_bounds, report_to_jsonable
from .coefficients import load_operator
from .discriminant import build_discriminant
from .ensemble import (
    EnsembleConfig,
    ensemble_to_jsonable,
    run_ensemble,
    run_trial,
    trial_to_jsonable,
)
from .errors import JacobiBandsError
from .potential import potential_report, potential_to_jsonable


def _fmt(x) -> str:
    if x is None:
        return "n/a"
    if isinstance(x, float) and math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return f"{x:.12g}"


def _print_bounds_table(records) -> None:
    width = max(len(r.name) for r in records)
    print(f"{'bound':<{width}}  {'lhs':>16}  {'rhs':>16}  {'slack':>12}  status")
    for r in records:
        status = "satisfied" if r.satisfied else "VIOLATED"
        if not r.condition_met:
            status = "not applicable"
        print(
            f"{r.name:<{width}}  {_fmt(r.lhs):>16}  {_fmt(r.rhs):>16}  {_fmt(r.slack):>12}  {status}"
        )


def _cmd_analyze(args) -> int:
    c = load_operator(args.operator)
    data = build_discriminant(c)
    summary = data.summary
    bs = band_structure(data)
    pot = potential_report(data, bs)
    report = evaluate_all_bounds(data, bs, d_lower=args.d_lower, d_upper=args.d_upper)

    print(f"period p = {c.p}")
    print(f"a = {list(c.a)}")
    print(f"b = {list(c.b)}")
    print(
        f"geomean(a) = {_fmt(summary.geom_mean_a)}   "
        f"gershgorin = [{_fmt(summary.gershgorin_lo)}, {_fmt(summary.gershgorin_hi)}]"
    )
    print("bands:")
    for n, band in enumerate(bs.bands, start=1):
        print(f"  band {n}: [{_fmt(band.lo)}, {_fmt(band.hi)}]  length {_fmt(band.length)}")
    for n, (gap, closed) in enumerate(zip(bs.gaps, bs.closed_gap_flags), start=1):
        state = "closed" if closed else "open"
        print(f"  gap {n}:  ({_fmt(gap.lo)}, {_fmt(gap.hi)})  length {_fmt(gap.length)}  {state}")
    print(f"s = {_fmt(bs.s)}   sum|band| = {_fmt(bs.total_band_measure)}   min gap = {_fmt(bs.min_gap)}")
    print(
        f"capacity = {_fmt(pot.cap_spectrum)}   cheb number = {_fmt(pot.cheb_number)}   "
        f"widom = {_fmt(pot.widom_factor)}"
    )
    print(f"equilibrium weights = {[str(m) for m in pot.band_measures]}")
    _print_bounds_table(report.records)

    if args.report:
        payload = report_to_jsonable(data, bs, report)
        payload["potential"] = potential_to_jsonable(pot)
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"report written to {args.report}")
    if args.bands_csv:
        bands_to_csv(bs, args.bands_csv)
        print(f"bands written to {args.bands_csv}")
    return 0


def _cmd_ensemble(args) -> int:
    cfg = EnsembleConfig(
        trials=args.trials,
        seed=args.seed,
        p_min=args.pmin,
        p_max=args.pmax,
        a_lo=args.a_lo,
        a_hi=args.a_hi,
        b_lo=args.b_lo,
        b_hi=args.b_hi,
    )
    result = run_ensemble(cfg)
    for name, count in result.family_pass_counts.items():
        print(f"{name:<22} {count}/{cfg.trials}")
    print(f"max oracle discrepancy = {_fmt(result.max_oracle_discrepancy)}")
    print(f"max capacity rel error = {_fmt(result.max_capacity_rel_error)}")
    for name, count in result.condition_met_counts.items():
        print(f"condition met ({name}): {count}/{cfg.trials}")
    print("ALL PASSED" if result.all_passed else "FAILURES PRESENT")
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(ensemble_to_jsonable(result), fh, indent=2)
            fh.write("\n")
        print(f"report written to {args.report}")
    return 0 if result.all_passed else 1


def _cmd_verify(args) -> int:
    c = load_operator(args.operator)
    trial = run_trial(c)
    width = max(len(name) for name in trial.families)
    for name, res in trial.families.items():
        mark = "pass" if res.passed else "FAIL"
        detail = f"  ({res.detail})" if res.detail else ""
        print(f"{name:<{width}}  {mark}{detail}")
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(trial_to_jsonable(trial), fh, indent=2)
            fh.write("\n")
    print("ALL PASSED" if trial.all_passed else "FAILURES PRESENT")
    return 0 if trial.all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jacobibands",
        description="Band-gap spectra of periodic Jacobi operators with bound verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="analyze a single operator from a JSON file")
    p_analyze.add_argument("operator", help='JSON file {"a": [..], "b": [..]}')
    p_analyze.add_argument("--report", help="write the bounds report as JSON")
    p_analyze.add_argument("--bands-csv", help="write bands and gaps as CSV")
    p_analyze.add_argument("--d-lower", type=float, default=None, help="d for the log-sum lower bound (default s)")
    p_analyze.add_argument("--d-upper", type=float, default=None, help="d for the log-sum upper bound (default min open gap)")
    p_analyze.set_defaults(func=_cmd_analyze)

    p_ens = sub.add_parser("ensemble", help="run a seeded random ensemble")
    defaults = EnsembleConfig()
    p_ens.add_argument("--trials", type=int, default=defaults.trials)
    p_ens.add_argument("--seed", type=int, default=defaults.seed)
    p_ens.add_argument("--pmin", type=int, default=defaults.p_min)
    p_ens.add_argument("--pmax", type=int, default=defaults.p_max)
    p_ens.add_argument("--a-lo", type=float, default=defaults.a_lo)
    p_ens.add_argument("--a-hi", type=float, default=defaults.a_hi)
    p_ens.add_argument("--b-lo", type=float, default=defaults.b_lo)
    p_ens.add_argument("--b-hi", type=float, default=defaults.b_hi)
    p_ens.add_argument("--report", help="write the full ensemble report as JSON")
    p_ens.set_defaults(func=_cmd_ensemble)

    p_verify = sub.add_parser("verify", help="run the invariant suite on one operator")
    p_verify.add_argument("operator", help='JSON file {"a": [..], "b": [..]}')
    p_verify.add_argument("--report", help="write the trial report as JSON")
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (JacobiBandsError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
