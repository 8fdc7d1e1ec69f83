"""Command-line front end.

    batchsim sweep    --config cfg.ini --out results/ [--criterion name] [--dt s]
    batchsim run-once --config cfg.ini --out results/ [--k value] [--dt s]
    batchsim validate --config cfg.ini

``sweep`` runs the full control-range scan and writes operations.csv plus
summary.txt; ``run-once`` simulates a single operation at one control
level; ``validate`` makes a default-dt sweep's entry checks without
simulating, so it refuses exactly what that sweep refuses at entry, and
reports the feasible control floor, the predicted operation count, the
closed-form heating times and the ticks an operation steps at the range
endpoints, and the dt limit.
"""

from __future__ import annotations

import argparse
import sys

from .blocks import enumerate_scan_values
from .config import ParseError, ValidationError, load_config
from .econ import BUILTIN_CRITERIA
from .kernel import SimulationError
from .plant import feasible_control_range
from .reportio import write_report
from .sweep import DEFAULT_DT, check_entry, run_single, run_sweep


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="batchsim",
        description="Batch heating plant simulator and control-range "
                    "sweep harness")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True,
                        help="path to the INI config document")

    sweep = sub.add_parser("sweep", parents=[common],
                           help="run the control-range sweep")
    sweep.add_argument("--out", required=True, help="output directory")
    sweep.add_argument("--criterion", choices=sorted(BUILTIN_CRITERIA),
                       help="override the optimization criterion")
    sweep.add_argument("--dt", type=float, default=DEFAULT_DT,
                       help="simulation step in seconds (default %(default)s)")

    once = sub.add_parser("run-once", parents=[common],
                          help="simulate a single operation")
    once.add_argument("--out", required=True, help="output directory")
    once.add_argument("--k", type=float, default=1.0,
                      help="control level (default %(default)s)")
    once.add_argument("--dt", type=float, default=DEFAULT_DT,
                      help="simulation step in seconds (default %(default)s)")

    sub.add_parser("validate", parents=[common],
                   help="check a config without simulating")
    return parser


def _cmd_sweep(args) -> int:
    plant_cfg, sweep_cfg = load_config(args.config)
    if args.criterion:
        sweep_cfg = sweep_cfg._replace(criterion=args.criterion)
    report = run_sweep(plant_cfg, sweep_cfg, dt=args.dt)
    paths = write_report(report, args.out)
    ext = report.extremum
    print(f"wrote {paths[0]} and {paths[1]}")
    print(f"extremum of '{report.criterion}': control_k="
          f"{ext.control_k:.9g} score={ext.score:.9g} "
          f"(record {ext.index + 1} of {len(report.records)})")
    return 0


def _cmd_run_once(args) -> int:
    plant_cfg, sweep_cfg = load_config(args.config)
    report = run_single(plant_cfg, args.k, dt=args.dt,
                        tick_budget=sweep_cfg.tick_budget,
                        criterion=sweep_cfg.criterion)
    paths = write_report(report, args.out)
    rec = report.records[0]
    print(f"wrote {paths[0]} and {paths[1]}")
    print(f"operation at control_k={rec.control_k:.9g}: "
          f"t_op={rec.t_op:.9g} s, re={rec.re:.9g}, pe={rec.pe:.9g}, "
          f"prf={rec.prf:.9g}")
    return 0


def _cmd_validate(args) -> int:
    plant_cfg, sweep_cfg = load_config(args.config)
    ks = enumerate_scan_values(sweep_cfg.k_min, sweep_cfg.k_max,
                               sweep_cfg.k_step, sweep_cfg.direction_code())
    print("config: OK")
    print(f"k_min_feasible: {feasible_control_range(plant_cfg):.9g}")
    print(f"predicted_operations: {len(ks)}")
    try:
        plan, dt_limit = check_entry(plant_cfg, ks, DEFAULT_DT,
                                     sweep_cfg.tick_budget, ("k_min", "k_max"))
    except (ValidationError, SimulationError) as exc:
        print(f"infeasible: {exc}")
        return 1
    at = {op.control_k: op for op in plan}
    for end in ("k_min", "k_max"):
        op = at[getattr(sweep_cfg, end)]
        print(f"heating_time_at_{end}: {op.heat_time:.9g}")
        print(f"ticks_at_{end}: {op.steps} (fill {op.fill}, "
              f"heat {op.heat}, release {op.release})")
    print(f"dt_limit: {dt_limit:.9g}")
    return 0


_COMMANDS = {
    "sweep": _cmd_sweep,
    "run-once": _cmd_run_once,
    "validate": _cmd_validate,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ParseError, ValidationError, SimulationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
