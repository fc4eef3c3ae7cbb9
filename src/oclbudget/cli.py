"""Command-line interface.

Subcommands: run, oracle, ablate-prefetch, overhead, calibrate. Only run and
oracle write a report, so only they take --out and --format; ablate-prefetch
and overhead print a summary to stdout.
Exit codes: 0 success, 2 config error (an invalid input, or a file path that
cannot be read or written), 3 OOM in a controller run (baseline OOM is data,
not failure), 4 infeasible budget.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import os
import sys
from pathlib import Path

import yaml

from .errors import CalibrationError, InfeasibleBudgetError, OclBudgetError, SchemaError
from .harness import KNOWN_POLICIES, ablate_prefetch, emit_report, measure_overhead, run_suite
from .scenario import (
    PREFERENCE_PRESETS,
    default_calibration_targets_path,
    load_scenario,
)
from .simulator import calibrate_profile, load_calibration_targets, profile_document

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONTROLLER_OOM = 3
EXIT_INFEASIBLE = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oclbudget",
        description="Self-adaptive memory budgeting for simulated on-device OCL",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, report=False, policies=False):
        p.add_argument("--scenario", required=True, help="path to a scenario YAML file")
        p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
        if report:
            p.add_argument("--out", default=None, help="write the report here instead of stdout")
            p.add_argument("--format", choices=("csv", "log"), default="csv")
        p.add_argument(
            "--prefer",
            default=None,
            help=(
                "preference override: a preset "
                f"({', '.join(sorted(PREFERENCE_PRESETS))}) or a comma-separated "
                "permutation of memory,plasticity,stability,latency"
            ),
        )
        if policies:
            p.add_argument(
                "--policy",
                action="append",
                default=None,
                help=f"policy to run (repeatable): {', '.join(KNOWN_POLICIES)}",
            )

    add_common(sub.add_parser("run", help="run policies on a scenario"), report=True, policies=True)
    add_common(sub.add_parser("oracle", help="run the 42-point offline sweep"), report=True)
    add_common(sub.add_parser("ablate-prefetch", help="compare prefetch on vs off"))
    add_common(sub.add_parser("overhead", help="measure controller overhead"))

    cal = sub.add_parser("calibrate", help="fit a response model to measured targets")
    cal.add_argument(
        "--targets",
        default=None,
        help="targets YAML (defaults to the bundled calibration targets)",
    )
    cal.add_argument("--out", default=None, help="write the fitted profile YAML here")
    return parser


def _load(args):
    scenario = load_scenario(args.scenario)
    prefer = args.prefer
    if prefer is not None and "," in prefer:
        prefer = [p.strip() for p in prefer.split(",")]
    for option, field, value in (("--seed", "seed", args.seed), ("--prefer", "preference", prefer)):
        if value is not None:
            try:
                scenario = dataclasses.replace(scenario, **{field: value})
            except SchemaError as exc:  # it names the record's field; the user wrote the option
                raise SchemaError(f"{option}: {exc.rule}") from None
    return scenario


def _check_out(out: str | None) -> None:
    """Refuse, before any work, an --out path that cannot be written as a
    file: an existing directory (an empty path names the working one), a
    path whose parent does not exist, or one whose parent exists but is no
    directory. Nothing is created, so a config error leaves no file."""
    if out is None:
        return
    if os.path.isdir(out or "."):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), out)
    parent = os.path.dirname(out) or "."
    if not os.path.isdir(parent):
        if not os.path.exists(parent):
            raise FileNotFoundError(errno.ENOENT, "parent does not exist", out)
        raise NotADirectoryError(errno.ENOTDIR, "parent is not a directory", out)


def _write(payload: bytes, out: str | None) -> None:
    if out is None:
        sys.stdout.write(payload.decode("utf-8"))
    else:
        Path(out).write_bytes(payload)


def _cmd_run(args) -> int:
    scenario = _load(args)
    policies = args.policy or ["controller"]
    report = run_suite(scenario, policies)
    _write(emit_report(report, args.format), args.out)
    controller_oom = any(
        label == "controller" and not trace.completed for label, trace in report.traces
    )
    return EXIT_CONTROLLER_OOM if controller_oom else EXIT_OK


def _cmd_oracle(args) -> int:
    scenario = _load(args)
    report = run_suite(scenario, ["oracle"])
    _write(emit_report(report, args.format), args.out)
    if report.oracle_best is None:
        print("oracle: all grid points hit OOM (infeasible)", file=sys.stderr)
    else:
        batch, buffer = report.oracle_best
        print(f"oracle best config: batch={batch} buffer={buffer}", file=sys.stderr)
    return EXIT_OK


def _cmd_ablate(args) -> int:
    scenario = _load(args)
    result = ablate_prefetch(scenario)
    print(f"scenario: {result.scenario}")
    print(f"latency with prefetch:    {result.latency_prefetch_on_s:.6g} s")
    print(f"latency without prefetch: {result.latency_prefetch_off_s:.6g} s")
    print(f"reduction: {result.reduction:.1%}")
    return EXIT_OK


def _cmd_overhead(args) -> int:
    scenario = _load(args)
    summary = measure_overhead(scenario)
    print(f"controller compute total:   {summary.controller_seconds_total * 1e3:.3f} ms")
    print(f"controller per experience:  {summary.per_experience_seconds * 1e3:.3f} ms")
    print(f"controller state size:      {summary.state_bytes} bytes")
    print(f"simulated training time:    {summary.simulated_training_seconds:.6g} s")
    print(f"overhead ratio:             {summary.overhead_ratio:.6%}")
    return EXIT_OK


def _cmd_calibrate(args) -> int:
    targets_path = args.targets or default_calibration_targets_path()
    targets = load_calibration_targets(targets_path)
    result = calibrate_profile(targets)
    for group, residual in sorted(result.residuals.items()):
        print(f"{group} fit max relative residual: {residual:.3%}")
    print(f"compute cost per sample: {result.response.compute_cost_per_sample_s:.6g} s")
    print(f"batch knee:              {result.response.batch_knee}")
    print(f"activation per sample:   {result.memory.sample_mb:.6g} MB")
    print(f"base memory:             {result.memory.base_mb:.6g} MB")
    print(f"optimizer multiplier:    {result.response.optimizer_latency_multiplier:.6g}")
    print(f"optimizer memory delta:  {result.memory.optimizer_delta_mb:.6g} MB")
    print(f"stability gain max:      {result.response.stability_gain_max:.6g}")
    print(f"stability buffer scale:  {result.response.stability_buffer_scale:.6g}")
    if args.out:
        doc = profile_document("calibrated", result.response, result.memory)
        Path(args.out).write_text(yaml.safe_dump(doc, sort_keys=False), encoding="utf-8")
    return EXIT_OK


_COMMANDS = {
    "run": _cmd_run,
    "oracle": _cmd_oracle,
    "ablate-prefetch": _cmd_ablate,
    "overhead": _cmd_overhead,
    "calibrate": _cmd_calibrate,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_out(getattr(args, "out", None))
        return _COMMANDS[args.command](args)
    except InfeasibleBudgetError as exc:
        print(f"infeasible budget: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    # SchemaError is a ValueError; OSError covers a --scenario, --targets or
    # --out path that is missing, a directory or not permitted, and names it.
    except (CalibrationError, OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OclBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
