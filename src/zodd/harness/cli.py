"""Command-line front end.

Three subcommands:

``run``     execute every (estimator, seed) row of a config file and write
            ``results.csv`` plus ``trace.csv`` into the output directory.
``verify``  replay one statistical check suite (or all of them) and write
            ``verify_report.txt``; exits nonzero when a check fails.
``plan``    print the parameter schedule and sample-complexity order for a
            target accuracy.

Exit codes: 0 success, 1 verification failure or diverged-only results,
2 invalid configuration or arguments.  Divergence of individual rows is
reported in the results table and does not fail the run.
"""

from __future__ import annotations

import argparse
import os
import sys

from ..optimizer import (
    PLANNER_KINDS,
    REGIMES,
    PlannerConstants,
    plan_parameters,
    sample_complexity_order,
)
from .config import ConfigError, parse_config
from .runner import run_experiment, write_results, write_trace
from .tuning import tuned_config
from .verify import SUITES, format_report, run_suite


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zodd",
        description="zeroth-order optimization under decision-dependent sampling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute the experiment grid from a config file")
    run_p.add_argument("--config", required=True, help="experiment config file")
    run_p.add_argument("--out", default=".", help="directory for results.csv and trace.csv")
    run_p.add_argument("--seed", type=int, default=None,
                       help="run a single seed instead of the configured list")

    verify_p = sub.add_parser("verify", help="replay a statistical check suite")
    verify_p.add_argument("--suite", required=True, choices=[*sorted(SUITES), "all"])
    verify_p.add_argument("--out", default=".", help="directory for verify_report.txt")
    verify_p.add_argument("--seed", type=int, default=0)

    plan_p = sub.add_parser("plan", help="print a parameter schedule for a target accuracy")
    plan_p.add_argument("--kind", required=True, choices=list(PLANNER_KINDS))
    plan_p.add_argument("--regime", required=True, choices=list(REGIMES))
    plan_p.add_argument("--epsilon", type=float, required=True)
    plan_p.add_argument("--dimension", type=int, required=True)
    plan_p.add_argument("--sigma", type=float, required=True,
                        help="noise scale of the sample oracle")
    plan_p.add_argument("--smoothness", type=float, required=True,
                        help="Lipschitz constant of the gradient")
    plan_p.add_argument("--hessian", type=float, default=None,
                        help="Lipschitz constant of the Hessian (hessian regime)")
    plan_p.add_argument("--c-mu", type=float, default=1.0, dest="c_mu")
    plan_p.add_argument("--c-m", type=float, default=1.0, dest="c_m")
    plan_p.add_argument("--c-t", type=float, default=None, dest="c_t",
                        help="iteration-count constant; default 1, or derived from --gap")
    plan_p.add_argument("--gap", type=float, default=None,
                        help="known F(x0) - F*; sets the iteration constant to 16*M*gap")
    return parser


def _cmd_run(args) -> int:
    config = parse_config(args.config)
    if args.seed is not None:
        from dataclasses import replace
        config = replace(config, seeds=(args.seed,))
    if config.tuning.enabled:
        config, outcomes = tuned_config(config)
        for outcome in outcomes:
            chosen = outcome.chosen
            print(
                f"tuned {outcome.method}: step={chosen.step} mu={chosen.mu} "
                f"directions={chosen.directions} batch={chosen.batch}"
            )
    results, traces = run_experiment(config)
    os.makedirs(args.out, exist_ok=True)
    results_path = os.path.join(args.out, "results.csv")
    trace_path = os.path.join(args.out, "trace.csv")
    write_results(results_path, results)
    write_trace(trace_path, traces)
    for row in results:
        print(
            f"{row.method} seed={row.seed} status={row.status} "
            f"obj={row.obj_mean:.6g} samples={row.samples_used}"
        )
    print(f"wrote {results_path} and {trace_path}")
    return 0


def _cmd_verify(args) -> int:
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    results = []
    for name in names:
        results.extend(run_suite(name, seed=args.seed))
    report = format_report(results)
    os.makedirs(args.out, exist_ok=True)
    report_path = os.path.join(args.out, "verify_report.txt")
    with open(report_path, "w") as fh:
        fh.write(report)
    print(report, end="")
    print(f"wrote {report_path}")
    return 0 if all(r.passed for r in results) else 1


def _cmd_plan(args) -> int:
    if args.c_t is not None and args.gap is not None:
        raise ConfigError("--c-t and --gap are mutually exclusive")
    if args.gap is not None:
        constants = PlannerConstants.with_known_gap(
            args.smoothness, args.gap, c_mu=args.c_mu, c_m=args.c_m
        )
    else:
        constants = PlannerConstants(
            c_mu=args.c_mu, c_m=args.c_m,
            c_T=1.0 if args.c_t is None else args.c_t,
        )
    plan = plan_parameters(
        args.kind, args.regime, args.epsilon, args.dimension,
        args.sigma, args.smoothness, args.hessian, constants=constants,
    )
    d = args.dimension
    lines = [
        ("kind", plan.kind),
        ("regime", plan.regime),
        ("epsilon", repr(args.epsilon)),
        ("dimension", str(d)),
        ("probe radius mu", repr(plan.mu)),
        ("directions N", str(plan.directions)),
        ("batch m", str(plan.batch)),
        ("step eta", repr(plan.step)),
        ("iterations T", str(plan.iterations)),
        ("samples/iteration", str(plan.samples_per_iteration(d))),
        ("total samples", str(plan.total_samples(d))),
        ("complexity", sample_complexity_order(plan.kind, plan.regime)),
    ]
    width = max(len(label) for label, _ in lines)
    for label, value in lines:
        print(f"{label.ljust(width)}  {value}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"run": _cmd_run, "verify": _cmd_verify, "plan": _cmd_plan}
    try:
        return handlers[args.command](args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
