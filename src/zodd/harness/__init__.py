"""Experiment harness: config parsing, the run/verify/plan driver, tuning."""

from .config import (
    ConfigError,
    EnvironmentSpec,
    EstimatorSpec,
    ExperimentConfig,
    TuningSpec,
    parse_config,
)
from .runner import (
    RESULT_COLUMNS,
    STATUS_BUDGET_ERROR,
    STATUS_DIVERGED,
    STATUS_OK,
    TRACE_COLUMNS,
    ResultRow,
    TraceRow,
    run_chains,
    run_experiment,
    write_results,
    write_trace,
)
from .tuning import TuningOutcome, candidate_specs, tune_method, tuned_config
from .verify import SUITES, CheckResult, format_report, run_suite

__all__ = [
    "ConfigError",
    "EnvironmentSpec",
    "EstimatorSpec",
    "ExperimentConfig",
    "TuningSpec",
    "parse_config",
    "RESULT_COLUMNS",
    "TRACE_COLUMNS",
    "STATUS_OK",
    "STATUS_DIVERGED",
    "STATUS_BUDGET_ERROR",
    "ResultRow",
    "TraceRow",
    "run_chains",
    "run_experiment",
    "write_results",
    "write_trace",
    "TuningOutcome",
    "candidate_specs",
    "tune_method",
    "tuned_config",
    "SUITES",
    "CheckResult",
    "format_report",
    "run_suite",
]
