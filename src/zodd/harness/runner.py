"""Experiment driver: one descent run per (estimator, seed) row.

Every row is a *chain*: a fixed-step descent with its own environment
budget, RNG stream, step, probe radius, uniformly drawn output iterate and
divergence check.  :func:`run_chains` runs every row of ``zodd run`` and
tuning through the one descent loop, :func:`zodd.optimizer.lockstep_descent`,
in lockstep groups: chains with the same probe shape (one- or two-sided,
probe directions N, which is d for coordinate, and batch; so the same cost
and iteration count) share one (R, d) state whatever their estimator kind,
and each step makes one estimator call and one oracle call for the whole
group.  Sphere, gaussian and coordinate chains with N = d thus step
together; one_point chains, being one-sided, form groups of their own.
Grouping never changes a draw: every chain draws from its own stream exactly
what it would draw alone, so results do not depend on which chains share a
group, and the CSVs are byte-identical to one-chain-at-a-time runs.  A group
holds at most ``max(1, GROUP_DRAWS // cost)`` chains, so the sample values
of one of its steps are never more than one chain's or 2^14 draws, whichever
is larger; a chain's trace row for the step is the probe mean the descent
step reports.  A diverged chain leaves its group; the others go on.  The
environment is built once per :func:`run_chains` call: the final
evaluation draws from it, and each group's descent from a copy with its own
budget (``with_budget``); a caller that built it already passes it in.

Timing is off by default because it would break byte-identity; ``[run]
timing = true`` fills the wall-time column with the wall time of the row's
lockstep group.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass

import numpy as np

from ..core import RngStream
from ..estimators import EstimatorConfig
# perfbench/tracer.py wraps estimate_gradient by this name
from ..estimators import estimate_gradient  # noqa: F401
from ..optimizer import lockstep_descent, select_uniform_index
from .config import ExperimentConfig

# oracle draws per step of one lockstep group, unless one chain alone costs more
GROUP_DRAWS = 1 << 14

RESULT_COLUMNS = (
    "method", "seed", "obj_mean", "obj_sd", "samples_used",
    "wall_time_s", "grad_norm_sq", "status",
)
TRACE_COLUMNS = ("method", "seed", "cumulative_samples", "obj_estimate")

STATUS_OK = "ok"
STATUS_DIVERGED = "diverged"
STATUS_BUDGET_ERROR = "budget_error"


@dataclass(frozen=True)
class ResultRow:
    method: str
    seed: int
    obj_mean: float
    obj_sd: float
    samples_used: int
    wall_time_s: float | None
    grad_norm_sq: float | None
    status: str


@dataclass(frozen=True)
class TraceRow:
    method: str
    seed: int
    cumulative_samples: int
    obj_estimate: float


@dataclass(frozen=True)
class RowOutcome:
    row: ResultRow
    trace: tuple[TraceRow, ...]
    output_point: np.ndarray | None


@dataclass(frozen=True)
class _Chain:
    method: str
    seed: int
    cfg: EstimatorConfig
    step: float


def run_chains(config: ExperimentConfig, specs, seeds, env=None) -> list[RowOutcome]:
    """One descent run per (spec, seed) pair, in the order given.

    Chain i runs ``specs[i]`` on seed ``seeds[i]``; its row, trace and
    output point are exactly what it would produce alone.  ``env`` is the
    config's environment, unbudgeted, when the caller has built it.
    """
    env = config.environment.build() if env is None else env
    chains = [_Chain(spec.name, seed, *spec.resolve(env)) for spec, seed in zip(specs, seeds)]
    groups: dict[tuple, list[int]] = {}
    for i, chain in enumerate(chains):
        groups.setdefault(chain.cfg.probe_shape(env.dimension), []).append(i)
    outcomes: list[RowOutcome | None] = [None] * len(chains)
    for members in groups.values():
        cost = chains[members[0]].cfg.samples_per_estimate(env.dimension)
        size = max(1, GROUP_DRAWS // cost)
        for lo in range(0, len(members), size):
            group = members[lo:lo + size]
            for i, outcome in zip(group, _run_group(config, env, [chains[i] for i in group])):
                outcomes[i] = outcome
    return outcomes


def _run_group(config: ExperimentConfig, eval_env, chains: list[_Chain]) -> list[RowOutcome]:
    """Lockstep descent of chains that share a probe shape, of any kinds.

    ``eval_env`` is an unbudgeted environment for the final evaluation; the
    descent draws from a copy of it whose budget is the sum of the chains'.
    """
    started = time.perf_counter() if config.timing else None
    cfg = chains[0].cfg
    cost = cfg.samples_per_estimate(eval_env.dimension)
    iterations = config.budget // cost
    traces: list[list[TraceRow]] = [[] for _ in chains]
    outputs = np.tile(config.start_point(), (len(chains), 1))  # row i becomes iterate picks[i]
    statuses = [STATUS_OK if iterations else STATUS_BUDGET_ERROR] * len(chains)
    if iterations:
        env = eval_env.with_budget(len(chains) * config.budget)
        streams = [RngStream(c.seed).child("method", c.method) for c in chains]
        picks = np.array([select_uniform_index(iterations + 1, rng) for rng in streams])
        due = set(picks.tolist())  # most steps pick no output; skip their vector work
        steps = [c.step for c in chains]
        mus = [c.cfg.mu for c in chains]
        kinds = [c.cfg.kind for c in chains]
        X = outputs.copy()
        for step in lockstep_descent(X, cfg, env, streams, steps, mus, iterations, kinds):
            spent = (step.t + 1) * cost
            for i, probe_mean in zip(step.live, step.probe_means):
                traces[i].append(TraceRow(chains[i].method, chains[i].seed, spent, probe_mean))
            if step.t + 1 in due:
                hit = picks[step.live] == step.t + 1
                outputs[step.live[hit]] = step.X[hit]
            for i in step.live[step.bad].tolist():
                statuses[i] = STATUS_DIVERGED
        done = [i for i, status in enumerate(statuses) if status == STATUS_OK]
        if done:
            values = eval_env.sample_at(
                outputs[done],
                [streams[i].child("eval") for i in done],
                replicates=config.eval_draws,
            )
            column = {i: values[:, j].copy() for j, i in enumerate(done)}
    elapsed = _elapsed(started)
    rows = []
    for i, (c, status) in enumerate(zip(chains, statuses)):
        ok = status == STATUS_OK
        grad_norm_sq = None
        if eval_env.supports_gradient and status != STATUS_BUDGET_ERROR:
            grad_norm_sq = float(np.sum(eval_env.gradient(outputs[i]) ** 2)) if ok else math.nan
        row = ResultRow(
            method=c.method, seed=c.seed,
            obj_mean=float(column[i].mean()) if ok else math.nan,
            obj_sd=float(column[i].std(ddof=1)) if ok else math.nan,
            samples_used=len(traces[i]) * cost, wall_time_s=elapsed,
            grad_norm_sq=grad_norm_sq, status=status,
        )
        rows.append(RowOutcome(row, tuple(traces[i]), outputs[i].copy() if ok else None))
    return rows


def run_cell(config: ExperimentConfig, spec, seed: int) -> RowOutcome:
    """One descent run for an explicit estimator spec."""
    return run_chains(config, [spec], [seed])[0]


def _elapsed(started: float | None) -> float | None:
    return None if started is None else time.perf_counter() - started


def run_experiment(config: ExperimentConfig) -> tuple[list[ResultRow], list[TraceRow]]:
    """All (estimator, seed) rows in config order, as one lockstep run."""
    cells = [(spec, seed) for spec in config.estimators for seed in config.seeds]
    outcomes = run_chains(config, [spec for spec, _ in cells], [seed for _, seed in cells])
    results = [o.row for o in outcomes]
    traces = [t for o in outcomes for t in o.trace]
    return results, traces


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_results(path, rows: list[ResultRow]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULT_COLUMNS)
        for r in rows:
            writer.writerow([
                r.method, r.seed, _fmt(r.obj_mean), _fmt(r.obj_sd),
                r.samples_used, _fmt(r.wall_time_s), _fmt(r.grad_norm_sq), r.status,
            ])


def write_trace(path, rows: list[TraceRow]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for r in rows:
            writer.writerow([r.method, r.seed, r.cumulative_samples, _fmt(r.obj_estimate)])
