"""Grid-search knob tuning, off by default.

Enable with ``[tuning] enabled = true`` plus candidate lists.  Every
estimator in the config is re-fit over the grid: step size and probe
radius always vary; the third knob is the direction count for the
two-point randomized methods and the batch size for the coordinate and
one-point methods (those keep their configured direction count).  Each
candidate is scored by the mean objective of a few short runs on
tuning-only seeds, and the winning knobs replace the configured ones
before the real experiment executes.  All candidates and trials of one
estimator run as one lockstep :func:`~zodd.harness.runner.run_chains` call.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product

import math

from .config import EstimatorSpec, ExperimentConfig, TuningSpec
from .runner import STATUS_OK, run_chains
# the tracer in perfbench/ wraps run_cell by this name
from .runner import run_cell  # noqa: F401

TUNING_SEED_BASE = 7_000_001


@dataclass(frozen=True)
class TuningOutcome:
    method: str
    chosen: EstimatorSpec
    scores: tuple[tuple[EstimatorSpec, float], ...]


def candidate_specs(spec: EstimatorSpec, tuning: TuningSpec) -> list[EstimatorSpec]:
    """Cross product of knob candidates for one estimator."""
    steps = tuning.steps or ((spec.step,) if spec.step is not None else ())
    mus = tuning.mus or ((spec.mu,) if spec.mu is not None else ())
    if not steps or not mus:
        raise ValueError(
            f"estimator {spec.name!r} has no step/mu candidates; give explicit "
            "knobs or tuning lists"
        )
    if spec.kind in ("coordinate", "one_point"):
        widths = tuning.batches or (spec.batch,)
        knob = "batch"
    else:
        widths = tuning.directions or (spec.directions,)
        knob = "directions"
    out = []
    for step, mu, width in product(steps, mus, widths):
        out.append(
            replace(
                spec, step=step, mu=mu, plan_regime=None, plan_epsilon=None,
                **{knob: width},
            )
        )
    return out


def _trial_seeds(config: ExperimentConfig) -> list[int]:
    return [TUNING_SEED_BASE + trial for trial in range(config.tuning.trials)]


def _mean_objective(env, outcomes) -> float:
    """Mean objective at the selected outputs; +inf if any run failed."""
    scores = []
    for outcome in outcomes:
        if outcome.row.status != STATUS_OK:
            return math.inf
        if env.supports_exact_objective:
            scores.append(env.exact_objective(outcome.output_point))
        else:
            scores.append(outcome.row.obj_mean)
    return float(sum(scores) / len(scores))


def score_candidate(config: ExperimentConfig, candidate: EstimatorSpec) -> float:
    """Mean objective at the selected output over the tuning trials.

    Uses the exact objective where the environment provides one,
    otherwise the Monte Carlo evaluation mean.  Failed runs score +inf.
    """
    seeds = _trial_seeds(config)
    outcomes = run_chains(config, [candidate] * len(seeds), seeds)
    return _mean_objective(config.environment.build(), outcomes)


def tune_method(config: ExperimentConfig, spec: EstimatorSpec) -> TuningOutcome:
    """Pick the grid point with the lowest mean objective; first wins ties.

    Every candidate's trials run together in one lockstep call.
    """
    candidates = candidate_specs(spec, config.tuning)
    seeds = _trial_seeds(config)
    outcomes = run_chains(
        config,
        [c for c in candidates for _ in seeds],
        [seed for _ in candidates for seed in seeds],
    )
    env = config.environment.build()
    table = []
    best = None
    best_score = math.inf
    for i, candidate in enumerate(candidates):
        score = _mean_objective(env, outcomes[i * len(seeds):(i + 1) * len(seeds)])
        table.append((candidate, score))
        if score < best_score:
            best, best_score = candidate, score
    if best is None:
        best = table[0][0]
    return TuningOutcome(method=spec.name, chosen=best, scores=tuple(table))


def tuned_config(config: ExperimentConfig) -> tuple[ExperimentConfig, list[TuningOutcome]]:
    """Replace every estimator's knobs with its tuned values."""
    outcomes = [tune_method(config, spec) for spec in config.estimators]
    specs = tuple(outcome.chosen for outcome in outcomes)
    return replace(config, estimators=specs), outcomes
