"""Race the four estimators on the multinomial pricing simulator.

Ten products, a fixed probe budget, twenty seeds.  Buyers pick items (or
opt out) with softmax probabilities that shift with the posted prices, so
every probe answers with fresh decision-dependent demand.  The exact
expected objective is available in closed form, which makes the final
comparison noise-free.
"""

import numpy as np

from zodd.harness.config import EnvironmentSpec, EstimatorSpec, ExperimentConfig
from zodd.harness.runner import STATUS_OK, run_chains

SEEDS = tuple(range(20))


def main():
    config = ExperimentConfig(
        environment=EnvironmentSpec(kind="pricing", dimension=10, seed=0),
        estimators=(
            EstimatorSpec(name="sphere", kind="sphere", mu=0.5, step=1e-3),
            EstimatorSpec(name="gaussian", kind="gaussian", mu=0.1, step=1e-2,
                          directions=100),
            EstimatorSpec(name="coordinate", kind="coordinate", mu=0.5, step=1e-2),
            EstimatorSpec(name="one_point", kind="one_point", mu=0.5, step=1e-4),
        ),
        seeds=SEEDS,
        budget=5000,
        eval_draws=2,
    )
    env = config.environment.build()
    start = env.exact_objective(config.start_point())
    print(f"10 products, budget 5000 probes, {len(SEEDS)} seeds")
    print(f"expected objective at the starting prices: {start:.2f}\n")

    print(f"{'method':<12}{'mean obj':>10}{'sd':>8}")
    for spec in config.estimators:
        # every seed of one method descends in lockstep, each on its own stream
        vals = []
        for outcome in run_chains(config, [spec] * len(SEEDS), SEEDS):
            assert outcome.row.status == STATUS_OK
            vals.append(env.exact_objective(outcome.output_point))
        print(f"{spec.name:<12}{np.mean(vals):>10.2f}{np.std(vals, ddof=1):>8.2f}")

    print("\nlower is better (negative expected profit); the two-point "
          "randomized estimators typically lead, one-point trails")


if __name__ == "__main__":
    main()
