"""Zeroth-order optimization when sampling itself moves the distribution.

The objective is F(x) = E[f(x, xi)] with xi drawn from a distribution
that depends on the decision x, so every function probe must re-sample
at the probed point.  The package provides the probe-based gradient
estimators, their worst-case error bounds, a step-size/iteration
planner, benchmark environments whose exact objectives are known, and a
reproducible experiment harness.

The top-level names are the public API listed in the README; everything
else is reached through its module (``zodd.core``, ``zodd.estimators``,
``zodd.optimizer``, ``zodd.smoothing``, ``zodd.environments``,
``zodd.harness``).
"""

from .core import BudgetCounter, BudgetExhaustedError, RngStream, SampleOracle
from .environments import PricingEnv, QuadraticEnv, StrategicEnv, best_response
from .estimators import (
    EstimatorConfig,
    GradientEstimate,
    estimate_gradient,
    estimate_gradients,
    mse_upper_bound,
)
from .optimizer import (
    DivergenceError,
    ParameterPlan,
    PlannerConstants,
    RunTrace,
    descent_bound_sides,
    plan_parameters,
    run_descent,
)
from .smoothing import analytic_moment

__version__ = "0.1.0"

__all__ = [
    # core
    "BudgetCounter",
    "BudgetExhaustedError",
    "RngStream",
    "SampleOracle",
    # environments
    "PricingEnv",
    "QuadraticEnv",
    "StrategicEnv",
    "best_response",
    # estimators
    "EstimatorConfig",
    "GradientEstimate",
    "estimate_gradient",
    "estimate_gradients",
    "mse_upper_bound",
    # optimizer
    "DivergenceError",
    "ParameterPlan",
    "PlannerConstants",
    "RunTrace",
    "descent_bound_sides",
    "plan_parameters",
    "run_descent",
    # smoothing
    "analytic_moment",
]
