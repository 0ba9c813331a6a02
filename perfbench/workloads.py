"""Generated inputs of the benchmark workloads.

Every input the program sees -- the experiment config, the price table and
the population file -- is a pure function of the workload name and the
workload seed.  Sizes (dimensions, budgets, grids, seed counts) are fixed
per workload, so every seed asks for the same amount of work and only the
values change.  Besides the files, a workload carries the facts the
correctness checks need (``params``) and the points at which the oracle
check draws (``check_points``).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field

import numpy as np

WORKLOADS = ("pricing_tune", "strategic_run", "verify_mse", "planned_wide")

# one tag per workload, so two workloads never share a generator
_TAGS = {name: i + 1 for i, name in enumerate(WORKLOADS)}

PRICING_PRODUCTS = 8
PRICING_BUYERS = 100
STRATEGIC_AGENTS = 300
STRATEGIC_FEATURES = 11
PLANNED_DIMENSION = 16
PLANNED_EPSILON = 0.25
PLANNED_ITERATIONS = 8

# the grid that ``zodd verify --suite mse_bounds`` runs (see verify.run_mse_bounds)
MSE_DIMENSION = 5
MSE_SIGMA = 0.5
MSE_POINT = 0.8
MSE_REPLICATES = 2000
MSE_CHECKS = 72


@dataclass(frozen=True)
class Workload:
    """One generated workload: CLI arguments, input files and check facts."""

    name: str
    seed: int
    command: str  # "run" or "verify"
    config_path: str | None
    argv: tuple[str, ...]  # CLI arguments after ``zodd``, without ``--out``
    expected_ops: int  # result rows (run) or checks (verify) per round
    params: dict = field(default_factory=dict)
    check_points: tuple[tuple[float, ...], ...] = ()
    check_replicates: int = 0

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(asdict(self), fh, indent=1)


def _generator(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([_TAGS[name], int(seed)])


def _run_seeds(gen: np.random.Generator, count: int) -> list[int]:
    base = int(gen.integers(0, 1 << 20))
    return list(range(base, base + count))


def _fmt_list(values) -> str:
    return " ".join(repr(float(v)) for v in values)


def _write(path: str, text: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _pricing(seed: int, workdir: str) -> Workload:
    gen = _generator("pricing_tune", seed)
    n = PRICING_PRODUCTS
    theta = gen.uniform(0.5, 2.0, size=n)
    rho = gen.uniform(0.25, 0.5, size=n)
    seeds = _run_seeds(gen, 2)
    check_points = gen.uniform(0.3, 1.5, size=(4, n))
    price_path = os.path.join(workdir, "prices.csv")
    _write(price_path, "theta,rho\n" + "".join(
        f"{float(t)!r},{float(r)!r}\n" for t, r in zip(theta, rho)))
    budget, eval_draws, x0 = 2000, 200, 0.5
    # The width (directions, batch) is fixed, not tuned: a tuned width would let
    # the seed set the reported rows' iteration count (1000 at N = 1, 250 at
    # N = 4), and with it about a tenth of the round's time.
    config_path = os.path.join(workdir, "pricing_tune.ini")
    _write(config_path, f"""\
[environment]
kind = pricing
products = {n}
buyers = {PRICING_BUYERS}
price_file = {price_path}

[run]
seeds = {' '.join(map(str, seeds))}
budget = {budget}
eval_draws = {eval_draws}
x0 = {x0!r}

[estimator.sphere]
kind = sphere
mu = 0.1
step = 0.001
directions = 1

[estimator.coordinate]
kind = coordinate
mu = 0.1
step = 0.001
batch = 1

[tuning]
enabled = true
step = 0.001 0.003
mu = 0.05 0.1 0.2
trials = 1
""")
    return Workload(
        name="pricing_tune", seed=seed, command="run", config_path=config_path,
        argv=("run", "--config", config_path),
        expected_ops=2 * len(seeds),
        params={
            "theta": theta.tolist(), "rho": rho.tolist(), "buyers": PRICING_BUYERS,
            "budget": budget, "eval_draws": eval_draws, "x0": [x0] * n,
            "methods": ["sphere", "coordinate"],
        },
        check_points=tuple(tuple(p) for p in check_points.tolist()),
        check_replicates=2000,
    )


def _strategic(seed: int, workdir: str) -> Workload:
    gen = _generator("strategic_run", seed)
    count, d_feat = STRATEGIC_AGENTS, STRATEGIC_FEATURES
    labels = np.zeros(count)
    labels[: count // 2] = 1.0
    gen.shuffle(labels)
    separation = gen.uniform(0.8, 1.6)
    axis = np.ones(d_feat) / math.sqrt(d_feat)
    features = (labels[:, None] - 0.5) * separation * axis + gen.standard_normal((count, d_feat))
    x0 = np.concatenate([gen.uniform(0.5, 1.5, size=d_feat), gen.uniform(-0.5, 0.5, size=1)])
    seeds = _run_seeds(gen, 4)
    check_points = np.concatenate(
        [gen.normal(0.0, 1.0, size=(4, d_feat)), gen.uniform(-1.0, 1.0, size=(4, 1))], axis=1)
    population_path = os.path.join(workdir, "population.csv")
    header = "label," + ",".join(f"f{i + 1}" for i in range(d_feat)) + "\n"
    _write(population_path, header + "".join(
        f"{int(lab)}," + ",".join(repr(float(v)) for v in row) + "\n"
        for lab, row in zip(labels, features)))
    budget, eval_draws, mu, step, directions, batch = 16000, 500, 0.5, 0.005, 4, 8
    config_path = os.path.join(workdir, "strategic_run.ini")
    estimators = "".join(f"""
[estimator.{kind}]
kind = {kind}
mu = {mu!r}
step = {step!r}
directions = {directions}
batch = {batch}
""" for kind in ("sphere", "gaussian", "coordinate"))
    _write(config_path, f"""\
[environment]
kind = strategic
dimension = {d_feat + 1}
population_file = {population_path}

[run]
seeds = {' '.join(map(str, seeds))}
budget = {budget}
eval_draws = {eval_draws}
x0 = {_fmt_list(x0)}
{estimators}""")
    d = d_feat + 1
    return Workload(
        name="strategic_run", seed=seed, command="run", config_path=config_path,
        argv=("run", "--config", config_path),
        expected_ops=3 * len(seeds),
        params={
            "features": features.tolist(), "labels": labels.tolist(),
            "budget": budget,
            "costs": {"sphere": 2 * directions * batch, "gaussian": 2 * directions * batch,
                      "coordinate": 2 * d * batch},
        },
        check_points=tuple(tuple(p) for p in check_points.tolist()),
        check_replicates=4000,
    )


def _verify(seed: int, workdir: str) -> Workload:
    vseed = int(_generator("verify_mse", seed).integers(0, 1 << 30))
    return Workload(
        name="verify_mse", seed=seed, command="verify", config_path=None,
        argv=("verify", "--suite", "mse_bounds", "--seed", str(vseed)),
        expected_ops=MSE_CHECKS,
        params={"d": MSE_DIMENSION, "sigma": MSE_SIGMA, "x": MSE_POINT,
                "replicates": MSE_REPLICATES},
    )


def planned_directions(d: int, epsilon: float) -> int:
    """N = ceil(d^2 / eps^4), the sphere/grad schedule of the paper."""
    return math.ceil(d * d / epsilon**4)


def _planned(seed: int, workdir: str) -> Workload:
    gen = _generator("planned_wide", seed)
    d, eps = PLANNED_DIMENSION, PLANNED_EPSILON
    sigma = gen.uniform(0.5, 1.5)
    x0 = gen.uniform(0.5, 1.5, size=d) * gen.choice([-1.0, 1.0], size=d)
    seeds = _run_seeds(gen, 2)
    n_dirs = planned_directions(d, eps)
    # room for PLANNED_ITERATIONS estimates plus a remainder smaller than one
    budget = 2 * n_dirs * PLANNED_ITERATIONS + int(gen.integers(1, 2 * n_dirs))
    eval_draws = 2000
    config_path = os.path.join(workdir, "planned_wide.ini")
    _write(config_path, f"""\
[environment]
kind = quadratic
dimension = {d}
sigma = {sigma!r}

[run]
seeds = {' '.join(map(str, seeds))}
budget = {budget}
eval_draws = {eval_draws}
x0 = {_fmt_list(x0)}

[estimator.planned]
kind = sphere
plan = grad
epsilon = {eps!r}
""")
    return Workload(
        name="planned_wide", seed=seed, command="run", config_path=config_path,
        argv=("run", "--config", config_path),
        expected_ops=len(seeds),
        params={"d": d, "epsilon": eps, "x0": x0.tolist(), "budget": budget,
                "eval_draws": eval_draws},
    )


_BUILDERS = {
    "pricing_tune": _pricing,
    "strategic_run": _strategic,
    "verify_mse": _verify,
    "planned_wide": _planned,
}


def generate(name: str, seed: int, workdir: str) -> Workload:
    """Write the workload's input files into ``workdir`` and describe it."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    os.makedirs(workdir, exist_ok=True)
    workload = _BUILDERS[name](seed, workdir)
    workload.save(os.path.join(workdir, "workload.json"))
    return workload
