"""Experiment configuration: a single INI-style file with nested sections.

Grammar (documented in the README): sections in square brackets, ``key =
value`` pairs, ``#``/``;`` comments.  One ``[environment]`` section, one
``[run]`` section, one ``[estimator.<name>]`` section per method, and an
optional ``[tuning]`` section.  Lists are comma- or space-separated;
integer lists also accept ``a..b`` inclusive ranges (``seeds = 0..19``).

Parsing builds the environment once and resolves every estimator against
it, so what an environment constructor, a data file or the planner rejects
is caught here.  Configuration errors raise :class:`ConfigError` with the
offending section and field named, which the CLI maps to exit code 2.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, replace

import numpy as np

from ..core import Vector
from ..environments import (
    Environment,
    PricingEnv,
    QuadraticEnv,
    StrategicEnv,
    load_population,
    load_prices,
)
from ..estimators import ESTIMATOR_KINDS, EstimatorConfig
from ..optimizer import REGIMES, PlannerConstants, plan_parameters

DEFAULT_BUDGET = 5000
DEFAULT_EVAL_DRAWS = 1000

# the most bytes of one estimate's (N, d) float64 direction table, what
# ``zodd plan`` prints as direction matrix bytes: 128 MiB, 16 times the
# planned_wide benchmark's 8 MiB
DIRECTION_BYTES_MAX = 1 << 27


class ConfigError(ValueError):
    """Invalid experiment configuration; message names section and field."""


@dataclass(frozen=True)
class EnvironmentSpec:
    kind: str
    dimension: int
    sigma: float = 1.0
    curvature: float = 1.0
    seed: int = 0
    buyers: int = 120
    agents: int = 400
    separation: float = 1.0
    price_file: str | None = None
    population_file: str | None = None

    def build(self, budget: int | None = None) -> Environment:
        """Fresh environment instance; identical every call apart from the budget."""
        if self.kind == "quadratic":
            return QuadraticEnv.isotropic(
                self.dimension, self.sigma, self.curvature, budget=budget
            )
        if self.kind == "pricing":
            if self.price_file is not None:
                theta, rho = load_prices(self.price_file)
                return PricingEnv(theta, rho, buyers=self.buyers, budget=budget)
            return PricingEnv.synthetic(
                self.seed, n=self.dimension, buyers=self.buyers, budget=budget
            )
        if self.population_file is not None:
            features, labels = load_population(self.population_file)
            return StrategicEnv(features, labels, budget=budget)
        return StrategicEnv.synthetic(
            self.seed, count=self.agents, d_feat=self.dimension - 1,
            separation=self.separation, budget=budget,
        )

    def default_start(self) -> Vector:
        scale = {"quadratic": 1.0, "pricing": 0.5, "strategic": 1.0}[self.kind]
        return np.full(self.dimension, scale)


@dataclass(frozen=True)
class EstimatorSpec:
    """One method entry: either explicit knobs or a planner request."""

    name: str
    kind: str
    step: float | None = None
    mu: float | None = None
    directions: int = 1
    batch: int = 1
    plan_regime: str | None = None
    plan_epsilon: float | None = None

    def resolve(self, env: Environment) -> tuple[EstimatorConfig, float]:
        """Concrete (estimator config, step), consulting the planner if asked.

        Knobs that make no estimator config, or a plan the planner rejects,
        raise :class:`ConfigError` naming the estimator's section.
        """
        if self.plan_regime is None:
            try:
                config = EstimatorConfig(
                    kind=self.kind, mu=self.mu, directions=self.directions,
                    batch=self.batch,
                )
            except ValueError as exc:
                raise ConfigError(f"[estimator.{self.name}] {exc}") from exc
            return config, self.step
        sigma = env.noise_scale
        M = env.grad_smoothness
        H = env.hess_smoothness
        if sigma is None or M is None:
            raise ConfigError(
                f"[estimator.{self.name}] plan: environment does not expose the "
                "noise and smoothness constants a planner schedule needs"
            )
        try:
            plan = plan_parameters(
                self.kind, self.plan_regime, self.plan_epsilon, env.dimension,
                sigma, M, H,
            )
        except ValueError as exc:
            raise ConfigError(f"[estimator.{self.name}] plan: {exc}") from exc
        return plan.estimator_config(), plan.step


@dataclass(frozen=True)
class TuningSpec:
    enabled: bool = False
    steps: tuple[float, ...] = ()
    mus: tuple[float, ...] = ()
    directions: tuple[int, ...] = ()
    batches: tuple[int, ...] = ()
    trials: int = 3


@dataclass(frozen=True)
class ExperimentConfig:
    environment: EnvironmentSpec
    estimators: tuple[EstimatorSpec, ...]
    seeds: tuple[int, ...]
    budget: int = DEFAULT_BUDGET
    eval_draws: int = DEFAULT_EVAL_DRAWS
    x0: tuple[float, ...] | None = None
    timing: bool = False
    tuning: TuningSpec = field(default_factory=TuningSpec)

    def start_point(self) -> Vector:
        if self.x0 is None:
            return self.environment.default_start()
        if len(self.x0) == 1:
            return np.full(self.environment.dimension, self.x0[0])
        return np.asarray(self.x0, dtype=np.float64)


def _parse_scalar(section: str, key: str, raw: str, converter, description: str):
    try:
        return converter(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: expected {description}, got {raw!r}") from exc


def _parse_list(section: str, key: str, raw: str, converter, description: str) -> list:
    tokens = raw.replace(",", " ").split()
    if not tokens:
        raise ConfigError(f"[{section}] {key}: empty list")
    values = []
    for token in tokens:
        if ".." in token and converter is int:
            lo, _, hi = token.partition("..")
            lo = _parse_scalar(section, key, lo, int, description)
            hi = _parse_scalar(section, key, hi, int, description)
            if hi < lo:
                raise ConfigError(f"[{section}] {key}: empty range {token!r}")
            values.extend(range(lo, hi + 1))
        else:
            values.append(_parse_scalar(section, key, token, converter, description))
    return values


def _parse_bool(section: str, key: str, raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"[{section}] {key}: expected a boolean, got {raw!r}")


class _Section:
    """Typed accessors over one config section with consumed-key tracking."""

    def __init__(self, name: str, items: dict[str, str]):
        self.name = name
        self.items = dict(items)
        self.seen: set[str] = set()

    def _raw(self, key: str, default=None, required: bool = False) -> str | None:
        self.seen.add(key)
        if key in self.items:
            return self.items[key]
        if required:
            raise ConfigError(f"[{self.name}] missing required field {key!r}")
        return default

    def get_str(self, key: str, default=None, required=False, choices=None) -> str | None:
        raw = self._raw(key, default, required)
        if raw is not None and choices is not None and raw not in choices:
            raise ConfigError(
                f"[{self.name}] {key}: expected one of {sorted(choices)}, got {raw!r}"
            )
        return raw

    def get_int(self, key: str, default=None, required=False) -> int | None:
        raw = self._raw(key, default, required)
        if raw is None or isinstance(raw, int):
            return raw
        return _parse_scalar(self.name, key, raw, int, "an integer")

    def get_float(self, key: str, default=None, required=False) -> float | None:
        raw = self._raw(key, default, required)
        if raw is None or isinstance(raw, float):
            return raw
        value = _parse_scalar(self.name, key, raw, float, "a number")
        if not np.isfinite(value):
            raise ConfigError(f"[{self.name}] {key}: must be finite")
        return value

    def get_bool(self, key: str, default: bool) -> bool:
        raw = self._raw(key, None)
        return default if raw is None else _parse_bool(self.name, key, raw)

    def get_int_list(self, key: str, default=None) -> list[int] | None:
        raw = self._raw(key, None)
        if raw is None:
            return default
        return _parse_list(self.name, key, raw, int, "an integer")

    def get_float_list(self, key: str, default=None) -> list[float] | None:
        raw = self._raw(key, None)
        if raw is None:
            return default
        values = _parse_list(self.name, key, raw, float, "a number")
        if not np.all(np.isfinite(values)):
            raise ConfigError(f"[{self.name}] {key}: must be finite")
        return values

    def reject_unknown(self) -> None:
        unknown = set(self.items) - self.seen
        if unknown:
            raise ConfigError(
                f"[{self.name}] unknown field(s): {', '.join(sorted(unknown))}"
            )


# per kind: the key that sets the dimension and its default, the data file
# key, and every other key the kind reads, with its default
_ENVIRONMENT_KEYS = {
    "quadratic": ("dimension", 5, None, {"sigma": 1.0, "curvature": 1.0}),
    "pricing": ("products", 30, "price_file", {"buyers": 120, "seed": 0}),
    "strategic": ("dimension", 12, "population_file",
                  {"agents": 400, "separation": 1.0, "seed": 0}),
}
# the keys that shape a synthetic instance, which a data file replaces
_SYNTHETIC_KEYS = {"seed", "agents", "separation"}


def _parse_environment(section: _Section) -> tuple[EnvironmentSpec, Environment]:
    """The environment spec and the one environment built from it.

    A key its kind does not read is an unknown field; with a data file, the
    keys of the synthetic instance are not read.  Building checks what the
    constructors check, and reads the data file, whose dimension then
    replaces the configured one.
    """
    kind = section.get_str("kind", required=True, choices=set(_ENVIRONMENT_KEYS))
    key, default, data_key, knobs = _ENVIRONMENT_KEYS[kind]
    dimension = section.get_int(key)
    data_file = None if data_key is None else section.get_str(data_key)
    values = {
        name: (section.get_float if isinstance(value, float) else section.get_int)(name, value)
        for name, value in knobs.items() if data_file is None or name not in _SYNTHETIC_KEYS
    }
    if data_key is not None:
        values[data_key] = data_file
    spec = EnvironmentSpec(
        kind=kind, dimension=default if dimension is None else dimension, **values
    )
    section.reject_unknown()
    # with a data file, every value a constructor checks but buyers comes from it
    where = "" if data_file is None else f" {data_key}:"
    try:
        env = spec.build()
    except (OSError, ValueError) as exc:
        raise ConfigError(f"[{section.name}]{where} {exc}") from exc
    if data_file is not None:
        if dimension is not None and dimension != env.dimension:
            raise ConfigError(
                f"[{section.name}] {key}: {dimension} disagrees with {data_key}, "
                f"which gives {env.dimension}"
            )
        spec = replace(spec, dimension=env.dimension)
    return spec, env


def _parse_estimator(section: _Section, name: str) -> EstimatorSpec:
    kind = section.get_str("kind", required=True, choices=set(ESTIMATOR_KINDS))
    regime = section.get_str("plan", choices=set(REGIMES))
    epsilon = section.get_float("epsilon")
    mu = section.get_float("mu")
    step = section.get_float("step")
    spec = EstimatorSpec(
        name=name,
        kind=kind,
        step=step,
        mu=mu,
        directions=section.get_int("directions", 1),
        batch=section.get_int("batch", 1),
        plan_regime=regime,
        plan_epsilon=epsilon,
    )
    section.reject_unknown()
    if regime is None:
        if mu is None or step is None:
            raise ConfigError(
                f"[{section.name}] needs mu and step (or plan + epsilon)"
            )
        if (epsilon is not None):
            raise ConfigError(f"[{section.name}] epsilon requires plan = grad|hessian")
        if step <= 0:
            raise ConfigError(f"[{section.name}] step must be positive")
    else:
        if epsilon is None:
            raise ConfigError(f"[{section.name}] plan requires epsilon")
        if mu is not None or step is not None:
            raise ConfigError(
                f"[{section.name}] plan and explicit mu/step are mutually exclusive"
            )
        for key in ("directions", "batch"):
            if key in section.items:
                raise ConfigError(f"[{section.name}] {key}: plan sets it; remove one of the two")
    return spec


def _parse_tuning(section: _Section) -> TuningSpec:
    spec = TuningSpec(
        enabled=section.get_bool("enabled", False),
        steps=tuple(section.get_float_list("step", [])),
        mus=tuple(section.get_float_list("mu", [])),
        directions=tuple(section.get_int_list("directions", [])),
        batches=tuple(section.get_int_list("batch", [])),
        trials=section.get_int("trials", 3),
    )
    section.reject_unknown()
    for key, values in (("step", spec.steps), ("mu", spec.mus)):
        if any(value <= 0 for value in values):
            raise ConfigError(f"[{section.name}] {key}: every value must be positive")
    for key, values in (("directions", spec.directions), ("batch", spec.batches)):
        if any(value < 1 for value in values):
            raise ConfigError(f"[{section.name}] {key}: every value must be >= 1")
    if spec.enabled:
        if not spec.steps or not spec.mus:
            raise ConfigError("[tuning] enabled tuning needs step and mu lists")
        if spec.trials < 1:
            raise ConfigError("[tuning] trials must be >= 1")
    return spec


def parse_config(path) -> ExperimentConfig:
    """Parse and validate an experiment configuration file."""
    parser = configparser.ConfigParser(
        interpolation=None, delimiters=("=",), inline_comment_prefixes=("#", ";")
    )
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from exc

    sections = {name: _Section(name, dict(parser.items(name))) for name in parser.sections()}
    known = {"environment", "run", "tuning"}
    for name in sections:
        if name not in known and not name.startswith("estimator."):
            raise ConfigError(f"unknown section [{name}]")

    if "environment" not in sections:
        raise ConfigError("missing [environment] section")
    env_spec, env = _parse_environment(sections["environment"])

    estimators = []
    for name, section in sections.items():
        if name.startswith("estimator."):
            label = name[len("estimator."):]
            if not label:
                raise ConfigError("estimator section needs a name: [estimator.<name>]")
            estimators.append(_parse_estimator(section, label))
    if not estimators:
        raise ConfigError("need at least one [estimator.<name>] section")

    run = sections.get("run", _Section("run", {}))
    seeds = run.get_int_list("seeds", [0])
    budget = run.get_int("budget", DEFAULT_BUDGET)
    eval_draws = run.get_int("eval_draws", DEFAULT_EVAL_DRAWS)
    x0 = run.get_float_list("x0")
    timing = run.get_bool("timing", False)
    run.reject_unknown()
    if not seeds:
        raise ConfigError("[run] seeds must be nonempty")
    if len(set(seeds)) != len(seeds):
        raise ConfigError("[run] seeds must be distinct")
    if budget < 1:
        raise ConfigError("[run] budget must be >= 1")
    if eval_draws < 2:
        raise ConfigError("[run] eval_draws must be >= 2")
    if x0 is not None and len(x0) not in (1, env_spec.dimension):
        raise ConfigError(
            f"[run] x0 must be a scalar or {env_spec.dimension} values, got {len(x0)}"
        )

    tuning = _parse_tuning(sections.get("tuning", _Section("tuning", {})))
    costs = []
    for spec in estimators:
        if tuning.enabled and spec.plan_regime is not None:
            raise ConfigError(f"[estimator.{spec.name}] plan: a planned estimator cannot be tuned")
        est_cfg, _ = spec.resolve(env)
        n = est_cfg.probe_shape(env.dimension)[1]
        if tuning.enabled and tuning.directions and spec.kind in ("sphere", "gaussian"):
            n = max(tuning.directions)
        table_bytes = n * env.dimension * 8
        if table_bytes > DIRECTION_BYTES_MAX:
            raise ConfigError(
                f"[estimator.{spec.name}] one estimate's direction table would be "
                f"{table_bytes} bytes ({n} directions at d = {env.dimension}), "
                f"above the {DIRECTION_BYTES_MAX}-byte ceiling"
            )
        if spec.plan_regime is None:  # planner-sized methods are checked per row at run time
            costs.append(est_cfg.samples_per_estimate(env.dimension))
    if costs and budget < min(costs):
        raise ConfigError(
            f"[run] budget {budget} is below the cheapest single estimate "
            f"({min(costs)} draws); no method could take even one step"
        )

    return ExperimentConfig(
        environment=env_spec,
        estimators=tuple(estimators),
        seeds=tuple(seeds),
        budget=budget,
        eval_draws=eval_draws,
        x0=None if x0 is None else tuple(x0),
        timing=timing,
        tuning=tuning,
    )
