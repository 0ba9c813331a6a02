"""Config grammar, experiment driver, tuning, verify suites, and the CLI."""

import csv
import hashlib
import math
import os
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from zodd.environments import PricingEnv, QuadraticEnv, save_population, save_prices
from zodd.harness.cli import main
from zodd.harness.config import (
    DIRECTION_BYTES_MAX,
    ConfigError,
    EnvironmentSpec,
    EstimatorSpec,
    TuningSpec,
    parse_config,
)
from zodd.harness.runner import (
    RESULT_COLUMNS,
    STATUS_BUDGET_ERROR,
    STATUS_DIVERGED,
    STATUS_OK,
    run_cell,
    run_chains,
    run_experiment,
)
from zodd.harness.tuning import TUNING_SEED_BASE, candidate_specs, score_candidate, tune_method
from zodd.core import DRAWS, RngStream
import zodd.core
import zodd.environments
import zodd.estimators
from zodd.estimators import EstimatorConfig, estimate_gradients
from zodd.harness import tuning, verify
from zodd.harness.verify import (
    CheckResult,
    format_report,
    run_descent_lemma,
    run_mse_bounds,
    run_moments,
    run_n_dominance,
    run_streams,
    run_suite,
    run_unbiasedness,
)

DEMO_CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"

GOOD_CONFIG = """\
[environment]
kind = quadratic
dimension = 4
sigma = 0.5

[run]
seeds = 0..2
budget = 1200
eval_draws = 200
x0 = 1.0

[estimator.sph]
kind = sphere
mu = 0.1
directions = 5
step = 0.2

[estimator.coord]
kind = coordinate
mu = 0.1
step = 0.2
"""


TUNED_PRICING = """\
[environment]
kind = pricing
products = 4
buyers = 30
seed = 3

[run]
seeds = 0 1
budget = 240
eval_draws = 50

[estimator.sphere]
kind = sphere
mu = 0.1
directions = 2
step = 0.01

[estimator.one_point]
kind = one_point
mu = 0.1
step = 0.001

[tuning]
enabled = true
step = 0.001 0.01
mu = 0.05 0.2
directions = 1 4
batch = 1 2
trials = 2
"""

TUNED_STRATEGIC = """\
[environment]
kind = strategic
dimension = 4
agents = 60
separation = 1.5
seed = 2

[run]
seeds = 0 1
budget = 240
eval_draws = 50

[estimator.sphere]
kind = sphere
mu = 0.2
directions = 2
step = 0.05

[estimator.one_point]
kind = one_point
mu = 0.2
step = 0.01

[tuning]
enabled = true
step = 0.01 0.1
mu = 0.1 0.4
directions = 1 4
batch = 1 2
trials = 2
"""

# the planner sizes this sphere estimator at N = 16^2 / 0.25^4 = 65,536, so
# every estimate's 131,072 probe points reach the oracle in 16 chunks
PLANNED_WIDE = """\
[environment]
kind = quadratic
dimension = 16
sigma = 0.75

[run]
seeds = 3 4
budget = 400000
eval_draws = 200
x0 = 1.0

[estimator.planned]
kind = sphere
plan = grad
epsilon = 0.25
"""


@pytest.fixture()
def good_config(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(GOOD_CONFIG)
    return path


def _write(tmp_path, text):
    path = tmp_path / "bad.ini"
    path.write_text(text)
    return path


class TestConfigParsing:
    def test_full_parse(self, good_config):
        cfg = parse_config(good_config)
        assert cfg.environment.kind == "quadratic"
        assert cfg.environment.dimension == 4
        assert cfg.seeds == (0, 1, 2)
        assert cfg.budget == 1200
        assert cfg.eval_draws == 200
        assert [s.name for s in cfg.estimators] == ["sph", "coord"]
        assert np.array_equal(cfg.start_point(), np.ones(4))
        assert not cfg.tuning.enabled
        assert not cfg.timing

    def test_defaults(self, tmp_path):
        path = _write(tmp_path, """\
[environment]
kind = quadratic

[estimator.e]
kind = sphere
mu = 0.1
step = 0.1
""")
        cfg = parse_config(path)
        assert cfg.budget == 5000
        assert cfg.eval_draws == 1000
        assert cfg.seeds == (0,)
        assert cfg.environment.dimension == 5

    def test_environment_builds(self, good_config):
        env = parse_config(good_config).environment.build(budget=7)
        assert isinstance(env, QuadraticEnv)
        assert env.dimension == 4
        assert env.budget.limit == 7

    def test_pricing_and_strategic_specs(self, tmp_path):
        path = _write(tmp_path, """\
[environment]
kind = pricing
products = 6
buyers = 50
seed = 3

[estimator.e]
kind = gaussian
mu = 0.1
step = 0.001
""")
        cfg = parse_config(path)
        env = cfg.environment.build()
        assert isinstance(env, PricingEnv)
        assert env.dimension == 6
        assert env.buyers == 50

    def test_external_price_file(self, tmp_path):
        save_prices(tmp_path / "p.csv", np.array([1.0, 1.5]), np.array([0.3, 0.4]))
        path = _write(tmp_path, f"""\
[environment]
kind = pricing
products = 2
price_file = {tmp_path / "p.csv"}

[estimator.e]
kind = sphere
mu = 0.1
step = 0.001
""")
        env = parse_config(path).environment.build()
        assert np.array_equal(env.theta, [1.0, 1.5])

    def test_external_population_file(self, tmp_path):
        features = np.arange(12.0).reshape(4, 3)
        labels = np.array([0.0, 1.0, 0.0, 1.0])
        save_population(tmp_path / "pop.csv", features, labels)
        path = _write(tmp_path, f"""\
[environment]
kind = strategic
dimension = 4
population_file = {tmp_path / "pop.csv"}

[estimator.e]
kind = sphere
mu = 0.1
step = 0.001
""")
        env = parse_config(path).environment.build()
        assert env.population_size == 4
        assert env.dimension == 4

    @staticmethod
    def _data_file_config(tmp_path, kind, size_line, data=None):
        """A config reading a data file: a saved one, or the text ``data``."""
        if kind == "pricing":
            save_prices(tmp_path / "data.csv", np.array([1.0, 1.5]), np.array([0.3, 0.4]))
            file_line = f"price_file = {tmp_path / 'data.csv'}"
        else:
            features = np.arange(12.0).reshape(4, 3)
            save_population(tmp_path / "data.csv", features, np.array([0.0, 1.0, 0.0, 1.0]))
            file_line = f"population_file = {tmp_path / 'data.csv'}"
        if data is not None:
            (tmp_path / "data.csv").write_text(data)
        return _write(tmp_path, f"""\
[environment]
kind = {kind}
{size_line}
{file_line}

[estimator.e]
kind = sphere
mu = 0.1
step = 0.001
""")

    @pytest.mark.parametrize("kind,size", [("pricing", 2), ("strategic", 4)])
    def test_data_file_sets_the_dimension(self, tmp_path, kind, size):
        cfg = parse_config(self._data_file_config(tmp_path, kind, ""))
        assert cfg.environment.dimension == size
        assert cfg.start_point().shape == (size,)
        assert cfg.environment.build().dimension == size

    @pytest.mark.parametrize("kind,size_line,size", [
        ("pricing", "products = 2", 2), ("strategic", "dimension = 4", 4),
    ])
    def test_data_file_agreeing_with_the_dimension_is_accepted(self, tmp_path, kind,
                                                                size_line, size):
        cfg = parse_config(self._data_file_config(tmp_path, kind, size_line))
        assert cfg.environment.dimension == size

    @pytest.mark.parametrize("kind,size_line", [
        ("pricing", "products = 3"), ("strategic", "dimension = 12"),
    ])
    def test_data_file_disagreeing_with_the_dimension_is_rejected(self, tmp_path, kind, size_line):
        with pytest.raises(ConfigError, match=f"\\[environment\\] {size_line.split()[0]}"):
            parse_config(self._data_file_config(tmp_path, kind, size_line))

    @pytest.mark.parametrize("mutation,needle", [
        ("[environment]\nkind = quadratic", "estimator"),           # no estimators
        ("[environment]\nkind = cubic\n[estimator.e]\nkind = sphere\nmu = 1\nstep = 1", "kind"),
        ("[environment]\nkind = quadratic\n[weird]\nx = 1\n[estimator.e]\nkind = sphere\nmu = 1\nstep = 1", "unknown section"),
        ("[environment]\nkind = quadratic\ntypo = 1\n[estimator.e]\nkind = sphere\nmu = 1\nstep = 1", "unknown field"),
        ("[environment]\nkind = quadratic\n[estimator.e]\nkind = sphere\nmu = 1", "step"),
        ("[environment]\nkind = quadratic\n[estimator.e]\nkind = sphere\nmu = 1\nstep = 1\nepsilon = 0.1", "epsilon"),
        ("[environment]\nkind = quadratic\n[estimator.e]\nkind = sphere\nplan = grad\nmu = 1", "epsilon"),
        ("[environment]\nkind = quadratic\n[run]\nseeds = 1 1\n[estimator.e]\nkind = sphere\nmu = 1\nstep = 1", "distinct"),
        ("[environment]\nkind = quadratic\n[run]\nbudget = 0\n[estimator.e]\nkind = sphere\nmu = 1\nstep = 1", "budget"),
        ("[environment]\nkind = quadratic\n[run]\nx0 = 1 2 3\n[estimator.e]\nkind = sphere\nmu = 1\nstep = 1", "x0"),
        ("[environment]\nkind = quadratic\n[run]\nseeds = 5..2\n[estimator.e]\nkind = sphere\nmu = 1\nstep = 1", "range"),
        ("[environment]\nkind = quadratic\n[run]\nbudget = pony\n[estimator.e]\nkind = sphere\nmu = 1\nstep = 1", "integer"),
        ("[environment]\nkind = quadratic\n[run]\nx0 = nan\n[estimator.e]\nkind = sphere\nmu = 1\nstep = 1", "[run] x0"),
        ("[environment]\nkind = quadratic\n[estimator.e]\nkind = sphere\nmu = 1\nstep = 1\n[tuning]\nenabled = true\nstep = -0.001 0.001\nmu = 0.1", "[tuning] step"),
        ("[environment]\nkind = quadratic\n[estimator.e]\nkind = sphere\nmu = 1\nstep = 1\n[tuning]\nenabled = true\nstep = 0.001\nmu = -0.1 0.1", "[tuning] mu"),
        ("[environment]\nkind = quadratic\n[estimator.e]\nkind = sphere\nmu = 1\nstep = 1\n[tuning]\nenabled = true\nstep = 0.001\nmu = 0.1\ndirections = 0 4", "[tuning] directions"),
        ("[environment]\nkind = quadratic\n[estimator.e]\nkind = sphere\nmu = 1\nstep = 1\n[tuning]\nenabled = true\nstep = 0.001\nmu = 0.1\nbatch = 2 0", "[tuning] batch"),
        ("[environment]\nkind = pricing\nprice_file = /nonexistent/prices.csv\n[estimator.e]\nkind = sphere\nmu = 1\nstep = 1", "[environment] price_file"),
        ("[environment]\nkind = strategic\npopulation_file = /nonexistent/population.csv\n[estimator.e]\nkind = sphere\nmu = 1\nstep = 1", "[environment] population_file"),
        ("[environment]\nkind = quadratic\n[estimator.e]\nkind = sphere\nmu = 1\nstep = 1\n[tuning]\nenabled = true\nstep = 0 0.001\nmu = 0.1", "[tuning] step"),
        ("[environment]\nkind = quadratic\n[estimator.e]\nkind = sphere\nmu = 1\nstep = 1\n[tuning]\nenabled = true\nstep = 0.001\nmu = 0.1 inf", "[tuning] mu"),
        ("[environment]\nkind = quadratic\nprice_file = /nonexistent.csv\n[estimator.e]\nkind = sphere\nmu = 1\nstep = 1", "[environment] unknown field(s): price_file"),
        ("[environment]\nkind = quadratic\nbuyers = 50\n[estimator.e]\nkind = sphere\nmu = 1\nstep = 1", "[environment] unknown field(s): buyers"),
        ("[environment]\nkind = pricing\npopulation_file = nothing.csv\n[estimator.e]\nkind = sphere\nmu = 1\nstep = 1", "[environment] unknown field(s): population_file"),
        ("[environment]\nkind = pricing\ncurvature = 2\n[estimator.e]\nkind = sphere\nmu = 1\nstep = 1", "[environment] unknown field(s): curvature"),
        ("[environment]\nkind = quadratic\n[estimator.p]\nkind = sphere\nplan = grad\nepsilon = 0.3\n[tuning]\nenabled = true\nstep = 0.1\nmu = 0.1", "[estimator.p] plan"),
        ("[environment]\nkind = quadratic\n[estimator.p]\nkind = sphere\nplan = grad\nepsilon = 0.3\ndirections = 4", "[estimator.p] directions"),
        ("[environment]\nkind = quadratic\n[estimator.p]\nkind = coordinate\nplan = grad\nepsilon = 0.3\nbatch = 4", "[estimator.p] batch"),
        # (kind, line) pairs: a data-file config with one more environment line
        (("pricing", "seed = 3"), "[environment] unknown field(s): seed"),
        (("strategic", "seed = 3"), "[environment] unknown field(s): seed"),
        (("strategic", "agents = 60"), "[environment] unknown field(s): agents"),
        (("strategic", "separation = 1.5"), "[environment] unknown field(s): separation"),
        # (kind, line, data): a short row in the data file, on its third line
        (("pricing", "", "theta,rho\n1.0,0.3\n1.0\n"), "data.csv: line 3: expected numbers"),
        (("strategic", "", "label,f1,f2\n0,1,2\n\n1,3,4\n"), "data.csv: line 3: expected 3 fields"),
        # a field that is not a number, on the third line
        (("strategic", "", "label,f1,f2\n0,1,2\n1,x,4\n"), "data.csv: line 3: expected numbers, got 'x'"),
        # a value that is not finite, on the third line
        (("pricing", "", "theta,rho\n1.0,0.3\n1.5,inf\n"), "data.csv: line 3: expected finite numbers"),
        (("strategic", "", "label,f1,f2\n0,1,2\n1,nan,4\n"), "data.csv: line 3: expected finite numbers"),
        # the environment is built at parse time, so its constructor's checks apply
        ("[environment]\nkind = pricing\nbuyers = 0\n[estimator.e]\nkind = sphere\nmu = 1\nstep = 1", "[environment]"),
        ("[environment]\nkind = strategic\nagents = 0\n[estimator.e]\nkind = sphere\nmu = 1\nstep = 1", "[environment]"),
        ("[environment]\nkind = quadratic\ndimension = 0\n[estimator.e]\nkind = sphere\nmu = 1\nstep = 1", "[environment]"),
    ])
    def test_rejected_configs(self, tmp_path, mutation, needle):
        if isinstance(mutation, tuple):
            path = self._data_file_config(tmp_path, *mutation)
        else:
            path = _write(tmp_path, mutation + "\n")
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert needle in str(err.value)

    @pytest.mark.parametrize("config", ["quadratic", "pricing_file", "planned"])
    def test_parse_builds_the_environment_once(self, tmp_path, monkeypatch, config):
        save_prices(tmp_path / "p.csv", np.array([1.0, 1.5]), np.array([0.3, 0.4]))
        environment, estimator = {
            "quadratic": ("kind = quadratic", "mu = 0.1\nstep = 0.1"),
            "pricing_file": (f"kind = pricing\nprice_file = {tmp_path / 'p.csv'}",
                             "mu = 0.1\nstep = 0.001"),
            "planned": ("kind = quadratic\ndimension = 3", "plan = grad\nepsilon = 0.3"),
        }[config]
        path = _write(tmp_path, f"[environment]\n{environment}\n\n"
                                f"[estimator.e]\nkind = sphere\n{estimator}\n")
        calls = []
        build = EnvironmentSpec.build

        def counted(spec, *args, **kwargs):
            calls.append(spec)
            return build(spec, *args, **kwargs)

        monkeypatch.setattr(EnvironmentSpec, "build", counted)
        parse_config(path)
        assert len(calls) == 1

    @pytest.mark.parametrize("kind", ["pricing", "strategic"])
    def test_a_run_reads_its_data_file_once_after_parsing(self, tmp_path, monkeypatch, kind):
        # one read at parse, one per run_chains call, however many groups it runs
        from zodd.harness import config as config_module
        loader = {"pricing": "load_prices", "strategic": "load_population"}[kind]
        path = self._data_file_config(tmp_path, kind, "")
        estimators = "".join(f"\n[estimator.{k}]\nkind = {k}\nmu = 0.1\nstep = 0.001\n"
                             for k in ("gaussian", "coordinate", "one_point"))
        path.write_text(path.read_text() + estimators)
        calls = []
        load = getattr(config_module, loader)

        def counted(*args):
            calls.append(args)
            return load(*args)

        monkeypatch.setattr(config_module, loader, counted)
        config = parse_config(path)
        assert len(calls) == 1
        rows, _ = run_experiment(config)
        assert len(rows) == 4 * len(config.seeds) and len(calls) == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(tmp_path / "nope.ini")

    def test_budget_below_cheapest_estimate(self, tmp_path):
        path = _write(tmp_path, """\
[environment]
kind = quadratic
dimension = 5

[run]
budget = 9

[estimator.e]
kind = coordinate
mu = 0.1
step = 0.1
""")
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert "cheapest" in str(err.value)

    def test_planner_spec_resolution(self, tmp_path):
        path = _write(tmp_path, """\
[environment]
kind = quadratic
dimension = 3
sigma = 1.0

[estimator.planned]
kind = sphere
plan = grad
epsilon = 0.2
""")
        cfg = parse_config(path)
        env = cfg.environment.build()
        est_cfg, step = cfg.estimators[0].resolve(env)
        assert est_cfg.directions == math.ceil(9 / 0.2**4)
        assert est_cfg.mu == pytest.approx(0.2)
        assert step == pytest.approx(0.25)

    def test_a_planned_direction_table_over_the_ceiling_exits_2(self, tmp_path, capsys):
        # sphere/grad at d = 10 and epsilon = 0.05 plans N = 16,000,000
        # directions: 1.28 GB for one estimate's table, which zodd plan prints
        assert main(["plan", "--kind", "sphere", "--regime", "grad", "--epsilon", "0.05",
                     "--dimension", "10", "--sigma", "1", "--smoothness", "1"]) == 0
        assert "direction matrix bytes  1280000000" in capsys.readouterr().out
        path = _write(tmp_path, """\
[environment]
kind = quadratic
dimension = 10

[estimator.wide]
kind = sphere
plan = grad
epsilon = 0.05
""")
        assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "[estimator.wide]" in err and "1280000000 bytes" in err
        assert not (tmp_path / "results.csv").exists()

    @pytest.mark.parametrize("directions, tuned, ok", [
        (DIRECTION_BYTES_MAX // 80, None, True),
        (DIRECTION_BYTES_MAX // 80 + 1, None, False),
        (1, DIRECTION_BYTES_MAX // 80 + 1, False),
    ])
    def test_an_explicit_direction_table_meets_the_same_ceiling(self, tmp_path, directions,
                                                                tuned, ok):
        tuning = "" if tuned is None else f"""
[tuning]
enabled = true
step = 0.1
mu = 0.1
directions = 1 {tuned}
"""
        path = _write(tmp_path, f"""\
[environment]
kind = quadratic
dimension = 10

[run]
budget = {10 * directions}

[estimator.wide]
kind = gaussian
mu = 0.1
step = 0.1
directions = {directions}
{tuning}""")
        if ok:
            parse_config(path)
            return
        with pytest.raises(ConfigError, match=f"{80 * (tuned or directions)} bytes"):
            parse_config(path)

    def test_planner_needs_analytic_constants(self):
        spec = EstimatorSpec(name="p", kind="sphere", plan_regime="grad", plan_epsilon=0.2)
        with pytest.raises(ConfigError):
            spec.resolve(PricingEnv.synthetic(0, n=3))

    def test_coordinate_hessian_plan_on_quadratic_fails_at_parse_time(self, tmp_path):
        # H = 0 on a quadratic: the coordinate schedule's probe radius is infinite
        path = _write(tmp_path, """\
[environment]
kind = quadratic
dimension = 3

[estimator.coord]
kind = coordinate
plan = hessian
epsilon = 0.25
""")
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert "[estimator.coord]" in str(err.value) and "positive H" in str(err.value)

    def test_tuning_section(self, tmp_path):
        path = _write(tmp_path, """\
[environment]
kind = quadratic

[estimator.e]
kind = sphere
mu = 0.1
step = 0.1

[tuning]
enabled = true
step = 0.05 0.2
mu = 0.05, 0.2
directions = 1 8
trials = 2
""")
        cfg = parse_config(path)
        assert cfg.tuning.enabled
        assert cfg.tuning.steps == (0.05, 0.2)
        assert cfg.tuning.directions == (1, 8)

    def test_enabled_tuning_needs_lists(self, tmp_path):
        path = _write(tmp_path, """\
[environment]
kind = quadratic

[estimator.e]
kind = sphere
mu = 0.1
step = 0.1

[tuning]
enabled = true
""")
        with pytest.raises(ConfigError):
            parse_config(path)


class TestRunner:
    def test_rows_ordered_and_complete(self, good_config):
        cfg = parse_config(good_config)
        results, traces = run_experiment(cfg)
        assert [(r.method, r.seed) for r in results] == [
            ("sph", 0), ("sph", 1), ("sph", 2),
            ("coord", 0), ("coord", 1), ("coord", 2),
        ]
        assert all(r.status == STATUS_OK for r in results)
        # sphere: cost 10 -> 120 iterations on budget 1200
        sph_rows = [t for t in traces if t.method == "sph" and t.seed == 0]
        assert len(sph_rows) == 120
        assert sph_rows[0].cumulative_samples == 10
        assert sph_rows[-1].cumulative_samples == 1200

    def test_grad_norm_only_for_analytic_gradient(self, tmp_path, good_config):
        results, _ = run_experiment(parse_config(good_config))
        assert all(isinstance(r.grad_norm_sq, float) for r in results)
        pricing = _write(tmp_path, """\
[environment]
kind = pricing
products = 3

[run]
budget = 60
eval_draws = 50

[estimator.e]
kind = sphere
mu = 0.1
step = 0.001
""")
        rows, _ = run_experiment(parse_config(pricing))
        assert rows[0].grad_norm_sq is None

    def test_budget_error_row(self, tmp_path):
        path = _write(tmp_path, """\
[environment]
kind = quadratic
dimension = 4

[run]
budget = 500

[estimator.cheap]
kind = sphere
mu = 0.1
step = 0.1

[estimator.greedy]
kind = sphere
mu = 0.1
directions = 400
step = 0.1
""")
        results, traces = run_experiment(parse_config(path))
        by_method = {r.method: r for r in results}
        assert by_method["cheap"].status == STATUS_OK
        greedy = by_method["greedy"]
        assert greedy.status == STATUS_BUDGET_ERROR
        assert greedy.samples_used == 0
        assert math.isnan(greedy.obj_mean)
        assert all(t.method != "greedy" for t in traces)

    def test_diverged_row(self, tmp_path):
        path = _write(tmp_path, """\
[environment]
kind = quadratic
dimension = 2
sigma = 0.0

[run]
budget = 400
x0 = 3.0

[estimator.wild]
kind = coordinate
mu = 0.1
step = 40.0
""")
        results, traces = run_experiment(parse_config(path))
        row = results[0]
        assert row.status == STATUS_DIVERGED
        assert math.isnan(row.obj_mean)
        assert 0 < row.samples_used < 400
        assert len(traces) == row.samples_used // 4  # 2*d*m probes per step

    def test_timing_column_opt_in(self, good_config, tmp_path):
        cfg = parse_config(good_config)
        spec = next(s for s in cfg.estimators if s.name == "sph")
        assert run_cell(cfg, spec, 0).row.wall_time_s is None
        timed = _write(tmp_path, GOOD_CONFIG + "timing = true\n")
        # timing flag lives in [run]; append there instead
        timed.write_text(GOOD_CONFIG.replace("[run]\n", "[run]\ntiming = true\n"))
        assert run_cell(parse_config(timed), spec, 0).row.wall_time_s > 0


class TestTuning:
    def _config(self, tmp_path, tuning_block):
        path = _write(tmp_path, """\
[environment]
kind = quadratic
dimension = 3
sigma = 0.2

[run]
budget = 600
eval_draws = 100
x0 = 2.0

[estimator.sph]
kind = sphere
mu = 0.1
directions = 3
step = 0.1

""" + tuning_block)
        return parse_config(path)

    def test_candidate_grid(self, tmp_path):
        cfg = self._config(tmp_path, """\
[tuning]
enabled = true
step = 0.01 0.25
mu = 0.05 0.2
directions = 1 6
trials = 2
""")
        candidates = candidate_specs(cfg.estimators[0], cfg.tuning)
        assert len(candidates) == 8
        assert all(c.plan_regime is None for c in candidates)

    def test_planned_spec_has_no_candidates(self, tmp_path):
        cfg = self._config(tmp_path, "[tuning]\nenabled = true\nstep = 0.1\nmu = 0.1\n")
        spec = EstimatorSpec(name="p", kind="sphere", plan_regime="grad", plan_epsilon=0.3)
        with pytest.raises(ValueError, match="'p' is planned"):
            candidate_specs(spec, cfg.tuning)

    @pytest.mark.parametrize("kind", ["coordinate", "one_point"])
    def test_batch_knob_methods(self, tmp_path, kind):
        cfg = self._config(tmp_path, """\
[tuning]
enabled = true
step = 0.01 0.25
mu = 0.05
batch = 1 4 9
""")
        spec = EstimatorSpec(name="c", kind=kind, mu=0.1, step=0.1)
        candidates = candidate_specs(spec, cfg.tuning)
        assert sorted({c.batch for c in candidates}) == [1, 4, 9]
        assert all(c.directions == 1 for c in candidates)

    def test_tune_picks_the_working_step(self, tmp_path):
        cfg = self._config(tmp_path, """\
[tuning]
enabled = true
step = 1e-05 0.25
mu = 0.1
directions = 3
trials = 2
""")
        outcome = tune_method(cfg, cfg.estimators[0])
        assert outcome.chosen.step == pytest.approx(0.25)
        assert len(outcome.scores) == 2

    @pytest.mark.parametrize("scores, chosen", [
        ([3.0, 1.0, 1.0, math.inf], 1),  # the lowest score, the first of a tie
        ([math.nan, 2.0, -math.inf, 2.0], 1),  # only finite scores compete
        ([math.inf, math.nan, math.inf, math.inf], 0),  # none finite: the first
    ])
    def test_tune_picks_the_first_lowest_finite_score(self, tmp_path, monkeypatch,
                                                      scores, chosen):
        cfg = self._config(tmp_path, "[tuning]\nenabled = true\nstep = 0.01 0.25\n"
                                     "mu = 0.05 0.2\ntrials = 1\n")
        given = iter(scores)
        monkeypatch.setattr(tuning, "_mean_objective", lambda env, outcomes: next(given))
        outcome = tune_method(cfg, cfg.estimators[0])
        assert outcome.chosen == candidate_specs(cfg.estimators[0], cfg.tuning)[chosen]

    def test_tune_scores_every_candidate_as_alone(self, tmp_path):
        cfg = self._config(tmp_path, """\
[tuning]
enabled = true
step = 0.01 0.25
mu = 0.05 0.2
directions = 1 3
trials = 2
""")
        outcome = tune_method(cfg, cfg.estimators[0])
        candidates = candidate_specs(cfg.estimators[0], cfg.tuning)
        assert [c for c, _ in outcome.scores] == candidates
        assert [s for _, s in outcome.scores] == [score_candidate(cfg, c) for c in candidates]

    def test_score_is_mean_exact_objective_at_outputs(self, tmp_path):
        cfg = self._config(tmp_path, "")
        spec = cfg.estimators[0]
        seeds = [TUNING_SEED_BASE + trial for trial in range(cfg.tuning.trials)]
        env = cfg.environment.build()
        values = [env.exact_objective(o.output_point)
                  for o in run_chains(cfg, [spec] * len(seeds), seeds)]
        assert score_candidate(cfg, spec) == sum(values) / len(values)

    def test_infeasible_candidate_scores_inf(self, tmp_path):
        cfg = self._config(tmp_path, "")
        spec = EstimatorSpec(name="big", kind="sphere", mu=0.1, directions=10_000, step=0.1)
        assert score_candidate(cfg, spec) == math.inf


def _failing_stream_checks():
    """The checks of ``zodd verify --suite streams`` that fail, by name."""
    return [r.check for r in run_streams(seed=0) if not r.passed]


class TestStreamsSuiteOnDoctoredLayouts:
    """Each check of the streams suite fails on a layout doctored to break
    what it checks."""

    def test_forward_and_backward_probes_on_one_substream(self, monkeypatch):
        # each row's draws substream twice: the backward half of its probes
        # starts the substream over
        plan = zodd.estimators._plan_step

        def doubled(*args):
            step = plan(*args)
            return step._replace(draws=[sub for sub in step.draws for _ in (0, 1)])

        monkeypatch.setattr(zodd.estimators, "_plan_step", doubled)
        assert "forward vs backward probe noise of one estimate" in _failing_stream_checks()

    def test_a_draws_substream_reused_across_two_steps(self, monkeypatch):
        at = RngStream.at
        monkeypatch.setattr(RngStream, "at", lambda self, step, purpose, chunk=0: at(
            self, 0 if purpose == DRAWS else step, purpose, chunk))
        assert _failing_stream_checks() == ["noise of one chain at steps t and t+1"]

    def test_two_seeds_mapped_to_one_key(self, monkeypatch):
        at = RngStream.at
        monkeypatch.setattr(RngStream, "at", lambda self, step, purpose, chunk=0: at(
            RngStream(0, self.stream), step, purpose, chunk))
        assert ("noise of two chains on two seeds in one lockstep group"
                in _failing_stream_checks())

    def test_two_replicate_chunks_mapped_to_one_key(self, monkeypatch):
        child = RngStream.child
        monkeypatch.setattr(RngStream, "child", lambda self, *labels: child(
            self, *(labels[:1] if labels[:1] == ("chunk",) else labels)))
        assert _failing_stream_checks() == ["noise of two replicate chunks of the MSE suites"]

    def test_two_direction_chunks_mapped_to_one_counter(self, monkeypatch):
        at = RngStream.at
        monkeypatch.setattr(RngStream, "at", lambda self, step, purpose, chunk=0: at(
            self, step, purpose, 0))
        assert _failing_stream_checks() == [
            f"{kind} rows across a chunk boundary: uncorrelated" for kind in ("sphere", "gaussian")]

    def test_every_point_restarting_one_substream(self, monkeypatch):
        # every environment's draws go by point, each from the block's start
        blocks = zodd.environments.draw_blocks
        monkeypatch.setattr(zodd.environments, "draw_blocks", lambda streams, k, draw, axis=0:
                            blocks([s for s in streams for _ in range(k // len(streams))],
                                   k, draw, axis))
        failing = _failing_stream_checks()
        assert all(f"pricing demand of item {i} ~ Binomial(buyers, p_i)" in failing
                   for i in range(3))


class TestVerifySuites:
    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite("vibes")

    def test_quick_suites_pass(self):
        results = []
        results += run_moments(seed=0, draws=4000, dims=(2,))
        results += run_unbiasedness(seed=0, draws=4000)
        results += run_n_dominance(seed=0, replicates=300)
        results += run_descent_lemma(seed=0, runs=3)
        assert results and all(r.passed for r in results)

    def test_streams_suite_passes_and_joins_all(self, tmp_path):
        results = run_streams(seed=0)
        assert len(results) == 13 and all(r.passed for r in results)
        assert "streams" in verify.SUITES
        assert main(["verify", "--suite", "streams", "--out", str(tmp_path)]) == 0

    def test_mse_bounds_small(self):
        results = run_mse_bounds(seed=0, replicates=150)
        assert results and all(r.passed for r in results)
        kinds = {r.check.split()[0] for r in results}
        assert "coordinate" in kinds and "sphere" in kinds

    @staticmethod
    def _map(tasks, fake, monkeypatch, cpus):
        monkeypatch.setattr(verify, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(verify, "_empirical_mse", fake)
        env = QuadraticEnv.isotropic(3, sigma=0.5)
        return verify._map_empirical_mse(env, np.zeros(3), tasks, 10)

    @pytest.mark.parametrize("cpus", [1, 4])
    def test_grid_points_join_in_task_order(self, monkeypatch, cpus):
        # later tasks finish first; the results still come back in task order
        cfg = EstimatorConfig("sphere", mu=0.1)
        tasks = [(cfg, RngStream(i)) for i in range(8)]

        def fake(env, x, cfg, rng, replicates):
            time.sleep(0.002 * (8 - rng.seed))
            return float(rng.seed), 0.0

        assert self._map(tasks, fake, monkeypatch, cpus) == [(float(i), 0.0) for i in range(8)]

    def test_every_grid_point_runs_once_under_thread_switching(self, monkeypatch):
        # more threads than cores, switching every microsecond: a task taken
        # twice or never shows in the list of tasks run
        cfg = EstimatorConfig("sphere", mu=0.1)
        tasks = [(cfg, RngStream(i)) for i in range(300)]
        ran = []

        def fake(env, x, cfg, rng, replicates):
            ran.append(rng.seed)
            return float(rng.seed), 0.0

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = self._map(tasks, fake, monkeypatch, 8)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(ran) == list(range(300))
        assert results == [(float(i), 0.0) for i in range(300)]

    @pytest.mark.parametrize("cpus", [1, 4])
    def test_a_failing_grid_point_reaches_the_caller(self, monkeypatch, cpus):
        cfg = EstimatorConfig("sphere", mu=0.1)
        tasks = [(cfg, RngStream(i)) for i in range(8)]
        taken = []

        def fake(env, x, cfg, rng, replicates):
            # task 0, taken first, fails while the others are still running
            taken.append(rng.seed)
            if rng.seed == 0:
                time.sleep(0.005)
                raise RuntimeError("grid point 0 failed")
            time.sleep(0.1)
            return 1.0, 0.0

        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="grid point 0 failed"):
            self._map(tasks, fake, monkeypatch, cpus)
        # every helper was joined, and none took a task after the failure
        assert threading.active_count() == threads
        assert 0 in taken and len(taken) <= cpus

    @staticmethod
    def _per_chunk_mse(env, x, cfg, rng, replicates):
        """``_empirical_mse`` as one estimator call per replicate chunk."""
        grad = env.gradient(x)
        per_chunk = max(1, verify.REPLICATE_CHUNK_DRAWS
                        // cfg.samples_per_estimate(env.dimension))
        errors = np.empty(replicates)
        for c, start in enumerate(range(0, replicates, per_chunk)):
            rows = min(per_chunk, replicates - start)
            points = np.broadcast_to(x, (rows, x.shape[0]))
            gradients = estimate_gradients(points, cfg, env, rng.child("chunk", c))
            errors[start:start + rows] = np.sum((gradients - grad) ** 2, axis=1)
        return float(errors.mean()), float(errors.std(ddof=1) / np.sqrt(replicates))

    @pytest.mark.parametrize("kind, n, m, replicates, calls", [
        # chunks of 81 rows, one per call, the last one partial
        ("sphere", 100, 1, 200, [1, 1, 1]),
        # chunks of 8 rows, three per call, then the last full and a partial
        ("sphere", 100, 10, 60, [3, 3, 1, 1]),
        ("gaussian", 10, 10, 250, [3, 1]),
        ("coordinate", 5, 10, 500, [3, 1]),
    ])
    def test_grouped_chunks_are_the_per_chunk_calls(self, monkeypatch, kind, n, m,
                                                    replicates, calls):
        env = QuadraticEnv.isotropic(5, sigma=0.5)
        x = np.full(5, 0.8)
        cfg = EstimatorConfig(kind, mu=0.1, directions=n, batch=m)
        rng = RngStream(3).child(kind)
        expected = self._per_chunk_mse(env, x, cfg, rng, replicates)
        made = []

        def counted(X, cfg, oracle, streams):
            made.append(len(streams))
            return estimate_gradients(X, cfg, oracle, streams)

        monkeypatch.setattr(verify, "estimate_gradients", counted)
        assert verify._empirical_mse(env, x, cfg, rng, replicates) == expected
        assert made == calls

    def test_the_mse_suites_start_no_direction_helper(self, monkeypatch):
        # on two CPUs, every grouped call still fits in one chunk of directions
        def refuse(*args, **kwargs):
            raise AssertionError("a verify call started the direction helper")

        monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(zodd.estimators, "usable_cpus", lambda: 2)
        monkeypatch.setattr(zodd.estimators, "PendingDirections", refuse)
        assert run_mse_bounds(seed=0) and run_n_dominance(seed=0)

    def test_usable_cpus_falls_back_to_the_cpu_count(self, monkeypatch):
        if hasattr(os, "sched_getaffinity"):
            assert verify._usable_cpus() == len(os.sched_getaffinity(0))
            monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert verify._usable_cpus() == 3

    def test_report_formatting(self):
        results = [
            CheckResult("s", "alpha check", "d=2", 1.0, 5.0),
            CheckResult("s", "beta check", "d=3", 9.0, 5.0),
        ]
        report = format_report(results)
        assert "alpha check" in report
        assert "FAIL" in report
        assert "2 checks, 1 failed" in report
        assert report.splitlines()[0].startswith("check")


class _FirstChunkOnly(zodd.core.ClaimMap):
    """A claim map whose one helper thread stops after the first chunk it
    claims, so the caller claims and draws the rest; ``drawn_by`` records
    each chunk a thread draws, True for the helper."""

    drawn_by: list = []

    def _claim(self):
        if threading.current_thread() in self._threads:
            if getattr(self, "_helped", False):
                return None
            self._helped = True
        return super()._claim()

    def _run(self, i):
        self.drawn_by.append(threading.current_thread() in self._threads)
        super()._run(i)


class TestWhoeverDrawsTheChunks:
    """A planned_wide-shaped estimate and run carry the same bits on one
    usable CPU (inline draws), on two (the helper and the caller share the
    chunks), and with a helper stopped after its first chunk."""

    CASES = ["one-cpu", "two-cpus", "helper-stops"]

    @staticmethod
    def _case(monkeypatch, case):
        monkeypatch.setattr(zodd.estimators, "usable_cpus", lambda: 1 if case == "one-cpu" else 2)
        monkeypatch.setattr(_FirstChunkOnly, "drawn_by", [])
        if case == "helper-stops":
            monkeypatch.setattr(zodd.estimators, "ClaimMap", _FirstChunkOnly)

    def test_a_planned_estimate(self, monkeypatch):
        env = QuadraticEnv.isotropic(16, 0.75)
        spec = EstimatorSpec(name="planned", kind="sphere", plan_regime="grad", plan_epsilon=0.25)
        cfg, _ = spec.resolve(env)
        assert cfg.directions == 65_536
        x = np.linspace(-1.0, 1.0, 16)
        runs = []
        for case in self.CASES:
            self._case(monkeypatch, case)
            estimate = zodd.estimators.estimate_gradient(x, cfg, env, RngStream(5))
            runs.append((estimate.gradient.tobytes(), estimate._directions.tobytes(),
                         estimate._forward.tobytes(), estimate._backward.tobytes()))
        # eight chunks: the helper drew at most one, the caller the rest
        assert _FirstChunkOnly.drawn_by.count(True) <= 1 and len(_FirstChunkOnly.drawn_by) == 8
        assert runs[0] == runs[1] == runs[2]

    def test_a_planned_wide_run(self, monkeypatch, tmp_path):
        path = tmp_path / "wide.ini"
        path.write_text(PLANNED_WIDE)
        outputs = []
        for case in self.CASES:
            self._case(monkeypatch, case)
            out = tmp_path / case
            assert main(["run", "--config", str(path), "--out", str(out)]) == 0
            outputs.append([(out / name).read_bytes() for name in ("results.csv", "trace.csv")])
        assert _FirstChunkOnly.drawn_by.count(True) < _FirstChunkOnly.drawn_by.count(False)
        assert outputs[0] == outputs[1] == outputs[2]


class TestCli:
    def test_run_and_rerun_byte_identical(self, good_config, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(good_config), "--out", str(out1)]) == 0
        assert main(["run", "--config", str(good_config), "--out", str(out2)]) == 0
        assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
        header = (out1 / "results.csv").read_text().splitlines()[0]
        assert header == ",".join(RESULT_COLUMNS)

    def test_run_seed_override(self, good_config, tmp_path, capsys):
        out = tmp_path / "s"
        assert main(["run", "--config", str(good_config), "--out", str(out),
                     "--seed", "7"]) == 0
        lines = (out / "results.csv").read_text().splitlines()
        assert len(lines) == 3  # header + one row per estimator
        assert all(",7," in line for line in lines[1:])

    def test_bad_config_exits_2(self, tmp_path, capsys):
        bad = _write(tmp_path, "[environment]\nkind = quadratic\n")
        assert main(["run", "--config", str(bad), "--out", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_diverging_run_still_exits_0(self, tmp_path):
        path = _write(tmp_path, """\
[environment]
kind = quadratic
dimension = 2
sigma = 0.0

[run]
budget = 400
x0 = 3.0

[estimator.wild]
kind = coordinate
mu = 0.1
step = 40.0
""")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
        body = (tmp_path / "o" / "results.csv").read_text()
        assert "diverged" in body

    def test_a_strategic_run_from_zero_weights_stays_put_and_exits_0(self, tmp_path):
        # x0 = 0 gives zero feature weights: no move changes a score, so
        # every agent stays put and both rows are written
        path = _write(tmp_path, """\
[environment]
kind = strategic
dimension = 3

[run]
seeds = 0
budget = 200
x0 = 0.0

[estimator.sphere]
kind = sphere
mu = 0.1
step = 0.01

[estimator.coordinate]
kind = coordinate
mu = 0.1
step = 0.01
""")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
        with open(tmp_path / "o" / "results.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(row["method"], row["status"]) for row in rows] == [
            ("sphere", "ok"), ("coordinate", "ok")]

    def test_hessian_plan_on_quadratic_runs(self, tmp_path, capsys):
        path = _write(tmp_path, """\
[environment]
kind = quadratic
dimension = 3
sigma = 0.5

[run]
seeds = 0 1
budget = 20000
eval_draws = 50

[estimator.planned]
kind = sphere
plan = hessian
epsilon = 0.25
""")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "h")]) == 0
        rows = (tmp_path / "h" / "results.csv").read_text().splitlines()[1:]
        assert len(rows) == 2 and all(row.endswith(",ok") for row in rows)

    @pytest.mark.parametrize("name, results_sha, trace_sha", [
        ("quadratic.ini",
         "6e1724f6c475963ba4af0379cac6dc4de3983e1a4966b78b0b0b1510d80553fb",
         "6cd6a3008337abaf8668088e58361e53dd38f2a0df17116224d41b86c6a64d42"),
        ("planned_quadratic.ini",
         "fe58c1913b90aee55d0bba8b24d669186bd9779b0a5d2d59dfbf1231225cc206",
         "27d238aea67e45192c3d3df6117c2ff58916c86ade4f409ea1917d26fdad7af1"),
    ])
    def test_demo_outputs_are_pinned(self, name, results_sha, trace_sha, tmp_path):
        # digests of stream layout 2; any drift in a
        # random draw or a float of zodd run shows up here
        assert main(["run", "--config", str(DEMO_CONFIGS / name), "--out", str(tmp_path)]) == 0
        assert hashlib.sha256((tmp_path / "results.csv").read_bytes()).hexdigest() == results_sha
        assert hashlib.sha256((tmp_path / "trace.csv").read_bytes()).hexdigest() == trace_sha

    @pytest.mark.parametrize("text, results_sha, trace_sha", [
        (TUNED_PRICING,
         "c0496a4e7b94c16cefe6a3c870cda486359e51c52d0fb6cbb82b5bdb76b7749d",
         "67cb9b80c6ce164973d380b2b95069bf369120fe195376eab4d2cd0cd6f646a7"),
        (TUNED_STRATEGIC,
         "9653884ebeed9ab328c7d2abc87c59153dafa5604fc60c1ca0bc44f265cf3800",
         "2f22b4e2d3a31b16ba82fab73de3fe2f3a4947b7ec8a4c151751ae2bb17a5c76"),
    ], ids=["pricing", "strategic"])
    def test_tuned_outputs_are_pinned(self, text, results_sha, trace_sha, tmp_path):
        # tuning scores candidates by the exact objective, so these digests
        # hold the closed forms to the samplers' arithmetic as well
        path = tmp_path / "tuned.ini"
        path.write_text(text)
        assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 0
        assert hashlib.sha256((tmp_path / "results.csv").read_bytes()).hexdigest() == results_sha
        assert hashlib.sha256((tmp_path / "trace.csv").read_bytes()).hexdigest() == trace_sha

    def test_planned_wide_outputs_are_pinned(self, tmp_path):
        # digests of stream layout 2, on one usable CPU and on two alike:
        # which thread draws a direction chunk moves no draw and no float
        path = tmp_path / "wide.ini"
        path.write_text(PLANNED_WIDE)
        assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 0
        assert hashlib.sha256((tmp_path / "results.csv").read_bytes()).hexdigest() == (
            "e9f26c20be4e85498d2bf1a67edbe9de0636a6b507e1aff44f801d5732d11bea")
        assert hashlib.sha256((tmp_path / "trace.csv").read_bytes()).hexdigest() == (
            "210e9a8da0ae3be6ff9b23bff6d3fe6c8cceedea1a7b2f16edb6a20fd0729a84")

    def test_descent_lemma_report_is_pinned(self, tmp_path):
        # the suite's runs go through run_descent; any drift in a draw, an
        # update or a printed float changes the report's bytes
        assert main(["verify", "--suite", "descent_lemma", "--seed", "0",
                     "--out", str(tmp_path)]) == 0
        report = (tmp_path / "verify_report.txt").read_bytes()
        assert hashlib.sha256(report).hexdigest() == (
            "4ed341fc74bbbfba29c3c192ad7b2900f2f7840aa1c7424fafaceeed07ef9fcc")

    @pytest.mark.parametrize("cpus", [1, 4])
    def test_mse_bounds_report_is_pinned(self, tmp_path, monkeypatch, cpus):
        # the grid points run on min(cpus, 42) threads; neither the count
        # nor the order in which points finish may change a byte
        monkeypatch.setattr(verify, "_usable_cpus", lambda: cpus)
        started = []

        class CountedThread(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(zodd.core.threading, "Thread", CountedThread)
        assert main(["verify", "--suite", "mse_bounds", "--seed", "0",
                     "--out", str(tmp_path)]) == 0
        assert len(started) == cpus - 1
        report = (tmp_path / "verify_report.txt").read_bytes()
        assert hashlib.sha256(report).hexdigest() == (
            "2e6711d859dd75cce2e5df7877190fa2b7950f0fc9fa2c315864a4826a16ab15")

    def test_verify_has_no_threads_option(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--suite", "moments", "--out", str(tmp_path), "--threads", "2"])
        assert err.value.code == 2

    def test_run_has_no_threads_option(self, good_config, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["run", "--config", str(good_config), "--out", str(tmp_path), "--threads", "2"])
        assert err.value.code == 2

    def test_verify_writes_report(self, tmp_path, capsys):
        code = main(["verify", "--suite", "descent_lemma", "--out", str(tmp_path),
                     "--seed", "1"])
        assert code == 0
        report = (tmp_path / "verify_report.txt").read_text()
        assert "margin" in report and "pass" in report
        assert "0 failed" in report

    def test_plan_prints_schedule(self, capsys):
        assert main(["plan", "--kind", "sphere", "--regime", "grad",
                     "--epsilon", "0.1", "--dimension", "3",
                     "--sigma", "1", "--smoothness", "1"]) == 0
        out = capsys.readouterr().out
        assert "90000" in out
        assert "O(d^2 eps^-6)" in out
        assert "0.25" in out
        # one estimate's (N, d) float64 direction matrix: 90000 * 3 * 8 bytes
        assert "direction matrix bytes  2160000" in out

    def test_plan_rejects_epsilon_above_cap(self, capsys):
        assert main(["plan", "--kind", "sphere", "--regime", "grad",
                     "--epsilon", "0.4", "--dimension", "3",
                     "--sigma", "1", "--smoothness", "1"]) == 2
        assert "epsilon" in capsys.readouterr().err

    def test_plan_rejects_a_non_finite_input(self, capsys):
        assert main(["plan", "--kind", "sphere", "--regime", "grad",
                     "--epsilon", "0.3", "--dimension", "4",
                     "--sigma", "1", "--smoothness", "nan"]) == 2
        assert "smoothness M must be finite and positive, got nan" in capsys.readouterr().err

    @pytest.mark.parametrize("epsilon", ["1e-100", "1e-80"])
    def test_plan_rejects_an_epsilon_without_a_finite_schedule(self, epsilon, capsys):
        # once a traceback and exit 1: ZeroDivisionError at 1e-100, OverflowError at 1e-80
        assert main(["plan", "--kind", "sphere", "--regime", "grad",
                     "--epsilon", epsilon, "--dimension", "4",
                     "--sigma", "1", "--smoothness", "1"]) == 2
        assert f"epsilon {float(epsilon)!r} is out of range" in capsys.readouterr().err

    def test_plan_gap_and_ct_conflict(self, capsys):
        assert main(["plan", "--kind", "sphere", "--regime", "grad",
                     "--epsilon", "0.1", "--dimension", "3", "--sigma", "1",
                     "--smoothness", "1", "--gap", "2", "--c-t", "3"]) == 2

    def test_plan_with_gap_sets_iterations(self, capsys):
        assert main(["plan", "--kind", "sphere", "--regime", "grad",
                     "--epsilon", "0.1", "--dimension", "3", "--sigma", "1",
                     "--smoothness", "1", "--gap", "2"]) == 0
        # c_T = 16 * 1 * 2 = 32 so T = 3200
        assert "3200" in capsys.readouterr().out

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_tuning_through_cli(self, tmp_path, capsys):
        path = _write(tmp_path, """\
[environment]
kind = quadratic
dimension = 3
sigma = 0.2

[run]
budget = 600
eval_draws = 100
seeds = 0 1
x0 = 2.0

[estimator.sph]
kind = sphere
mu = 0.1
directions = 3
step = 0.1

[tuning]
enabled = true
step = 1e-05 0.25
mu = 0.1
directions = 3
trials = 2
""")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "t")]) == 0
        out = capsys.readouterr().out
        assert "tuned sph" in out and "step=0.25" in out
