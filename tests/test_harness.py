"""Config grammar, experiment driver, tuning, verify suites, and the CLI."""

import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

from zodd.environments import PricingEnv, QuadraticEnv, save_population, save_prices
from zodd.harness.cli import main
from zodd.harness.config import (
    ConfigError,
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
    run_experiment,
)
from zodd.harness.tuning import candidate_specs, score_candidate, tune_method
from zodd.harness.verify import (
    CheckResult,
    format_report,
    run_descent_lemma,
    run_mse_bounds,
    run_moments,
    run_n_dominance,
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
    ])
    def test_rejected_configs(self, tmp_path, mutation, needle):
        with pytest.raises(ConfigError) as err:
            parse_config(_write(tmp_path, mutation + "\n"))
        assert needle in str(err.value)

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

    def test_infeasible_candidate_scores_inf(self, tmp_path):
        cfg = self._config(tmp_path, "")
        spec = EstimatorSpec(name="big", kind="sphere", mu=0.1, directions=10_000, step=0.1)
        assert score_candidate(cfg, spec) == math.inf


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

    def test_mse_bounds_small(self):
        results = run_mse_bounds(seed=0, replicates=150)
        assert results and all(r.passed for r in results)
        kinds = {r.check.split()[0] for r in results}
        assert "coordinate" in kinds and "sphere" in kinds

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
         "ba58e6d1c73a302d3a3c67729e377a8b4743faa7074a27b04c906ade46dc8e72",
         "63ca97327e5d137793ac207ef32a90386093cf070d9f1c9c600aed4fb847f33e"),
        ("planned_quadratic.ini",
         "8b9e37d142355f0b7338ca892c9d4a0d748f7a5820868f506afb0c7beeb3c53b",
         "cc0c37b4f07d7e29145819f742fa5d09c3709355856342dddd0b760e3e0006b7"),
    ])
    def test_demo_outputs_are_pinned(self, name, results_sha, trace_sha, tmp_path):
        # digests of the single-estimate stream layout; any drift in a
        # random draw or a float of zodd run shows up here
        assert main(["run", "--config", str(DEMO_CONFIGS / name), "--out", str(tmp_path)]) == 0
        assert hashlib.sha256((tmp_path / "results.csv").read_bytes()).hexdigest() == results_sha
        assert hashlib.sha256((tmp_path / "trace.csv").read_bytes()).hexdigest() == trace_sha

    def test_descent_lemma_report_is_pinned(self, tmp_path):
        # the suite's runs go through run_descent; any drift in a draw, an
        # update or a printed float changes the report's bytes
        assert main(["verify", "--suite", "descent_lemma", "--seed", "0",
                     "--out", str(tmp_path)]) == 0
        report = (tmp_path / "verify_report.txt").read_bytes()
        assert hashlib.sha256(report).hexdigest() == (
            "32207fb772b27cfb63dd258d8794ed26233cc76f776befcb67af37a6f8f0e8c2")

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

    def test_plan_rejects_epsilon_above_cap(self, capsys):
        assert main(["plan", "--kind", "sphere", "--regime", "grad",
                     "--epsilon", "0.4", "--dimension", "3",
                     "--sigma", "1", "--smoothness", "1"]) == 2
        assert "epsilon" in capsys.readouterr().err

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
