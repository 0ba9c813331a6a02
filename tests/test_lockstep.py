"""Lockstep chains: a grouped descent run equals the same chains run alone."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zodd.core import RngStream
from zodd.environments import QuadraticEnv
from zodd.estimators import EstimatorConfig, estimate_gradient
from zodd.harness import runner
from zodd.harness.config import EnvironmentSpec, EstimatorSpec, ExperimentConfig
from zodd.harness.runner import STATUS_DIVERGED, run_cell, run_chains
from zodd.optimizer import lockstep_descent

ENVIRONMENTS = {
    "quadratic": EnvironmentSpec(kind="quadratic", dimension=3, sigma=0.5),
    "pricing": EnvironmentSpec(kind="pricing", dimension=3, seed=1, buyers=40),
    "strategic": EnvironmentSpec(kind="strategic", dimension=4, seed=2, agents=60),
}


def _config(env: str, budget: int = 120) -> ExperimentConfig:
    return ExperimentConfig(
        environment=ENVIRONMENTS[env], estimators=(), seeds=(0,),
        budget=budget, eval_draws=20,
    )


def _record_group_sizes(monkeypatch) -> list[int]:
    """Patch the group runner to log each lockstep group's chain count."""
    sizes = []
    run_group = runner._run_group

    def recording(config, env, chains):
        sizes.append(len(chains))
        return run_group(config, env, chains)

    monkeypatch.setattr(runner, "_run_group", recording)
    return sizes


def _assert_same(together, alone):
    assert len(together) == len(alone)
    for a, b in zip(together, alone):
        # repr compares floats exactly and treats the NaNs of failed rows as equal
        assert repr(a.row) == repr(b.row)
        assert repr(a.trace) == repr(b.trace)
        if b.output_point is None:
            assert a.output_point is None
        else:
            assert np.array_equal(a.output_point, b.output_point)


chain = st.tuples(
    st.sampled_from(["sphere", "gaussian", "coordinate", "one_point"]),
    st.sampled_from(["m0", "m1"]),  # equal name and seed: the chains share a stream
    st.integers(min_value=0, max_value=2),
    st.sampled_from([0.05, 0.2]),
    st.sampled_from([0.01, 0.05]),
    st.sampled_from([1, 2, 100]),  # 100 directions cannot afford one estimate
    st.sampled_from([1, 2]),
)


@given(
    env=st.sampled_from(sorted(ENVIRONMENTS)),
    chains=st.lists(chain, min_size=1, max_size=8),
    wild=st.integers(min_value=0, max_value=7),
)
# a sphere and a gaussian chain on one stream share a group but not a direction draw
@example(env="quadratic",
         chains=[("sphere", "m0", 0, 0.05, 0.01, 1, 1), ("gaussian", "m0", 0, 0.05, 0.01, 1, 1),
                 ("sphere", "m1", 1, 0.05, 0.01, 1, 1)],
         wild=2)
# d = 3: a coordinate chain, whose unused directions are 1, leads a group of N = 3 chains
@example(env="quadratic",
         chains=[("coordinate", "m0", 0, 0.05, 0.01, 1, 1), ("sphere", "m1", 1, 0.05, 0.01, 3, 1),
                 ("gaussian", "m0", 0, 0.2, 0.05, 3, 1), ("sphere", "m0", 2, 0.05, 0.01, 1, 1)],
         wild=3)
@settings(max_examples=30, deadline=None)
def test_lockstep_chains_equal_single_runs(env, chains, wild):
    config = _config(env)
    specs = [
        EstimatorSpec(name=name, kind=kind, mu=mu, step=step, directions=n, batch=m)
        for kind, name, _, mu, step, n, m in chains
    ]
    # one affordable chain takes a step that leaves the trust region at once
    wild %= len(specs)
    specs[wild] = EstimatorSpec(name="wild", kind="sphere", mu=0.1, step=1e15)
    seeds = [seed for _, _, seed, *_ in chains]
    together = run_chains(config, specs, seeds)
    alone = [run_cell(config, spec, seed) for spec, seed in zip(specs, seeds)]
    _assert_same(together, alone)
    assert together[wild].row.status == STATUS_DIVERGED


@given(
    chains=st.lists(chain, min_size=1, max_size=6),
    # copies of chains with a wild step, each (where it goes, the chain it
    # copies, its step, whether it keeps that chain's stream or shares one
    # with the other such copies of that seed); every step here leaves the
    # trust region after 2 to 10 steps on this quadratic
    wild=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=8),
            st.integers(min_value=0, max_value=5),
            st.sampled_from([10.0, 30.0, 300.0, 3000.0]),
            st.booleans(),
        ),
        min_size=1, max_size=3,
    ),
)
# the first stream loses its one row, so the later streams move up
@example(chains=[("sphere", "m0", 0, 0.05, 0.01, 1, 1), ("sphere", "m1", 1, 0.05, 0.01, 1, 1)],
         wild=[(0, 0, 300.0, False)])
# the first row leaves, and the streams left are first used in the other order
@example(chains=[("sphere", "m0", 0, 0.05, 0.01, 1, 1), ("sphere", "m0", 1, 0.05, 0.01, 1, 1)],
         wild=[(0, 1, 10.0, True)])
@settings(max_examples=30, deadline=None)
def test_chains_sharing_a_stream_diverge_mid_run(chains, wild):
    # wild chains that share a stream with others diverge after some steps,
    # so which rows share a stream is worked out again on a shrinking live
    # set, and a stream whose rows all left drops out; every row is its solo run
    config = _config("quadratic")
    rows = [
        (EstimatorSpec(name=name, kind=kind, mu=mu, step=step, directions=min(n, 2), batch=m),
         seed, False)
        for kind, name, seed, mu, step, n, m in chains
    ]
    for where, j, step, keep_stream in wild:
        spec, seed, _ = rows[j % len(chains)]
        name = spec.name if keep_stream else "wild"
        rows.insert(where % (len(rows) + 1),
                    (dataclasses.replace(spec, name=name, step=step), seed, True))
    specs, seeds, wild_rows = zip(*rows)
    together = run_chains(config, specs, seeds)
    alone = [run_cell(config, spec, seed) for spec, seed in zip(specs, seeds)]
    _assert_same(together, alone)
    for outcome, is_wild in zip(together, wild_rows):
        if is_wild:
            assert outcome.row.status == STATUS_DIVERGED
            assert len(outcome.trace) >= 2


@given(
    kind=st.sampled_from(["sphere", "gaussian", "coordinate", "one_point"]),
    batch=st.sampled_from([1, 2, 3]),
    # directions at, just past and well past 8192 / batch, where numpy's
    # reduction of one row's strided (batch, N) values changes its order
    size=st.sampled_from(["few", "at", "past", "twice"]),
    rows=st.integers(min_value=1, max_value=6),
    distinct=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=30, deadline=None)
def test_probe_means_are_single_estimates_probe_means(kind, batch, size, rows, distinct, seed):
    # the lockstep means come from one reduction per half of the step's
    # values; each must carry the bits of the chain's own estimate
    env = QuadraticEnv.isotropic(2, sigma=0.5)
    cap = 8192 // batch
    n = {"few": 1 + seed % 50, "at": cap, "past": cap + 1, "twice": 2 * cap + 3}[size]
    cfg = EstimatorConfig(kind, mu=0.1, directions=n, batch=batch)
    gen = RngStream(seed).child("start").generator()
    X = gen.uniform(-1.0, 1.0, (rows, 2))
    mus = gen.uniform(0.05, 0.2, rows)
    # rows r and r + distinct share a stream, as the candidates of a trial do
    streams = [RngStream(seed).child("row", r % distinct) for r in range(rows)]
    steps = np.full(rows, 0.01)
    for step in lockstep_descent(X, cfg, env, streams, steps, mus, 2):
        for r, mean in zip(step.live, step.probe_means):
            single = estimate_gradient(
                X[r], dataclasses.replace(cfg, mu=mus[r]), env,
                streams[r].child("iteration", step.t),
            )
            assert np.float64(mean).view(np.int64) == np.float64(single.probe_mean).view(np.int64)
        X = step.X


def test_group_cap_splits_chains_without_changing_rows(monkeypatch):
    config = _config("pricing", budget=60)
    specs = [
        EstimatorSpec(name="s", kind="sphere", mu=mu, step=step)
        for mu in (0.05, 0.1, 0.2) for step in (0.001, 0.01)
    ] + [EstimatorSpec(name="c", kind="coordinate", mu=0.1, step=0.01)]
    seeds = [0, 1, 0, 1, 0, 1, 2]
    whole = run_chains(config, specs, seeds)
    sizes = _record_group_sizes(monkeypatch)
    monkeypatch.setattr(runner, "GROUP_DRAWS", 4)  # sphere costs 2: two chains a group
    split = run_chains(config, specs, seeds)
    assert sizes == [2, 2, 2, 1]
    _assert_same(split, whole)


@pytest.mark.parametrize("env, kinds, sizes", [
    # d = 4: sphere, gaussian and coordinate chains at N = 4 are one shape
    ("strategic", ["sphere", "gaussian", "one_point", "coordinate", "sphere", "gaussian"], [5, 1]),
    # d = 3: an N = 3 sphere chain steps with the coordinate chains
    ("quadratic", ["sphere", "one_point", "coordinate", "coordinate", "sphere"], [4, 1]),
])
def test_one_group_per_probe_shape(monkeypatch, env, kinds, sizes):
    config = _config(env, budget=200)
    n = ENVIRONMENTS[env].dimension
    specs = [EstimatorSpec(name=kind, kind=kind, mu=0.1, directions=n, batch=2,
                           step=0.001 if kind == "one_point" else 0.01)
             for kind in kinds]
    seeds = [i // 3 for i in range(len(specs))]
    recorded = _record_group_sizes(monkeypatch)
    together = run_chains(config, specs, seeds)
    assert recorded == sizes  # one_point, being one-sided, runs apart
    _assert_same(together, [run_cell(config, spec, seed) for spec, seed in zip(specs, seeds)])


def test_rows_of_another_probe_shape_are_rejected():
    env = QuadraticEnv.isotropic(3, sigma=0.5)
    cfg = EstimatorConfig("sphere", mu=0.1, directions=2)
    streams = [RngStream(0), RngStream(1)]
    with pytest.raises(ValueError, match="probe shape"):
        next(lockstep_descent(np.zeros((2, 3)), cfg, env, streams, [0.1, 0.1], [0.1, 0.1],
                              1, ["sphere", "coordinate"]))


def test_group_probe_array_is_capped(monkeypatch):
    # one chain at or above the cap runs alone; smaller ones fill 2^14 draws
    config = _config("quadratic", budget=1 << 16)
    wide = EstimatorSpec(name="w", kind="sphere", mu=0.1, step=0.01, directions=1 << 13)
    narrow = EstimatorSpec(name="n", kind="sphere", mu=0.1, step=0.01, directions=1 << 12)
    sizes = _record_group_sizes(monkeypatch)
    run_chains(config, [wide] * 2 + [narrow] * 3, [0, 1, 0, 1, 2])
    assert sizes == [1, 1, 2, 1]


def test_group_outputs_are_separate_arrays():
    # a group keeps its outputs as rows of one array; each outcome owns a
    # copy of its row, not a view that keeps the whole array alive
    config = _config("quadratic")
    spec = EstimatorSpec(name="s", kind="sphere", mu=0.1, step=0.05)
    points = [o.output_point for o in run_chains(config, [spec] * 4, [0, 1, 2, 3])]
    assert all(point.flags.owndata for point in points)


def test_output_picked_at_zero_is_the_start_point(monkeypatch):
    monkeypatch.setattr(runner, "select_uniform_index", lambda count, rng: 0)
    config = _config("pricing")
    spec = EstimatorSpec(name="s", kind="sphere", mu=0.1, step=0.01)
    outcomes = run_chains(config, [spec] * 3, [0, 1, 2])
    for outcome in outcomes:
        assert np.array_equal(outcome.output_point, config.start_point())
