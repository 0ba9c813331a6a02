"""Lockstep chains: a grouped descent run equals the same chains run alone."""

import dataclasses
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zodd import estimators
from zodd.core import CHUNK_VALUES, BudgetExhaustedError, RngStream, chunk_rows
from zodd.environments import QuadraticEnv
from zodd.estimators import BlockPlan, EstimatorConfig, estimate_gradient
from zodd.harness import runner
from zodd.harness.config import EnvironmentSpec, EstimatorSpec, ExperimentConfig
from zodd.harness.runner import STATUS_DIVERGED, run_cell, run_chains
from zodd.optimizer import BLOCK_STEPS, ParameterPlan, lockstep_descent, run_descent

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


# ---------------------------------------------------------------------------
# Block plan: a block's streams and directions prepared in one pass
# ---------------------------------------------------------------------------

K = BLOCK_STEPS


def _bits(a) -> np.ndarray:
    return np.asarray(a, dtype=np.float64).view(np.int64)


def _assert_steps_are_single_estimates(X, cfg, env, streams, steps, mus, iterations, kinds):
    """Run a group and check every step's rows against single estimates.

    Row r at step t must carry the gradient and probe mean bits of
    ``estimate_gradient`` at its iterate on ``streams[r].child("iteration", t)``.
    Returns the step at which each row that diverged left.
    """
    X = np.array(X, dtype=np.float64)
    left = {}
    for step in lockstep_descent(X, cfg, env, streams, steps, mus, iterations, kinds):
        for i, r in enumerate(step.live.tolist()):
            single = estimate_gradient(
                X[r], dataclasses.replace(cfg, kind=kinds[r], mu=mus[r]), env,
                streams[r].child("iteration", step.t),
            )
            assert np.array_equal(_bits(step.gradients[i]), _bits(single.gradient))
            assert _bits(step.probe_means[i]) == _bits(single.probe_mean)
            X[r] = step.X[i]
            if step.bad[i]:
                left[r] = step.t
    return left


class TestBlockPlan:
    @given(
        group=st.sampled_from(["sphere", "mixed", "coordinate", "one_point"]),
        iterations=st.sampled_from([1, K - 1, K, K + 1, 2 * K + 3]),
        rows=st.integers(min_value=1, max_value=5),
        # rows r and r + distinct share a stream, as the candidates of a trial do
        distinct=st.integers(min_value=1, max_value=5),
        n=st.sampled_from([1, 2]),
        # a row whose step leaves the trust region after a few steps, mid-block
        wild=st.none() | st.integers(min_value=0, max_value=4),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    # a chain that shares its stream with another leaves in the first block
    @example(group="sphere", iterations=2 * K + 3, rows=4, distinct=2, n=1, wild=1, seed=5)
    # sphere, gaussian and coordinate rows at N = d, the coordinate row sharing a stream
    @example(group="mixed", iterations=K + 1, rows=4, distinct=3, n=1, wild=None, seed=6)
    @settings(max_examples=40, deadline=None)
    def test_steps_are_single_estimates(self, group, iterations, rows, distinct, n, wild, seed):
        d = 3
        env = QuadraticEnv.isotropic(d, sigma=0.5)
        if group == "mixed":
            kinds = [("sphere", "gaussian", "coordinate")[r % 3] for r in range(rows)]
            cfg = EstimatorConfig("sphere", mu=0.1, directions=d)
        else:
            kinds = [group] * rows
            cfg = EstimatorConfig(group, mu=0.1, directions=n)
        gen = RngStream(seed).child("start").generator()
        X = gen.uniform(-1.0, 1.0, (rows, d))
        mus = gen.uniform(0.05, 0.2, rows)
        steps = np.full(rows, 0.01)
        if wild is not None:
            steps[wild % rows] = 300.0
        streams = [RngStream(seed).child("row", r % distinct) for r in range(rows)]
        left = _assert_steps_are_single_estimates(X, cfg, env, streams, steps, mus, iterations,
                                                  kinds)
        # a one_point chain, of high variance, may leave on its own
        if wild is not None and iterations > 10 and group != "one_point":
            assert list(left) == [wild % rows]

    def test_a_chain_sharing_a_stream_leaves_mid_block(self):
        # the wild row leaves a few steps into the first block; the row on
        # its stream keeps its gathered part, and later blocks drop the copy
        d = 3
        env = QuadraticEnv.isotropic(d, sigma=0.5)
        cfg = EstimatorConfig("sphere", mu=0.1, directions=2)
        streams = [RngStream(9).child("row", r % 2) for r in range(4)]
        steps = np.array([0.01, 300.0, 0.01, 0.01])
        left = _assert_steps_are_single_estimates(np.full((4, d), 0.5), cfg, env, streams, steps,
                                                  np.full(4, 0.1), 2 * K + 3, ["sphere"] * 4)
        assert list(left) == [1] and 0 < left[1] < K - 1

    @pytest.mark.parametrize("n, iterations, sizes", [
        (1, 2 * K + 3, [K, K, 3]),  # at most K steps a block
        # at most one chunk, 8,192 rows at d = 16: two steps of 3 * 1,000
        (1000, 5, [2, 2, 1]),
        (3000, 2, [1, 1]),  # a step longer than one chunk is a block of one
    ])
    def test_blocks_are_capped_by_steps_and_by_a_chunk(self, monkeypatch, n, iterations, sizes):
        recorded = []
        of = BlockPlan.of

        def recording(cfg, d, roots, steps):
            recorded.append(len(steps))
            return of(cfg, d, roots, steps)

        monkeypatch.setattr(BlockPlan, "of", recording)
        d, rows = 16, 3
        env = QuadraticEnv.isotropic(d, sigma=0.5)
        cfg = EstimatorConfig("gaussian", mu=0.1, directions=n)
        streams = [RngStream(3).child("row", r) for r in range(rows)]
        X = RngStream(3).child("start").generator().uniform(-1.0, 1.0, (rows, d))
        _assert_steps_are_single_estimates(X, cfg, env, streams, np.full(rows, 0.01),
                                           np.array([0.05, 0.1, 0.2]), iterations,
                                           ["gaussian"] * rows)
        assert recorded == sizes

    @pytest.mark.parametrize("seeds, started", [([4, 5], 2), ([4, 4, 5], 0)])
    def test_a_wide_step_keeps_its_direction_helper(self, monkeypatch, seeds, started):
        # each step's table, two parts of just over half a chunk, is drawn on
        # the helper thread on more than one CPU, unless rows share a stream
        # and so gather their parts; a single estimate, within a chunk, is inline
        made = []

        class Recording(estimators.PendingDirections):
            def __init__(self, *args):
                made.append(len(args[0]))
                super().__init__(*args)

        monkeypatch.setattr(estimators, "usable_cpus", lambda: 2)
        monkeypatch.setattr(estimators, "PendingDirections", Recording)
        d, rows = 16, len(seeds)
        env = QuadraticEnv.isotropic(d, sigma=0.5)
        cfg = EstimatorConfig("sphere", mu=0.1, directions=chunk_rows(d) // 2 + 1)
        streams = [RngStream(seed) for seed in seeds]
        _assert_steps_are_single_estimates(np.zeros((rows, d)), cfg, env, streams,
                                           np.full(rows, 0.01), np.full(rows, 0.1), 2,
                                           ["sphere"] * rows)
        assert made == [2 * cfg.directions] * started

    def test_a_failed_wide_step_joins_its_helper(self, monkeypatch):
        # a step longer than one chunk is a block of one, drawn on the helper
        # thread on two CPUs; step two is one draw over the budget, so its
        # charge fails while the helper may still draw, and it is joined
        made = []

        class Recording(estimators.PendingDirections):
            def __init__(self, *args):
                made.append(self)
                super().__init__(*args)

        monkeypatch.setattr(estimators, "usable_cpus", lambda: 2)
        monkeypatch.setattr(estimators, "PendingDirections", Recording)
        d = 16
        plan = ParameterPlan("sphere", "grad", mu=0.1, directions=chunk_rows(d) + 1, batch=1,
                             step=0.01, iterations=3)
        cost = plan.samples_per_iteration(d)
        env = QuadraticEnv.isotropic(d, sigma=0.5, budget=2 * cost - 1)
        threads = threading.active_count()
        with pytest.raises(BudgetExhaustedError):
            run_descent(np.zeros(d), plan, env, RngStream(0))
        assert threading.active_count() == threads
        assert env.budget.consumed == cost
        assert len(made) == 2

    def test_block_table_stays_within_one_chunk(self):
        # 1,000 N = 1 steps of 4 chains at d = 64 draw 2 MB of directions in
        # all; a block holds at most one chunk of them, freed before the next
        d, rows = 64, 4
        env = QuadraticEnv.isotropic(d, sigma=0.5)
        cfg = EstimatorConfig("sphere", mu=0.1, directions=1)
        streams = [RngStream(0).child("row", r) for r in range(rows)]

        def run(iterations):
            for _ in lockstep_descent(np.zeros((rows, d)), cfg, env, streams,
                                      np.full(rows, 0.01), np.full(rows, 0.1), iterations):
                pass

        assert 1000 * rows * d > CHUNK_VALUES
        run(2)  # imports and caches first, so that only the run itself is traced
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            run(1000)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < CHUNK_VALUES * 8
