"""Lockstep chains: a grouped descent run equals the same chains run alone."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from zodd.harness import runner
from zodd.harness.config import EnvironmentSpec, EstimatorSpec, ExperimentConfig
from zodd.harness.runner import STATUS_DIVERGED, run_cell, run_chains

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


def test_group_probe_array_is_capped(monkeypatch):
    # one chain at or above the cap runs alone; smaller ones fill 2^14 draws
    config = _config("quadratic", budget=1 << 16)
    wide = EstimatorSpec(name="w", kind="sphere", mu=0.1, step=0.01, directions=1 << 13)
    narrow = EstimatorSpec(name="n", kind="sphere", mu=0.1, step=0.01, directions=1 << 12)
    sizes = _record_group_sizes(monkeypatch)
    run_chains(config, [wide] * 2 + [narrow] * 3, [0, 1, 0, 1, 2])
    assert sizes == [1, 1, 2, 1]
