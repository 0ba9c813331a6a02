"""In-memory span recorder, and the wrapping of zodd's public functions.

Each wrapped call records one span: a name, its start and end, the span
that was open when it began (its parent) and a work count (rows, draws or
bytes, depending on the layer).  Spans go into flat arrays and stay in
memory until ``save`` writes them out when the run ends.

Functions are wrapped at the name their caller looks up -- for example
``zodd.harness.runner.estimate_gradient`` rather than the definition in
``zodd.estimators`` -- and methods on their class, so that no file of the
program changes.
"""

from __future__ import annotations

import os
from array import array
from functools import wraps
from time import perf_counter


class Tracer:
    """Flat, append-only span store for one single-threaded run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("q")
        self._stack = [-1]

    def wrap(self, name: str, fn, work=None):
        """``fn`` wrapped to record a span named ``name`` per call.

        ``work(args, result)``, when given, returns the call's work count.
        """
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        stack = self._stack
        name_ids, parents, starts, ends, works = (
            self.name_id, self.parent, self.start, self.end, self.work)

        @wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            works.append(0)
            stack.append(i)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[i] = t0
                ends[i] = t1
            if work is not None:
                works[i] = work(args, result)
            return result

        return traced

    def save(self, path: str) -> None:
        import numpy as np

        np.savez(
            path,
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            work=np.frombuffer(self.work, dtype=np.int64),
        )


def _rows(args, result) -> int:
    return int(result.shape[0])


def _size(args, result) -> int:
    return int(result.size)


def _probe_bytes(args, result) -> int:
    """Bytes of the (points, d) float64 probe array one estimate builds."""
    cfg, oracle = args[1], args[2]
    d = oracle.dimension
    n = d if cfg.kind == "coordinate" else cfg.directions
    points = n if cfg.kind == "one_point" else 2 * n
    return points * d * 8


_STATUS_CODES = {"ok": 0, "diverged": 1}


def _status(args, result) -> int:
    return _STATUS_CODES.get(result.row.status, 2)


def _file_size(args, result) -> int:
    return os.path.getsize(args[0])


def _length(args, result) -> int:
    return len(result)


def install(tracer: Tracer) -> None:
    """Wrap every traced zodd function for the rest of the process."""
    from zodd import core, environments, estimators
    from zodd.harness import cli, config, runner, tuning, verify

    env_classes = (environments.QuadraticEnv, environments.PricingEnv,
                   environments.StrategicEnv)
    targets = [
        (core.RngStream, "child", "core.child", None),
        (core.RngStream, "generator", "core.generator", None),
        (estimators, "sphere_matrix", "core.directions", _rows),
        (estimators, "gaussian_matrix", "core.directions", _rows),
        (core.SampleOracle, "sample_at", "core.sample_at", _size),
        *[(cls, "_draw_at", "env.draw_at", _size) for cls in env_classes],
        *[(cls, "exact_objective", "env.exact_objective", None) for cls in env_classes],
        (config.EnvironmentSpec, "build", "config.build", None),
        (runner, "estimate_gradient", "estimators.estimate", _probe_bytes),
        (verify, "estimate_gradient", "estimators.estimate", _probe_bytes),
        (runner, "run_cell", "runner.run_cell", _status),
        (tuning, "run_cell", "runner.run_cell", _status),
        (cli, "write_results", "runner.write", _file_size),
        (cli, "write_trace", "runner.write", _file_size),
        (cli, "tuned_config", "tuning.tuned_config", None),
        (tuning, "tune_method", "tuning.tune_method", None),
        (tuning, "candidate_specs", "tuning.candidate_specs", None),
        (tuning, "score_candidate", "tuning.score_candidate", None),
        (cli, "run_suite", "verify.run_suite", _length),
        (verify, "_empirical_mse", "verify.empirical_mse", None),
        (cli, "format_report", "verify.format_report", None),
    ]
    for owner, attr, name, work in targets:
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), work))
    for suite in list(verify.SUITES):
        verify.SUITES[suite] = tracer.wrap("verify.suite", verify.SUITES[suite])
