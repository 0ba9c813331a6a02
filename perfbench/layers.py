"""Per-layer metrics from the spans of one traced round.

A layer's self time is the sum of its spans' durations minus the part
covered by their child spans.  Every metric is reported on every workload;
a layer a workload never enters reads 0.
"""

from __future__ import annotations

import numpy as np

# p99 is a tail only with enough calls beyond it
P99_MIN_CALLS = 1000


class Spans:
    """Spans loaded from a ``Tracer.save`` file, with self times."""

    def __init__(self, path: str, names: list[str]):
        with np.load(path) as data:
            self.name_id = data["name_id"]
            self.parent = data["parent"]
            self.start = data["start"]
            self.end = data["end"]
            self.work = data["work"]
        self.names = names
        self.duration = self.end - self.start
        nested = self.parent >= 0
        covered = np.bincount(self.parent[nested], weights=self.duration[nested],
                              minlength=self.duration.size)
        self.self_time = self.duration - covered

    def mask(self, *names: str) -> np.ndarray:
        ids = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.name_id, ids)

    def calls(self, *names: str) -> int:
        return int(self.mask(*names).sum())

    def self_s(self, *names: str) -> float:
        return float(self.self_time[self.mask(*names)].sum())

    def total_work(self, *names: str) -> int:
        return int(self.work[self.mask(*names)].sum())

    def within(self, outer: str) -> np.ndarray:
        """Spans that start inside any span named ``outer`` (one thread)."""
        inside = np.zeros(self.start.size, dtype=bool)
        for i in np.flatnonzero(self.mask(outer)):
            inside |= (self.start >= self.start[i]) & (self.start <= self.end[i])
        return inside


def layer_metrics(spans: Spans, setup: dict, overhead_s: float) -> dict:
    """Every per-layer metric of ``BENCHMARK.json``, as plain numbers."""
    s = spans
    draw_at = s.mask("env.draw_at")
    draws = int(s.work[draw_at].sum())
    draw_time = float(s.duration[draw_at].sum())
    estimate = s.mask("estimators.estimate")
    est_us = s.duration[estimate] * 1e6
    run_cell_ids = [s.names.index("runner.run_cell")] if "runner.run_cell" in s.names else []
    parent_name = np.where(s.parent >= 0, s.name_id[np.maximum(s.parent, 0)], -1)
    eval_calls = s.mask("core.sample_at") & np.isin(parent_name, run_cell_ids)
    cells = s.mask("runner.run_cell")
    tuning_draws = int(s.work[draw_at & s.within("tuning.tuned_config")].sum())
    values = {
        **setup,
        "core.child.calls": s.calls("core.child"),
        "core.child.self_s": s.self_s("core.child"),
        "core.generator.calls": s.calls("core.generator"),
        "core.generator.self_s": s.self_s("core.generator"),
        "core.directions.rows": s.total_work("core.directions"),
        "core.directions.self_s": s.self_s("core.directions"),
        "core.sample_at.calls": s.calls("core.sample_at"),
        "core.sample_at.draws": s.total_work("core.sample_at"),
        "core.sample_at.self_s": s.self_s("core.sample_at"),
        "env.draw_at.self_s": s.self_s("env.draw_at"),
        "env.draw_at.draws_per_s": draws / draw_time if draw_time > 0 else 0.0,
        "env.exact_objective.calls": s.calls("env.exact_objective"),
        "env.exact_objective.self_s": s.self_s("env.exact_objective"),
        "config.build.calls": s.calls("config.build"),
        "config.build.self_s": s.self_s("config.build"),
        "estimators.estimate.calls": int(estimate.sum()),
        "estimators.estimate.self_s": s.self_s("estimators.estimate"),
        "estimators.estimate.p50_us": float(np.median(est_us)) if est_us.size else 0.0,
        "estimators.estimate.p99_us": (float(np.percentile(est_us, 99))
                                       if est_us.size >= P99_MIN_CALLS else 0.0),
        "estimators.probe_array.max_bytes": int(s.work[estimate].max()) if estimate.any() else 0,
        "runner.run_cell.calls": int(cells.sum()),
        "runner.run_cell.self_s": s.self_s("runner.run_cell"),
        "runner.eval.self_s": float(s.duration[eval_calls].sum()),
        "runner.rows.ok": int((s.work[cells] == 0).sum()),
        "runner.rows.diverged": int((s.work[cells] == 1).sum()),
        "runner.write.bytes": s.total_work("runner.write"),
        "runner.write.self_s": s.self_s("runner.write"),
        "tuning.score_candidate.calls": s.calls("tuning.score_candidate"),
        "tuning.self_s": s.self_s("tuning.tuned_config", "tuning.tune_method",
                                  "tuning.candidate_specs", "tuning.score_candidate"),
        "tuning.probe_share": tuning_draws / draws if draws else 0.0,
        "verify.empirical_mse.calls": s.calls("verify.empirical_mse"),
        "verify.self_s": s.self_s("verify.run_suite", "verify.suite",
                                  "verify.empirical_mse", "verify.format_report"),
        "verify.checks": s.total_work("verify.run_suite"),
        "trace.overhead_s": overhead_s,
    }
    return values
