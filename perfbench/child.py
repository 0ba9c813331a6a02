"""One process of the benchmark: set zodd up, then run the workload rounds.

Started by ``run.py`` from the root of a checkout, with ``src`` on
``PYTHONPATH`` and BLAS pinned to one thread:

    python3 perfbench/child.py setup  WORKLOAD_JSON
    python3 perfbench/child.py timed  WORKLOAD_JSON OUT_DIR RESULT_JSON SECONDS
    python3 perfbench/child.py traced WORKLOAD_JSON OUT_DIR RESULT_JSON SPANS_NPZ

Every mode first sets up -- import zodd, parse the config, build the
environment once -- and then prints ``ready`` on stdout, so that the
parent times set-up from outside the process.  ``timed`` then runs as many
whole rounds of the workload through the CLI entry as fit in SECONDS (at
least one); ``traced`` runs one untraced and one traced round.  A round is one
``zodd run`` or ``zodd verify`` call, with its printout sent to
``stdout.txt`` in the round's output directory.

Only the standard library is imported before zodd, so that the set-up
phases are timed as a user's interpreter pays them.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import resource
import sys
from time import perf_counter

OUTPUT_FILES = ("results.csv", "trace.csv", "verify_report.txt", "stdout.txt")


def set_up(workload: dict):
    """Import zodd, parse the workload's input and build its environment."""
    t0 = perf_counter()
    import zodd
    from zodd.harness import cli
    from zodd.environments import QuadraticEnv
    from zodd.harness.config import parse_config

    t1 = perf_counter()
    src = os.path.join(os.getcwd(), "src")
    if not os.path.abspath(zodd.__file__).startswith(src + os.sep):
        raise SystemExit(f"zodd imported from {zodd.__file__}, not from {src}")
    if workload["command"] == "run":
        config = parse_config(workload["config_path"])
        env_spec = config.environment
        t2 = perf_counter()
        env_spec.build(budget=config.budget)
    else:
        cli.build_parser().parse_args([*workload["argv"], "--out", "."])
        env_spec = None
        t2 = perf_counter()
        # the environment `zodd verify --suite mse_bounds` builds before its loop
        QuadraticEnv.isotropic(workload["params"]["d"], workload["params"]["sigma"])
    t3 = perf_counter()
    print("ready", flush=True)
    phases = {"setup.import_s": t1 - t0, "setup.config_s": t2 - t1,
              "setup.env_build_s": t3 - t2}
    return cli, env_spec, phases


class DrawCounter:
    """Counts oracle draws by keeping every budget counter zodd creates.

    Each ``sample_at`` charges its draws to its environment's counter, the
    unbudgeted evaluation environments included, so the sum of ``consumed``
    over all counters is the number of draws.  Only construction is hooked;
    the draw path runs unwrapped.
    """

    def __init__(self) -> None:
        from zodd.core import BudgetCounter

        self.counters = []
        original = BudgetCounter.__init__
        counters = self.counters

        def init(counter, *args, **kwargs):
            original(counter, *args, **kwargs)
            counters.append(counter)

        BudgetCounter.__init__ = init

    def take(self) -> int:
        draws = sum(c.consumed for c in self.counters)
        self.counters.clear()
        return draws


def run_round(cli, workload: dict, out_dir: str, counter: DrawCounter) -> dict:
    """One CLI call of the workload; returns exit code, wall time and draws."""
    os.makedirs(out_dir, exist_ok=True)
    # a round that writes nothing must not pass on the last round's files
    for name in OUTPUT_FILES:
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(out_dir, name))
    argv = [*workload["argv"], "--out", out_dir]
    counter.take()
    with open(os.path.join(out_dir, "stdout.txt"), "w") as fh, contextlib.redirect_stdout(fh):
        t0 = perf_counter()
        rc = cli.main(argv)
        wall = perf_counter() - t0
    return {"rc": rc, "wall_s": wall, "draws": counter.take(), "digest": digest(out_dir)}


def digest(out_dir: str) -> str:
    h = hashlib.sha256()
    for name in OUTPUT_FILES:
        path = os.path.join(out_dir, name)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read() + b"\0")
    return h.hexdigest()


def oracle_check(workload: dict, env_spec) -> dict:
    """Many draws at the generated check points, summarised per point."""
    if not workload["check_points"]:
        return {}
    import numpy as np
    from zodd.core import RngStream

    env = env_spec.build()
    reps = workload["check_replicates"]
    values = env.sample_at(np.array(workload["check_points"]),
                           RngStream(workload["seed"]).child("perfbench", "oracle-check"),
                           replicates=reps)
    return {"mean": values.mean(axis=0).tolist(),
            "se": (values.std(axis=0, ddof=1) / np.sqrt(reps)).tolist()}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: list[str]) -> int:
    mode, workload_path, out_dir, result_path, extra = argv
    with open(workload_path) as fh:
        workload = json.load(fh)
    cli, env_spec, phases = set_up(workload)
    counter = DrawCounter()
    result = {"setup": phases}
    if mode == "timed":
        seconds = float(extra)
        rounds = []
        started = perf_counter()
        while True:
            rounds.append(run_round(cli, workload, out_dir, counter))
            elapsed = perf_counter() - started
            # whole rounds only: stop before a round that would end after SECONDS
            if elapsed + elapsed / len(rounds) > seconds:
                break
        result["rounds"] = rounds
        result["peak_rss_mb"] = peak_rss_mb()
    else:
        from tracer import Tracer, install

        untraced = run_round(cli, workload, out_dir, counter)
        tracer = Tracer()
        install(tracer)
        traced = run_round(cli, workload, out_dir, counter)
        tracer.save(extra)
        result["rounds"] = [untraced, traced]
        result["span_names"] = tracer.names
    result["oracle"] = oracle_check(workload, env_spec)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "setup":
        with open(sys.argv[2]) as fh:
            set_up(json.load(fh))
        sys.exit(0)
    if len(sys.argv) != 6 or sys.argv[1] not in ("timed", "traced"):
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1:]))
