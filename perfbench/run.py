"""zodd benchmark: run one workload through the CLI and print its metrics.

Run from the root of a zodd checkout:

    python3 perfbench/run.py --workload pricing_tune --seed 1 --seconds 18 --trace 0

The inputs are generated from ``--seed`` into ``.perfbench-out/``, where
they stay, with the outputs, until the next run of the same workload.  Every
process runs zodd from ``src/`` of the checkout, one at a time, with BLAS
and OpenMP pinned to one thread.  With ``--trace 0`` the run reports the
end-to-end metrics:

* ``setup_s``: the median, over several fresh interpreters, of the time
  from starting one until zodd is imported, the input parsed and the
  environment built once (after one untimed warm-up start);
* ``wall_s``: the median time of one CLI call of the workload (a round),
  over the whole rounds that fit in ``--seconds`` (at least one);
* ``probes_per_s``: oracle draws of one round per second of ``wall_s``;
* ``peak_rss_mb``: peak resident memory of the process that ran the rounds.

With ``--trace 1`` it runs one untraced and one traced round in one process
and reports the per-layer metrics instead.  Either way the
outputs of every round are checked (``checks.py``), and the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from checks import check, failed_ops  # noqa: E402
from child import OUTPUT_FILES  # noqa: E402
from workloads import WORKLOADS, Workload, generate  # noqa: E402

OUT_DIR = ".perfbench-out"
SETUP_STARTS = 5  # timed set-up starts besides the one of the round process
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env.update({var: "1" for var in THREAD_VARS})
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


class Child:
    """One child.py process; ``ready_s`` is its set-up time seen from outside."""

    def __init__(self, args: list[str], env: dict, deadline: float):
        self.deadline = deadline
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"), *args],
            stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, env=env, text=True)
        try:
            line = self.proc.stdout.readline()
            self.ready_s = time.perf_counter() - started
            if line.strip() != "ready":
                self.wait()
                raise BenchError(f"child {args[0]} did not set up (exit {self.proc.returncode})")
        except BaseException:
            self.kill()
            raise

    def wait(self) -> None:
        try:
            self.proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError("child ran past the deadline") from None
        if self.proc.returncode != 0:
            raise BenchError(f"child exited {self.proc.returncode}")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()


def run_child(args: list[str], env: dict, deadline: float) -> float:
    child = Child(args, env, deadline)
    try:
        child.wait()
    finally:
        child.kill()
    return child.ready_s


def read_outputs(out_dir: str) -> dict:
    outputs = {}
    for name in OUTPUT_FILES:
        path = os.path.join(out_dir, name)
        if os.path.exists(path):
            with open(path) as fh:
                outputs[name] = fh.read()
    return outputs


def judge(workload: Workload, rounds: list[dict], outputs: dict, oracle: dict):
    """(attempted, failed, failure messages) over all rounds.

    Every round must leave byte-identical outputs and draw the same number
    of samples; the outputs left on disk are then checked once for all.
    """
    failures = check(workload, outputs, oracle)
    if len({(r["rc"], r["digest"]) for r in rounds}) != 1:
        failures.append("rounds of one seed exited differently or left different outputs")
    if len({r["draws"] for r in rounds}) != 1:
        failures.append("rounds of one seed drew different numbers of samples")
    if rounds[0]["draws"] < 1:
        failures.append("no oracle draws counted")
    failed = failed_ops(workload, outputs, rounds[-1]["rc"])
    return workload.expected_ops * len(rounds), failed * len(rounds), failures


def round_process(workdir: str, env: dict, seconds: float, deadline: float) -> tuple[float, dict]:
    """Run whole rounds for ``seconds`` in one process: (set-up time, result)."""
    result_path = os.path.join(workdir, "result.json")
    ready_s = run_child(["timed", os.path.join(workdir, "workload.json"),
                         os.path.join(workdir, "out"), result_path, repr(seconds)], env, deadline)
    with open(result_path) as fh:
        return ready_s, json.load(fh)


def timed(workload, workdir, env, seconds, deadline) -> tuple[dict, dict, list[str]]:
    spec = os.path.join(workdir, "workload.json")
    run_child(["setup", spec], env, deadline)  # warm-up: file cache and bytecode
    setups = [run_child(["setup", spec], env, deadline) for _ in range(SETUP_STARTS)]
    ready_s, result = round_process(workdir, env, seconds, deadline)
    setups.append(ready_s)
    rounds = result["rounds"]
    wall = statistics.median(r["wall_s"] for r in rounds)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "probes_per_s": rounds[0]["draws"] / wall,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return values, result, []


def traced(workload, workdir, env, deadline) -> tuple[dict, dict, list[str]]:
    from layers import Spans, layer_metrics

    spec = os.path.join(workdir, "workload.json")
    run_child(["setup", spec], env, deadline)  # warm-up: file cache and bytecode
    out_dir = os.path.join(workdir, "out")
    result_path = os.path.join(workdir, "result.json")
    spans_path = os.path.join(workdir, "spans.npz")
    run_child(["traced", spec, out_dir, result_path, spans_path], env, deadline)
    with open(result_path) as fh:
        result = json.load(fh)
    untraced, traced_round = result["rounds"]
    spans = Spans(spans_path, result["span_names"])
    values = layer_metrics(spans, result["setup"], traced_round["wall_s"] - untraced["wall_s"])
    failures = []
    traced_draws = {values["core.sample_at.draws"], spans.total_work("env.draw_at")}
    if traced_draws != {untraced["draws"]}:
        failures.append(f"traced round drew {sorted(traced_draws)} samples, "
                        f"untraced round {untraced['draws']}")
    return values, result, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "zodd", "__init__.py")):
        print("error: run from the root of a zodd checkout (no src/zodd here)", file=sys.stderr)
        return 2
    mode = "trace" if args.trace else "timed"
    # one directory per workload and mode, replaced by the next such run
    workdir = os.path.join(root, OUT_DIR, f"{args.workload}-{mode}")
    shutil.rmtree(workdir, ignore_errors=True)
    workload = generate(args.workload, args.seed, workdir)
    env = child_env(root)
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    try:
        if args.trace:
            values, result, failures = traced(workload, workdir, env, deadline)
        else:
            values, result, failures = timed(workload, workdir, env, args.seconds, deadline)
        if set(values) != {m["name"] for m in declared}:
            raise BenchError(f"measured metrics {sorted(values)} are not the ones "
                             "BENCHMARK.json declares")
        outputs = read_outputs(os.path.join(workdir, "out"))
        attempted, failed, more = judge(workload, result["rounds"], outputs, result["oracle"])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failures += more
    for message in failures:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                                  for m in declared}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
