"""The public API: ``zodd.__all__`` is the README's list, every
``from zodd import`` in the README and the demos and every dotted name in
the README resolves, the README's config block parses, and the benchmark
tracer still finds every function it wraps."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import zodd
from zodd.harness.config import parse_config

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def _readme_api() -> list[str]:
    section = README.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    names = []
    for line in section.splitlines():
        if line.startswith("- "):
            names += re.findall(r"`([A-Za-z_]\w*)`", line)
    return names


def _imported_from_zodd(source: str) -> list[str]:
    return [
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "zodd" and node.level == 0
        for alias in node.names
    ]


def test_all_is_the_readme_list():
    names = _readme_api()
    assert len(names) == len(set(names))
    assert sorted(zodd.__all__) == sorted(names)


def test_documented_imports_resolve():
    sources = [path.read_text() for path in sorted((ROOT / "demos").glob("*.py"))]
    sources += re.findall(r"```python\n(.*?)```", README, flags=re.S)
    names = {name for source in sources for name in _imported_from_zodd(source)}
    assert "run_descent" in names and "analytic_moment" in names
    assert [name for name in sorted(names) if not hasattr(zodd, name)] == []
    assert names <= set(zodd.__all__)


def _resolves(dotted: str) -> bool:
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def test_readme_dotted_names_resolve():
    names = re.findall(r"`(zodd(?:\.\w+)+)", README)
    names += ["zodd.core." + name for name in re.findall(r"`core\.(\w+)", README)]
    assert "zodd.harness.runner.run_chains" in names and "zodd.core.draw_blocks" in names
    assert [name for name in names if not _resolves(name)] == []


def test_perfbench_tracer_installs():
    # the tracer wraps zodd functions by name; a subprocess keeps the
    # wrapping out of the other tests
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    code = ("import sys; sys.path.insert(0, 'perfbench'); "
            "from tracer import Tracer, install; install(Tracer())")
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


TRACED_PRICING = """\
[environment]
kind = pricing
products = 3
buyers = 10
seed = 3

[run]
seeds = 1 2
budget = 20
eval_draws = 5

[estimator.sphere]
kind = sphere
mu = 0.1
directions = 1
step = 0.01
"""


def test_perfbench_tracer_sees_direction_draws_and_stream_derivations(tmp_path):
    # the kernel's inline direction draw goes through the names the tracer
    # wraps: 2 chains of 10 steps draw one direction row each per step.  A
    # step derives no stream: only roots are derived, each chain's stream,
    # output pick and evaluation stream, and each environment build's prices
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    config = tmp_path / "pricing.ini"
    config.write_text(TRACED_PRICING)
    code = f"""if True:
        import sys; sys.path.insert(0, "perfbench")
        from tracer import Tracer, install
        tracer = Tracer(); install(tracer)
        from zodd.harness import cli
        cli.main(["run", "--config", {str(config)!r}, "--out", {str(tmp_path)!r}])
        for i, name in enumerate(tracer.names):
            works = [w for j, w in zip(tracer.name_id, tracer.work) if j == i]
            print("span", name, len(works), sum(works))
    """
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    spans = {name: (int(calls), int(work)) for _, name, calls, work in
             (line.split() for line in done.stdout.splitlines() if line.startswith("span "))}
    assert spans["core.directions"] == (20, 20)
    assert spans["core.child"][0] <= 2 * 3 + spans["config.build"][0]


def test_readme_config_block_parses(tmp_path):
    blocks = re.findall(r"```ini\n(.*?)```", README, flags=re.S)
    assert len(blocks) == 1
    path = tmp_path / "readme.ini"
    path.write_text(blocks[0])
    config = parse_config(path)
    assert [spec.name for spec in config.estimators] == ["sphere", "planned"]
