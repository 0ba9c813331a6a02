"""The public API: ``zodd.__all__`` is the README's list, and every
``from zodd import`` in the README and the demos resolves."""

import ast
import re
from pathlib import Path

import zodd

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
