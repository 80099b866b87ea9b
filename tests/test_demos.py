import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


# every fenced python block of README.md, in order
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.S | re.M)


def run_python(args, cwd) -> subprocess.CompletedProcess:
    """Run python with args in cwd, with the checkout's src first on PYTHONPATH."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    proc = run_python([str(demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("code", README_BLOCKS, ids=[f"block{k}" for k in range(1, len(README_BLOCKS) + 1)])
def test_readme_python_block_runs(code, tmp_path):
    proc = run_python(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_names_every_export():
    init = ast.parse((ROOT / "src" / "sbbd" / "__init__.py").read_text())
    exports = [a.name for node in init.body if isinstance(node, ast.ImportFrom) for a in node.names]
    readme = (ROOT / "README.md").read_text()
    missing = [name for name in exports if not re.search(rf"\b{name}\b", readme)]
    assert exports and not missing, missing


def test_no_module_relies_on_a_bare_assert():
    # python -O strips assert statements, so no correctness check may be one
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src" / "sbbd").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found
