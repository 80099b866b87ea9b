import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
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
