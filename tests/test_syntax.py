"""Every Python file of the project parses as Python 3.10, the oldest version pyproject.toml supports.

The tests themselves may run on a newer interpreter, which would accept
syntax such as `except*` (3.11) or a quote reused inside an f-string (3.12).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_python_file_parses_as_python_3_10():
    files = sorted(path for top in ("src", "tests", "demos", "perfbench") for path in (ROOT / top).rglob("*.py"))
    assert Path(__file__).resolve() in files
    for path in files:
        ast.parse(path.read_bytes(), filename=str(path), feature_version=(3, 10))
