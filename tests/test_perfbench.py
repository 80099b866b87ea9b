"""The benchmark harness in perfbench/ runs against this checkout.

`run.py --smoke` replays every workload at its smallest inputs, untraced
and traced, so it exercises the names the tracer binds and the in-process
cli.main path; `selftest.py` requires its output checks to catch corrupted
outputs.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, verdict",
    [(["perfbench/run.py", "--smoke"], "smoke: ok"), (["perfbench/selftest.py"], "selftest: ok")],
)
def test_benchmark_harness_passes(script, verdict):
    done = subprocess.run(
        [sys.executable, *script], cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert done.stdout.splitlines()[-1] == verdict
