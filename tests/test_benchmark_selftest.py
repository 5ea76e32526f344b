"""The benchmark's self-test run, as ``perfbench/run.py --trace 1`` makes it.

A traced run of ``perfbench/child.py`` on ``run.SELFTEST`` must exit 0, wrap
every public binding, and hit every count pinned in ``run.SELFTEST_EXPECT``;
the benchmark reads ``correct: false`` otherwise.  The constants are read
from ``perfbench/run.py`` itself, so this test follows the benchmark.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

from helpers import run_constants

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"


def test_traced_selftest_run_holds_its_pins(tmp_path):
    selftest, expect, thread_vars = run_constants("SELFTEST", "SELFTEST_EXPECT", "THREAD_VARS")
    config = tmp_path / "config.json"
    config.write_text(json.dumps(selftest))
    result = tmp_path / "result.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({var: "1" for var in thread_vars})
    cmd = [
        sys.executable,
        str(BENCH / "child.py"),
        "traced",
        repr(time.monotonic()),
        str(result),
        str(config),
        "1",
        str(tmp_path),
    ]
    proc = subprocess.run(cmd, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = json.loads(result.read_text())
    assert out["exit"] == 0
    assert out["unwrapped"] == []
    assert {key: out["layers"][key] for key in expect} == expect
