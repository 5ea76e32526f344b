#!/usr/bin/env python3
"""Driving the experiment runner: config files, CSV traces, exit codes.

Writes a config file for the signed-witness escape experiment, runs it the
way a shell user would (``mmdlab run --config ...``), and inspects the
emitted trace.csv and summary.txt.  The runner exits 0 only when the
preset's expected verdict pattern holds, so experiment scripts can be used
directly as regression gates.
"""

import json
import tempfile
from pathlib import Path

from mmdlab.cli import main as mmdlab_main


def main():
    with tempfile.TemporaryDirectory(prefix="mmdlab_demo_") as tmp:
        run_demo(Path(tmp))


def run_demo(workdir: Path):
    config = {
        "preset": "signed_witness_escape",
        "dim": 1,
        "n_max": 64,
        "seed": 0,
        "out": str(workdir / "out"),
        "kernel": {"family": "gaussian", "sigma": 1.0, "dim": 1},
    }
    cfg_path = workdir / "escape.json"
    cfg_path.write_text(json.dumps(config, indent=2))
    print(f"config: {cfg_path}\n")

    code = mmdlab_main(["run", "--config", str(cfg_path)])
    print(f"\nexit code: {code} (0 = expected verdict pattern holds)\n")

    trace = (workdir / "out" / "trace.csv").read_text().splitlines()
    print("trace.csv, first and last data rows:")
    print(" ", trace[0])
    print(" ", trace[1])
    print(" ", [line for line in trace if not line.startswith("#")][-1])
    print("\ntrailing verdict comments:")
    for line in trace:
        if line.startswith("# verdict"):
            print(" ", line)

    print("\nsummary.txt (selected keys):")
    for line in (workdir / "out" / "summary.txt").read_text().splitlines():
        key = line.split("=", 1)[0]
        if key in (
            "preset",
            "claim",
            "identity_max_residual",
            "residual_mass",
            "status",
        ) or key.startswith(("actual_", "verdict_")):
            print(" ", line)


if __name__ == "__main__":
    main()
