"""Experiment runner.

Usage::

    mmdlab run --config cfg.json [--preset NAME --nmax N --seed S --out DIR]
    mmdlab list

``run`` executes one preset, writes ``trace.csv`` and ``summary.txt`` into
the output directory, and exits 0 when the preset's expected verdict
pattern holds, 1 on a verdict mismatch (printing the diff), 2 on a usage
error, including parameters, measures or dimensions a preset rejects and
config or output paths that cannot be read or written, 3 on an
internal error: an exception the package did not expect, reported
as one ``internal error:`` line, so a crash never reads as a mismatch,
and 4 when a construction fails (the diffusing search ran out of
candidates), reported as one ``construction failed:`` line.
Identical config and seed produce byte-identical CSV output.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .config import build_config, load_config_file
from .errors import DimensionMismatchError, MeasureError, ParameterError, SearchFailureError, UsageError
from .presets import PRESETS, preset_table

EXIT_OK = 0
EXIT_VERDICT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
EXIT_CONSTRUCTION_FAILED = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmdlab",
        description="Run desk-scale embedding-metric experiments with CSV traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment preset")
    run_p.add_argument("--config", help="JSON config file (flags override it)")
    run_p.add_argument("--preset", help="preset name (see 'mmdlab list')")
    run_p.add_argument("--nmax", type=int, help="largest sequence size (>= 2)")
    run_p.add_argument("--seed", type=int, help="seed for randomized presets")
    run_p.add_argument("--out", help="output directory for trace.csv / summary.txt")

    sub.add_parser("list", help="list presets with claims and expected verdicts")
    return parser


def _format_value(v) -> str:
    if isinstance(v, bool):
        return str(v).lower()
    return str(v)


def _output(path: Path, write) -> None:
    # an output path that cannot be written is the user's to fix
    try:
        write(path)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from None


def cmd_run(args) -> int:
    file_values = load_config_file(args.config) if args.config else None
    cfg = build_config(
        file_values,
        preset=args.preset,
        n_max=args.nmax,
        seed=args.seed,
        out=args.out,
    )
    preset = PRESETS[cfg.preset]
    # made before the run, so an unwritable output costs no run, and
    # removed if the run fails, so a failed run leaves nothing behind
    out_dir = Path(cfg.out)
    made = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
    _output(out_dir, lambda d: d.mkdir(parents=True, exist_ok=True))
    start = time.perf_counter()
    try:
        outcome = preset.run(cfg)
    except BaseException:
        for d in made:
            d.rmdir()
        raise
    wall_ms = (time.perf_counter() - start) * 1000.0

    trace_path = out_dir / "trace.csv"
    _output(trace_path, lambda p: p.write_text(outcome.csv_text, newline="\n"))

    mismatches = {
        key: (want, outcome.actual.get(key))
        for key, want in preset.expected.items()
        if outcome.actual.get(key) != want
    }
    status = "ok" if not mismatches else "verdict_mismatch"

    lines = [
        f"preset={cfg.preset}",
        f"claim={preset.claim}",
        f"dim={cfg.dim}",
        f"n_max={cfg.n_max}",
        f"seed={cfg.seed}",
        f"kernel={json.dumps(cfg.kernel, sort_keys=True)}",
        f"radii={','.join(repr(float(r)) for r in cfg.radii)}",
    ]
    lines += [f"{k}={v}" for k, v in outcome.extras]
    lines += [f"expected_{k}={_format_value(v)}" for k, v in preset.expected.items()]
    lines += [f"actual_{k}={_format_value(v)}" for k, v in outcome.actual.items()]
    lines.append(f"wall_time_ms={wall_ms:.3f}")
    lines.append(f"status={status}")
    summary_path = out_dir / "summary.txt"
    _output(summary_path, lambda p: p.write_text("\n".join(lines) + "\n", newline="\n"))

    print(f"wrote {trace_path}")
    print(f"wrote {summary_path}")
    if mismatches:
        print("verdict mismatch:", file=sys.stderr)
        for key, (want, got) in mismatches.items():
            print(
                f"  {key}: expected {_format_value(want)}, "
                f"actual {_format_value(got) if got is not None else 'missing'}",
                file=sys.stderr,
            )
        return EXIT_VERDICT_MISMATCH
    print(f"{cfg.preset}: expected verdict pattern holds")
    return EXIT_OK


def cmd_list(_args) -> int:
    rows = preset_table()
    name_w = max(len(r[0]) for r in rows)
    claim_w = max(len(r[1]) for r in rows)
    for name, claim, expected in rows:
        print(f"{name:<{name_w}}  {claim:<{claim_w}}  {expected}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed a message; normalize its code
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command == "run":
            return cmd_run(args)
        return cmd_list(args)
    except (UsageError, ParameterError, MeasureError, DimensionMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SearchFailureError as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return EXIT_CONSTRUCTION_FAILED
    except Exception as exc:
        message = " ".join(str(exc).splitlines())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
