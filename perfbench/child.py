"""One ``mmdlab run`` in a fresh interpreter, timed from the parent's spawn.

Usage::

    python3 perfbench/child.py MODE T0 RESULT CONFIG SEED OUT

MODE is ``setup`` (import, build the config and kernel, then stop), ``run``
or ``traced`` (the same run with :class:`tracer.Tracer` installed).  T0 is
the parent's ``time.monotonic()`` just before the spawn; CLOCK_MONOTONIC is
shared by all processes, so ``setup_s`` counts interpreter start-up too.
The child writes a JSON object to RESULT and exits with ``mmdlab``'s code.
"""

from __future__ import annotations

import json
import resource
import signal
import sys
import time

PROBE_INTERVAL_S = 0.01
EXPLICIT_PROBES = 5


class SpeedProbe:
    """Samples the CPU's current speed while the child runs.

    Other tenants of a shared machine change its CPU speed by up to 2x, in
    phases from a fraction of a second to minutes.  Every ``PROBE_INTERVAL_S``
    of wall time a SIGALRM handler times a fixed pure-interpreter loop; the
    mean loop time over an interval tells how fast the CPU ran during it.
    The handler runs between bytecodes, so long numpy calls delay a sample
    but are never interrupted.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._mark = 0

    def sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        acc = 0
        for i in range(1000):
            acc += i * i
        self.samples.append(time.perf_counter() - start)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def mean_since_mark(self) -> float:
        """Mean loop time since the previous call (plus a few taken now)."""
        for _ in range(EXPLICIT_PROBES):
            self.sample()
        window = self.samples[self._mark :]
        self._mark = len(self.samples)
        return sum(window) / len(window)


def main() -> int:
    mode, t0, result_path, config_path, seed, out = sys.argv[1:7]
    probe = SpeedProbe()
    probe.start()
    import mmdlab.cli
    from mmdlab import config

    tracer = None
    if mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    cfg = config.build_config(config.load_config_file(config_path), seed=int(seed), out=out)
    cfg.make_kernel()
    result = {"setup_s": time.monotonic() - float(t0), "exit": 0}
    result["probe_setup_s"] = probe.mean_since_mark()
    if mode != "setup":
        argv = ["run", "--config", config_path, "--seed", seed, "--out", out]
        start = time.perf_counter()
        result["exit"] = mmdlab.cli.main(argv)
        result["run_s"] = time.perf_counter() - start
        result["probe_run_s"] = probe.mean_since_mark()
    probe.stop()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["numpy"] = sys.modules["numpy"].__version__
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["unwrapped"] = tracer.unwrapped_bindings()
    with open(result_path, "w") as handle:
        json.dump(result, handle)
    return result["exit"]


if __name__ == "__main__":
    sys.exit(main())
