"""In-memory spans around every public mmdlab function, installed from outside.

:meth:`Tracer.install` wraps each public function defined in a layer module
(``mmdlab.<layer>.<name>``) and rebinds the wrapper at every module attribute
that held the original, because the layers import each other with
``from .x import y``.  A few methods are wrapped on their class, and the
preset registry's ``run`` functions are replaced in place.  Nothing under
``src/`` changes.

Each call appends one span ``[name, start, end, parent, size]`` to a list kept
in memory; :meth:`Tracer.metrics` turns the spans into the per-layer metrics
when the run ends.  A span's self time is its duration minus the durations of
its direct child spans.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import sys
import time

import numpy as np

LAYERS = (
    "measures",
    "kernels",
    "accumulate",
    "embedding",
    "constructions",
    "diagnostics",
    "presets",
    "config",
    "cli",
)

# methods that carry layer work but live on classes, as (layer, class, method)
METHODS = (
    ("kernels", "Kernel", "block"),
    ("measures", "SignedDiscreteMeasure", "__post_init__"),
    ("diagnostics", "ConvergenceReport", "csv_text"),
    ("config", "ExperimentConfig", "make_kernel"),
)

# work counted per span, from the call's arguments and result
SIZES = {
    "accumulate.exact_sum": lambda args, out: int(np.size(args[0])),
    "kernels.Kernel.block": lambda args, out: int(out.size),
    "constructions.diffusing_sequence": lambda args, out: int(out.support_size),
}

NAME, START, END, PARENT, SIZE = range(5)

# metrics that must repeat exactly between two traced runs of one input
COUNTS = (
    "accumulate.exact_sum_calls",
    "accumulate.exact_sum_terms",
    "kernels.block_calls",
    "kernels.block_entries",
    "embedding.mmd_calls",
    "embedding.inner_calls",
    "embedding.norm_calls",
    "constructions.candidates_checked",
    "constructions.atoms_accepted",
    "diagnostics.integrate_calls",
    "measures.constructed",
)


class Tracer:
    """Span recorder for one process; create it, then :meth:`install`."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.wrappers: dict = {}  # original function -> its wrapper
        self.identity_parents: set[str] = set()

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        size = SIZES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, 0]
            spans.append(span)
            stack.append(index)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if size is not None:
                span[SIZE] = size(args, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every layer's public functions at every binding."""
        import mmdlab

        modules = {layer: importlib.import_module(f"mmdlab.{layer}") for layer in LAYERS}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    self.wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
        for mod in (mmdlab, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in self.wrappers:
                    setattr(mod, attr, self.wrappers[obj])
        for layer, cls_name, method in METHODS:
            cls = getattr(modules[layer], cls_name)
            setattr(cls, method, self.wrap(f"{layer}.{cls_name}.{method}", vars(cls)[method]))
        registry = modules["presets"].PRESETS
        for key, preset in registry.items():
            wrapped = self.wrappers[preset.run]
            registry[key] = dataclasses.replace(preset, run=wrapped)
            if "identity_holds" in preset.expected:
                self.identity_parents.add(f"presets.{preset.run.__name__}")

    def unwrapped_bindings(self) -> list[str]:
        """Module attributes of mmdlab that still hold an unwrapped original."""
        left = []
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "mmdlab" or mod_name.startswith("mmdlab."):
                for attr, obj in vars(mod).items():
                    if inspect.isfunction(obj) and obj in self.wrappers:
                        left.append(f"{mod_name}.{attr}")
        return left

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded so far."""
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        self_s: dict[str, float] = {}
        size: dict[str, int] = {}
        peak_entries = 0
        candidates = 0
        identity_s = 0.0
        identity_names = ("embedding.mmd", "embedding.norm")
        for i, s in enumerate(spans):
            name, dur = s[NAME], s[END] - s[START]
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + dur
            self_s[name] = self_s.get(name, 0.0) + dur - child[i]
            size[name] = size.get(name, 0) + s[SIZE]
            parent = spans[s[PARENT]][NAME] if s[PARENT] >= 0 else ""
            if name == "kernels.Kernel.block":
                peak_entries = max(peak_entries, s[SIZE])
                if parent == "constructions.diffusing_sequence":
                    candidates += 1
            elif name in identity_names and parent in self.identity_parents:
                identity_s += dur
            elif name == "constructions.identity_residuals":
                identity_s += dur

        def t(table, *names):
            return sum(table.get(n, 0.0) for n in names)

        diffusing = "constructions.diffusing_sequence"
        accepted = size.get(diffusing, 0)
        # the first atom of every sequence is accepted without a check
        checked_accepts = accepted - calls.get(diffusing, 0)
        runs = [n for n in total if n.startswith("presets.run_")]
        return {
            "accumulate.exact_sum_s": t(self_s, "accumulate.exact_sum"),
            "accumulate.exact_sum_calls": calls.get("accumulate.exact_sum", 0),
            "accumulate.exact_sum_terms": size.get("accumulate.exact_sum", 0),
            "accumulate.weighted_gram_sum_s": t(self_s, "accumulate.weighted_gram_sum"),
            "kernels.block_s": t(self_s, "kernels.Kernel.block"),
            "kernels.block_calls": calls.get("kernels.Kernel.block", 0),
            "kernels.block_entries": size.get("kernels.Kernel.block", 0),
            "kernels.block_peak_mb": peak_entries * 8 / 2**20,
            "embedding.mmd_calls": calls.get("embedding.mmd", 0),
            "embedding.inner_calls": calls.get("embedding.inner", 0),
            "embedding.norm_calls": calls.get("embedding.norm", 0),
            "embedding.mmd_total_s": t(total, "embedding.mmd"),
            "constructions.diffusing_self_s": t(self_s, diffusing),
            "constructions.diffusing_total_s": t(total, diffusing),
            "constructions.candidates_checked": candidates,
            "constructions.atoms_accepted": accepted,
            "constructions.accept_ratio": checked_accepts / candidates if candidates else 0.0,
            "diagnostics.probe_self_s": t(self_s, "diagnostics.probe_sequence"),
            "diagnostics.integrate_s": t(self_s, "diagnostics.integrate"),
            "diagnostics.integrate_calls": calls.get("diagnostics.integrate", 0),
            "diagnostics.verdicts_s": t(total, "diagnostics.compute_verdicts"),
            "diagnostics.csv_s": t(total, "diagnostics.ConvergenceReport.csv_text"),
            "measures.init_s": t(self_s, "measures.SignedDiscreteMeasure.__post_init__"),
            "measures.constructed": calls.get("measures.SignedDiscreteMeasure.__post_init__", 0),
            "measures.mixture_s": t(self_s, "measures.mixture"),
            "measures.mass_in_ball_s": t(self_s, "measures.mass_in_ball"),
            "presets.run_total_s": t(total, *runs),
            "presets.identity_s": identity_s,
            "config.build_s": t(
                total,
                "config.load_config_file",
                "config.build_config",
                "config.ExperimentConfig.make_kernel",
            ),
            "cli.write_s": t(self_s, "cli.cmd_run"),
        }
