"""Experiment configuration: JSON files, kernel descriptors, measure rows.

A config file is a flat JSON object; kernel descriptors nest, e.g.::

    {
      "preset": "flaw_counterexample",
      "dim": 1,
      "n_max": 64,
      "seed": 0,
      "kernel": {"op": "shift", "c": 1.0,
                 "child": {"op": "scale",
                           "field": {"g": "c0_bump_at", "xi": [0.0]},
                           "child": {"family": "gaussian", "sigma": 1.0, "dim": 1}}}
    }

Command-line flags override file values.  Measures serialize as lists of
``[[coords...], weight]`` rows.
"""

from __future__ import annotations

import json
import numbers
import sys
from collections.abc import Iterable
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .constructions import STRATEGIES
from .diagnostics import Thresholds
from .errors import ParameterError, UsageError
from .kernels import FIELD_BUILDERS, Kernel, center_kernel, make_base_kernel, scale_kernel, shift_kernel
from .measures import SignedDiscreteMeasure
from .presets import PRESETS


def _refuse_text_and_bools(val) -> None:
    # numpy would read "0.5" as 0.5 and true as 1.0
    if isinstance(val, (str, bytes, bool, np.bool_)):
        raise TypeError(f"{val!r} is not a number")
    if isinstance(val, (list, tuple)):
        for v in val:
            _refuse_text_and_bools(v)


def measure_from_rows(rows, dim: int | None = None) -> SignedDiscreteMeasure:
    try:
        atoms = [row[0] for row in rows]
        weights = [row[1] for row in rows]
        _refuse_text_and_bools([atoms, weights])
        atoms = np.asarray(atoms, dtype=np.float64)
        weights = np.asarray(weights, dtype=np.float64)
    except (TypeError, IndexError, ValueError) as exc:
        # TypeError or ValueError: a coordinate or weight that is not a number,
        # or ragged atoms
        raise ParameterError(f"malformed measure rows: {exc}") from exc
    if not len(atoms):
        if dim is None:
            raise ParameterError("an empty measure needs an explicit dimension")
        return SignedDiscreteMeasure(np.empty((0, dim)), np.empty(0), dim)
    return SignedDiscreteMeasure(atoms, weights, dim or -1)


def _is_finite_number(val) -> bool:
    # bool is an int subclass; the bound rejects inf, nan and huge ints
    return (
        isinstance(val, numbers.Real)
        and not isinstance(val, bool)
        and abs(val) <= sys.float_info.max
    )


def _descriptor_number(desc: dict, key: str, default: float | None = None) -> float:
    val = desc.get(key, default)
    if not _is_finite_number(val):
        raise ParameterError(f"kernel descriptor {key} must be a finite number, not {val!r}")
    return float(val)


def _descriptor_coordinates(desc: dict, key: str):
    val = desc[key]
    try:
        _refuse_text_and_bools(val)
    except TypeError as exc:
        raise ParameterError(f"kernel descriptor {key}: {exc}") from exc
    return val


def field_from_descriptor(desc: dict):
    if not isinstance(desc, dict):
        raise ParameterError("scalar field descriptor must be a mapping")
    name = desc.get("g")
    builder = FIELD_BUILDERS.get(name)
    if builder is None:
        raise ParameterError(f"unknown scalar field {name!r}")
    if name == "c0_null_at":
        return builder(_descriptor_coordinates(desc, "xis"))
    return builder(_descriptor_coordinates(desc, "xi"))


def kernel_from_descriptor(desc: dict) -> Kernel:
    """Rebuild a kernel from its (possibly nested) descriptor.

    Parameters must be JSON numbers, and ``dim`` a positive JSON integer:
    booleans, strings and non-finite values raise :class:`ParameterError`,
    where numpy or a comparison would read ``true`` as 1.
    """
    if not isinstance(desc, dict):
        raise ParameterError("kernel descriptor must be a mapping")
    if "family" in desc:
        dim = desc.get("dim", 1)
        if isinstance(dim, bool) or not isinstance(dim, numbers.Integral) or dim < 1:
            raise ParameterError(f"kernel descriptor dim must be a positive integer, not {dim!r}")
        params = {k: _descriptor_number(desc, k) for k in desc if k not in ("family", "dim")}
        return make_base_kernel(desc["family"], dim=int(dim), **params)
    op = desc.get("op")
    if op == "shift":
        child = kernel_from_descriptor(desc["child"])
        return shift_kernel(child, _descriptor_number(desc, "c", 0.0))
    if op == "scale":
        child = kernel_from_descriptor(desc["child"])
        # the field may be nested under "field" or spelled inline (g/xi keys)
        field_desc = desc.get("field") or {
            k: v for k, v in desc.items() if k in ("g", "xi", "xis")
        }
        return scale_kernel(child, field_from_descriptor(field_desc))
    if op == "center":
        child = kernel_from_descriptor(desc["child"])
        p = measure_from_rows(desc.get("p", []), child.dim)
        return center_kernel(child, p, _descriptor_number(desc, "a", 0.0))
    raise ParameterError(f"unrecognized kernel descriptor: {desc!r}")


def _checked_int(name: str, val) -> int:
    if isinstance(val, bool) or not isinstance(val, numbers.Integral):
        raise UsageError(f"{name} must be an integer, not {val!r}")
    return int(val)


def _checked_numbers(name: str, raw) -> tuple[float, ...] | None:
    """A list of finite numbers as a tuple of floats; None passes through."""
    if raw is None:
        return None
    if isinstance(raw, (str, bytes, dict)) or not isinstance(raw, Iterable):
        raise UsageError(f"{name} must be a list of numbers, not {raw!r}")
    vals = list(raw)
    for val in vals:
        if not _is_finite_number(val):
            raise UsageError(f"{name} must be a list of finite numbers, not {val!r}")
    return tuple(float(v) for v in vals)


def _checked_thresholds(raw) -> dict:
    """Threshold overrides as floats; anything but finite numbers is refused."""
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise UsageError("thresholds must be a mapping of names to numbers")
    unknown = set(raw) - {f.name for f in fields(Thresholds)}
    if unknown:
        raise UsageError(f"unknown threshold keys: {', '.join(sorted(unknown))}")
    out = {}
    for key, val in raw.items():
        if not _is_finite_number(val):
            raise UsageError(f"threshold {key} must be a finite number, not {val!r}")
        out[key] = float(val)
    return out


@dataclass
class ExperimentConfig:
    """Validated inputs of one experiment run."""

    preset: str
    dim: int = 1
    n_max: int = 64
    seed: int = 0
    out: str = ""
    kernel: dict | None = None
    thresholds: dict = field(default_factory=dict)
    radii: tuple[float, ...] = (2.0, 4.0, 8.0)
    xi: tuple[float, ...] | None = None
    xi2: tuple[float, ...] | None = None
    pairs: int = 100
    strategy: str = "ray"
    scaler: str = "c0_bump_at"

    def __post_init__(self):
        if self.preset not in PRESETS:
            raise UsageError(
                f"unknown preset {self.preset!r}; available: {', '.join(PRESETS)}"
            )
        for name in ("dim", "n_max", "seed", "pairs"):
            setattr(self, name, _checked_int(name, getattr(self, name)))
        for name in ("radii", "xi", "xi2"):
            setattr(self, name, _checked_numbers(name, getattr(self, name)))
        if self.n_max < 2:
            raise UsageError("n_max must be at least 2")
        if self.dim < 1:
            raise UsageError("dim must be at least 1")
        if self.pairs < 1:
            raise UsageError("pairs must be at least 1")
        if self.seed < 0:
            raise UsageError("seed must be nonnegative")
        if self.strategy not in STRATEGIES:
            raise UsageError(f"unknown search strategy {self.strategy!r}")
        if self.scaler not in FIELD_BUILDERS:
            raise UsageError(f"unknown scaler {self.scaler!r}")
        if not self.radii or not all(r > 0 for r in self.radii):
            raise UsageError("radii must be a non-empty list of finite positive numbers")
        self.thresholds = _checked_thresholds(self.thresholds)
        if not self.out:
            self.out = str(Path("out") / self.preset)
        if not self.kernel:
            self.kernel = {"family": "gaussian", "sigma": 1.0, "dim": self.dim}

    def make_kernel(self) -> Kernel:
        """The configured kernel, by default a unit-bandwidth gaussian."""
        try:
            k = kernel_from_descriptor(self.kernel)
        except (ParameterError, KeyError, TypeError) as exc:
            raise UsageError(f"bad kernel descriptor: {exc}") from exc
        if k.dim != self.dim:
            raise UsageError(
                f"kernel dimension {k.dim} does not match experiment dim {self.dim}"
            )
        return k

    def xi_point(self) -> np.ndarray:
        if self.xi is None:
            return np.zeros(self.dim)
        p = np.asarray(self.xi, dtype=np.float64)
        if p.shape != (self.dim,):
            raise UsageError(f"xi must have {self.dim} coordinates")
        return p


def load_config_file(path) -> dict:
    p = Path(path)
    try:
        raw = json.loads(p.read_text())
    except FileNotFoundError:
        raise UsageError(f"config file not found: {p}") from None
    except OSError as exc:
        raise UsageError(f"cannot read config file {p}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {p} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise UsageError("config file must hold a JSON object")
    unknown = set(raw) - {f.name for f in fields(ExperimentConfig)}
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")
    return raw


def build_config(file_values: dict | None = None, **overrides) -> ExperimentConfig:
    """Merge file values and flag overrides (flags win) into a config."""
    merged: dict = dict(file_values or {})
    for key, val in overrides.items():
        if val is not None:
            merged[key] = val
    if "preset" not in merged:
        raise UsageError("a preset is required (config file or --preset)")
    try:
        return ExperimentConfig(**merged)
    except TypeError as exc:
        raise UsageError(f"bad configuration: {exc}") from exc
