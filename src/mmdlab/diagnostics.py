"""Convergence probes for sequences of measures against a target.

One report answers four questions about a sequence (mu_n) and a target: does
the MMD to the target settle (strong RKHS probe)?  do integrals of embedded
test functions settle (weak RKHS probe)?  do integrals of functions that
vanish at infinity settle (vague probe)?  do integrals of all bounded
continuous probes, including the constant 1, settle (weak probe)?  A fifth
verdict flags mass escaping: total mass stays constant while the mass inside
every configured ball falls short of it.

Finite traces cannot certify a limit.  "Settles" is therefore an explicit,
configurable rule -- final discrepancy below a threshold and no more than a
10% rise between consecutive indices in the trailing half of the trace --
reported alongside the raw rows so callers can re-judge.  Verdicts are
evidence, not proof, and are deterministic functions of the rows and
thresholds (see :func:`compute_verdicts`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .accumulate import exact_row_sums, exact_sum
from .embedding import keep_self_inner, mmd
from .errors import DimensionMismatchError, ParameterError
from .kernels import Kernel
from .measures import (
    MeasureSequence,
    SignedDiscreteMeasure,
    as_point,
    dirac,
    in_balls,
    support_union,
)

TAG_BUMP = "bump_cc"
TAG_C0 = "c0"
TAG_CB = "cb"
TAG_RKHS = "rkhs"
_VAGUE_TAGS = (TAG_BUMP, TAG_C0, TAG_RKHS)


@dataclass(frozen=True)
class TestFunction:
    """An evaluable probe function with a topology class tag.

    Tags: ``bump_cc`` compactly supported, ``c0`` vanishing at infinity,
    ``cb`` bounded continuous, ``rkhs`` a kernel mean embedding.

    ``fn`` maps an (n, d) array to n values.  It must be pointwise:
    ``values(X[rows])`` equals ``values(X)[rows]`` bit for bit, so a value
    does not depend on which other points are evaluated with it.
    :func:`probe_sequence` relies on this to evaluate the function once on
    the atoms of a whole sequence.
    """

    fn: object = field(repr=False)
    dim: int
    tag: str
    name: str

    def values(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(X), dtype=np.float64)


def bump(center, inner_r: float, outer_r: float) -> TestFunction:
    """Radial hat: 1 on the inner ball, 0 outside the outer, linear between."""
    if not (0 <= inner_r < outer_r):
        raise ParameterError("need 0 <= inner_r < outer_r")
    c = as_point(center)
    width = outer_r - inner_r

    def fn(X):
        r = np.sqrt(((X - c[None, :]) ** 2).sum(axis=1))
        return np.clip((outer_r - r) / width, 0.0, 1.0)

    return TestFunction(fn=fn, dim=c.shape[0], tag=TAG_BUMP, name="bump")


def _one(X):
    return np.ones(X.shape[0])


def constant_one(dim: int) -> TestFunction:
    """The constant function 1; the probe that distinguishes weak from vague.

    :func:`probe_sequence` recognises it by its function, whatever its name.
    """
    return TestFunction(fn=_one, dim=dim, tag=TAG_CB, name="const1")


def kme_probe(k: Kernel, nu: SignedDiscreteMeasure, name: str = "kme") -> TestFunction:
    """The embedding of ``nu`` as a test function.

    Integrating a measure against this function equals the embedding inner
    product with ``nu`` (one code path for the weak-RKHS probe).  Each value
    is a last-axis row sum of ``k(x, nu.atoms) * nu.weights``, which depends
    on x alone by the kernel's tiling contract; a matrix-vector product
    would round a point differently by its position in X.
    """
    if nu.dim != k.dim:
        raise DimensionMismatchError("reference measure dimension mismatch")

    def fn(X):
        return (k.block(X, nu.atoms) * nu.weights).sum(axis=1)

    return TestFunction(fn=fn, dim=k.dim, tag=TAG_RKHS, name=name)


def integrate(mu: SignedDiscreteMeasure, f: TestFunction) -> float:
    """sum_i w_i f(atom_i), exactly rounded."""
    if mu.dim != f.dim:
        raise DimensionMismatchError(
            f"measure dimension {mu.dim} != test function dimension {f.dim}"
        )
    if mu.support_size == 0:
        return 0.0
    return exact_sum(mu.weights * f.values(mu.atoms))


# the default battery's bump radii around each target atom, its wide bump
# radii around the origin, and its embedded Diracs' offsets along axis 0
BUMP_INNER, BUMP_OUTER = 0.5, 1.0
WIDE_RADII = (2.0, 4.0, 8.0)
PROBE_OFFSETS = (-2.0, -1.0, 0.0, 1.0, 2.0)


def default_battery(k: Kernel, target: SignedDiscreteMeasure) -> list[TestFunction]:
    """Battery covering the vague/weak/weak-RKHS probe classes.

    Constant 1; a bump at each target atom; wide bumps around the origin at
    ``WIDE_RADII``; and, when the kernel claims vanishing sections, one
    embedded Dirac per offset in ``PROBE_OFFSETS`` along the first axis.
    Finitely many witnesses per class: enough to refute convergence, never
    to certify it.
    """
    dim = k.dim
    battery = [constant_one(dim)]
    for i, atom in enumerate(target.atoms):
        b = bump(atom, BUMP_INNER, BUMP_OUTER)
        battery.append(replace(b, name=f"bump_t{i}"))
    origin = np.zeros(dim)
    for r in WIDE_RADII:
        b = bump(origin, r, r + 1.0)
        battery.append(replace(b, name=f"wide_r{r:g}"))
    if k.claims_c0:
        for i, off in enumerate(PROBE_OFFSETS):
            z = np.zeros(dim)
            z[0] = off
            battery.append(kme_probe(k, dirac(z), name=f"kme_z{i}"))
    return battery


# ---------------------------------------------------------------------------
# verdict rule
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Thresholds:
    """Knobs of the settling rule; all reported next to the verdicts.

    ``noise_floor`` is an absolute allowance so exactly-zero traces are not
    failed over sub-representable jitter.
    """

    final_tol: float = 1e-2
    slack: float = 0.10
    noise_floor: float = 1e-12
    escape_deficit: float = 0.5
    mass_tol: float = 1e-12


def trace_settles(values: np.ndarray, thresholds: Thresholds) -> bool:
    """Final value below final_tol, trailing half nonincreasing within slack.

    A trace holding a nan never settles: nothing is known of that index.
    """
    v = np.asarray(values, dtype=np.float64)
    if np.isnan(v).any() or v[-1] > thresholds.final_tol:
        return False
    tail = v[len(v) // 2 :]
    for a, b in zip(tail, tail[1:]):
        if b > a * (1.0 + thresholds.slack) + thresholds.noise_floor:
            return False
    return True


@dataclass(frozen=True)
class Verdicts:
    """Boolean outcomes; ``weak_rkhs_converges`` is None when the battery
    carried no embedded test functions."""

    mmd_converges: bool
    weak_rkhs_converges: bool | None
    vague_converges: bool
    weak_converges: bool
    mass_escapes: bool

    def as_dict(self) -> dict:
        return asdict(self)


def _shown(verdict: bool | None) -> str:
    """A verdict as the CSV and the summary print it."""
    return "none" if verdict is None else str(bool(verdict)).lower()


def compute_verdicts(
    mmd_trace: np.ndarray,
    fn_tags: list[str],
    fn_discrepancies: np.ndarray,
    ball_masses: np.ndarray,
    total_masses: np.ndarray,
    thresholds: Thresholds,
) -> Verdicts:
    """Recompute every verdict from raw rows; used both by the probe and by
    anyone auditing a report."""
    settles = [
        trace_settles(fn_discrepancies[:, j], thresholds) for j in range(len(fn_tags))
    ]
    rkhs = [s for s, t in zip(settles, fn_tags) if t == TAG_RKHS]
    vague = [s for s, t in zip(settles, fn_tags) if t in _VAGUE_TAGS]

    mass_constant = bool(
        np.max(np.abs(total_masses - total_masses[0])) <= thresholds.mass_tol
    )
    deficit = float(total_masses[-1] - ball_masses[-1, -1])
    return Verdicts(
        mmd_converges=trace_settles(mmd_trace, thresholds),
        weak_rkhs_converges=all(rkhs) if rkhs else None,
        vague_converges=all(vague) if vague else True,
        weak_converges=all(settles),
        mass_escapes=bool(mass_constant and deficit >= thresholds.escape_deficit),
    )


# ---------------------------------------------------------------------------
# the probe itself
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-index traces plus verdicts for one sequence/target pair.

    Column layout mirrors the CSV schema: index n, mmd to target, one
    column per test function (absolute discrepancy |mu_n(f) - target(f)|),
    one per ball radius (signed mass inside), and total mass.
    """

    indices: np.ndarray
    mmd_to_target: np.ndarray
    fn_names: tuple[str, ...]
    fn_tags: tuple[str, ...]
    fn_discrepancies: np.ndarray
    radii: np.ndarray
    ball_masses: np.ndarray
    total_masses: np.ndarray
    thresholds: Thresholds
    verdicts: Verdicts

    def csv_text(self) -> str:
        """Trace CSV with a trailing comment block stating the verdicts."""
        cols = (
            ["n", "mmd"]
            + [f"f_{name}" for name in self.fn_names]
            + [f"ball_{r:g}" for r in self.radii]
            + ["total_mass"]
        )
        lines = [",".join(cols)]
        for i, n in enumerate(self.indices):
            row = [str(int(n)), repr(float(self.mmd_to_target[i]))]
            row += [repr(float(v)) for v in self.fn_discrepancies[i]]
            row += [repr(float(v)) for v in self.ball_masses[i]]
            row.append(repr(float(self.total_masses[i])))
            lines.append(",".join(row))
        t = self.thresholds
        rule = f"final_tol={t.final_tol!r} slack={t.slack!r} noise_floor={t.noise_floor!r}"
        for key, val in self.verdicts.as_dict().items():
            extra = (
                f"escape_deficit={t.escape_deficit!r} mass_tol={t.mass_tol!r}"
                if key == "mass_escapes"
                else rule
            )
            lines.append(f"# verdict {key}={_shown(val)} {extra}")
        return "\n".join(lines) + "\n"

    def summary_items(self) -> list[tuple[str, str]]:
        """Machine-readable key=value pairs for the separate summary file."""
        items = [
            ("rows", str(len(self.indices))),
            ("final_index", str(int(self.indices[-1]))),
            ("final_mmd", repr(float(self.mmd_to_target[-1]))),
        ]
        items += [
            (f"threshold_{f.name}", repr(getattr(self.thresholds, f.name)))
            for f in fields(Thresholds)
        ]
        items += [(f"verdict_{key}", _shown(val)) for key, val in self.verdicts.as_dict().items()]
        return items


def probe_sequence(
    seq: MeasureSequence,
    target: SignedDiscreteMeasure,
    k: Kernel,
    battery: list[TestFunction] | None = None,
    radii=(2.0, 4.0, 8.0),
    thresholds: Thresholds | None = None,
    ball_center=None,
) -> ConvergenceReport:
    """Run all probes on a sequence against a target measure.

    The battery defaults to :func:`default_battery` and must contain the
    :func:`constant_one` function, under any name: without it the weak
    verdict would collapse into the vague one and mass escaping to infinity
    would go unnoticed.  Its column's sums are the total masses.  Every
    column comes from one :func:`exact_row_sums` call per measure and target.
    """
    thresholds = thresholds or Thresholds()
    if target.dim != seq.dim or k.dim != seq.dim:
        raise DimensionMismatchError("sequence, target and kernel dimensions differ")
    if battery is None:
        battery = default_battery(k, target)
    one = next((j for j, f in enumerate(battery) if f.fn is _one), None)
    if one is None:
        raise ParameterError(
            "battery must include the constant-1 function for a weak verdict"
        )
    for f in battery:
        if f.dim != seq.dim:
            raise DimensionMismatchError(f"test function {f.name!r} dimension mismatch")
    r = np.asarray(radii, dtype=np.float64).ravel()
    if r.size == 0 or not np.all(r > 0):
        raise ParameterError("ball radii must be positive and nonempty")
    r = np.sort(r)
    center = np.zeros(seq.dim) if ball_center is None else as_point(ball_center, seq.dim)

    # every index's mmd reads the target's self term from its slot; the
    # trace is filled without a list of every index's float
    keep_self_inner(k, target)
    mmd_trace = np.fromiter((mmd(k, mu_n, target) for mu_n in seq), np.float64, len(seq))

    measures = (*seq.items, target)
    atoms, slots = support_union(measures, seq.dim)
    nf = len(battery)
    table = np.empty((nf, atoms.shape[0]))
    if atoms.shape[0]:
        for j, f in enumerate(battery):
            table[j] = f.values(atoms)
    inside = in_balls(atoms, center, r)
    # contiguous arrays filled a row at a time and differenced in place:
    # numpy buffers an in-place operation on a strided view
    values = np.empty((len(measures), nf))
    balls = np.empty((len(measures), r.size))
    for i, (mu, idx) in enumerate(zip(measures, slots)):
        # its atoms' test-function values, then their balls' indicators
        # (1.0 inside; a term w * 0.0 adds nothing to an exact sum), times
        # the weights, in one array; take with mode "clip" (every index is
        # valid) writes into it without a gathered copy
        terms = np.empty((nf + r.size, idx.size))
        np.take(table, idx, axis=1, out=terms[:nf], mode="clip")
        terms[nf:] = inside[:, idx]
        terms *= mu.weights
        row = exact_row_sums(terms)
        values[i], balls[i] = row[:nf], row[nf:]
    totals = values[:-1, one].copy()
    disc = values[:-1]
    disc -= values[-1]
    np.abs(disc, out=disc)

    fn_tags = tuple(f.tag for f in battery)
    verdicts = compute_verdicts(mmd_trace, list(fn_tags), disc, balls[:-1], totals, thresholds)
    return ConvergenceReport(
        indices=np.asarray(seq.indices, dtype=np.int64),
        mmd_to_target=mmd_trace,
        fn_names=tuple(f.name for f in battery),
        fn_tags=fn_tags,
        fn_discrepancies=disc,
        radii=r,
        ball_masses=balls[:-1],
        total_masses=totals,
        thresholds=thresholds,
        verdicts=verdicts,
    )
