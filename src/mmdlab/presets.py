"""Named desk-scale experiments with expected verdict patterns.

Each preset builds its measures and kernels from a validated
:class:`~mmdlab.config.ExperimentConfig`, runs the relevant probe, and
returns the actual verdicts plus a CSV trace.  The runner in
:mod:`mmdlab.cli` compares actual against expected and turns the comparison
into an exit code, so every preset doubles as an executable regression of
the claim it demonstrates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable

import numpy as np

from . import constructions as cons
from .diagnostics import Thresholds, probe_sequence
from .embedding import mmd, norm
from .errors import UsageError
from .kernels import FIELD_BUILDERS, Kernel, center_kernel, c0_null_at, c0_probe, shift_kernel
from .measures import (
    MeasureSequence,
    SignedDiscreteMeasure,
    dirac,
    empty_measure,
    mass_in_ball,
    mixture,
)

if TYPE_CHECKING:
    from .config import ExperimentConfig

INVARIANCE_TOL = 1e-12
IDENTITY_TOL = 1e-10
NULL_NORM_TOL = 1e-15
SEPARATION_TOL = 1e-6


@dataclass(frozen=True)
class PresetOutcome:
    actual: dict
    csv_text: str
    extras: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class Preset:
    name: str
    claim: str
    expected: dict
    run: Callable[[ExperimentConfig], PresetOutcome]


def _thresholds(cfg: ExperimentConfig, **preset_defaults) -> Thresholds:
    # config has checked the override keys and made the values floats
    return replace(Thresholds(**preset_defaults), **cfg.thresholds)


def _domain(cfg: ExperimentConfig) -> cons.SearchDomain:
    return cons.SearchDomain(dim=cfg.dim, strategy=cfg.strategy, seed=cfg.seed)


def _null_kernel(cfg: ExperimentConfig) -> tuple[Kernel, np.ndarray]:
    """The configured kernel scaled by the configured field, which vanishes
    at xi, and xi itself."""
    base = cfg.make_kernel()
    xi = cfg.xi_point()
    g = FIELD_BUILDERS[cfg.scaler](xi, dim=cfg.dim)
    return cons.dirac_null_kernel(base, xi, g), xi


def _diffusing_sequence(cfg: ExperimentConfig, k: Kernel, center) -> MeasureSequence:
    """P_n for each dyadic n up to n_max, with eps = 1/n and every atom
    outside the ball of radius max(radii) + 1 around ``center``, so no
    probe ball around ``center`` holds any of their mass."""
    excl = cons.ExclusionRegion(center, max(cfg.radii) + 1.0)
    dom = _domain(cfg)
    sizes = cons.default_indices(cfg.n_max)
    items = [cons.diffusing_sequence(k, n, 1.0 / n, excl, dom) for n in sizes]
    return MeasureSequence(tuple(items), indices=sizes)


def _report_outcome(
    report, extras: tuple[tuple[str, str], ...] = (), **more_actual: bool
) -> PresetOutcome:
    actual = {k: v for k, v in report.verdicts.as_dict().items() if v is not None}
    actual.update(more_actual)
    return PresetOutcome(
        actual=actual,
        csv_text=report.csv_text(),
        extras=tuple(report.summary_items()) + extras,
    )


def _random_probability(rng, dim: int, max_atoms: int, lo=-2.0, hi=2.0):
    n = int(rng.integers(1, max_atoms + 1))
    atoms = rng.uniform(lo, hi, (n, dim))
    w = rng.random(n)
    w /= w.sum()
    return SignedDiscreteMeasure(atoms, w, dim)


# ---------------------------------------------------------------------------
# sequence presets
# ---------------------------------------------------------------------------


def run_metrize_demo(cfg: ExperimentConfig) -> PresetOutcome:
    # shrinking Diracs delta_{x* + e1/n} -> delta_{x*}; final MMD is ~1/n_max,
    # so the settling threshold must sit above 1/n_max (0.02 covers n_max=64)
    k = cfg.make_kernel()
    target_point = cfg.xi_point()
    shift_dir = np.zeros(cfg.dim)
    shift_dir[0] = 1.0
    items = [dirac(target_point + shift_dir / n) for n in range(1, cfg.n_max + 1)]
    seq = MeasureSequence(tuple(items))
    report = probe_sequence(
        seq,
        dirac(target_point),
        k,
        radii=cfg.radii,
        thresholds=_thresholds(cfg, final_tol=2e-2),
        ball_center=target_point,
    )
    return _report_outcome(report)


def run_escape_demo(cfg: ExperimentConfig) -> PresetOutcome:
    k = cfg.make_kernel()
    if not k.claims_c0:
        raise UsageError(
            "escape_demo needs a kernel with vanishing sections (claims_c0)"
        )
    seq = _diffusing_sequence(cfg, k, np.zeros(cfg.dim))
    # |P_n| ~ 1/sqrt(n): 0.127 at the default n_max of 64, so the settling
    # threshold sits at 0.15 (reported in the summary like every threshold)
    report = probe_sequence(
        seq,
        empty_measure(cfg.dim),
        k,
        radii=cfg.radii,
        thresholds=_thresholds(cfg, final_tol=0.15),
    )
    return _report_outcome(report)


def run_flaw_counterexample(cfg: ExperimentConfig) -> PresetOutcome:
    null_k, xi = _null_kernel(cfg)
    kappa = shift_kernel(null_k, 1.0)
    seq = _diffusing_sequence(cfg, null_k, xi)
    target = dirac(xi)

    report = probe_sequence(
        seq,
        target,
        kappa,
        radii=cfg.radii,
        thresholds=_thresholds(cfg),
        ball_center=xi,
    )
    residuals = [abs(mmd(kappa, p_n, target) - norm(null_k, p_n)) for p_n in seq]
    max_resid = max(residuals)
    extras = (
        ("identity_max_residual", repr(float(max_resid))),
        ("identity_tol", repr(IDENTITY_TOL)),
    )
    return _report_outcome(report, extras, identity_holds=max_resid <= IDENTITY_TOL)


def run_compact_regime(cfg: ExperimentConfig) -> PresetOutcome:
    # mixtures with geometrically converging weights, confined to [0, 1]^d
    k = cfg.make_kernel()
    rng = np.random.default_rng(cfg.seed)
    target = _random_probability(rng, cfg.dim, max_atoms=8, lo=0.0, hi=1.0)
    other = _random_probability(rng, cfg.dim, max_atoms=8, lo=0.0, hi=1.0)
    rho = 0.9
    items = []
    t = 1.0
    for _ in range(cfg.n_max):
        t *= rho
        items.append(mixture([1.0 - t, t], [target, other]))
    seq = MeasureSequence(tuple(items))
    # once t_n mmd(other, target) reaches ~1e-8 the trace is dominated by the
    # square root of summation cancellation; the floor absorbs that jitter
    report = probe_sequence(
        seq, target, k, radii=cfg.radii, thresholds=_thresholds(cfg, noise_floor=1e-7)
    )
    return _report_outcome(report)


def run_signed_witness_escape(cfg: ExperimentConfig) -> PresetOutcome:
    base = cfg.make_kernel()
    xi1 = cfg.xi_point()
    if cfg.xi2 is not None:
        xi2 = np.asarray(cfg.xi2, dtype=np.float64)
        if xi2.shape != (cfg.dim,):
            raise UsageError(f"xi2 must have {cfg.dim} coordinates")
    else:
        xi2 = xi1.copy()
        xi2[0] += 2.0
    if np.array_equal(xi1, xi2):
        raise UsageError("xi and xi2 must be distinct points")

    kernel = cons.dirac_null_kernel(base, xi1, c0_null_at(np.stack([xi1, xi2])))
    witness = dirac(xi1) - dirac(xi2).scaled(0.5)
    mid = (xi1 + xi2) / 2.0
    # keep diffusing atoms outside every probe ball centered at xi1
    radius = max(cfg.radii) + float(np.sqrt(((mid - xi1) ** 2).sum())) + 1.0
    construction = cons.escape_sequence(
        kernel,
        witness,
        n_values=cons.default_indices(cfg.n_max),
        dom=_domain(cfg),
        excl=cons.ExclusionRegion(mid, radius),
    )
    report = probe_sequence(
        construction.sequence,
        construction.target,
        kernel,
        radii=cfg.radii,
        thresholds=_thresholds(cfg),
        ball_center=xi1,
    )
    residuals = cons.identity_residuals(kernel, construction)
    probe_ball = [
        mass_in_ball(mu_n, construction.center, construction.probe_radius)
        for mu_n in construction.sequence
    ]
    target_ball = mass_in_ball(
        construction.target, construction.center, construction.probe_radius
    )
    extras = (
        ("identity_max_residual", repr(float(residuals.max()))),
        ("identity_tol", repr(IDENTITY_TOL)),
        ("residual_mass", repr(construction.residual.total_mass)),
        ("probe_ball_target_mass", repr(float(target_ball))),
        ("probe_ball_sequence_mass_max", repr(float(max(probe_ball)))),
    )
    return _report_outcome(
        report,
        extras,
        identity_holds=float(residuals.max()) <= IDENTITY_TOL,
        portmanteau_violation=max(probe_ball) < target_ball,
    )


# ---------------------------------------------------------------------------
# invariance presets
# ---------------------------------------------------------------------------


def _invariance_rows(cfg: ExperimentConfig, variants) -> PresetOutcome:
    """Shared loop: random probability pairs, base MMD vs variant MMDs."""
    k = cfg.make_kernel()
    rng = np.random.default_rng(cfg.seed)
    names = [name for name, _ in variants]
    header = ["pair", "mmd_base"] + [f"mmd_{n}" for n in names] + ["tol", "ok"]
    lines = [",".join(header)]
    all_ok = True
    worst = 0.0
    for i in range(cfg.pairs):
        s = _random_probability(rng, cfg.dim, max_atoms=50)
        t = _random_probability(rng, cfg.dim, max_atoms=50)
        base_val = mmd(k, s, t)
        tol = INVARIANCE_TOL * (1.0 + base_val)
        row_ok = True
        vals = []
        for _, make in variants:
            other = mmd(make(k, rng), s, t)
            vals.append(other)
            err = abs(other - base_val)
            worst = max(worst, err / (1.0 + base_val))
            row_ok = row_ok and err <= tol
        all_ok = all_ok and row_ok
        cells = [str(i), repr(base_val)] + [repr(v) for v in vals]
        cells += [repr(tol), str(row_ok).lower()]
        lines.append(",".join(cells))
    return PresetOutcome(
        actual={"invariance_holds": all_ok},
        csv_text="\n".join(lines) + "\n",
        extras=(
            ("pairs", str(cfg.pairs)),
            ("invariance_tol", repr(INVARIANCE_TOL)),
            ("worst_relative_violation", repr(worst)),
        ),
    )


def run_shift_invariance(cfg: ExperimentConfig) -> PresetOutcome:
    return _invariance_rows(cfg, [("shift1", lambda k, rng: shift_kernel(k, 1.0))])


def run_center_invariance(cfg: ExperimentConfig) -> PresetOutcome:
    def centered(a):
        def make(k, rng):
            p = _random_probability(rng, cfg.dim, max_atoms=50)
            return center_kernel(k, p, a)

        return make

    return _invariance_rows(
        cfg, [("center_a0", centered(0.0)), ("center_a1", centered(1.0))]
    )


# ---------------------------------------------------------------------------
# witness preset
# ---------------------------------------------------------------------------


def run_dirac_null_witness(cfg: ExperimentConfig) -> PresetOutcome:
    kernel, xi = _null_kernel(cfg)

    null_norm = norm(kernel, dirac(xi))
    rng = np.random.default_rng(cfg.seed)

    def draw_point():
        # any point away from xi qualifies; keep a margin so the separation
        # floor is not probed at its boundary
        while True:
            p = rng.uniform(-4.0, 4.0, cfg.dim)
            if np.sqrt(((p - xi) ** 2).sum()) >= 0.2:
                return p

    lines = ["pair,mmd,ok"]
    min_pair = np.inf
    for i in range(cfg.pairs):
        x = draw_point()
        while True:
            y = draw_point()
            if np.sqrt(((x - y) ** 2).sum()) >= 0.2:
                break
        val = mmd(kernel, dirac(x), dirac(y))
        min_pair = min(min_pair, val)
        lines.append(f"{i},{val!r},{str(val > SEPARATION_TOL).lower()}")

    decay = c0_probe(kernel, xi, radii=(2.0, 4.0, 8.0, 16.0), seed=cfg.seed)
    actual = {
        "witness_annihilated": null_norm <= NULL_NORM_TOL,
        "separates_pairs": bool(min_pair > SEPARATION_TOL),
        "c0_pass": decay.passed,
    }
    extras = (
        ("null_norm", repr(float(null_norm))),
        ("null_norm_tol", repr(NULL_NORM_TOL)),
        ("min_pair_mmd", repr(float(min_pair))),
        ("separation_tol", repr(SEPARATION_TOL)),
        ("c0_trace", " ".join(repr(float(v)) for v in decay.values)),
    )
    return PresetOutcome(actual=actual, csv_text="\n".join(lines) + "\n", extras=extras)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

PRESETS: dict[str, Preset] = {
    p.name: p
    for p in (
        Preset(
            "metrize_demo",
            "shrinking Diracs: MMD, embedded, vanishing and bounded probes all settle together",
            {
                "mmd_converges": True,
                "weak_rkhs_converges": True,
                "vague_converges": True,
                "weak_converges": True,
                "mass_escapes": False,
            },
            run_metrize_demo,
        ),
        Preset(
            "escape_demo",
            "diffusing atoms: embedding norm of P_n falls to 0 while unit mass leaves every ball",
            {
                "mmd_converges": True,
                "weak_rkhs_converges": True,
                "vague_converges": True,
                "weak_converges": False,
                "mass_escapes": True,
            },
            run_escape_demo,
        ),
        Preset(
            "flaw_counterexample",
            "bounded separating kernel whose MMD converges to a Dirac no mass ever approaches",
            {
                "mmd_converges": True,
                "vague_converges": False,
                "weak_converges": False,
                "mass_escapes": True,
                "identity_holds": True,
            },
            run_flaw_counterexample,
        ),
        Preset(
            "shift_invariance",
            "adding a constant to the kernel leaves the metric on probability measures unchanged",
            {"invariance_holds": True},
            run_shift_invariance,
        ),
        Preset(
            "center_invariance",
            "recentering the kernel at a probability measure leaves the metric on probability measures unchanged",
            {"invariance_holds": True},
            run_center_invariance,
        ),
        Preset(
            "compact_regime",
            "box-confined mixtures: MMD settling and weak settling coincide",
            {
                "mmd_converges": True,
                "weak_rkhs_converges": True,
                "vague_converges": True,
                "weak_converges": True,
                "mass_escapes": False,
            },
            run_compact_regime,
        ),
        Preset(
            "dirac_null_witness",
            "scaled kernel that annihilates one Dirac yet separates Diracs elsewhere",
            {
                "witness_annihilated": True,
                "separates_pairs": True,
                "c0_pass": True,
            },
            run_dirac_null_witness,
        ),
        Preset(
            "signed_witness_escape",
            "signed annihilated witness: MMD limit reached while mass stays away from the target",
            {
                "mmd_converges": True,
                "vague_converges": False,
                "weak_converges": False,
                "mass_escapes": True,
                "identity_holds": True,
                "portmanteau_violation": True,
            },
            run_signed_witness_escape,
        ),
    )
}


def preset_table() -> list[tuple[str, str, str]]:
    """(name, claim, expected-verdict summary) for every preset."""
    rows = []
    for p in PRESETS.values():
        expected = " ".join(
            f"{k}={str(v).lower()}" for k, v in p.expected.items()
        )
        rows.append((p.name, p.claim, expected))
    return rows
