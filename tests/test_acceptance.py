"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
Tolerances and runtime budgets are pinned here, not configurable.
"""

import contextlib
import csv
import io
import math
import time

import numpy as np

from mmdlab import (
    ExclusionRegion,
    MeasureSequence,
    SignedDiscreteMeasure,
    c0_bump_at,
    center_kernel,
    diffusing_sequence,
    dirac,
    dirac_null_kernel,
    gaussian,
    laplacian,
    mmd,
    mmd_oracle,
    probe_sequence,
    scale_kernel,
    shift_kernel,
    verify_diffusing,
)
from mmdlab.cli import main as cli_main
from mmdlab.config import ExperimentConfig
from mmdlab.kernels import inverse_multiquadric
from mmdlab.measures import mixture
from mmdlab.presets import PRESETS
from helpers import dirac_centered_kernel, gram, psd_tolerance, shifted_dirac_null_kernel

EXP_HALF = math.exp(-0.5)


def conclude(num, desc, checks):
    ok = all(checks.values())
    print(f"acceptance criterion {num}: {'PASS' if ok else 'FAIL'} ({desc})")
    failed = [name for name, good in checks.items() if not good]
    assert ok, f"criterion {num} failed checks: {failed}"


def random_probability(rng, dim, max_atoms, lo=-2.0, hi=2.0):
    n = int(rng.integers(1, max_atoms + 1))
    w = rng.random(n)
    return SignedDiscreteMeasure(rng.uniform(lo, hi, (n, dim)), w / w.sum(), dim)


def test_criterion_1_closed_form_mmd():
    """Squared Dirac distance equals 2 - 2 e^{-1/2} to 1e-12, both routes, < 1 ms."""
    k = gaussian(1.0)
    a, b = dirac(0.0), dirac(1.0)
    expected_sq = 2.0 - 2.0 * EXP_HALF  # independent closed form via math.exp

    mmd(k, a, b)  # warm-up (imports, allocator)
    t0 = time.perf_counter()
    value = mmd(k, a, b)
    elapsed_main = time.perf_counter() - t0
    t0 = time.perf_counter()
    oracle = mmd_oracle(k, a, b)
    elapsed_oracle = time.perf_counter() - t0

    conclude(
        1,
        "closed-form MMD with independent oracle",
        {
            "squared_value": abs(value**2 - expected_sq) <= 1e-12,
            "oracle_agrees": abs(value - oracle) <= 1e-12,
            "runtime_main_under_1ms": elapsed_main < 1e-3,
            "runtime_oracle_under_1ms": elapsed_oracle < 1e-3,
        },
    )


def test_criterion_2_diffusing_reproduction():
    """Certified diffusing sets for n = 2..256 with the displayed norm bound, < 1 s."""
    k = gaussian(1.0)
    excl = ExclusionRegion(np.zeros(1), 9.0)
    sizes = [2, 4, 8, 16, 32, 64, 128, 256]

    t0 = time.perf_counter()
    norms_sq = []
    certified = True
    bounds_hold = True
    for n in sizes:
        eps = 1.0 / n
        p = diffusing_sequence(k, n, eps, excl)
        cert = verify_diffusing(k, p, eps, excl)
        certified = certified and cert.ok
        bound = 1.0 / n + (n - 1) / n**2  # the displayed bound at eps = 1/n
        bounds_hold = bounds_hold and cert.norm_sq <= bound
        norms_sq.append(cert.norm_sq)
    elapsed = time.perf_counter() - t0

    decreasing = all(b < a for a, b in zip(norms_sq, norms_sq[1:]))
    conclude(
        2,
        "diffusing sequences certified, bounded, decreasing",
        {
            "certificates": certified,
            "displayed_bound": bounds_hold,
            "strictly_decreasing": decreasing,
            "below_1e2_at_256": norms_sq[-1] < 1e-2,
            "runtime_under_1s": elapsed < 1.0,
        },
    )


def test_criterion_3_counterexample_preset():
    """Shifted null kernel: MMD to delta_xi equals |P_n|, bump stays at 1, mass stays out."""
    cfg = ExperimentConfig(preset="flaw_counterexample", n_max=64, out="unused")
    t0 = time.perf_counter()
    outcome = PRESETS["flaw_counterexample"].run(cfg)
    elapsed = time.perf_counter() - t0

    rows = [
        r
        for r in csv.reader(io.StringIO(outcome.csv_text))
        if r and not r[0].startswith("#")
    ]
    header, data = rows[0], rows[1:]
    col = {name: i for i, name in enumerate(header)}
    mmd_trace = [float(r[col["mmd"]]) for r in data]
    bump_trace = [float(r[col["f_bump_t0"]]) for r in data]
    ball_cols = [i for name, i in col.items() if name.startswith("ball_")]
    ball_values = [float(r[i]) for r in data for i in ball_cols]
    extras = dict(outcome.extras)

    conclude(
        3,
        "MMD convergence without weak convergence via mass escape",
        {
            "identity_to_1e10": float(extras["identity_max_residual"]) <= 1e-10,
            "mmd_decreasing": all(b < a for a, b in zip(mmd_trace, mmd_trace[1:])),
            "bump_exactly_one": all(v == 1.0 for v in bump_trace),
            "mass_exactly_zero": all(v == 0.0 for v in ball_values),
            "verdict_mmd": outcome.actual["mmd_converges"] is True,
            "verdict_weak": outcome.actual["weak_converges"] is False,
            "verdict_escape": outcome.actual["mass_escapes"] is True,
            "runtime_under_1s": elapsed < 1.0,
        },
    )


def test_criterion_4_metric_invariance():
    """Shift and recentering leave the metric on probability pairs unchanged."""
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    shift_ok = center_ok = True
    for trial in range(100):
        dim = trial % 3 + 1
        k = gaussian(1.0, dim=dim)
        s = random_probability(rng, dim, max_atoms=50)
        q = random_probability(rng, dim, max_atoms=50)
        p = random_probability(rng, dim, max_atoms=50)
        base = mmd(k, s, q)
        tol = 1e-12 * (1.0 + base)
        shift_ok = shift_ok and abs(mmd(shift_kernel(k, 1.0), s, q) - base) <= tol
        for a in (0.0, 1.0):
            centered = center_kernel(k, p, a)
            center_ok = center_ok and abs(mmd(centered, s, q) - base) <= tol
    elapsed = time.perf_counter() - t0

    conclude(
        4,
        "shift/center metric invariance over 100 random pairs",
        {
            "shift_invariance": shift_ok,
            "center_invariance": center_ok,
            "runtime_under_5s": elapsed < 5.0,
        },
    )


def test_criterion_5_null_kernel_witness():
    """Null kernel annihilates delta_xi yet separates 100 random Dirac pairs."""
    dim = 2
    xi = np.zeros(dim)
    k = dirac_null_kernel(gaussian(1.0, dim=dim), xi)
    rng = np.random.default_rng(5)

    def draw():
        while True:
            p = rng.uniform(-4.0, 4.0, dim)
            if np.sqrt(((p - xi) ** 2).sum()) >= 0.2:
                return p

    t0 = time.perf_counter()
    null_norm_sq = mmd(k, dirac(xi), dirac(xi))  # |delta_xi| via self-distance is 0
    null_norm = math.sqrt(max(0.0, float(k(xi, xi))))
    separated = True
    for _ in range(100):
        x = draw()
        while True:
            y = draw()
            if np.sqrt(((x - y) ** 2).sum()) >= 0.2:
                break
        separated = separated and mmd(k, dirac(x), dirac(y)) > 1e-6
    elapsed = time.perf_counter() - t0

    conclude(
        5,
        "annihilated Dirac vs separated Dirac differences",
        {
            "null_norm_below_1e15": null_norm <= 1e-15 and null_norm_sq <= 1e-15,
            "pairs_separated": separated,
            "runtime_under_1s": elapsed < 1.0,
        },
    )


def test_criterion_6_psd_suite():
    """Min Gram eigenvalue within tolerance for every construction, 20 seeds."""
    dim = 2
    base = gaussian(1.0, dim=dim)
    p = dirac(np.zeros(dim))
    kernels = {
        "gaussian": base,
        "laplacian": laplacian(1.0, dim=dim),
        "imq": inverse_multiquadric(1.0, 0.5, dim=dim),
        "shift": shift_kernel(base, 1.0),
        "scale": scale_kernel(base, c0_bump_at(np.zeros(dim))),
        "center_a1": center_kernel(base, p, 1.0),
        "shifted_null": shifted_dirac_null_kernel(base, np.zeros(dim)),
        "dirac_centered": dirac_centered_kernel(base, np.zeros(dim)),
    }

    t0 = time.perf_counter()
    all_ok = True
    worst = math.inf
    for seed in range(20):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-5, 5, (200, dim))
        for name, k in kernels.items():
            min_eig = float(np.linalg.eigvalsh(gram(k, pts))[0])
            tol = psd_tolerance(200, k.sup_bound)
            worst = min(worst, min_eig)
            all_ok = all_ok and min_eig >= -tol
    elapsed = time.perf_counter() - t0

    conclude(
        6,
        f"PSD over 20 seeds x {len(kernels)} kernels (worst eig {worst:.2e})",
        {"psd": all_ok, "runtime_under_10s": elapsed < 10.0},
    )


def test_criterion_7_weak_implies_mmd():
    """Box-confined weakly convergent sequences settle in MMD for both kernels."""
    rng = np.random.default_rng(7)
    count = 48
    rho = 0.75

    def dirac_sequence(dim):
        box_target = rng.uniform(0, 1, dim)
        start = rng.uniform(0, 1, dim)
        items, t = [], 1.0
        for _ in range(count):
            t *= rho
            items.append(dirac(box_target + t * (start - box_target)))
        return MeasureSequence(tuple(items)), dirac(box_target)

    def mixture_sequence(dim):
        target = random_probability(rng, dim, max_atoms=5, lo=0.0, hi=1.0)
        other = random_probability(rng, dim, max_atoms=5, lo=0.0, hi=1.0)
        items, t = [], 1.0
        for _ in range(count):
            t *= rho
            items.append(mixture([1.0 - t, t], [target, other]))
        return MeasureSequence(tuple(items)), target

    t0 = time.perf_counter()
    all_converge = True
    for case in range(20):
        dim = case % 3 + 1
        seq, target = dirac_sequence(dim) if case % 2 == 0 else mixture_sequence(dim)
        for k in (gaussian(1.0, dim=dim), laplacian(1.0, dim=dim)):
            report = probe_sequence(seq, target, k)
            all_converge = all_converge and report.verdicts.mmd_converges
    elapsed = time.perf_counter() - t0

    conclude(
        7,
        "20 box-confined weakly convergent sequences, gaussian and laplacian",
        {"mmd_verdicts": all_converge, "runtime_under_5s": elapsed < 5.0},
    )


def test_criterion_8_preset_determinism(tmp_path):
    """Identical config and seed give byte-identical CSV for every preset."""
    identical = {}
    for preset in PRESETS:
        payloads = []
        for tag in ("a", "b"):
            out = tmp_path / preset / tag
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli_main(
                    ["run", "--preset", preset, "--seed", "11", "--out", str(out)]
                )
            assert code == 0, f"{preset} failed its expected verdict pattern"
            payloads.append((out / "trace.csv").read_bytes())
        identical[preset] = payloads[0] == payloads[1]

    conclude(8, "byte-identical CSV on re-run for all 8 presets", identical)
