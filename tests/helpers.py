"""Tools the tests share: dense Grams, a reference MMD over whole Grams,
a 60-digit MMD from the kernels' closed forms, the eigenvalue and
cancellation allowances their checks use, the kernels recentred at a Dirac
and shifted after annihilating one, a measure's total variation and JSON
rows, a probe report's column by name, the literal constants of the
benchmark's runner, and a pytest run at numpy's other SIMD dispatch
level."""

import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy._core import _multiarray_umath

from mmdlab import center_kernel, dirac, dirac_null_kernel, shift_kernel
from mmdlab.accumulate import exact_sum


def gram(k, pts_a, pts_b=None):
    """Dense matrix k(a_i, b_j); exactly symmetric when pts_b is omitted."""
    A = k.table(pts_a)
    return k.block(A, A if pts_b is None else pts_b)


def mmd_reference(k, mu, nu):
    """``(value, squared_raw, clamped)`` of the MMD as the fsum of ii, jj,
    -ij and -ij, each term one fsum over a whole Gram of k."""

    def whole(a, b):
        terms = np.multiply.outer(a.weights, b.weights) * gram(k, a.atoms, b.atoms)
        return math.fsum(terms.ravel().tolist())

    ij = whole(mu, nu)
    squared = math.fsum([whole(mu, mu), whole(nu, nu), -ij, -ij])
    return math.sqrt(0.0 if squared < 0.0 else squared), squared, squared < 0.0


def mmd_mpmath(k, mu, nu, dps=60):
    """The squared MMD of mu and nu, as an ``mpmath.mpf``, from the closed
    form of k at ``dps`` digits.

    The closed form is read from k's descriptor: a gaussian, laplacian or
    inverse multiquadric, under any nesting of ``shift_kernel`` and of
    ``scale_kernel`` by a ``c0_bump_at`` field.  Each float input is exact
    in mpmath, so the only error is mpmath's own, far below a float's.  It
    shares no code with ``block_fn``, the tables or the exact sums.
    """
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(dps):

        def mpf(v):
            return mp.mpf(float(v))

        def sqdist(x, y):
            return mp.fsum((a - b) ** 2 for a, b in zip(x, y))

        def closed_form(desc):
            family = desc.get("family")
            if family == "gaussian":
                s2 = 2 * mpf(desc["sigma"]) ** 2
                return lambda x, y: mp.exp(-sqdist(x, y) / s2)
            if family == "laplacian":
                g = mpf(desc["gamma"])
                return lambda x, y: mp.exp(-g * mp.sqrt(sqdist(x, y)))
            if family == "inverse_multiquadric":
                c2, beta = mpf(desc["c"]) ** 2, mpf(desc["beta"])
                return lambda x, y: (1 + sqdist(x, y) / c2) ** -beta
            child = closed_form(desc["child"])
            if desc.get("op") == "shift":
                c = mpf(desc["c"])
                return lambda x, y: child(x, y) + c
            if desc.get("op") == "scale" and desc["field"]["g"] == "c0_bump_at":
                xi = [mpf(v) for v in desc["field"]["xi"]]

                def g(x):
                    r2 = sqdist(x, xi)
                    return r2 / (1 + r2**2) ** mp.mpf(0.75)

                return lambda x, y: g(x) * child(x, y) * g(y)
            raise NotImplementedError(f"no closed form for {desc!r}")

        kernel = closed_form(k.descriptor)
        points = [[mpf(v) for v in atom] for atom in (*mu.atoms, *nu.atoms)]
        signs = [mpf(w) for w in mu.weights] + [-mpf(w) for w in nu.weights]
        return mp.fsum(
            s * t * kernel(x, y) for s, x in zip(signs, points) for t, y in zip(signs, points)
        )


def psd_tolerance(n, sup_bound):
    """Eigenvalue drift allowance: floating-point eigensolvers produce
    O(n * eps * |G|) negative noise on genuinely PSD matrices."""
    return 1e-8 * n * sup_bound


def self_inner_tolerance(mu, sup_bound):
    """Worst-case cancellation allowance for inner(mu, mu) >= -tol."""
    tv = total_variation(mu)
    return 1e-8 * tv * tv * sup_bound


def dirac_centered_kernel(base, xi):
    """``base`` recentred at delta_xi with offset 0: it annihilates delta_xi,
    yet induces exactly the base kernel's metric on probability measures."""
    return center_kernel(base, dirac(xi, base.dim), 0.0)


def shifted_dirac_null_kernel(base, xi, g=None):
    """dirac_null_kernel + 1: separates all signed measures again, but keeps
    the null kernel's metric on probability measures, so MMD convergence to
    delta_xi no longer implies any mass ever reaches xi."""
    return shift_kernel(dirac_null_kernel(base, xi, g), 1.0)


def total_variation(mu):
    """sum_i |w_i|, exactly rounded."""
    return exact_sum(np.abs(mu.weights))


def measure_to_rows(mu):
    """The ``[[coordinates], weight]`` rows that config files hold."""
    return [[[float(v) for v in atom], float(w)] for atom, w in zip(mu.atoms, mu.weights)]


def report_column(report, name):
    """Trace of one test-function column of a probe report, by name."""
    return report.fn_discrepancies[:, report.fn_names.index(name)]


def run_constants(*names):
    """Literal module-level constants of ``perfbench/run.py``, read without
    importing it."""
    values = {}
    source = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"
    for node in ast.parse(source.read_text()).body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id in names:
                    values[target.id] = ast.literal_eval(node.value)
    return [values[name] for name in names]


# numpy's AVX-512 exp and power round some lanes differently from its AVX2
# and baseline versions; switching these features off selects the latter
AVX512_OFF = "X86_V4 AVX512_ICL AVX512_SPR"


def run_without_avx512(path, *args):
    """The finished ``pytest -q path *args`` run in a subprocess with numpy's
    AVX-512 dispatch switched off; skips unless this process runs at the
    X86_V4 level and can switch it off."""
    if not _multiarray_umath.__cpu_features__.get("X86_V4"):
        pytest.skip("numpy reports no X86_V4 (AVX-512) here, so that level cannot run")
    if not set(AVX512_OFF.split()) <= set(_multiarray_umath.__cpu_dispatch__):
        pytest.skip("numpy on this machine has no AVX-512 dispatch to switch off")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(path), *args],
        cwd=Path(__file__).resolve().parent.parent,
        env=dict(os.environ, NPY_DISABLE_CPU_FEATURES=AVX512_OFF),
        capture_output=True,
        text=True,
        timeout=600,
    )
