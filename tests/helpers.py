"""Tools the tests share: dense Grams, the eigenvalue and cancellation
allowances their checks use, the kernel recentred at a Dirac, a measure's
total variation and JSON rows, and a probe report's column by name."""

import numpy as np

from mmdlab import center_kernel, dirac
from mmdlab.accumulate import exact_sum


def gram(k, pts_a, pts_b=None):
    """Dense matrix k(a_i, b_j); exactly symmetric when pts_b is omitted."""
    A = k.table(pts_a)
    return k.block(A, A if pts_b is None else pts_b)


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


def total_variation(mu):
    """sum_i |w_i|, exactly rounded."""
    return exact_sum(np.abs(mu.weights))


def measure_to_rows(mu):
    """The ``[[coordinates], weight]`` rows that config files hold."""
    return [[[float(v) for v in atom], float(w)] for atom, w in zip(mu.atoms, mu.weights)]


def report_column(report, name):
    """Trace of one test-function column of a probe report, by name."""
    return report.fn_discrepancies[:, report.fn_names.index(name)]
