"""Kernel mean embeddings and the maximum mean discrepancy for discrete measures.

For a finitely supported signed measure the embedding is a finite sum, the
inner product of two embeddings is a double sum over atom pairs, and the MMD
is the norm of a difference of embeddings.  Two routes compute the same
distance:

* :func:`mmd` expands |mu - nu|^2 into three inner products over the
  original supports, each self term summed over the upper triangle of its
  Gram for a rowwise kernel;
* :func:`mmd_oracle` first forms mu - nu explicitly (merging atoms) and
  sums the whole Gram of the merged support once.

They share no sums, so their agreement checks the expansion, the merge and
the triangle path.  They do share the kernel: both sum the same rounded
values k(x, y), so an error in those values is invisible to the check.  All
double sums are exactly rounded (see :mod:`mmdlab.accumulate`), and large
Gram blocks of rowwise kernels are evaluated one row tile at a time, so
memory stays O(tile) on both routes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .accumulate import exact_sum, symmetric_gram_sum, tiled_gram_sum
from .errors import DimensionMismatchError
from .kernels import Kernel
from .measures import SignedDiscreteMeasure, as_point


def _check_dims(k: Kernel, *measures: SignedDiscreteMeasure) -> None:
    for m in measures:
        if m.dim != k.dim:
            raise DimensionMismatchError(
                f"measure dimension {m.dim} != kernel dimension {k.dim}"
            )


def kme_eval(k: Kernel, mu: SignedDiscreteMeasure, x) -> float:
    """Value of mu's mean embedding at the point x: sum_i w_i k(a_i, x)."""
    _check_dims(k, mu)
    if mu.support_size == 0:
        return 0.0
    xa = as_point(x, k.dim)
    column = k.block(mu.atoms, xa[None, :])[:, 0]
    return exact_sum(mu.weights * column)


def inner(k: Kernel, mu: SignedDiscreteMeasure, nu: SignedDiscreteMeasure) -> float:
    """Embedding inner product: the double sum of w_i v_j k(a_i, b_j)."""
    _check_dims(k, mu, nu)
    if mu.support_size == 0 or nu.support_size == 0:
        return 0.0
    if k.rowwise and mu is nu:
        # a rowwise kernel is exactly symmetric: sum the upper triangle
        X = mu.atoms
        return symmetric_gram_sum(
            mu.weights, lambda start, stop: k.block(X[start:stop], X[start:])
        )
    return _full_gram_sum(k, mu, nu)


def _full_gram_sum(k: Kernel, mu: SignedDiscreteMeasure, nu: SignedDiscreteMeasure) -> float:
    """Exact sum of w_i v_j k(a_i, b_j) over every (i, j), by row tiles."""
    X, Y = mu.atoms, nu.atoms
    # a kernel that is not rowwise is evaluated whole, then read by rows
    gram_rows = (lambda rows: k.block(X[rows], Y)) if k.rowwise else k.block(X, Y).__getitem__
    return tiled_gram_sum(mu.weights, gram_rows, nu.weights)


def norm(k: Kernel, mu: SignedDiscreteMeasure) -> float:
    """Embedding norm |mu| (self inner product, clamped at zero)."""
    return math.sqrt(max(0.0, inner(k, mu, mu)))


@dataclass(frozen=True)
class MMDResult:
    """MMD value plus the metadata needed to audit it.

    ``squared_raw`` is the pre-clamp value of |mu - nu|^2; ``clamped`` is
    True when cancellation drove it (slightly) negative and the reported
    value was clamped to 0.  A large negative ``squared_raw`` would point at
    a kernel that is not positive definite, which silent clamping would
    hide.
    """

    value: float
    squared_raw: float
    clamped: bool
    kernel_descriptor: dict


def mmd_detail(
    k: Kernel, mu: SignedDiscreteMeasure, nu: SignedDiscreteMeasure
) -> MMDResult:
    """MMD with clamp metadata; see :func:`mmd` for the plain value."""
    ii = inner(k, mu, mu)
    jj = inner(k, nu, nu)
    ij = inner(k, mu, nu)
    squared = math.fsum([ii, jj, -ij, -ij])
    clamped = squared < 0.0
    return MMDResult(
        value=math.sqrt(max(0.0, squared)),
        squared_raw=squared,
        clamped=clamped,
        kernel_descriptor=k.descriptor,
    )


def mmd(k: Kernel, mu: SignedDiscreteMeasure, nu: SignedDiscreteMeasure) -> float:
    """Distance between the embeddings of mu and nu under k."""
    return mmd_detail(k, mu, nu).value


def mmd_oracle(k: Kernel, mu: SignedDiscreteMeasure, nu: SignedDiscreteMeasure) -> float:
    """Brute-force MMD: merge mu - nu, then one double sum over its support.

    Kept apart from :func:`mmd`: no expansion into inner products and no
    triangle, but every entry of the merged support's Gram, read in row
    tiles for a rowwise kernel, so memory is O(tile) at any support size.
    """
    _check_dims(k, mu, nu)
    diff = mu - nu
    if diff.support_size == 0:
        return 0.0
    return math.sqrt(max(0.0, _full_gram_sum(k, diff, diff)))


def self_inner_tolerance(mu: SignedDiscreteMeasure, sup_bound: float) -> float:
    """Worst-case cancellation allowance for inner(mu, mu) >= -tol."""
    tv = mu.total_variation
    return 1e-8 * tv * tv * sup_bound
