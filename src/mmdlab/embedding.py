"""Kernel mean embeddings and the maximum mean discrepancy for discrete measures.

For a finitely supported signed measure the embedding is a finite sum, the
inner product of two embeddings is a double sum over atom pairs, and the MMD
is the norm of a difference of embeddings.  Two routes compute the same
distance:

* :func:`mmd` expands |mu - nu|^2 into three inner products over the
  original supports, each self term summed over the upper triangle of its
  Gram;
* :func:`mmd_oracle` first forms mu - nu explicitly (merging atoms) and
  sums the whole Gram of the merged support once.

They share no sums, so their agreement checks the expansion, the merge and
the triangle path.  They do share the kernel: both sum the same rounded
values k(x, y), so an error in those values is invisible to the check.  All
double sums are exactly rounded (see :mod:`mmdlab.accumulate`), and Gram
blocks larger than one tile are evaluated one row tile at a time, from point
tables built once per sum (:meth:`Kernel.table`), so memory stays O(tile) on
both routes.  Tiling relies on the contract of :class:`Kernel`.

Only the self terms of :func:`inner` (hence of :func:`mmd` and
:func:`norm`) skip the far field of :meth:`Kernel.far_field`: a Gram that
spans tiles is read with its atoms ordered along coordinate 0, and the
columns of each row tile that lie beyond the far-field radius in that
coordinate are not evaluated, being known bit for bit.  Cross terms, and
:func:`mmd_oracle`, evaluate every entry, so the oracle also checks the
skip.  Sums are exact, so neither the order nor the skip changes a bit.

A self inner product whose Gram spans more than one tile is kept in one
slot on the measure, with the kernel object that computed it, and returned
when the same kernel object asks again: evaluation is pure, so the value
is the same bits.  A different kernel object, even one with an equal
descriptor, recomputes and takes the slot.  :func:`keep_self_inner` keeps
a self term of any size there, and :func:`inner` reads the slot before it
looks at the size.  :func:`mmd_oracle` does not read the slot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .accumulate import TILE_ENTRIES, exact_sum, symmetric_gram_sum, tiled_gram_sum
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
    if mu is not nu:
        return _full_gram_sum(k, mu, nu)
    memo = mu._self_inner
    if memo is not None and memo[0] is k:
        return memo[1]
    value = _self_gram_sum(k, mu)
    if _spans_tiles(mu.support_size**2):
        object.__setattr__(mu, "_self_inner", (k, value))
    return value


def keep_self_inner(k: Kernel, mu: SignedDiscreteMeasure) -> None:
    """Keep inner(k, mu, mu) in mu's slot whatever mu's size.

    For one measure that many inner products read, such as the target of a
    sequence: :func:`inner` keeps only self terms that span tiles.
    """
    object.__setattr__(mu, "_self_inner", (k, inner(k, mu, mu)))


def _spans_tiles(entries: int) -> bool:
    """Whether a Gram of ``entries`` values spans more than one tile.

    Only such a Gram is read from point tables: a Gram of one tile is one
    :meth:`Kernel.block` call on the points, which a table would only make
    dearer.  Only such a self term is kept in the
    measure's slot: a slot on every small measure, of which a run makes
    thousands, costs memory.
    """
    return entries > TILE_ENTRIES


def _self_gram_sum(k: Kernel, mu: SignedDiscreteMeasure) -> float:
    """Sum of the upper triangle of an exactly symmetric Gram.

    A Gram that spans tiles is read from a table of the atoms ordered along
    coordinate 0, so each row tile's columns more than the kernel's
    far-field radius away in that coordinate form a tail, which
    :func:`symmetric_gram_sum` does not fetch.  Atoms already in order are
    used as they are.  The sum is exact, so the order changes no bit.
    """
    w = mu.weights
    X = mu.atoms
    far = None
    if _spans_tiles(w.size**2):
        c = X[:, 0]
        if not (c[:-1] <= c[1:]).all():
            order = np.argsort(c)
            X, w, c = X[order], w[order], c[order]
        X = k.table(X)
        rule = k.far_field(X)
        if rule is not None:
            # c_j > fl(c_i + radius) makes c_j - c_i > radius exactly
            far = (np.searchsorted(c, c + rule[0], side="right"), rule[1])

    def upper_rows(start, stop, end):
        # rows that span the band are passed as one object, read once
        rows = X[start:stop]
        return k.block(rows, rows if stop == end else X[start:end])

    return symmetric_gram_sum(w, upper_rows, far)


def _full_gram_sum(k: Kernel, mu: SignedDiscreteMeasure, nu: SignedDiscreteMeasure) -> float:
    """Exact sum of w_i v_j k(a_i, b_j) over every (i, j), by row tiles."""
    if _spans_tiles(mu.support_size * nu.support_size):
        X = k.table(mu.atoms)
        Y = X if nu is mu else k.table(nu.atoms)
        return tiled_gram_sum(mu.weights, lambda rows: k.block(X[rows], Y), nu.weights)
    # a Gram of one tile is evaluated whole, then read by rows
    return tiled_gram_sum(mu.weights, k.block(mu.atoms, nu.atoms).__getitem__, nu.weights)


def _clamped_sqrt(squared: float) -> float:
    """sqrt of a squared norm, with a value cancelled below zero read as 0.

    A nan stays nan: ``max(0.0, nan)`` would be 0.0, a converged distance.
    """
    return math.sqrt(0.0 if squared < 0.0 else squared)


def norm(k: Kernel, mu: SignedDiscreteMeasure) -> float:
    """Embedding norm |mu| (self inner product, clamped at zero)."""
    return _clamped_sqrt(inner(k, mu, mu))


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
        value=_clamped_sqrt(squared),
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
    tiles, so memory is O(tile) at any support size.
    """
    _check_dims(k, mu, nu)
    diff = mu - nu
    if diff.support_size == 0:
        return 0.0
    return _clamped_sqrt(_full_gram_sum(k, diff, diff))
