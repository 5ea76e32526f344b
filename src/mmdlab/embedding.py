"""Kernel mean embeddings and the maximum mean discrepancy for discrete measures.

For a finitely supported signed measure the embedding is a finite sum, the
inner product of two embeddings is a double sum over atom pairs, and the MMD
is the norm of a difference of embeddings.  Two routes compute the same
distance:

* :func:`mmd` expands |mu - nu|^2 into three inner products over the
  original supports, each self term read from its Gram's diagonal
  rightwards;
* :func:`mmd_oracle` first forms mu - nu explicitly (merging atoms) and
  sums the whole Gram of the merged support once.

They share no sums, so their agreement checks the expansion, the merge and
the triangle path.  They do share the kernel: both sum the same rounded
values k(x, y), so an error in those values is invisible to the check.  All
double sums are exactly rounded (see :mod:`mmdlab.accumulate`), and Gram
blocks larger than one tile are evaluated one row tile at a time, so memory
stays O(tile) on both routes.  Tiling relies on the contract of
:class:`Kernel`.

Every sum reads point tables (:meth:`Kernel.table`), at every size.
:func:`mmd` builds one table per call, of mu's atoms followed by nu's: the
atoms are validated once and a kernel's per-point values (a recentred
kernel's m(X)) computed once.  When the block of the whole table holds at
most half a tile, :func:`mmd` evaluates that one block and reads its three
sums from the block's quadrants in one binning pass
(:func:`mmdlab.accumulate.quadrant_sums`).  Each entry is the same term as
in a block of one part against another, and the sums are exact, so the
bits do not change.  Half a tile, not a whole one: that pass holds about
three arrays of the block's size at once, and whole-tile blocks raised
center_invariance's peak RSS by 0.11 MiB.  Larger pairs read the table's
two parts in three blocks, or three sets of row tiles, and :func:`inner`
reads the two sides of a cross term the same way.

Only the self terms of :func:`inner` (hence of :func:`mmd` and
:func:`norm`) skip the far field of :meth:`Kernel.far_field`: a Gram that
spans tiles, of a kernel with a far-field rule, is read with its atoms
ordered along coordinate 0, and the columns of each row tile that lie
beyond the far-field radius in that coordinate are not evaluated, being
known bit for bit.  Cross terms, and :func:`mmd_oracle`, evaluate every
entry, so the oracle also checks the skip.  Sums are exact, so neither the
order nor the skip changes a bit.

Every MMD is read from its three inner products by one rule,
:func:`mmd_from_inner`.  :func:`mmd` sums them itself;
:func:`mmdlab.diagnostics.probe_sequence` may instead read a whole trace's
from one kernel block of the sequence's and the target's atoms, gathering
each index's products from it in the order of its own blocks, and then
combines them by the same rule.

A self inner product whose Gram spans more than one tile is kept in one
slot on the measure, with the kernel object that computed it, and returned
when the same kernel object asks again: evaluation is pure, so the value
is the same bits.  A different kernel object, even one with an equal
descriptor, recomputes and takes the slot.  That is the slot's one rule:
a smaller self term is summed again at each use, and an MMD read from one
block re-sums both self terms inside it.  :func:`mmd_oracle` does not read
the slot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import accumulate
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
    if mu is nu:
        return _self_term(k, mu)
    X, Y = _tables(k, mu, nu)
    return _full_gram_sum(k, X, mu.weights, Y, nu.weights)


def _tables(k: Kernel, mu: SignedDiscreteMeasure, nu: SignedDiscreteMeasure):
    """Tables of mu's atoms and of nu's, cut from one table of both: the
    atoms are validated once and the kernel's per-point values computed in
    one pass."""
    T = k.table(np.concatenate([mu.atoms, nu.atoms]))
    n = mu.support_size
    return T[:n], T[n:]


def _spans_tiles(entries: int) -> bool:
    """Whether a Gram of ``entries`` values spans more than one tile.

    Only such a self term has its far field skipped, and only such a self
    term is kept in the measure's slot: a slot on every small measure, of
    which a run makes thousands, costs memory.
    """
    return entries > accumulate.TILE_ENTRIES


def _self_term(k: Kernel, mu: SignedDiscreteMeasure, X=None) -> float:
    """inner(k, mu, mu) read from mu's slot, or summed from X, a table of
    mu's atoms (built here when None), and kept in the slot if it spans
    tiles."""
    memo = mu._self_inner
    if memo is not None and memo[0] is k:
        return memo[1]
    value = _self_gram_sum(k, k.table(mu.atoms) if X is None else X, mu.weights)
    if _spans_tiles(mu.support_size**2):
        object.__setattr__(mu, "_self_inner", (k, value))
    return value


def _self_gram_sum(k: Kernel, X, w: np.ndarray) -> float:
    """Exact sum of w_i w_j k(x_i, x_j) over the table X, from the rows of
    its exactly symmetric Gram read from the diagonal rightwards.

    When the Gram spans tiles and the kernel has a far-field rule for X,
    the rows are ordered along coordinate 0, so each row tile's columns
    more than the far-field radius away in that coordinate form a tail,
    which :func:`symmetric_gram_sum` does not fetch; rows already in order
    are used as they are.  A table's rows are its points' alone, and the
    sum is exact, so the order changes no bit.
    """
    if not w.size:
        return 0.0
    far = None
    if _spans_tiles(w.size**2):
        rule = k.far_field(X)
        if rule is not None:
            c = X.points[:, 0]
            if not (c[:-1] <= c[1:]).all():
                order = np.argsort(c)
                X, w, c = X[order], w[order], c[order]
            # c_j > fl(c_i + radius) makes c_j - c_i > radius exactly
            far = (np.searchsorted(c, c + rule[0], side="right"), rule[1])

    def upper_rows(start, stop, end):
        # rows that span the band are passed as one object, read once
        rows = X[start:stop]
        return k.block(rows, rows if stop == end else X[start:end])

    return symmetric_gram_sum(w, upper_rows, far)


def _full_gram_sum(k: Kernel, X, w: np.ndarray, Y, v: np.ndarray) -> float:
    """Exact sum of w_i v_j k(x_i, y_j) over every (i, j) of the tables X
    and Y, by row tiles."""
    if not (w.size and v.size):
        return 0.0
    return tiled_gram_sum(w, lambda rows: k.block(X[rows], Y), v)


def _one_block(mu: SignedDiscreteMeasure, nu: SignedDiscreteMeasure) -> bool:
    """Whether :func:`mmd_detail` reads |mu - nu| from one kernel block of
    mu's atoms followed by nu's: two distinct, non-empty measures whose
    block holds at most half a tile.  Every other MMD reads each self term
    from its measure's slot where one is kept."""
    n, m = mu.support_size, nu.support_size
    return mu is not nu and n > 0 and m > 0 and 2 * (n + m) ** 2 <= accumulate.TILE_ENTRIES


def _clamped_sqrt(squared: float) -> float:
    """sqrt of a squared norm, with a value cancelled below zero read as 0.

    A nan stays nan: ``max(0.0, nan)`` would be 0.0, a converged distance.
    """
    return math.sqrt(0.0 if squared < 0.0 else squared)


def mmd_from_inner(ii: float, jj: float, ij: float) -> tuple[float, float]:
    """``(value, squared)`` of |mu - nu| from the inner products
    ``ii = <mu, mu>``, ``jj = <nu, nu>`` and ``ij = <mu, nu>``: the square
    is their exactly rounded expansion, the value its clamped root.  Every
    MMD, of :func:`mmd_detail` and of the probe's trace, is read this way.
    """
    squared = math.fsum([ii, jj, -ij, -ij])
    return _clamped_sqrt(squared), squared


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
    _check_dims(k, mu, nu)
    if _one_block(mu, nu):
        # each entry becomes the same term (w_i * v_j) * k(x_i, y_j) as in
        # the blocks of the routes below
        T = k.table(np.concatenate([mu.atoms, nu.atoms]))
        s = np.concatenate([mu.weights, nu.weights])
        terms = k.block(T, T)
        terms *= np.multiply.outer(s, s)
        ii, ij, jj = accumulate.quadrant_sums(terms, mu.support_size)
    elif mu is nu:
        ii = jj = ij = _self_term(k, mu)
    else:
        X, Y = _tables(k, mu, nu)
        ii = _self_term(k, mu, X)
        jj = _self_term(k, nu, Y)
        ij = _full_gram_sum(k, X, mu.weights, Y, nu.weights)
    value, squared = mmd_from_inner(ii, jj, ij)
    return MMDResult(
        value=value,
        squared_raw=squared,
        clamped=squared < 0.0,
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
    X = k.table(diff.atoms)
    return _clamped_sqrt(_full_gram_sum(k, X, diff.weights, X, diff.weights))
