"""Exactly-rounded accumulation for the double sums behind every embedding.

The counterexample experiments drive squared norms toward zero, where the
relative error of a naive running sum would dominate the quantity being
measured.  All inner products therefore funnel through this module, whose
sums are the correctly rounded value of the exact real sum -- bit for bit
what ``math.fsum`` returns -- and so do not depend on term order.

Small inputs (fewer than ``SMALL_INPUT`` terms) go straight to ``math.fsum``.
Larger ones go through :class:`ExactAccumulator`, an exponent-binned exact
summation in the manner of Neal's superaccumulators (arXiv:1505.05571) and
Demmel & Nguyen's reproducible summation (IEEE TC, 2015):

* ``np.frexp`` splits each term into a mantissa m in [0.5, 1) and an
  exponent e; m * 2**26 splits into an integer high half (26 bits) and a
  fraction low half (27 bits);
* ``np.bincount`` sums each half per exponent.  Every bin sums fewer than
  2**26 terms between folds, so both bin sums stay exact in float64, and
  so does any sum of those halves in any order.  Two batches skip
  ``np.bincount``, which is slow when every term lands in one bin: exact
  zeros, which add nothing and are dropped first, and a batch whose terms
  share one exponent, whose halves are summed with ``ndarray.sum``;
* a fold scales the bin sums by 2**(e - 26), which is exact, into a list of
  partials, and one ``math.fsum`` over the partials gives the result.

Subnormal terms, whose low halves would round when scaled, skip the bins and
join the partials as they are.  So do non-finite terms and terms of
magnitude 2**960 or more; :func:`exact_sum` hands any input holding one of
those to ``math.fsum`` whole, because fsum's overflow error and its inf/nan
handling depend on term order.

Because the result does not depend on order, a double sum can be fed to one
accumulator a row tile at a time (:func:`tiled_gram_sum`): peak memory is
then O(``TILE_ENTRIES``), not O(n * m).

A symmetric double sum ``sum_ij w_i G_ij w_j`` over an exactly symmetric G
(:func:`symmetric_gram_sum`) needs only the upper triangle of G: the term
``(w_i * w_j) * G_ij`` is the same float as ``(w_j * w_i) * G_ji``, so the
strict upper triangle enters with multiplicity 2 and the diagonal once.  A
multiplicity-2 batch (``ExactAccumulator.add(terms, twice=True)``) doubles
the bin sums, which is exact, and counts twice against ``FOLD_LIMIT``; the
terms that skip the bins join the partials twice.  The terms themselves are
never multiplied by 2, since a term that overflowed to inf would change
what fsum reports.  The same sum skips entries of G known in advance (a
far field): zeros add nothing, and one value under equal weights is one
term added with its multiplicity by ``ExactAccumulator.add_repeated``,
which multiplies the term's bin halves by the count, exactly.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

# below this many terms fsum over a Python list beats the binned path
SMALL_INPUT = 2048
# row tiles of a double sum hold about this many entries
TILE_ENTRIES = 1 << 14
# terms binned between folds; keeps every bin sum below 2**52 units
FOLD_LIMIT = 1 << 26

# frexp exponents that are binned: from the smallest normal (2**-1022 =
# 0.5 * 2**-1021) up to a bound that keeps every folded partial and their
# sum far from overflow
_EXP_MIN = -1021
_EXP_MAX = 960
_HUGE = 2.0**_EXP_MAX
_NBINS = _EXP_MAX - _EXP_MIN + 1
_SCALE = np.ldexp(1.0, np.arange(_EXP_MIN, _EXP_MAX + 1) - 26)


class ExactAccumulator:
    """Correctly rounded sum of float64 terms fed in batches of any order.

    :meth:`value` equals ``math.fsum`` over all terms added so far whenever
    fsum raises no overflow error, which is certain when every term is below
    2**960 in magnitude.
    """

    def __init__(self):
        self._hi = np.zeros(_NBINS)
        self._lo = np.zeros(_NBINS)
        self._binned = 0  # terms in the bins since the last fold
        self._partials: list[float] = []

    def add(self, terms, twice: bool = False) -> None:
        """Add a batch of terms; with ``twice``, each term counts twice."""
        x = np.asarray(terms, dtype=np.float64).ravel()
        copies = 2 if twice else 1
        if x.size < SMALL_INPUT:
            self._partials.extend(x.tolist() * copies)
            return
        step = FOLD_LIMIT // copies
        for start in range(0, x.size, step):
            self._bin(x[start : start + step], copies)

    def add_repeated(self, term: float, count: int) -> None:
        """Add ``count`` copies of one term, in O(1) time and memory.

        The term's halves times a count below 2**26 are exact, as are their
        bin sums once the count is charged to ``FOLD_LIMIT``; a larger count
        is added in pieces.  A subnormal term is binned at the smallest
        exponent: t * 2**1021 is a multiple of 2**-53 in (-0.5, 0.5), so
        its halves are as exact as a normal term's.  A zero adds nothing.
        A non-finite term, or one of magnitude 2**960 or more, joins the
        partials ``count`` times, as in :meth:`add`.
        """
        t = float(term)
        if t == 0.0 or count <= 0:
            return
        m, e = math.frexp(t)
        if not (e <= _EXP_MAX and abs(m) < 1.0):
            self._partials.extend([t] * count)
            return
        if e < _EXP_MIN:
            m, e = math.ldexp(t, -_EXP_MIN), _EXP_MIN
        m *= 2.0**26
        hi = float(math.trunc(m))
        lo = m - hi
        b = e - _EXP_MIN
        while count:
            step = min(count, FOLD_LIMIT)
            if self._binned + step > FOLD_LIMIT:
                self._fold()
            self._hi[b] += step * hi
            self._lo[b] += step * lo
            self._binned += step
            count -= step

    def value(self) -> float:
        self._fold()
        return math.fsum(self._partials)

    def _bin(self, x: np.ndarray, copies: int) -> None:
        # an exact zero adds nothing to any bin (nan != 0, so nan is kept);
        # counting a boolean mask is much faster than counting floats
        keep = x != 0.0
        nonzero = np.count_nonzero(keep)
        if not nonzero:
            return
        if nonzero < x.size:
            x = x[keep]
        if self._binned + copies * x.size > FOLD_LIMIT:
            self._fold()
        m, e = np.frexp(x)
        e_min, e_max = e.min(), e.max()
        # |m| < 1 fails for inf and nan, whose frexp exponent is 0
        if not (e_min >= _EXP_MIN and e_max <= _EXP_MAX and m.min() > -1.0 and m.max() < 1.0):
            keep = (e >= _EXP_MIN) & (e <= _EXP_MAX) & (np.abs(m) < 1.0)
            self._partials.extend(x[~keep].tolist() * copies)
            m, e = m[keep], e[keep]
            if not m.size:
                return
            e_min, e_max = e.min(), e.max()
        m *= 2.0**26
        hi = np.trunc(m)
        m -= hi  # the low half: a multiple of 2**-27 in (-1, 1)
        # copies is 1 or 2 and the bin sums stay far below 2**53 units:
        # every sum and product is exact, in any order
        if e_min == e_max:
            # one bin: np.bincount's loop-carried sum into a single bin is
            # far slower than a pairwise sum, and both are exact
            b = e_min - _EXP_MIN
            self._hi[b] += copies * hi.sum()
            self._lo[b] += copies * m.sum()
        else:
            bins = e.astype(np.intp)
            bins -= _EXP_MIN
            self._hi += copies * np.bincount(bins, weights=hi, minlength=_NBINS)
            self._lo += copies * np.bincount(bins, weights=m, minlength=_NBINS)
        self._binned += copies * x.size

    def _fold(self) -> None:
        if not self._binned:
            return
        for sums in (self._hi, self._lo):
            used = np.flatnonzero(sums)
            self._partials.extend((sums[used] * _SCALE[used]).tolist())
            sums.fill(0.0)
        self._binned = 0


def exact_sum(values) -> float:
    """Correctly rounded sum of an array of floats (any shape)."""
    arr = np.asarray(values, dtype=np.float64).ravel()
    # nan fails the comparison, so non-finite input goes to fsum as well
    if arr.size < SMALL_INPUT or not np.abs(arr).max() < _HUGE:
        return math.fsum(arr.tolist())
    acc = ExactAccumulator()
    acc.add(arr)
    return acc.value()


def exact_row_sums(rows: np.ndarray) -> list[float]:
    """:func:`exact_sum` of each row of a 2-D array, bit for bit.

    Short rows take the same ``math.fsum`` over ``tolist()`` that
    :func:`exact_sum` takes, one ``tolist`` for the whole array; overflow
    errors and inf/nan results therefore match too.
    """
    arr = np.asarray(rows, dtype=np.float64)
    if arr.shape[1] < SMALL_INPUT:
        return list(map(math.fsum, arr.tolist()))
    return [exact_sum(row) for row in arr]


def tiled_gram_sum(
    w: np.ndarray, gram_rows: Callable[[slice], np.ndarray], v: np.ndarray
) -> float:
    """Exactly-rounded ``sum_ij w_i * G_ij * v_j``, with G given by row tiles.

    ``gram_rows(rows)`` returns the rows of G selected by the slice ``rows``.
    Tiles hold about ``TILE_ENTRIES`` entries, so peak memory is O(tile).
    Each term is the same ``(w_i * v_j) * G_ij`` as in the untiled product.
    """
    w = np.asarray(w, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    step = max(1, TILE_ENTRIES // max(1, v.size))
    if step >= w.size:
        return exact_sum(np.multiply.outer(w, v) * gram_rows(slice(None)))
    acc = ExactAccumulator()
    for start in range(0, w.size, step):
        rows = slice(start, start + step)
        acc.add(np.multiply.outer(w[rows], v) * gram_rows(rows))
    return acc.value()


def symmetric_gram_sum(
    w: np.ndarray,
    upper_rows: Callable[[int, int, int], np.ndarray],
    far: tuple[np.ndarray, float] | None = None,
) -> float:
    """Exactly-rounded ``sum_ij w_i * G_ij * w_j`` for an exactly symmetric G.

    ``upper_rows(start, stop, end)`` returns ``G[start:stop, start:end]``,
    the rows from the diagonal rightwards.  Only the upper triangle is
    summed: the diagonal once, the strict upper triangle with multiplicity
    2.  A G of one tile or less is fetched whole by one
    ``upper_rows(0, n, n)`` call and summed as in :func:`tiled_gram_sum`.

    ``far``, when given, is ``(ends, value)``: ``ends`` is nondecreasing,
    ``ends[i] > i``, and every ``G[i, j]`` with ``j >= ends[i]`` is bit for
    bit ``value``.  A row tile then fetches only its live band, the columns
    up to ``ends`` of its last row, and its far tail is not fetched: a zero
    tail adds nothing, and a tail of ``value`` under constant weights is one
    term ``(w_0 * w_0) * value`` added with its multiplicity
    (:meth:`ExactAccumulator.add_repeated`).  Otherwise, and whenever a
    weight product can overflow (``inf * 0.0`` is nan, not nothing), every
    band runs to n.  Tiles hold about ``TILE_ENTRIES`` entries, taking more
    rows as the band narrows.  The result equals :func:`tiled_gram_sum` on
    the whole of G bit for bit with or without ``far``: a skipped zero
    could only decide the sign of a zero sum, and an exact sum of zeros is
    +0.0 whatever their signs.
    """
    w = np.asarray(w, dtype=np.float64)
    n = w.size
    if n * n <= TILE_ENTRIES:
        return exact_sum(np.multiply.outer(w, w) * upper_rows(0, n, n))
    ends = np.full(n, n)
    repeated = None
    top = float(np.abs(w).max())
    if far is not None and top * top < math.inf:
        if far[1] == 0.0:
            ends = far[0]
        elif w.min() == w.max():
            ends, repeated = far[0], (w[0] * w[0]) * far[1]
    acc = ExactAccumulator()
    diag = np.empty(n)
    start = 0
    while start < n:
        stop = start + _tile_rows(ends, n, start)
        end = int(ends[stop - 1])
        terms = np.multiply.outer(w[start:stop], w[start:end]) * upper_rows(start, stop, end)
        square = terms[:, : stop - start]
        diag[start:stop] = square.diagonal()
        # the diagonal and the strict lower triangle of the square part
        # become exact zeros, which leave the sum unchanged
        square[np.tri(stop - start, dtype=bool)] = 0.0
        acc.add(terms, twice=True)
        if repeated is not None:
            acc.add_repeated(repeated, 2 * (stop - start) * (n - end))
        start = stop
    acc.add(diag)
    return acc.value()


def _tile_rows(ends: np.ndarray, n: int, start: int) -> int:
    """Rows of the tile from row ``start``: the most, at least one, whose
    count times their band stays within ``TILE_ENTRIES``.  The band of rows
    ``start`` to ``start + r - 1`` runs to ``ends`` of the last, whose far
    tail is far for every row above it."""
    # no more rows than fit beside the first row's band, the narrowest
    most = min(n - start, TILE_ENTRIES // (int(ends[start]) - start))
    sizes = np.arange(1, most + 1) * (ends[start : start + most] - start)
    return max(1, int(np.searchsorted(sizes, TILE_ENTRIES, side="right")))
