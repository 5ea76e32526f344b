"""Exactly-rounded accumulation for the double sums behind every embedding.

The counterexample experiments drive squared norms toward zero, where the
relative error of a naive running sum would dominate the quantity being
measured.  All inner products therefore funnel through this module, whose
sums are the correctly rounded value of the exact real sum -- bit for bit
what ``math.fsum`` returns -- and so do not depend on term order.

Small inputs (fewer than ``SMALL_INPUT`` = 640 terms) go straight to
``math.fsum`` over a Python list.  That is about the measured break-even:
on Gram terms, fsum and the binned path below took 35 and 37 us at 625
terms, 42 and 38 us at 729 and 61 and 42 us at 1,024 (a shared 2-core
Xeon; on a quieter machine the break-even fell to about 530 terms).
Larger ones are summed by exponent bins, in the manner of Neal's
superaccumulators (arXiv:1505.05571) and Demmel & Nguyen's reproducible
summation (IEEE TC, 2015):

* ``np.frexp`` splits each term into a mantissa m in [0.5, 1) and an
  exponent e; m * 2**26 splits into an integer high half (26 bits) and a
  fraction low half (27 bits);
* ``np.bincount`` sums each half per label and exponent, over only the
  range of exponents the batch uses: a term of label l and exponent e
  lands in bin ``l * span + (e - e_min)``.  Every bin sums at most 2**26
  terms between folds, so both bin sums stay exact in float64, and so does
  any sum of those halves in any order.  Two unlabelled batches skip
  ``np.bincount``, which is slow when every term lands in one bin: exact
  zeros, which add nothing and are dropped first, and a batch whose terms
  share one exponent, whose halves are summed with ``ndarray.sum``;
* a fold scales the bin sums by 2**(e - 26), which is exact, into a list of
  partials, and one ``math.fsum`` over the partials gives the result.

One routine, ``_bin_halves``, does this split and binning for every sum.
:func:`exact_sum` and :class:`ExactAccumulator` give every term label 0.
:func:`quadrant_sums` labels each term of a square block by its quadrant,
2 * z_i + z_j with z = 0 for the first n rows and columns and 1 after, and
folds each label's bins into its own sum: three exact sums of one block in
one pass, however few terms each quadrant holds.  Labelled terms stay where
they are, so their zeros are binned, at exponent 0, where they add nothing,
and a labelled pass gives up on a subnormal term or one of magnitude 2**960
or more.

:func:`exact_sum` of fewer than ``FOLD_LIMIT`` terms bins them in one pass
and folds those bins directly.  :class:`ExactAccumulator`, for sums fed in
batches, adds each batch's bins into its own, which span every exponent,
and remembers the range used since its last fold, so a fold scales and
clears only that range.

Subnormal terms, whose low halves would round when scaled, skip the bins and
join the partials as they are.  So do non-finite terms and terms of
magnitude 2**960 or more; :func:`exact_sum` hands any input holding one of
those to ``math.fsum`` whole, because fsum's overflow error and its inf/nan
handling depend on term order, and :func:`quadrant_sums` sums a block
holding one, or a subnormal term, one quadrant at a time by
:func:`exact_sum`.

Because the result does not depend on order, a double sum can be fed to one
accumulator a row tile at a time (:func:`tiled_gram_sum`): peak memory is
then O(``TILE_ENTRIES``), not O(n * m).

A symmetric double sum ``sum_ij w_i G_ij w_j`` over an exactly symmetric G
(:func:`symmetric_gram_sum`) reads row tiles from G's diagonal rightwards:
as ``(w_i * w_j) * G_ij`` is the same float as ``(w_j * w_i) * G_ji``, a
tile's square block enters once and the band right of it twice.  A
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
from typing import Callable, Iterator

import numpy as np

# below this many terms fsum over a Python list beats the binned path
SMALL_INPUT = 640
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
_NO_BINS = np.zeros((1, 0))


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
        self._used = (_NBINS, 0)  # the bins they span, as (first, stop)
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
            self._charge(b, b + 1, step)
            self._hi[b] += step * hi
            self._lo[b] += step * lo
            count -= step

    def value(self) -> float:
        self._fold()
        return math.fsum(self._partials)

    def _bin(self, x: np.ndarray, copies: int) -> None:
        if not _binnable(x):
            # nan fails the comparison, so it joins the partials with inf
            # and the terms too large to bin
            small = np.abs(x) < _HUGE
            self._partials.extend(x[~small].tolist() * copies)
            x = x[small]
        first, (hi,), (lo,), rest = _bin_halves(x)
        self._partials.extend(rest * copies)
        if not hi.size:
            return
        stop = first + hi.size
        # the whole batch is charged: at least as many terms as were binned
        self._charge(first, stop, copies * x.size)
        # copies is 1 or 2 and the bin sums stay far below 2**53 units:
        # every sum and product is exact, in any order
        self._hi[first:stop] += copies * hi
        self._lo[first:stop] += copies * lo

    def _charge(self, first: int, stop: int, terms: int) -> None:
        """Make room for ``terms`` more binned terms in bins first to stop."""
        if self._binned + terms > FOLD_LIMIT:
            self._fold()
        self._binned += terms
        self._used = (min(self._used[0], first), max(self._used[1], stop))

    def _fold(self) -> None:
        if not self._binned:
            return
        used = slice(*self._used)
        for sums in (self._hi, self._lo):
            self._partials.extend((sums[used] * _SCALE[used]).tolist())
            sums[used] = 0.0
        self._binned = 0
        self._used = (_NBINS, 0)


def _binnable(x: np.ndarray) -> bool:
    """Whether every term of x, at least one, is below 2**960 in magnitude;
    nan fails the comparisons, so non-finite terms fail too."""
    return bool(-_HUGE < x.min() and x.max() < _HUGE)


def _bin_halves(x: np.ndarray, count: int = 1, label=None):
    """Per-label, per-exponent sums of the halves of the finite terms of x,
    over the exponents they use.

    Every term has label 0 unless ``label`` is given, as a function that
    adds ``l * span`` to each term's entry of an integer array shaped like
    x, for its label l from 0 to ``count - 1``.  Returns
    ``(first, hi, lo, rest)``: ``hi[l, i]`` and ``lo[l, i]`` are the exact
    sums of the high and low halves of the terms of label l and frexp
    exponent ``_EXP_MIN + first + i``, and ``rest`` lists the subnormal
    terms, which skip the bins.  Exact zeros add nothing to any bin.  The
    sums are exact for up to ``FOLD_LIMIT`` terms.

    Unlabelled terms must all be below 2**960 in magnitude.  Labelled terms
    keep their places, in x, which their mantissas overwrite: zeros are
    binned, at exponent 0, and an x holding a subnormal term, or one of
    magnitude 2**960 or more, is not binned at all.  It is then left as it
    was, and the result is None.
    """
    if label is None:
        # an exact zero adds nothing to any bin.  On a tile, counting a
        # boolean mask is much faster than counting floats; below 2,048
        # terms it is not, and a mask below 1 KiB stays in numpy's per-size
        # block cache (peak RSS +0.1 MiB on center_invariance)
        mask = x != 0.0 if x.size >= 2048 else None
        nonzero = np.count_nonzero(x if mask is None else mask)
        if nonzero < x.size:
            x = x[x != 0.0 if mask is None else mask]
        if not nonzero:
            return 0, _NO_BINS, _NO_BINS, []
    # the exponents are written as the bincount keys they become
    m, e = np.frexp(x, out=(None if label is None else x, np.empty(x.shape, np.intp)))
    e_min, e_max = e.min(), e.max()
    rest = []
    if label is not None and not _EXP_MIN <= e_min <= e_max <= _EXP_MAX:
        np.ldexp(m, e, out=m)
        return None
    if e_min < _EXP_MIN:
        normal = e >= _EXP_MIN
        rest = x[~normal].tolist()
        m, e = m[normal], e[normal]
        if not m.size:
            return 0, _NO_BINS, _NO_BINS, rest
        e_min = e.min()
    first = int(e_min) - _EXP_MIN
    span = int(e_max - e_min) + 1
    # one bin: np.bincount's loop-carried sum into a single bin is far
    # slower than a pairwise sum, and both are exact
    one_bin = span == 1 and label is None
    if not one_bin:
        e -= e_min
        if label is not None:
            label(e, span)
    m *= 2.0**26
    hi = np.trunc(m)
    m -= hi  # the low half: a multiple of 2**-27 in (-1, 1)
    if one_bin:
        return first, hi.sum().reshape(1, 1), m.sum().reshape(1, 1), rest
    bins = e.ravel()
    sums = [np.bincount(bins, h.ravel(), count * span).reshape(count, span) for h in (hi, m)]
    return first, *sums, rest


def exact_sum(values) -> float:
    """Correctly rounded sum of an array of floats (any shape)."""
    arr = np.asarray(values, dtype=np.float64).ravel()
    if arr.size < SMALL_INPUT or not _binnable(arr):
        return math.fsum(arr.tolist())
    if arr.size >= FOLD_LIMIT:
        acc = ExactAccumulator()
        acc.add(arr)
        return acc.value()
    # one binning pass holds every term exactly: fold its bins directly
    first, (hi,), (lo,), rest = _bin_halves(arr)
    scale = _SCALE[first : first + hi.size]
    return math.fsum(rest + (hi * scale).tolist() + (lo * scale).tolist())


def quadrant_sums(terms: np.ndarray, n: int) -> list[float]:
    """Exact sums of the top-left, top-right and bottom-right quadrants of
    a non-empty square array of terms, split after row and column n: each
    is :func:`exact_sum` of that quadrant, bit for bit.

    One binning pass labels each term by its quadrant, 2 * z_i + z_j with
    z = 0 before the split and 1 after, whatever the quadrants' sizes, and
    ``terms`` is overwritten.  An array holding a non-finite term, a term
    of magnitude 2**960 or more, or a subnormal term is summed one quadrant
    at a time by :func:`exact_sum` instead, which keeps fsum's overflow
    error and inf/nan results.
    """

    def label(keys, span):
        keys[n:] += 2 * span
        keys[:, n:] += span

    # finite terms too large to bin are caught by their exponents
    binned = np.isfinite(terms).all() and _bin_halves(terms, 4, label)
    # lists, not tuples built from generators: each of those would leave a
    # 3-tuple on Python's free list, 96 KiB in all over center_invariance
    if not binned:
        return [exact_sum(q) for q in (terms[:n, :n], terms[:n, n:], terms[n:, n:])]
    first, hi, lo, _ = binned
    scale = _SCALE[first : first + hi.shape[1]]
    # label 2, the bottom-left quadrant, is not read
    return [math.fsum((hi[q] * scale).tolist() + (lo[q] * scale).tolist()) for q in (0, 1, 3)]


def exact_row_sums(rows: np.ndarray) -> list[float]:
    """:func:`exact_sum` of each row of a 2-D array, bit for bit.

    Short rows take the same ``math.fsum`` over ``tolist()`` that
    :func:`exact_sum` takes, so overflow errors and inf/nan results match
    too.  They become Python floats a block of about ``SMALL_INPUT`` terms
    at a time: one ``tolist`` of a large array would hold all its floats
    alive at once, and the memory they take stays with the process.
    """
    arr = np.asarray(rows, dtype=np.float64)
    n, m = arr.shape
    if m >= SMALL_INPUT:
        return [exact_sum(row) for row in arr]
    step = SMALL_INPUT // max(1, m)
    sums: list[float] = []
    for start in range(0, n, step):
        sums += map(math.fsum, arr[start : start + step].tolist())
    return sums


def row_tiles(n: int, m: int) -> Iterator[slice]:
    """Consecutive slices covering ``range(n)``: the row tiles of an n x m
    array, each of at most ``TILE_ENTRIES`` entries, or of one row when a
    row holds more."""
    step = max(1, TILE_ENTRIES // max(1, m))
    for start in range(0, n, step):
        yield slice(start, start + step)


def band_tiles(ends: np.ndarray) -> Iterator[tuple[slice, int]]:
    """Row tiles ``(rows, end)`` of an array whose row i holds the columns
    ``i:ends[i]``, with ``ends`` nondecreasing and ``ends[i] > i``.

    The slices cover ``range(len(ends))`` in order, and each tile's rows
    read ``rows.start:end``, the band of its last row, which holds every
    band above it.  A tile takes the most rows, at least one, whose count
    times that width stays within ``TILE_ENTRIES``.  With ``ends`` n in
    every row, each tile is the first of :func:`row_tiles` over the square
    from its first row on.
    """
    start = 0
    while start < len(ends):
        # a band only widens, so no more rows fit than beside the first one
        widths = ends[start : start + TILE_ENTRIES // int(ends[start] - start)] - start
        sizes = np.arange(1, len(widths) + 1) * widths
        rows = max(1, int(np.searchsorted(sizes, TILE_ENTRIES, side="right")))
        yield slice(start, start + rows), int(ends[start + rows - 1])
        start += rows


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
    tiles = list(row_tiles(w.size, v.size))
    if len(tiles) <= 1:
        return exact_sum(np.multiply.outer(w, v) * gram_rows(slice(None)))
    acc = ExactAccumulator()
    for rows in tiles:
        acc.add(np.multiply.outer(w[rows], v) * gram_rows(rows))
    return acc.value()


def symmetric_gram_sum(
    w: np.ndarray,
    upper_rows: Callable[[int, int, int], np.ndarray],
    far: tuple[np.ndarray, float] | None = None,
) -> float:
    """Exactly-rounded ``sum_ij w_i * G_ij * w_j`` for an exactly symmetric G.

    ``upper_rows(start, stop, end)`` returns ``G[start:stop, start:end]``,
    the rows from the diagonal rightwards.  Its square block is summed
    once, and the band right of it twice, for its mirror image.  A G of one
    tile or less is one row tile, fetched whole by one
    ``upper_rows(0, n, n)`` call.

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
    ends = np.full(n, n)
    repeated = None
    top = float(np.abs(w).max(initial=0.0))
    if far is not None and top * top < math.inf:
        if far[1] == 0.0:
            ends = far[0]
        elif w.min() == w.max():
            ends, repeated = far[0], (w[0] * w[0]) * far[1]
    acc = ExactAccumulator()
    # the band of a tile's rows runs to ends of its last row, whose far
    # tail is far for every row above it
    for rows, end in band_tiles(ends):
        start, stop = rows.start, rows.stop
        terms = np.multiply.outer(w[rows], w[start:end]) * upper_rows(start, stop, end)
        acc.add(terms[:, : stop - start])
        acc.add(terms[:, stop - start :], twice=True)
        if repeated is not None:
            acc.add_repeated(repeated, 2 * (stop - start) * (n - end))
    return acc.value()
