"""Tests for exact summation: bit-identity with math.fsum on every path."""

import math
import re

import numpy as np
import pytest

from mmdlab import accumulate
from mmdlab.accumulate import (
    SMALL_INPUT,
    ExactAccumulator,
    band_tiles,
    exact_row_sums,
    exact_sum,
    quadrant_sums,
    row_tiles,
    symmetric_gram_sum,
    tiled_gram_sum,
)


def same_as_fsum(values):
    """exact_sum(values) and math.fsum agree bit for bit, or raise alike."""
    arr = np.asarray(values, dtype=np.float64)
    try:
        want = math.fsum(arr.ravel().tolist())
    except (OverflowError, ValueError) as exc:
        with pytest.raises(type(exc)):
            exact_sum(arr)
        return
    got = exact_sum(arr)
    assert math.isnan(want) and math.isnan(got) or got.hex() == want.hex()


SIZES = (1, 7, SMALL_INPUT - 1, SMALL_INPUT, SMALL_INPUT + 1, 50_000)


class TestBitIdentity:
    @pytest.mark.parametrize("n", SIZES)
    def test_normal_terms(self, n):
        rng = np.random.default_rng(n)
        same_as_fsum(rng.standard_normal(n) * np.exp(rng.uniform(-30, 30, n)))

    @pytest.mark.parametrize("n", SIZES)
    def test_wide_range(self, n):
        rng = np.random.default_rng(n + 1)
        mags = 10.0 ** rng.uniform(-200, 200, n)
        same_as_fsum(rng.choice([-1.0, 1.0], n) * mags)

    @pytest.mark.parametrize("n", SIZES[1:])
    def test_heavy_cancellation(self, n):
        rng = np.random.default_rng(n + 2)
        x = rng.standard_normal(n // 2) * 1e16
        tiny = rng.standard_normal(n - 2 * (n // 2)) * 1e-16
        terms = np.concatenate([x, -x, tiny, [1.0, 1e-30, -1.0]])
        rng.shuffle(terms)
        same_as_fsum(terms)

    @pytest.mark.parametrize("n", SIZES)
    def test_subnormals(self, n):
        rng = np.random.default_rng(n + 3)
        sub = rng.standard_normal(n) * 2.0**-1060
        assert np.all(np.abs(sub) < 2.0**-1022)
        same_as_fsum(sub)
        mixed = sub.copy()
        mixed[::3] = rng.standard_normal(mixed[::3].size) * 2.0**-1015
        same_as_fsum(mixed)

    @pytest.mark.parametrize("n", (5, 50_000))
    def test_non_finite(self, n):
        base = np.random.default_rng(n + 4).standard_normal(n)
        for specials in ([np.inf], [-np.inf], [np.nan], [np.inf, -np.inf], [np.inf, np.inf]):
            terms = base.copy()
            terms[: len(specials)] = specials
            same_as_fsum(terms)

    def test_overflowing_terms(self):
        big = np.full(SMALL_INPUT * 2, 1e308)
        same_as_fsum(big)  # intermediate overflow: both raise
        big[1::2] = -1e308
        same_as_fsum(big)  # alternating signs: exact zero
        big[0] = 2.0**1000
        same_as_fsum(big)

    def test_zeros_and_shapes(self):
        same_as_fsum(np.zeros(SMALL_INPUT * 3))
        same_as_fsum(np.full(SMALL_INPUT * 3, -0.0))
        rng = np.random.default_rng(5)
        same_as_fsum(rng.standard_normal((64, 128)))
        assert exact_sum([]) == 0.0


def special_rows(n, seed):
    """Rows of n terms: normal, wide range, cancelling, signed zeros, subnormal,
    non-finite and overflowing."""
    rng = np.random.default_rng(seed)
    rows = [
        rng.standard_normal(n),
        rng.standard_normal(n) * np.exp(rng.uniform(-300, 300, n)),
        np.concatenate([np.full(n - n // 2, 1e300), np.full(n // 2, -1e300)]),
        np.full(n, -0.0),
        rng.standard_normal(n) * 2.0**-1070,
    ]
    for specials in ([np.inf], [-np.inf], [np.nan], [np.inf, -np.inf], [1e308, 1e308]):
        row = rng.standard_normal(n)
        row[: len(specials)] = specials[:n]
        rows.append(row)
    return np.stack(rows)


def same_or_raise_alike(fn, row):
    """fn(row) is exact_sum(row) bit for bit, or both raise alike."""
    try:
        want = exact_sum(row)
    except (OverflowError, ValueError) as exc:
        with pytest.raises(type(exc)):
            fn(row)
        return
    got = fn(row)
    assert math.isnan(want) and math.isnan(got) or got.hex() == want.hex()


class TestRowSums:
    @pytest.mark.parametrize("n", (1, 2, 7, 40, SMALL_INPUT - 1, SMALL_INPUT, 3000))
    def test_each_row_is_its_exact_sum(self, n):
        rows = special_rows(n, n)
        for row in rows:
            same_or_raise_alike(lambda r: exact_row_sums(r[None, :])[0], row)
        # the rows that neither raise nor overflow, summed in one call
        good = rows[[np.isfinite(r).all() and np.abs(r).max() < 1e300 for r in rows]]
        got = exact_row_sums(good)
        assert [v.hex() for v in got] == [exact_sum(r).hex() for r in good]

    def test_empty_rows(self):
        assert exact_row_sums(np.empty((3, 0))) == [0.0, 0.0, 0.0]
        assert exact_row_sums(np.empty((0, 5))) == []


class TestAccumulator:
    def test_fold_path_is_taken_and_exact(self, monkeypatch):
        folds = []
        fold = ExactAccumulator._fold

        def counting_fold(self):
            folds.append(self._binned)
            fold(self)

        monkeypatch.setattr(accumulate, "FOLD_LIMIT", 3000)
        monkeypatch.setattr(ExactAccumulator, "_fold", counting_fold)
        rng = np.random.default_rng(6)
        terms = rng.standard_normal(20_000) * np.exp(rng.uniform(-40, 40, 20_000))
        same_as_fsum(terms)
        # 20000 terms in chunks of at most 3000: every chunk after the first
        # folds the one before it
        assert [b for b in folds if b] == [3000] * 6 + [2000]

    def test_batches_in_any_order_give_one_result(self):
        rng = np.random.default_rng(7)
        terms = rng.standard_normal(30_000) * np.exp(rng.uniform(-50, 50, 30_000))
        want = math.fsum(terms.tolist())
        for order in (slice(None), slice(None, None, -1)):
            acc = ExactAccumulator()
            for chunk in np.array_split(terms[order], [100, 5000, 5001, 17_000]):
                acc.add(chunk)
            assert acc.value().hex() == want.hex()


def twice_same_as_fsum(terms, once=()):
    """An accumulator fed ``terms`` twice-counted (and ``once`` as is)
    agrees with math.fsum over the doubled list bit for bit, or raises alike."""
    terms = np.asarray(terms, dtype=np.float64)
    doubled = terms.tolist() * 2 + list(once)

    def value():
        acc = ExactAccumulator()
        acc.add(terms, twice=True)
        if len(once):
            acc.add(once)
        return acc.value()

    try:
        want = math.fsum(doubled)
    except (OverflowError, ValueError) as exc:
        with pytest.raises(type(exc)):
            value()
        return
    got = value()
    assert math.isnan(want) and math.isnan(got) or got.hex() == want.hex()


class TestTwiceBatches:
    """A multiplicity-2 batch sums like the same batch added two times."""

    @pytest.mark.parametrize("n", SIZES)
    def test_normal_and_wide_range(self, n):
        rng = np.random.default_rng(n + 10)
        twice_same_as_fsum(rng.standard_normal(n) * np.exp(rng.uniform(-30, 30, n)))
        mags = 10.0 ** rng.uniform(-200, 200, n)
        twice_same_as_fsum(rng.choice([-1.0, 1.0], n) * mags, once=mags[:5])

    @pytest.mark.parametrize("n", SIZES[1:])
    def test_heavy_cancellation(self, n):
        rng = np.random.default_rng(n + 11)
        x = rng.standard_normal(n // 2) * 1e16
        terms = np.concatenate([x, -x, rng.standard_normal(n % 2) * 1e-16, [1.0, 1e-30, -1.0]])
        rng.shuffle(terms)
        twice_same_as_fsum(terms)
        # a once-counted term that cancels the doubled ones to the last bit
        twice_same_as_fsum(terms[:1], once=[-2.0 * terms[0], 2.0**-1070])

    @pytest.mark.parametrize("n", SIZES)
    def test_subnormals(self, n):
        rng = np.random.default_rng(n + 12)
        sub = rng.standard_normal(n) * 2.0**-1060
        twice_same_as_fsum(sub)
        sub[::3] = rng.standard_normal(sub[::3].size) * 2.0**-1015
        twice_same_as_fsum(sub, once=sub[:7])

    @pytest.mark.parametrize("n", (5, 50_000))
    def test_huge_and_non_finite(self, n):
        base = np.random.default_rng(n + 13).standard_normal(n)
        big = 1.5 * 2.0**1023  # doubling it would overflow to inf
        for specials in (
            [2.0**960, -(2.0**960) + 2.0**910],
            [big, -big],
            [big, 2.0**1000, -big],
            [np.inf],
            [-np.inf],
            [np.nan],
            [np.inf, -np.inf],
        ):
            terms = base.copy()
            terms[: len(specials)] = specials
            twice_same_as_fsum(terms)

    def test_fold_path_charges_each_term_twice(self, monkeypatch):
        folds = []
        fold = ExactAccumulator._fold

        def counting_fold(self):
            folds.append(self._binned)
            fold(self)

        monkeypatch.setattr(accumulate, "FOLD_LIMIT", 3000)
        monkeypatch.setattr(ExactAccumulator, "_fold", counting_fold)
        rng = np.random.default_rng(14)
        terms = rng.standard_normal(20_000) * np.exp(rng.uniform(-40, 40, 20_000))
        once = rng.standard_normal(2500)
        twice_same_as_fsum(terms, once=once)
        # 20000 twice-counted terms in chunks of 1500 charge 3000 each; the
        # 2500 once-counted terms fold the last 1000-term chunk
        assert [b for b in folds if b] == [3000] * 13 + [1000, 2500]


def sparse_batches(n, seed):
    """Batches that mostly skip np.bincount: all zeros, signed zeros, 99.5%
    zeros, terms of one exponent (with zeros, negatives, subnormals and
    non-binnable terms beside them), and 99.5% zeros of several exponents."""
    rng = np.random.default_rng(seed)
    zeros = np.zeros(n)
    signed = np.where(rng.random(n) < 0.5, 0.0, -0.0)
    mostly = zeros.copy()
    live = rng.choice(n, max(1, n // 200), replace=False)
    mostly[live] = rng.standard_normal(live.size) * np.exp(rng.uniform(-40, 40, live.size))
    # kappa-like terms: every one in [2**-24, 2**-23), so frexp gives exponent -23
    one_exp = (1.0 + rng.random(n)) * 2.0**-24
    signed_one_exp = one_exp * rng.choice([-1.0, 1.0], n)
    signed_one_exp[::7] = -0.0
    with_partials = one_exp.copy()
    with_partials[:3] = [2.0**-1070, -(2.0**-1060), 0.0]
    single = zeros.copy()
    single[n // 2] = 0.75
    return {
        "zeros": zeros,
        "signed zeros": signed,
        "99.5% zeros": mostly,
        "one exponent": one_exp,
        "signed one exponent": signed_one_exp,
        "one exponent and subnormals": with_partials,
        "one term": single,
        "only subnormals": np.where(rng.random(n) < 0.99, 0.0, 2.0**-1070),
    }


class TestSparseBatches:
    """Exact zeros and one-exponent batches skip np.bincount, same bits."""

    @pytest.mark.parametrize("n", (SMALL_INPUT, 16_384, 50_000))
    def test_equal_fsum(self, n):
        for name, terms in sparse_batches(n, n).items():
            same_as_fsum(terms)
            twice_same_as_fsum(terms)
            twice_same_as_fsum(terms, once=terms[:SMALL_INPUT])
            acc = ExactAccumulator()
            for chunk in np.array_split(terms, 3):
                acc.add(chunk)
            acc.add(terms[::-1], twice=True)
            assert acc.value().hex() == math.fsum(terms.tolist() * 3).hex(), name

    def test_equal_fsum_across_folds(self, monkeypatch):
        monkeypatch.setattr(accumulate, "FOLD_LIMIT", 3000)
        batches = sparse_batches(20_000, 15)
        for name, terms in batches.items():
            same_as_fsum(terms)
            twice_same_as_fsum(terms, once=terms[:2500])
        acc = ExactAccumulator()
        for terms in batches.values():
            acc.add(terms, twice=True)
        every = [t for terms in batches.values() for t in terms.tolist()]
        assert acc.value().hex() == math.fsum(every * 2).hex()

    def test_zero_and_one_exponent_batches_skip_bincount(self, monkeypatch):
        calls = []
        bincount = np.bincount

        def counting_bincount(*args, **kwargs):
            calls.append(len(args[0]))
            return bincount(*args, **kwargs)

        monkeypatch.setattr(np, "bincount", counting_bincount)
        batches = sparse_batches(16_384, 16)
        for name in ("zeros", "signed zeros", "one exponent", "signed one exponent",
                     "one exponent and subnormals", "one term", "only subnormals"):
            acc = ExactAccumulator()
            acc.add(batches[name])
            acc.add(batches[name], twice=True)
            assert calls == [], name
        # terms of several exponents still take it, after their zeros are dropped
        ExactAccumulator().add(batches["99.5% zeros"])
        assert calls == [16_384 // 200] * 2


class TestGramSums:
    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 1000])
    @pytest.mark.parametrize("m", [0, 1, 7, 64, 65, 5000])
    def test_row_tiles_cover_every_row_once_within_a_tile(self, monkeypatch, n, m):
        monkeypatch.setattr(accumulate, "TILE_ENTRIES", 64)
        tiles = list(row_tiles(n, m))
        rows = [range(n)[t] for t in tiles]
        assert [i for r in rows for i in r] == list(range(n))
        # as many rows as fit, or one row when a row holds more
        most = max(64 // max(m, 1), 1)
        assert all(len(r) == most for r in rows[:-1])
        assert all(0 < len(r) <= most for r in rows)

    def test_tiles_match_one_product(self, monkeypatch):
        rng = np.random.default_rng(8)
        w, v = rng.standard_normal(300), rng.standard_normal(70)
        G = rng.standard_normal((300, 70))
        want = math.fsum((np.multiply.outer(w, v) * G).ravel().tolist())
        for tile in (1, 69, 1000, 1 << 20):
            monkeypatch.setattr(accumulate, "TILE_ENTRIES", tile)
            assert tiled_gram_sum(w, G.__getitem__, v).hex() == want.hex()

    def test_upper_triangle_matches_whole_sum(self, monkeypatch):
        rng = np.random.default_rng(9)
        for n in (1, 2, 127, 128, 129, 300):
            w = rng.standard_normal(n) * np.exp(rng.uniform(-20, 20, n))
            A = rng.standard_normal((n, n))
            G = A + A.T
            want = math.fsum((np.multiply.outer(w, w) * G).ravel().tolist())
            for tile in (1, 64, 1 << 14, 1 << 20):
                monkeypatch.setattr(accumulate, "TILE_ENTRIES", tile)
                fetched = []

                def upper_rows(start, stop, end):
                    assert end == n
                    fetched.append((start, stop))
                    return G[start:stop, start:end]

                assert symmetric_gram_sum(w, upper_rows).hex() == want.hex()
                # consecutive row ranges that cover every row once
                assert [a for a, _ in fetched] == [0] + [b for _, b in fetched[:-1]]
                assert fetched[-1][1] == n
                if n * n <= tile:
                    assert fetched == [(0, n)]

    def test_no_weights_fetch_nothing_and_sum_to_zero(self):
        fetched = []
        got = symmetric_gram_sum(np.zeros(0), lambda *rows: fetched.append(rows))
        assert got.hex() == (0.0).hex() and not fetched


class TestRepeatedTerms:
    """add_repeated(t, c) sums like c copies of t added one by one."""

    TERMS = (
        1.0,
        -0.1,
        1.0 / 4096**2,
        -(2.0**-1022),
        5e-324,
        -3.3e-320,
        math.ulp(2.0**-1022) * 12345,
        0.0,
        -0.0,
        2.0**960 * (1.0 - 2.0**-53),
        -(2.0**959) * 1.5,
    )

    @staticmethod
    def same_as_repeated_list(batches):
        """An accumulator fed (term, count) pairs agrees with fsum over the
        listed copies bit for bit, or raises alike; a count of None is an
        ordinary batch of the terms listed."""
        listed = []
        for term, count in batches:
            listed += [term] * count if count is not None else list(term)

        def value():
            acc = ExactAccumulator()
            for term, count in batches:
                if count is None:
                    acc.add(np.asarray(term))
                else:
                    acc.add_repeated(term, count)
            return acc.value()

        try:
            want = math.fsum(listed)
        except (OverflowError, ValueError) as exc:
            with pytest.raises(type(exc)):
                value()
            return
        got = value()
        assert math.isnan(want) and math.isnan(got) or got.hex() == want.hex()

    @pytest.mark.parametrize("term", TERMS, ids=repr)
    @pytest.mark.parametrize("count", [0, 1, 2, 7, 2999, 3000, 3001, 10_000])
    def test_equals_fsum_of_the_copies(self, term, count, monkeypatch):
        # counts cross the patched fold limit, alone and after a batch
        monkeypatch.setattr(accumulate, "FOLD_LIMIT", 3000)
        self.same_as_repeated_list([(term, count)])
        rng = np.random.default_rng(count)
        batch = (rng.standard_normal(2500) * np.exp(rng.uniform(-30, 30, 2500))).tolist()
        self.same_as_repeated_list([(batch, None), (term, count), (-term, count // 3)])

    def test_mixed_terms_and_batches_cross_folds(self, monkeypatch):
        monkeypatch.setattr(accumulate, "FOLD_LIMIT", 3000)
        rng = np.random.default_rng(21)
        batches = []
        for term in self.TERMS[:-2]:
            batches.append((term, int(rng.integers(1, 7000))))
            batches.append((rng.standard_normal(2100).tolist(), None))
        self.same_as_repeated_list(batches)

    def test_counts_up_to_the_real_fold_limit_and_beyond(self):
        for count in (accumulate.FOLD_LIMIT - 1, accumulate.FOLD_LIMIT, 3 * accumulate.FOLD_LIMIT + 5):
            for term in (1.0 / 3.0, -(2.0**-1040) * 3):
                acc = ExactAccumulator()
                acc.add_repeated(term, count)
                acc.add_repeated(-term, count - 1)
                assert acc.value() == term

    @pytest.mark.parametrize("term", [math.inf, -math.inf, math.nan, 2.0**960, -(2.0**1000)])
    def test_terms_outside_the_bins_sum_like_fsum(self, term):
        for count in (1, 3):
            self.same_as_repeated_list([(term, count), ([1.0, -2.5], None)])
            self.same_as_repeated_list([(term, count), (-term, 2)])


def banded_gram(n, seed, value, ends):
    """A random exactly symmetric G whose entries at and beyond ``ends`` in
    each row (and their mirror images) are ``value``."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    G = A + A.T
    far = np.arange(n)[None, :] >= ends[:, None]
    G[far] = value
    G[far.T] = value
    return G


class TestBandedGramSums:
    """symmetric_gram_sum with a far field equals the whole sum bit for bit."""

    @pytest.mark.parametrize("n", [130, 300, 777])
    @pytest.mark.parametrize("value", [0.0, -0.0, 1.0, 0.37])
    @pytest.mark.parametrize("uniform", [True, False])
    @pytest.mark.parametrize("tile", [64, 1 << 14])
    def test_equals_whole_sum_and_fetches_only_the_band(self, n, value, uniform, tile, monkeypatch):
        monkeypatch.setattr(accumulate, "TILE_ENTRIES", tile)
        rng = np.random.default_rng(n)
        ends = np.minimum(n, np.arange(n) + 1 + rng.integers(0, 40, n))
        ends = np.maximum.accumulate(ends)
        G = banded_gram(n, n + 1, value, ends)
        w = np.full(n, 1.0 / n) if uniform else rng.standard_normal(n)
        want = math.fsum((np.multiply.outer(w, w) * G).ravel().tolist())
        fetched = []

        def upper_rows(start, stop, end):
            fetched.append((start, stop, end))
            return G[start:stop, start:end]

        got = symmetric_gram_sum(w, upper_rows, (ends, value))
        assert got.hex() == want.hex()
        assert [a for a, _, _ in fetched] == [0] + [b for _, b, _ in fetched[:-1]]
        if n * n <= tile:
            assert fetched == [(0, n, n)]
            return
        banded = value == 0.0 or uniform
        band = ends if banded else np.full(n, n)
        for start, stop, end in fetched:
            assert end == band[stop - 1]
            assert (stop - start) * (end - start) <= tile or stop - start == 1
            # the most rows that fit
            if stop < n:
                assert (stop + 1 - start) * (band[stop] - start) > tile
        if banded and n * n > 16 * tile:
            # bands of at most 40 columns past the diagonal, in many tiles
            assert sum((b - a) * (e - a) for a, b, e in fetched) < n * n / 2

    @pytest.mark.parametrize("value", [0.0, 1.0])
    @pytest.mark.parametrize("uniform", [True, False])
    def test_overflowing_weight_products_keep_the_far_field(self, value, uniform, monkeypatch):
        # w_i * w_j overflows, so a far term is inf * value: nan when value
        # is 0.0, which a skipped tail would have dropped from the sum.  A
        # band of 40 columns makes every tile one row, so no fetched band
        # holds a far entry that would make the sum nan anyway
        monkeypatch.setattr(accumulate, "TILE_ENTRIES", 64)
        n = 130
        rng = np.random.default_rng(7)
        ends = np.minimum(n, np.arange(n) + 40)
        G = np.abs(banded_gram(n, 8, value, ends))
        w = 1e160 * (np.ones(n) if uniform else rng.uniform(1.0, 2.0, n))
        # both sums warn of the overflowing products w_i * w_j, and for
        # value 0.0 of the nan products inf * 0.0, and of nothing else
        messages = {"overflow encountered in multiply"}
        if value == 0.0:
            messages.add("invalid value encountered in multiply")
        with pytest.warns(RuntimeWarning) as tiled:
            want = tiled_gram_sum(w, G.__getitem__, w)
        with pytest.warns(RuntimeWarning) as banded:
            got = symmetric_gram_sum(w, lambda a, b, e: G[a:b, a:e], (ends, value))
        for caught in (tiled, banded):
            assert {str(c.message) for c in caught} == messages
        assert got.hex() == want.hex()
        assert math.isnan(want) if value == 0.0 else want == math.inf

    def test_tiles_without_a_far_field_are_unchanged(self, monkeypatch):
        # every band runs to n, so rows are TILE_ENTRIES // (n - start)
        monkeypatch.setattr(accumulate, "TILE_ENTRIES", 1000)
        fetched = []
        n = 200
        G = banded_gram(n, 3, 0.0, np.full(n, n))
        symmetric_gram_sum(np.ones(n), lambda a, b, e: fetched.append((a, b, e)) or G[a:b, a:e])
        start = 0
        for a, b, e in fetched:
            assert (a, b, e) == (start, min(n, start + max(1, 1000 // (n - start))), n)
            start = b


def test_band_tiles_property(monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    monkeypatch.setattr(accumulate, "TILE_ENTRIES", 64)
    # how far each row's band runs past the diagonal, up to twice a tile
    reaches = st.lists(st.integers(1, 128), max_size=150)

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
    @hypothesis.given(reaches, st.integers(0, 150))
    def check(reach, n):
        # nondecreasing, ends[i] > i, and at most the row count
        rows_n = len(reach)
        ends = np.minimum(np.maximum.accumulate(np.arange(rows_n) + reach), rows_n)
        ends = ends.astype(np.intp)
        tiles = list(band_tiles(ends))
        covered = [range(rows_n)[t] for t, _ in tiles]
        assert [i for r in covered for i in r] == list(range(rows_n))
        for j, (r, (_, end)) in enumerate(zip(covered, tiles)):
            assert len(r) and end == ends[r[-1]]
            assert len(r) == 1 or len(r) * (end - r.start) <= 64
            if j + 1 < len(tiles):
                # one more row would not fit
                assert (len(r) + 1) * (ends[r.stop] - r.start) > 64
        # every band to the last column: each tile is the first of
        # row_tiles over the square from its first row on
        start = 0
        for t, end in band_tiles(np.full(n, n)):
            first = range(start, n)[next(row_tiles(n - start, n - start))]
            assert (range(n)[t], end) == (first, n)
            start = t.stop
        assert start == n

    check()


def test_permutation_invariance_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    floats = st.floats(allow_nan=False, allow_infinity=False, width=64)

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(
        st.lists(floats, min_size=1, max_size=40),
        st.integers(0, 200),
        st.integers(0, 2**32 - 1),
    )
    def check(values, extra, seed):
        # repeat the drawn values past the small-input cutoff
        size = SMALL_INPUT + extra
        terms = np.resize(np.asarray(values), size)
        shuffled = np.random.default_rng(seed).permutation(terms)
        sums = set()
        for order in (terms, shuffled):
            try:
                want = math.fsum(order.tolist())
            except OverflowError:
                # whether fsum overflows depends on term order; exact_sum
                # hands such terms to fsum whole, so it raises as well
                with pytest.raises(OverflowError):
                    exact_sum(order)
                continue
            assert exact_sum(order).hex() == want.hex()
            sums.add(want.hex())
        assert len(sums) <= 1

    check()


def test_sums_equal_fsum_on_every_kind_of_batch_property(monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    fold_limit = accumulate.FOLD_LIMIT

    def batch(rng, kind, n):
        signs = rng.choice([-1.0, 1.0], n)
        if kind == "zeros":
            return signs * 0.0
        if kind == "one exponent":
            return signs * rng.uniform(0.5, 1.0, n) * 2.0 ** int(rng.integers(-1021, 960))
        x = signs * np.ldexp(rng.uniform(0.5, 1.0, n), rng.integers(-1021, 961, n))
        if kind == "extremes":
            # the smallest and the largest exponents binned, side by side
            x[: n // 2] = np.where(rng.random(n // 2) < 0.5, 2.0**-1021, 2.0**959)
            x[0], x[n // 2], x[-1] = 2.0**-1021, -(2.0**-1022), -(2.0**959)
        elif kind == "subnormals":
            x[rng.random(n) < 0.5] = rng.standard_normal() * 2.0**-1060
            x[-1] = 2.0**-1074
        return x

    kinds = st.sampled_from(["wide", "extremes", "subnormals", "zeros", "one exponent"])
    sizes = st.sampled_from([1, 7, SMALL_INPUT - 1, SMALL_INPUT, SMALL_INPUT + 1, 3000])

    # derandomized, so every run draws the same batches and a failure repeats
    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
    @hypothesis.given(
        st.lists(st.tuples(kinds, sizes), min_size=1, max_size=3),
        # the real limit, and ones that fold inside and between batches
        st.sampled_from([fold_limit, SMALL_INPUT + 2, 1000]),
        st.integers(0, 2**32 - 1),
    )
    def check(specs, limit, seed):
        rng = np.random.default_rng(seed)
        batches = [batch(rng, kind, n) for kind, n in specs]
        every = [t for x in batches for t in x.tolist()]
        with monkeypatch.context() as m:
            m.setattr(accumulate, "FOLD_LIMIT", limit)
            for x in batches:
                assert exact_sum(x).hex() == math.fsum(x.tolist()).hex()
            for twice in (False, True):
                acc = ExactAccumulator()
                for x in batches:
                    acc.add(x, twice=twice)
                assert acc.value().hex() == math.fsum(every * (1 + twice)).hex()

    check()


def test_quadrant_sums_equal_exact_sums_of_each_quadrant_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    def block(rng, kind, size):
        shape = (size, size)
        signs = rng.choice([-1.0, 1.0], shape)
        if kind == "one exponent":
            return signs * rng.uniform(0.5, 1.0, shape) * 2.0 ** int(rng.integers(-1021, 960))
        x = signs * np.ldexp(rng.uniform(0.5, 1.0, shape), rng.integers(-1021, 960, shape))
        spots = rng.random(shape) < 0.2
        if kind == "signed zeros":
            x[spots] = signs[spots] * 0.0
        elif kind == "zeros and one exponent":
            x = signs * rng.uniform(0.5, 1.0, shape) * 2.0**-3
            x[spots] = signs[spots] * 0.0
        elif kind == "subnormals":
            x[spots] = rng.standard_normal(np.count_nonzero(spots)) * 2.0**-1060
        elif kind == "non-finite":
            x.flat[rng.integers(0, x.size, 2)] = rng.choice([np.inf, -np.inf, np.nan], 2)
        elif kind == "huge":
            # 2**960 is the first magnitude that is not binned; 1e308 pairs
            # can overflow fsum's partial sums
            x.flat[rng.integers(0, x.size, 3)] = rng.choice([2.0**960, -(2.0**960), 1e308], 3)
        return x

    kinds = st.sampled_from(
        ["wide", "signed zeros", "zeros and one exponent", "one exponent",
         "subnormals", "non-finite", "huge"]
    )
    # quadrants of up to 66**2 terms, on both sides of SMALL_INPUT
    sizes = st.sampled_from([1, 2, 7, 25, 26, 40, 66])

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
    @hypothesis.given(kinds, sizes, st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    def check(kind, size, cut, seed):
        terms = block(np.random.default_rng(seed), kind, size)
        n = round(cut * size)
        quadrants = (terms[:n, :n], terms[:n, n:], terms[n:, n:])
        try:
            want = [exact_sum(q) for q in quadrants]
        except (OverflowError, ValueError) as exc:
            # fsum's overflow, or inf - inf, raised by the first such quadrant
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                quadrant_sums(terms.copy(), n)
            return
        got = quadrant_sums(terms.copy(), n)
        assert [x.hex() for x in got] == [x.hex() for x in want]

    check()


def test_quadrant_sums_bin_small_quadrants_in_one_pass(monkeypatch):
    # quadrants of 25, 35 and 49 terms, far below SMALL_INPUT: one pass
    calls = []
    bin_halves = accumulate._bin_halves
    monkeypatch.setattr(
        accumulate, "_bin_halves", lambda *a, **kw: calls.append(1) or bin_halves(*a, **kw)
    )
    terms = np.random.default_rng(9).standard_normal((12, 12))
    want = [exact_sum(q) for q in (terms[:5, :5], terms[:5, 5:], terms[5:, 5:])]
    got = quadrant_sums(terms.copy(), 5)
    assert [x.hex() for x in got] == [x.hex() for x in want]
    assert calls == [1]
