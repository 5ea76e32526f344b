"""Tests for exact summation: bit-identity with math.fsum on every path."""

import math

import numpy as np
import pytest

from mmdlab import accumulate
from mmdlab.accumulate import (
    SMALL_INPUT,
    ExactAccumulator,
    exact_row_sums,
    exact_sum,
    symmetric_gram_sum,
    tiled_gram_sum,
    weighted_gram_sum,
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


class TestGramSums:
    def test_tiles_match_one_product(self, monkeypatch):
        rng = np.random.default_rng(8)
        w, v = rng.standard_normal(300), rng.standard_normal(70)
        G = rng.standard_normal((300, 70))
        want = math.fsum((np.multiply.outer(w, v) * G).ravel().tolist())
        for tile in (1, 69, 1000, 1 << 20):
            monkeypatch.setattr(accumulate, "TILE_ENTRIES", tile)
            assert weighted_gram_sum(w, G, v).hex() == want.hex()
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

                def upper_rows(start, stop):
                    fetched.append((start, stop))
                    return G[start:stop, start:]

                assert symmetric_gram_sum(w, upper_rows).hex() == want.hex()
                # consecutive row ranges that cover every row once
                assert [a for a, _ in fetched] == [0] + [b for _, b in fetched[:-1]]
                assert fetched[-1][1] == n
                if n * n <= tile:
                    assert fetched == [(0, n)]


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
