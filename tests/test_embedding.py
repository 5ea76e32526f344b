"""Tests for mean embeddings, inner products and the two MMD routes."""

import functools
import math
import tracemalloc

import numpy as np
import pytest

from mmdlab import (
    ExclusionRegion,
    Kernel,
    SignedDiscreteMeasure,
    accumulate,
    c0_bump_at,
    c0_null_at,
    center_kernel,
    diffusing_sequence,
    dirac,
    dirac_null_kernel,
    gaussian,
    inner,
    kme_eval,
    kme_probe,
    integrate,
    laplacian,
    mmd,
    mmd_detail,
    mmd_oracle,
    norm,
    saturating_at,
    scale_kernel,
    shift_kernel,
    verify_diffusing,
)
from mmdlab.embedding import keep_self_inner
from mmdlab.kernels import inverse_multiquadric
from mmdlab.measures import empty_measure
from helpers import self_inner_tolerance, shifted_dirac_null_kernel

EXP_HALF = math.exp(-0.5)


def brute_force_inner(k, mu, nu):
    """Independent double loop, scalar evaluations, plain running sum."""
    total = 0.0
    for a, w in zip(mu.atoms, mu.weights):
        for b, v in zip(nu.atoms, nu.weights):
            total += w * v * k(a, b)
    return total


def random_signed(rng, dim, max_atoms=12, lo=-2.0, hi=2.0):
    n = int(rng.integers(1, max_atoms + 1))
    return SignedDiscreteMeasure(
        rng.uniform(lo, hi, (n, dim)), rng.standard_normal(n), dim
    )


def random_probability(rng, dim, max_atoms=12):
    n = int(rng.integers(1, max_atoms + 1))
    w = rng.random(n)
    return SignedDiscreteMeasure(rng.uniform(-2, 2, (n, dim)), w / w.sum(), dim)


def algebra_kernels(dim):
    """One kernel of each base family and of each algebra operation."""
    xi = np.zeros(dim)
    base = gaussian(1.0, dim=dim)
    p = SignedDiscreteMeasure(
        np.random.default_rng(dim).uniform(-1, 1, (5, dim)), np.full(5, 0.2), dim
    )
    return {
        "gaussian": base,
        "laplacian": laplacian(0.7, dim=dim),
        "imq": inverse_multiquadric(1.5, 0.5, dim=dim),
        "shift": shift_kernel(base, 1.0),
        "scale": scale_kernel(base, saturating_at(xi)),
        "scale_null_at": scale_kernel(base, c0_null_at(np.stack([xi, xi + 1.0]))),
        "center": center_kernel(base, p, 1.0),
        "null": dirac_null_kernel(base, xi, c0_bump_at(xi)),
        "shifted_null": shifted_dirac_null_kernel(base, xi),
    }


# every algebra kernel in dims 1 and 2, as (name, dim) pairs
ALGEBRA_CASES = [(name, dim) for dim in (1, 2) for name in algebra_kernels(dim)]


class TestKmeEval:
    def test_single_atom_is_kernel_value(self):
        k = gaussian(1.0)
        assert kme_eval(k, dirac(0.7), 0.2) == k(0.7, 0.2)

    def test_two_term_sum(self):
        k = gaussian(1.0)
        mu = SignedDiscreteMeasure(np.array([[0.0], [1.0]]), [0.5, 0.5], 1)
        expected = 0.5 + 0.5 * EXP_HALF  # oracle: explicit two-term sum
        assert kme_eval(k, mu, 0.0) == pytest.approx(expected, abs=1e-15)
        assert kme_eval(k, mu, 0.0) == pytest.approx(0.8032653298563167, abs=1e-12)

    def test_empty_measure_embeds_to_zero(self):
        assert kme_eval(gaussian(1.0), empty_measure(1), 0.0) == 0.0


class TestInner:
    def test_dirac_pair_is_kernel_value(self):
        k = gaussian(1.0)
        assert inner(k, dirac(0.0), dirac(1.0)) == k(0.0, 1.0)

    def test_against_null_measure(self):
        k = gaussian(1.0)
        assert inner(k, random_signed(np.random.default_rng(0), 1), empty_measure(1)) == 0.0

    def test_four_term_expansion(self):
        k = gaussian(1.0)
        mu = dirac(0.0) - dirac(1.0)
        expected = 1.0 - EXP_HALF - EXP_HALF + 1.0  # oracle: four explicit terms
        assert inner(k, mu, mu) == pytest.approx(expected, abs=1e-15)

    def test_symmetric_in_arguments_exactly(self):
        rng = np.random.default_rng(1)
        k = gaussian(1.0, dim=2)
        for _ in range(20):
            mu = random_signed(rng, 2)
            nu = random_signed(rng, 2)
            assert inner(k, mu, nu) == inner(k, nu, mu)

    def test_matches_brute_force_loop(self):
        rng = np.random.default_rng(2)
        k = laplacian(0.8, dim=2)
        for _ in range(10):
            mu = random_signed(rng, 2)
            nu = random_signed(rng, 2)
            assert inner(k, mu, nu) == pytest.approx(
                brute_force_inner(k, mu, nu), rel=1e-12, abs=1e-13
            )

    def test_self_inner_never_too_negative(self):
        rng = np.random.default_rng(3)
        k = gaussian(1.0, dim=3)
        for _ in range(30):
            mu = random_signed(rng, 3, max_atoms=30)
            assert inner(k, mu, mu) >= -self_inner_tolerance(mu, k.sup_bound)


class TestMmd:
    @pytest.mark.parametrize("name,dim", ALGEBRA_CASES)
    def test_identical_measures_give_zero(self, name, dim):
        rng = np.random.default_rng(4)
        mu = random_signed(rng, dim)
        assert mmd(algebra_kernels(dim)[name], mu, mu) == 0.0

    def test_closed_form_dirac_distance(self):
        value = mmd(gaussian(1.0), dirac(0.0), dirac(1.0))
        expected = math.sqrt(2.0 - 2.0 * EXP_HALF)
        assert value == pytest.approx(expected, abs=1e-15)
        assert value == pytest.approx(0.887095643419994, abs=1e-12)

    @pytest.mark.parametrize("name,dim", ALGEBRA_CASES)
    def test_symmetry(self, name, dim):
        rng = np.random.default_rng(5)
        k = algebra_kernels(dim)[name]
        mu, nu = random_signed(rng, dim), random_signed(rng, dim)
        assert mmd(k, mu, nu) == mmd(k, nu, mu)

    @pytest.mark.parametrize("name,dim", ALGEBRA_CASES)
    def test_triangle_inequality_randomized(self, name, dim):
        rng = np.random.default_rng(6)
        k = algebra_kernels(dim)[name]
        for _ in range(50):
            a, b, c = (random_signed(rng, dim) for _ in range(3))
            assert mmd(k, a, c) <= mmd(k, a, b) + mmd(k, b, c) + 1e-10

    def test_clamp_flag_reported_for_indefinite_kernel(self):
        # a deliberately non-PSD "kernel": negated gaussian
        g = gaussian(1.0)
        bad = Kernel(
            block_fn=lambda a, b: -g.block_fn(a, b),
            dim=1,
            sup_bound=1.0,
            claims_c0=True,
            descriptor={"family": "negated"},
        )
        detail = mmd_detail(bad, dirac(0.0), dirac(1.0))
        assert detail.clamped
        assert detail.value == 0.0
        assert detail.squared_raw < 0
        good = mmd_detail(g, dirac(0.0), dirac(1.0))
        assert not good.clamped
        assert good.kernel_descriptor == {"family": "gaussian", "sigma": 1.0, "dim": 1}

    @pytest.mark.parametrize("n", [2, 200])
    def test_nan_stays_nan(self, n):
        # a kernel that is nan for pairs exactly 1 apart: a nan squared
        # distance must not be clamped to a converged 0.0
        g = gaussian(1.0)

        def block(a, b):
            out = g.block_fn(a, b)
            out[np.abs(a[0] - b[0].T) == 1.0] = np.nan
            return out

        k = Kernel(block, 1, 1.0, True, {"family": "nan_at_1"})
        mu = SignedDiscreteMeasure(np.arange(n, dtype=float)[:, None], np.full(n, 1.0 / n), 1)
        nu = dirac(0.5)
        detail = mmd_detail(k, mu, nu)
        assert math.isnan(detail.value) and math.isnan(detail.squared_raw)
        assert not detail.clamped
        assert math.isnan(mmd(k, mu, nu))
        assert math.isnan(mmd_oracle(k, mu, nu))
        assert math.isnan(norm(k, mu))
        # nan only in the cross term
        cross = mmd_detail(k, dirac(0.0), dirac(1.0))
        assert math.isnan(cross.value) and not cross.clamped


class TestOracle:
    def test_agrees_on_disjoint_supports(self):
        k = gaussian(1.0)
        a, b = dirac(0.0), dirac(1.0)
        assert mmd_oracle(k, a, b) == pytest.approx(mmd(k, a, b), abs=1e-15)

    def test_agrees_with_overlapping_supports(self):
        # cancellation path: the merged difference drops a shared atom
        k = gaussian(1.0)
        mu = dirac(0.0)
        nu = SignedDiscreteMeasure(np.array([[0.0], [1.0]]), [0.5, 0.5], 1)
        direct = mmd(k, mu, nu)
        via_merge = mmd_oracle(k, mu, nu)
        assert via_merge == pytest.approx(direct, rel=1e-12, abs=1e-13)

    def test_identical_measures_merge_to_empty(self):
        rng = np.random.default_rng(7)
        mu = random_signed(rng, 2)
        assert mmd_oracle(gaussian(1.0, dim=2), mu, mu) == 0.0

    def test_randomized_equivalence(self):
        rng = np.random.default_rng(8)
        for k in (gaussian(1.0, dim=2), laplacian(0.5, dim=2), shift_kernel(gaussian(1.0, dim=2), 1.0)):
            for _ in range(20):
                mu = random_signed(rng, 2, max_atoms=20)
                nu = random_signed(rng, 2, max_atoms=20)
                a = mmd(k, mu, nu)
                b = mmd_oracle(k, mu, nu)
                assert abs(a - b) <= 1e-10 * (1.0 + a)

    @pytest.mark.parametrize(
        "kernel",
        [gaussian(1.0), scale_kernel(gaussian(1.0), c0_bump_at(0.0))],
        ids=["gaussian", "scaled"],
    )
    def test_whole_merged_gram_past_the_old_limit(self, kernel):
        # 2,600 + 2,600 atoms used to exceed a 2,000-atom limit; the merged
        # support's dense Gram would take 206 MiB.  The atoms are spread so
        # wide that most Gram entries underflow to exact zeros, which the
        # fsum reference drops to stay fast; they are scattered over every
        # row tile, since the merged atoms are not sorted
        rng = np.random.default_rng(5)
        mu = SignedDiscreteMeasure(rng.uniform(-500, 500, (2600, 1)), rng.random(2600), 1)
        nu = SignedDiscreteMeasure(rng.uniform(-500, 500, (2600, 1)), rng.random(2600), 1)
        tracemalloc.start()
        try:
            value = mmd_oracle(kernel, mu, nu)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

        diff = mu - nu
        X, w = diff.atoms, diff.weights
        assert diff.support_size == 5200

        def nonzero_terms():
            for start in range(0, len(w), 64):
                rows = slice(start, start + 64)
                terms = (np.multiply.outer(w[rows], w) * kernel.block(X[rows], X)).ravel()
                yield from terms[terms != 0.0].tolist()

        assert value == math.sqrt(max(0.0, math.fsum(nonzero_terms())))


class TestPettisIdentity:
    def test_integral_against_embedding_equals_inner(self):
        rng = np.random.default_rng(9)
        k = gaussian(1.0, dim=2)
        for _ in range(20):
            mu = random_signed(rng, 2)
            nu = random_signed(rng, 2)
            f_nu = kme_probe(k, nu)
            lhs = integrate(mu, f_nu)
            rhs = inner(k, mu, nu)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-14)


class TestShiftAndNormBasics:
    def test_shift_invariance_on_probability_pairs(self):
        rng = np.random.default_rng(10)
        k = gaussian(1.0, dim=2)
        k1 = shift_kernel(k, 1.0)
        for _ in range(10):
            p = random_probability(rng, 2)
            q = random_probability(rng, 2)
            base = mmd(k, p, q)
            assert abs(mmd(k1, p, q) - base) <= 1e-12 * (1.0 + base)

    def test_norm_is_self_distance_to_null(self):
        rng = np.random.default_rng(11)
        k = gaussian(1.0)
        mu = random_signed(rng, 1)
        assert norm(k, mu) == pytest.approx(
            mmd(k, mu, empty_measure(1)), rel=1e-14, abs=1e-14
        )


class TestTiledInner:
    """inner() over row tiles equals one fsum over the whole weighted Gram."""

    kernels = staticmethod(algebra_kernels)

    @staticmethod
    def fsum_inner(k, mu, nu):
        terms = np.multiply.outer(mu.weights, nu.weights) * k.block(mu.atoms, nu.atoms)
        return math.fsum(terms.ravel().tolist())

    @classmethod
    @functools.lru_cache(maxsize=None)
    def self_inner_case(cls, dim, n):
        """A signed measure, the kernels, and each one's fsum of |mu|^2 terms."""
        rng = np.random.default_rng(40 + n + dim)
        mu = SignedDiscreteMeasure(rng.uniform(-3, 3, (n, dim)), rng.standard_normal(n), dim)
        kernels = cls.kernels(dim)
        return mu, kernels, {name: cls.fsum_inner(k, mu, mu) for name, k in kernels.items()}

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("tile", [64, None])
    def test_bit_identical_to_untiled(self, dim, tile, monkeypatch):
        if tile is not None:
            monkeypatch.setattr(accumulate, "TILE_ENTRIES", tile)
        rng = np.random.default_rng(12 + dim)
        # non-square, and larger than one default tile (16384 entries)
        mu = SignedDiscreteMeasure(rng.uniform(-3, 3, (310, dim)), rng.standard_normal(310), dim)
        nu = SignedDiscreteMeasure(rng.uniform(-3, 3, (173, dim)), rng.random(173), dim)
        for name, k in self.kernels(dim).items():
            for a, b in ((mu, nu), (nu, mu), (mu, mu)):
                want = self.fsum_inner(k, a, b)
                assert inner(k, a, b).hex() == want.hex(), name

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_rowwise_kernels_evaluate_rows_alone(self, dim):
        rng = np.random.default_rng(20 + dim)
        X = rng.uniform(-4, 4, (97, dim))
        Y = rng.uniform(-4, 4, (61, dim))
        for name, k in self.kernels(dim).items():
            full = k.block(X, Y)
            for start, stop in ((0, 1), (3, 10), (10, 45), (45, 97)):
                rows = k.block(X[start:stop], Y)
                assert np.array_equal(rows, full[start:stop]), name
            # any tile of the block of X against itself, which is symmetric
            square = k.block(X, X)
            assert np.array_equal(square, square.T), name
            for rows, cols in (
                (slice(0, 1), slice(0, None)),
                (slice(5, 9), slice(5, None)),
                (slice(20, 60), slice(40, 97)),
                (slice(80, 97), slice(0, 7)),
            ):
                assert np.array_equal(k.block(X[rows], X[cols]), square[rows, cols]), name

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("n", [129, 300, 1031])
    @pytest.mark.parametrize("tile", [64, None])
    def test_self_inner_equals_whole_gram_fsum(self, dim, n, tile, monkeypatch):
        mu, kernels, want = self.self_inner_case(dim, n)
        copy = SignedDiscreteMeasure(mu.atoms.copy(), mu.weights.copy(), dim)
        if tile is not None:
            monkeypatch.setattr(accumulate, "TILE_ENTRIES", tile)
        for name, k in kernels.items():
            # mu is mu: the upper-triangle path
            assert inner(k, mu, mu).hex() == want[name].hex(), name
            # an equal but distinct measure: the full-Gram path
            assert inner(k, mu, copy).hex() == want[name].hex(), name

    def test_self_inner_reads_the_upper_triangle(self, monkeypatch):
        shapes = []
        block = Kernel.block

        def recording_block(self, X, Y):
            out = block(self, X, Y)
            shapes.append(out.shape)
            return out

        monkeypatch.setattr(Kernel, "block", recording_block)
        rng = np.random.default_rng(50)
        mu = SignedDiscreteMeasure(rng.uniform(-3, 3, (300, 1)), rng.standard_normal(300), 1)
        for name, k in self.kernels(1).items():
            shapes.clear()
            inner(k, mu, mu)
            # row tiles from the diagonal rightwards: about half the Gram
            assert len(shapes) > 1, name
            assert all(r <= c for r, c in shapes), name
            assert 300 * 301 // 2 <= sum(r * c for r, c in shapes) < 0.65 * 300 * 300, name

    def test_peak_memory_is_bounded_on_4096_atoms(self):
        base = gaussian(1.0)
        null_k = dirac_null_kernel(base, [0.0])
        p = diffusing_sequence(null_k, 4096, 1.0 / 4096, ExclusionRegion(np.zeros(1), 9.0))
        kappa = shifted_dirac_null_kernel(base, [0.0])
        tracemalloc.start()
        try:
            value = inner(kappa, p, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a dense 4096 x 4096 Gram alone would take 128 MiB
        assert peak < 64 * 2**20
        assert 0.0 < value < kappa.sup_bound


class TestSelfTermMemo:
    """A self term over more than one Gram tile is kept in one slot on the
    measure, for the kernel object that computed it."""

    @staticmethod
    def recording(monkeypatch):
        """Entries of every Kernel.block call from now on."""
        entries = []
        block = Kernel.block

        def recording_block(self, X, Y):
            out = block(self, X, Y)
            entries.append(out.size)
            return out

        monkeypatch.setattr(Kernel, "block", recording_block)
        return entries

    @staticmethod
    def large(seed=0, n=300):
        # 300^2 entries span several 16384-entry tiles
        rng = np.random.default_rng(seed)
        return SignedDiscreteMeasure(rng.uniform(-3, 3, (n, 1)), rng.standard_normal(n), 1)

    @pytest.mark.parametrize(
        "kernel",
        [
            gaussian(1.0),
            shifted_dirac_null_kernel(gaussian(1.0), [0.0]),
            center_kernel(gaussian(1.0), dirac(0.5), 1.0),
        ],
        ids=["gaussian", "shifted_null", "center"],
    )
    def test_the_same_kernel_object_reads_the_slot(self, kernel, monkeypatch):
        mu = self.large()
        first = inner(kernel, mu, mu)
        assert mu._self_inner == (kernel, first)
        entries = self.recording(monkeypatch)
        assert inner(kernel, mu, mu).hex() == first.hex()
        assert norm(kernel, mu) == math.sqrt(max(0.0, first))
        assert entries == []

    def test_an_equal_kernel_object_recomputes(self, monkeypatch):
        mu = self.large(1)
        k = gaussian(1.0)
        twin = gaussian(1.0)
        assert twin.descriptor == k.descriptor
        first = inner(k, mu, mu)
        entries = self.recording(monkeypatch)
        assert inner(twin, mu, mu).hex() == first.hex()
        assert entries and mu._self_inner[0] is twin
        # one slot: the first kernel now recomputes too
        entries.clear()
        assert inner(k, mu, mu).hex() == first.hex()
        assert entries and mu._self_inner[0] is k

    def test_small_supports_and_cross_terms_keep_no_slot(self):
        k = gaussian(1.0)
        small = self.large(2, n=128)  # 128^2 entries: one tile
        inner(k, small, small)
        assert small._self_inner is None
        mu, nu = self.large(3), self.large(4)
        inner(k, mu, nu)
        assert mu._self_inner is None and nu._self_inner is None

    def test_mmd_reuses_both_self_terms(self, monkeypatch):
        k = gaussian(1.0)
        mu, nu = self.large(5), self.large(6, n=200)
        first = mmd_detail(k, mu, nu)
        entries = self.recording(monkeypatch)
        again = mmd_detail(k, mu, nu)
        assert again.squared_raw.hex() == first.squared_raw.hex()
        # only the cross term is evaluated again, all of it
        assert sum(entries) == 300 * 200

    def test_oracle_never_reads_the_slot(self, monkeypatch):
        k = gaussian(1.0)
        mu, nu = self.large(7), self.large(8, n=250)
        want = mmd_oracle(k, mu, nu)
        # a wrong value in the slots shows in mmd but not in the oracle
        for m in (mu, nu):
            object.__setattr__(m, "_self_inner", (k, 1e6))
        assert mmd(k, mu, nu) > 1e3
        entries = self.recording(monkeypatch)
        assert mmd_oracle(k, mu, nu).hex() == want.hex()
        merged = (mu - nu).support_size
        assert sum(entries) == merged * merged


def spread_measure(rng, n, dim, reach, uniform):
    """n atoms drawn from [-reach, reach]^dim, in no order, with equal or
    signed random weights."""
    w = np.full(n, 1.0 / n) if uniform else rng.standard_normal(n)
    return SignedDiscreteMeasure(rng.uniform(-reach, reach, (n, dim)), w, dim)


def fresh(mu):
    """An equal measure with an empty self-term slot."""
    return SignedDiscreteMeasure(mu.atoms.copy(), mu.weights.copy(), mu.dim)


class TestFarFieldSkip:
    """Self terms skip the far field of :meth:`Kernel.far_field` and keep
    every bit; the oracle and the diffusing certificate skip nothing."""

    @staticmethod
    def kernels(dim):
        xi = np.zeros(dim)
        base = gaussian(1.0, dim=dim)
        p = SignedDiscreteMeasure(np.stack([xi, xi + 0.5]), np.full(2, 0.5), dim)
        return {
            "gaussian": base,
            "laplacian": laplacian(5.0, dim=dim),
            "shift": shift_kernel(base, 1.0),
            "scale": scale_kernel(base, saturating_at(xi)),
            "null": dirac_null_kernel(base, xi),
            "shifted_null": shifted_dirac_null_kernel(base, xi),
            # no rule: every entry evaluated
            "imq": inverse_multiquadric(1.5, 0.5, dim=dim),
            "center": center_kernel(base, p, 1.0),
        }

    @staticmethod
    def self_term(monkeypatch, k, mu, banded=True):
        """inner(k, mu, mu) on a copy of mu with an empty slot, with or
        without far-field rules, and the Gram entries it evaluated."""
        with monkeypatch.context() as m:
            if not banded:
                m.setattr(Kernel, "far_field", lambda self, X: None)
            entries = TestSelfTermMemo.recording(m)
            copy = fresh(mu)
            return inner(k, copy, copy), sum(entries)

    @pytest.mark.parametrize("dim, reach", [(1, 4000.0), (2, 1000.0)])
    @pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "signed"])
    @pytest.mark.parametrize("tile", [256, None])
    def test_banded_self_term_equals_unbanded(self, dim, reach, uniform, tile, monkeypatch):
        if tile is not None:
            monkeypatch.setattr(accumulate, "TILE_ENTRIES", tile)
        rng = np.random.default_rng(70 + dim)
        mu = spread_measure(rng, 400, dim, reach, uniform)
        for name, k in self.kernels(dim).items():
            want, unbanded = self.self_term(monkeypatch, k, mu, banded=False)
            got, banded = self.self_term(monkeypatch, k, mu)
            assert got.hex() == want.hex(), name
            # the whole Gram of an equal measure, by the cross-term path
            assert inner(k, mu, fresh(mu)).hex() == want.hex(), name
            if name in ("imq", "center") or ("shift" in name and not uniform):
                # no rule, or a nonzero far value under unequal weights
                assert banded == unbanded, name
            else:
                # three or so default tiles of 16k cover the band at n = 400
                assert banded < unbanded / (4 if tile else 1.5), name

    @pytest.mark.parametrize("n", [300, 1024])
    def test_diffusing_measures_are_read_in_place(self, n, monkeypatch):
        base = gaussian(1.0)
        null_k = dirac_null_kernel(base, [0.0])
        p = diffusing_sequence(null_k, n, 1.0 / n, ExclusionRegion(np.zeros(1), 9.0))
        tables = []
        table = Kernel.table

        def recording_table(self, X):
            tables.append(X)
            return table(self, X)

        for k in (null_k, shifted_dirac_null_kernel(base, [0.0])):
            want, unbanded = self.self_term(monkeypatch, k, p, banded=False)
            got, banded = self.self_term(monkeypatch, k, p)
            assert got.hex() == want.hex()
            assert banded < unbanded / (3 if n > 1000 else 1.5)
            # a ray's atoms are in order: the table is built on them as they are
            with monkeypatch.context() as m:
                m.setattr(Kernel, "table", recording_table)
                tables.clear()
                copy = fresh(p)
                inner(k, copy, copy)
            assert len(tables) == 1 and tables[0] is copy.atoms

    def test_unsorted_atoms_give_the_sorted_bits(self):
        rng = np.random.default_rng(74)
        mu = spread_measure(rng, 500, 2, 500.0, False)
        order = np.argsort(mu.atoms[:, 0])
        sorted_mu = SignedDiscreteMeasure(mu.atoms[order], mu.weights[order], 2)
        for name, k in self.kernels(2).items():
            assert inner(k, mu, mu).hex() == inner(k, sorted_mu, sorted_mu).hex(), name

    def test_a_patched_tile_size_reaches_the_size_gate(self, monkeypatch):
        # 100 atoms, 10,000 entries: one default tile, many tiles of 64
        monkeypatch.setattr(accumulate, "TILE_ENTRIES", 64)
        rng = np.random.default_rng(76)
        mu = spread_measure(rng, 100, 1, 4000.0, True)
        k = gaussian(1.0)
        want, unbanded = self.self_term(monkeypatch, k, mu, banded=False)
        got, banded = self.self_term(monkeypatch, k, mu)
        assert got.hex() == want.hex()
        assert banded < unbanded / 4

    def test_a_self_term_with_no_rule_reads_the_atoms_in_order(self, monkeypatch):
        rng = np.random.default_rng(77)
        mu = spread_measure(rng, 300, 1, 3.0, False)
        assert not (np.diff(mu.atoms[:, 0]) >= 0).all()
        rows = []
        block = Kernel.block

        def recording_block(self, X, Y):
            rows.append(X.points)
            return block(self, X, Y)

        monkeypatch.setattr(Kernel, "block", recording_block)
        inner(inverse_multiquadric(1.5, 0.5), mu, mu)
        # row tiles from the first row down, in the measure's own order
        assert len(rows) > 1
        assert np.concatenate(rows).tobytes() == mu.atoms.tobytes()

    @pytest.mark.parametrize("dim, reach", [(1, 4000.0), (2, 300.0)])
    def test_mmd_agrees_with_the_oracle_on_spread_measures(self, dim, reach):
        rng = np.random.default_rng(80 + dim)
        for uniform in (True, False):
            mu = spread_measure(rng, 350, dim, reach, uniform)
            nu = spread_measure(rng, 260, dim, reach, True)
            for name, k in self.kernels(dim).items():
                assert mmd(k, mu, nu) == pytest.approx(mmd_oracle(k, mu, nu), rel=1e-12), name

    def test_oracle_and_certificate_evaluate_every_entry(self, monkeypatch):
        base = gaussian(1.0)
        null_k = dirac_null_kernel(base, [0.0])
        excl = ExclusionRegion(np.zeros(1), 9.0)
        p = diffusing_sequence(null_k, 600, 1.0 / 600, excl)
        q = diffusing_sequence(null_k, 300, 1.0 / 300, ExclusionRegion(np.zeros(1), 3000.0))
        for k in (null_k, shifted_dirac_null_kernel(base, [0.0])):
            with monkeypatch.context() as m:
                entries = TestSelfTermMemo.recording(m)
                mmd_oracle(k, p, q)
                merged = (p - q).support_size
                assert sum(entries) == merged * merged
                entries.clear()
                verify_diffusing(k, p, 1.0, excl)
                # the upper triangle with whole square parts: at least half
                assert sum(entries) >= 600 * 601 // 2


class TestSlotBeforeSizeGate:
    def test_a_kept_small_self_term_is_read_without_evaluation(self, monkeypatch):
        k = gaussian(1.0)
        small = dirac(0.5)
        keep_self_inner(k, small)
        assert small._self_inner == (k, 1.0)
        entries = TestSelfTermMemo.recording(monkeypatch)
        assert inner(k, small, small) == 1.0
        assert entries == []
        # another kernel object evaluates and leaves a small slot alone
        assert inner(gaussian(1.0), small, small) == 1.0
        assert entries == [1]
        assert small._self_inner[0] is k
