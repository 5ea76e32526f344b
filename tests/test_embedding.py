"""Tests for mean embeddings, inner products and the two MMD routes."""

import dataclasses
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
from mmdlab.kernels import inverse_multiquadric
from mmdlab.measures import empty_measure
from mmdlab.errors import DimensionMismatchError
from helpers import mmd_mpmath, mmd_reference, self_inner_tolerance, shifted_dirac_null_kernel

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
            out[np.abs(a[0][..., 0] - b[0][..., 0]) == 1.0] = np.nan
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


# the unit roundoff of float64
UNIT_ROUNDOFF = 2.0**-53
# a bound on a kernel value's absolute error, in units of UNIT_ROUNDOFF
# times the kernel's sup_bound.  A base family rounds its argument, a
# squared distance or a norm, d + 3 times at most, and exp or power turn
# that relative error into one of at most |arg| e^-|arg| <= 1/e of the sup,
# plus one rounding of the value.  A field, shift or centring adds a few
# roundings each, of quantities bounded by the sup (a centring's m(x) is a
# sum over the 5 atoms of its measure).  32 covers every algebra kernel
# with room to spare
KERNEL_ULPS = 32


def squared_mmd_error(k, mu, nu):
    """delta, a bound on |d^2 - D^2| for d = mmd(k, mu, nu) and D the exact
    distance, from the rounding of each term of the squared MMD.

    mmd reads d^2 as fsum([ii, jj, -ij, -ij]), where ii, jj and ij are
    exactly rounded sums of terms fl(fl(s_i s_j) k^(x_i, x_j)) over the
    weights s of mu and nu.  With K = k.sup_bound >= |k| and
    L = |mu|_1 + |nu|_1 the total variation of the stacked measure:

    * each computed kernel value k^ is within KERNEL_ULPS u K of k;
    * the weight product and the product with k^ round twice, by at most
      2.01 u |s_i s_j| K between them, so the terms are off by at most
      (KERNEL_ULPS + 2.01) u K L^2 in all;
    * ii, jj and ij round once each, by at most u K |w|_1^2, u K |v|_1^2
      and u K |w|_1 |v|_1, and ij counts twice: u K L^2;
    * the fsum rounds once, by at most u |d^2| <= 1.01 u K L^2;
    * a product that underflows rounds by up to half the least subnormal,
      2**-1075, not by a relative u: for N = |supp mu| + |supp nu|, the N^2
      terms' two products add at most N^2 (K + 1) 2**-1075 in all, which
      the float 2**-1074 rounds up.

    So delta = (KERNEL_ULPS + 5) u K L^2 + N^2 (K + 1) 2**-1074 bounds the
    error of d^2, and as
    d and D are nonnegative, |d - D| <= sqrt(|d^2 - D^2|) <= sqrt(delta),
    since |d - D|^2 <= |d - D| (d + D).  A d^2 that cancels below zero is
    clamped to d = 0, and then D^2 <= delta, so the bound holds too.
    Computing delta itself rounds by a few u of delta, inside the slack of
    the 5.
    """
    total = math.fsum(np.abs(mu.weights)) + math.fsum(np.abs(nu.weights))
    atoms = mu.support_size + nu.support_size
    underflow = atoms * atoms * (k.sup_bound + 1.0) * 2.0**-1074
    return (KERNEL_ULPS + 5) * UNIT_ROUNDOFF * k.sup_bound * total * total + underflow


def metric_measures():
    """A hypothesis strategy of (kernel name, dim) and a function that draws
    a measure of that dim, a probability or a signed one, near a given one
    or not: atoms moved by 0 to 1 or drawn afresh, so that distances from
    1e-9 up to a few units are compared."""
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def measure(draw, dim, near=None, max_atoms=8):
        if near is None or draw(st.booleans()):
            n = draw(st.integers(1, max_atoms))
            atoms = draw(st.lists(st.floats(-3.0, 3.0), min_size=n * dim, max_size=n * dim))
            atoms = np.reshape(atoms, (n, dim))
        else:
            n = near.support_size
            move = draw(st.sampled_from([0.0, 1e-9, 1e-6, 1e-3, 1.0]))
            jitter = draw(st.lists(st.floats(-1.0, 1.0), min_size=n * dim, max_size=n * dim))
            atoms = near.atoms + move * np.reshape(jitter, (n, dim))
        if draw(st.booleans()):
            w = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
            w = w / w.sum()
        else:
            w = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)))
        return SignedDiscreteMeasure(atoms, w, dim)

    return measure


class TestMetricAxiomsProperty:
    """Identity and the triangle inequality over hypothesis-drawn
    probability and signed measures, for every algebra kernel.  Derandomized,
    so every run draws the same measures and a failure repeats."""

    def test_identity(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        kernels = {dim: algebra_kernels(dim) for dim in (1, 2)}
        measure = metric_measures()

        @st.composite
        def case(draw):
            name, dim = draw(st.sampled_from(ALGEBRA_CASES))
            # up to 60 atoms: pairs of up to 45 read one block, larger ones
            # three
            mu = draw(measure(dim, max_atoms=60))
            order = draw(st.permutations(range(mu.support_size)))
            return kernels[dim][name], mu, order

        @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
        @hypothesis.given(case())
        def check(args):
            k, mu, order = args
            assert mmd(k, mu, mu) == 0.0
            # the same terms in another order: the three exact sums agree
            shuffled = SignedDiscreteMeasure(mu.atoms[order], mu.weights[order], mu.dim)
            assert mmd(k, mu, shuffled) == 0.0
            assert mmd(k, shuffled, mu) == 0.0

        check()

    def test_triangle_inequality(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        kernels = {dim: algebra_kernels(dim) for dim in (1, 2)}
        measure = metric_measures()

        @st.composite
        def case(draw):
            name, dim = draw(st.sampled_from(ALGEBRA_CASES))
            a = draw(measure(dim))
            b = draw(measure(dim, near=a))
            c = draw(measure(dim, near=draw(st.sampled_from([a, b]))))
            return kernels[dim][name], a, b, c

        @hypothesis.settings(max_examples=600, deadline=None, derandomize=True)
        @hypothesis.given(case())
        def check(args):
            k, a, b, c = args
            slack = sum(
                math.sqrt(squared_mmd_error(k, x, y)) for x, y in ((a, b), (b, c), (a, c))
            )
            assert mmd(k, a, c) <= mmd(k, a, b) + mmd(k, b, c) + slack

        check()


class TestMpmathOracle:
    """mmd against a 60-digit evaluation of each kernel's closed form, which
    shares no code with it (``helpers.mmd_mpmath``).  ``center_kernel`` is
    left out: no bound on the error of its mean-embedding column is
    derived."""

    def test_squared_mmd_within_its_rounding_bound(self):
        pytest.importorskip("mpmath")
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        def oracle_kernels(dim):
            base = gaussian(1.0, dim=dim)
            return [
                base,
                laplacian(0.7, dim=dim),
                inverse_multiquadric(1.5, 0.5, dim=dim),
                shift_kernel(base, 1.0),
                scale_kernel(base, c0_bump_at(np.zeros(dim))),
            ]

        kernels = {dim: oracle_kernels(dim) for dim in (1, 2)}
        measure = metric_measures()

        @st.composite
        def case(draw):
            dim = draw(st.sampled_from([1, 2]))
            mu = draw(measure(dim, max_atoms=4))
            # atoms moved by 1e-9 to 1, or drawn afresh
            nu = draw(measure(dim, near=mu, max_atoms=4))
            return draw(st.sampled_from(kernels[dim])), mu, nu

        @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
        @hypothesis.given(case())
        def check(args):
            k, mu, nu = args
            exact = mmd_mpmath(k, mu, nu)
            got = mmd_detail(k, mu, nu).squared_raw
            assert abs(got - exact) <= squared_mmd_error(k, mu, nu), (k.descriptor, got, exact)

        check()


class TestOneTableMmd:
    """mmd reads its three sums from one table of both measures' atoms and
    keeps the bits of three whole-Gram fsums."""

    def test_equals_whole_gram_fsums_across_the_tile_bound(self, monkeypatch):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        # a Gram of more than 64 entries spans tiles: sides of 0 to 20
        # atoms fall on both sides of the bound, in the self and cross terms
        monkeypatch.setattr(accumulate, "TILE_ENTRIES", 64)
        kernels = {dim: algebra_kernels(dim) for dim in (1, 2)}

        def measure(rng, n, dim, spread, uniform):
            w = np.full(n, 1.0 / max(n, 1)) if uniform else rng.standard_normal(n)
            return SignedDiscreteMeasure(rng.uniform(-spread, spread, (n, dim)), w, dim)

        # derandomized, so every run draws the same measures and a failure repeats
        @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
        @hypothesis.given(
            st.sampled_from(ALGEBRA_CASES),
            st.integers(0, 20),
            st.integers(0, 20),
            st.sampled_from(["distinct", "same", "empty"]),
            # spread atoms make far fields, equal weights constant far tails
            st.sampled_from([1.0, 100.0]),
            st.booleans(),
            st.integers(0, 2**32 - 1),
        )
        def check(case, n, m, pair, spread, uniform, seed):
            name, dim = case
            k = kernels[dim][name]
            rng = np.random.default_rng(seed)
            mu = measure(rng, n, dim, spread, uniform)
            nu = {"same": mu, "empty": empty_measure(dim)}.get(pair)
            if nu is None:
                nu = measure(rng, m, dim, spread, uniform)
            want = mmd_reference(k, mu, nu)
            got = mmd_detail(k, mu, nu)
            assert (got.value.hex(), got.squared_raw.hex(), got.clamped) == (
                want[0].hex(),
                want[1].hex(),
                want[2],
            ), name
            assert mmd(k, nu, mu).hex() == got.value.hex(), name
            # fresh measures, so neither side reads a kept self term
            copies = [SignedDiscreteMeasure(a.atoms, a.weights, dim) for a in (nu, mu)]
            assert mmd(k, *copies).hex() == got.value.hex(), name

        check()

    def test_a_centred_kernel_builds_one_table_per_mmd(self):
        rows = []
        p = SignedDiscreteMeasure(np.array([[0.0], [0.5]]), np.full(2, 0.5), 1)
        k = center_kernel(gaussian(1.0), p, 1.0)
        table_fn = k.table_fn
        k = dataclasses.replace(k, table_fn=lambda X: rows.append(len(X)) or table_fn(X))
        rng = np.random.default_rng(90)
        # one tile, and self terms that span tiles
        for n, m in ((3, 5), (40, 7), (300, 200)):
            mu = SignedDiscreteMeasure(rng.uniform(-2, 2, (n, 1)), rng.standard_normal(n), 1)
            nu = SignedDiscreteMeasure(rng.uniform(-2, 2, (m, 1)), rng.standard_normal(m), 1)
            rows.clear()
            mmd(k, mu, nu)
            # m(X) computed once, for mu's atoms and nu's together
            assert rows == [n + m]

    def test_measures_of_other_dimensions_are_refused_before_the_table(self):
        k = gaussian(1.0)
        for mu, nu in ((dirac(0.0), dirac([0.0, 1.0])), (dirac([0.0, 1.0]), dirac(0.0))):
            with pytest.raises(DimensionMismatchError):
                mmd_detail(k, mu, nu)
        with pytest.raises(DimensionMismatchError):
            mmd(gaussian(1.0, dim=2), dirac([0.0, 1.0]), dirac(0.0))


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


class TestOneBlockMmd:
    """An MMD whose block of both supports holds at most half a tile reads
    its three inner products from that one block, with the bits of the
    tiled route."""

    # the largest pair is 2 * 90**2 = 16,200 entries: just inside half a tile
    SIZES = ((1, 1), (3, 7), (40, 45), (1, 89), (60, 30))

    @staticmethod
    def pair(rng, dim, n, m):
        """Two signed measures of n and m atoms."""
        return tuple(
            SignedDiscreteMeasure(rng.uniform(-3, 3, (s, dim)), rng.standard_normal(s), dim)
            for s in (n, m)
        )

    @pytest.mark.parametrize("name, dim", ALGEBRA_CASES)
    def test_equals_the_tiled_route(self, name, dim, monkeypatch):
        k = algebra_kernels(dim)[name]
        rng = np.random.default_rng(90 + dim)
        for n, m in self.SIZES:
            assert 2 * (n + m) ** 2 <= accumulate.TILE_ENTRIES
            mu, nu = self.pair(rng, dim, n, m)
            got = mmd_detail(k, mu, nu)
            with monkeypatch.context() as patched:
                # every pair spans tiles of 64; the tiled route keeps self
                # terms in slots, so it sums equal measures with empty ones
                patched.setattr(accumulate, "TILE_ENTRIES", 64)
                want = mmd_detail(k, fresh(mu), fresh(nu))
            assert got.value.hex() == want.value.hex(), (name, n, m)
            assert got.squared_raw.hex() == want.squared_raw.hex(), (name, n, m)
            assert got.clamped == want.clamped

    def test_one_kernel_block_per_small_mmd(self, monkeypatch):
        shapes = []
        block = Kernel.block
        monkeypatch.setattr(
            Kernel, "block", lambda self, X, Y: shapes.append((len(X), len(Y))) or block(self, X, Y)
        )
        k = center_kernel(gaussian(1.0), dirac(0.5), 1.0)
        rng = np.random.default_rng(95)
        for n, m in self.SIZES:
            shapes.clear()
            mmd(k, *self.pair(rng, 1, n, m))
            assert shapes == [(n + m, n + m)]
        # one atom more than half a tile allows: three blocks, as before
        shapes.clear()
        mmd(k, *self.pair(rng, 1, 50, 41))
        assert sorted(shapes) == [(41, 41), (50, 41), (50, 50)]


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

