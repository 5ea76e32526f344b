"""Tests for kernel construction, algebra and structural probes."""

import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from mmdlab import (
    DimensionMismatchError,
    MeasureError,
    ParameterError,
    ScalarField,
    SignedDiscreteMeasure,
    c0_bump_at,
    c0_null_at,
    c0_probe,
    center_kernel,
    dirac,
    gaussian,
    laplacian,
    mmd,
    saturating_at,
    scale_kernel,
    shift_kernel,
)
from mmdlab import accumulate, kernels
from mmdlab.kernels import (
    Kernel,
    _EXP_CHECK_MIN,
    _EXP_ZERO_BELOW,
    C0_BUMP_SUP,
    PointTable,
    _exp,
    _sqdist,
    inverse_multiquadric,
    make_base_kernel,
)
from helpers import gram, psd_tolerance

# closed forms computed independently of the library (math.exp, not np.exp)
EXP_HALF = math.exp(-0.5)
EXP_TWO = math.exp(-2.0)


def random_points(rng, n, dim, lo=-3.0, hi=3.0):
    return rng.uniform(lo, hi, (n, dim))


def all_kernel_specimens(dim=2):
    """One kernel of every construction, for cross-cutting invariants."""
    base = gaussian(1.0, dim=dim)
    p = dirac(np.zeros(dim))
    return {
        "gaussian": base,
        "laplacian": laplacian(0.7, dim=dim),
        "imq": inverse_multiquadric(1.0, 0.5, dim=dim),
        "shift": shift_kernel(base, 1.0),
        "scale": scale_kernel(base, c0_bump_at(np.zeros(dim))),
        "center0": center_kernel(base, p, 0.0),
        "center1": center_kernel(base, p, 1.0),
    }


class TestBaseFamilies:
    def test_gaussian_diagonal_is_one(self):
        k = gaussian(1.0)
        assert k(0.0, 0.0) == 1.0

    def test_gaussian_closed_form(self):
        k = gaussian(1.0)
        assert k(0.0, 1.0) == pytest.approx(EXP_HALF, abs=1e-15)
        assert k(0.0, 1.0) == pytest.approx(0.6065306597126334, abs=1e-12)

    def test_laplacian_closed_form(self):
        k = laplacian(1.0)
        assert k(0.0, 2.0) == pytest.approx(EXP_TWO, abs=1e-15)
        assert k(0.0, 2.0) == pytest.approx(0.1353352832366127, abs=1e-12)

    def test_imq_diagonal_and_decay(self):
        k = inverse_multiquadric(1.0, 0.5)
        assert k(3.0, 3.0) == 1.0
        # (1 + 4)^(-1/2), computed independently
        assert k(0.0, 2.0) == pytest.approx(5.0**-0.5, abs=1e-15)

    def test_all_bases_claim_c0_and_unit_bound(self):
        for k in (gaussian(2.0), laplacian(0.5), inverse_multiquadric(2.0, 1.0)):
            assert k.claims_c0
            assert k.sup_bound == 1.0

    @pytest.mark.parametrize(
        "bad",
        [
            lambda: gaussian(0.0),
            lambda: gaussian(-1.0),
            lambda: laplacian(0.0),
            lambda: inverse_multiquadric(-1.0, 0.5),
            lambda: inverse_multiquadric(1.0, 0.0),
        ],
    )
    def test_nonpositive_parameters_rejected(self, bad):
        with pytest.raises(ParameterError):
            bad()

    @pytest.mark.parametrize(
        "family, params",
        [
            ("gaussian", {"sigma": math.nan}),
            ("gaussian", {"sigma": math.inf}),
            ("gaussian", {"sigma": 1e160}),  # 2 sigma^2 overflows
            ("gaussian", {"sigma": 1e-170}),  # sigma^2 underflows to 0
            ("laplacian", {"gamma": math.nan}),
            ("laplacian", {"gamma": math.inf}),
            ("inverse_multiquadric", {"c": math.nan}),
            ("inverse_multiquadric", {"c": math.inf}),
            ("inverse_multiquadric", {"c": 1e160}),
            ("inverse_multiquadric", {"c": 1e-170}),
            ("inverse_multiquadric", {"beta": math.nan}),
            ("inverse_multiquadric", {"beta": math.inf}),
        ],
        ids=repr,
    )
    def test_parameters_without_finite_positive_constants_rejected(self, family, params):
        with pytest.raises(ParameterError):
            make_base_kernel(family, **params)

    @pytest.mark.parametrize(
        "family, params",
        [
            ("gaussian", {"sigma": 1e-160}),  # 2 sigma^2 is subnormal, not 0
            ("gaussian", {"sigma": 1e150}),
            ("laplacian", {"gamma": 5e-324}),
            ("laplacian", {"gamma": 1e300}),
            ("inverse_multiquadric", {"c": 1e150, "beta": 1e300}),
        ],
        ids=repr,
    )
    # |x - y|^2 / 2e-320 overflows to inf, whose exp is an exact 0.0
    @pytest.mark.filterwarnings("ignore:overflow encountered in divide:RuntimeWarning")
    def test_extreme_finite_constants_accepted(self, family, params):
        k = make_base_kernel(family, **params)
        assert k(0.0, 0.0) == 1.0
        assert 0.0 <= k(0.0, 1.0) <= 1.0

    def test_make_base_kernel_dispatch(self):
        k = make_base_kernel("laplacian", dim=2, gamma=0.5)
        assert k.descriptor["family"] == "laplacian"
        assert k.dim == 2
        with pytest.raises(ParameterError):
            make_base_kernel("matern", dim=1)


class TestSymmetryAndBounds:
    def test_symmetry_is_exact_for_every_construction(self):
        rng = np.random.default_rng(0)
        for name, k in all_kernel_specimens().items():
            for _ in range(25):
                x = rng.uniform(-3, 3, k.dim)
                y = rng.uniform(-3, 3, k.dim)
                assert k(x, y) == k(y, x), name

    def test_sampled_values_respect_sup_bound(self):
        rng = np.random.default_rng(1)
        for name, k in all_kernel_specimens().items():
            pts = random_points(rng, 40, k.dim)
            G = gram(k, pts)
            assert np.max(np.abs(G)) <= k.sup_bound + 1e-12, name


class TestSquaredDistances:
    @pytest.mark.parametrize("dim", range(1, 10))
    def test_equal_the_last_axis_sum_bit_for_bit(self, dim):
        rng = np.random.default_rng(dim)
        for n, m in [(1, 1), (1, 7), (3, 5), (17, 33), (64, 1), (100, 100), (2, 2048)]:
            for scale in (1e-3, 1.0, 1e3):
                # coordinates of different magnitudes make the order of the
                # additions visible in the last bits
                X = rng.standard_normal((n, dim)) * scale * rng.uniform(0.1, 10, dim)
                Y = rng.standard_normal((m, dim)) * scale
                want = ((X[:, None] - Y[None]) ** 2).sum(-1)
                assert _sqdist(X, Y).tobytes() == want.tobytes(), (n, m, scale)

    def test_self_distances_are_exactly_symmetric(self):
        rng = np.random.default_rng(9)
        for dim in (1, 3, 7, 8):
            X = rng.standard_normal((40, dim))
            D = _sqdist(X, X)
            assert np.array_equal(D, D.T)
            assert not D.diagonal().any()


def underflow_edge_arguments():
    """exp arguments across the underflow edge: plain lanes, the subnormal
    band (-745.13, -708.4) finely enough to hit (-745.13, -745.0), lanes
    that underflow to 0, and the infinities and nan."""
    band = np.linspace(-800.0, -700.0, 10001)
    specials = [0.0, -0.0, -1.0, -708.4, -745.0, -745.1, -745.13, -745.2, -746.0, -1e300]
    return np.concatenate([band, specials, [-np.inf, np.inf, np.nan]])


def alternating_runs(live_value, dead_value):
    """Rows of live and dead runs of every length 1 to 17, each row shifted
    by 0 to 8 leading dead lanes so the runs start at every alignment."""
    runs = []
    for length in range(1, 18):
        runs += [live_value] * length + [dead_value] * length
    return [[dead_value] * shift + runs for shift in range(9)]


class TestUnderflowFreeExp:
    """_exp skips numpy's slow underflow lanes and keeps np.exp's bits."""

    def test_equals_np_exp_across_the_underflow_edge(self):
        t = underflow_edge_arguments()
        # at least a quarter of the lanes underflow, so they are set directly
        assert t.size >= _EXP_CHECK_MIN and 4 * np.count_nonzero(t < -746.0) >= t.size
        assert np.count_nonzero((t > -745.13) & (t < -745.0)) > 5
        want = np.exp(t)
        assert _exp(t.copy()).tobytes() == want.tobytes()
        assert _exp(t.reshape(6, -1).copy()).tobytes() == want.tobytes()
        # few underflowing lanes, and a block too small to check
        mostly_live = np.concatenate([t, np.linspace(-700.0, 0.0, 3 * t.size)])
        assert _exp(mostly_live.copy()).tobytes() == np.exp(mostly_live).tobytes()
        assert _exp(t[:100].copy()).tobytes() == np.exp(t[:100]).tobytes()
        # the zeros are +0.0, as np.exp gives
        assert not np.signbit(_exp(t.copy())).any()

    def test_live_runs_of_every_length_and_alignment(self, monkeypatch):
        monkeypatch.setattr(kernels, "_EXP_CHECK_MIN", 1)
        for row in alternating_runs(-1.25, -800.0):
            t = np.array(row * 4)
            assert _exp(t.copy()).tobytes() == np.exp(t).tobytes()
        for row in alternating_runs(-745.1, -np.inf):
            t = np.array(row * 4)
            assert _exp(t.copy()).tobytes() == np.exp(t).tobytes()

    @pytest.mark.parametrize("check_min", [1, _EXP_CHECK_MIN])
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_base_families_equal_the_plain_formula(self, monkeypatch, check_min):
        monkeypatch.setattr(kernels, "_EXP_CHECK_MIN", check_min)
        t = underflow_edge_arguments()
        t = t[np.isfinite(t) & (t <= 0.0)]
        origin = np.zeros((1, 1))
        # one point at the origin, the others where exp's argument is t;
        # the last pair's squared distance overflows, so its argument is -inf
        X = np.array([[0.0], [1e200]])
        for sigma in (1.0, 0.37):
            k = gaussian(sigma)
            Y = np.concatenate([np.sqrt(-2.0 * sigma**2 * t)[:, None], [[-1e200]]])
            want = np.exp(-_sqdist(X, Y) / (2.0 * sigma**2))
            assert k.block(X, Y).tobytes() == want.tobytes()
            assert want[1, -1] == 0.0 and np.isinf(_sqdist(X, Y)[1, -1])
            assert k.block(origin, Y[:-1]).tobytes() == want[:1, :-1].tobytes()
        for gamma in (1.0, 2.5):
            k = laplacian(gamma)
            Y = np.concatenate([(-t / gamma)[:, None], [[-1e200]]])
            want = np.exp(-gamma * np.sqrt(_sqdist(X, Y)))
            assert k.block(X, Y).tobytes() == want.tobytes()

    @pytest.mark.parametrize("check_min", [1, _EXP_CHECK_MIN])
    def test_compositions_equal_their_plain_exp_evaluation(self, monkeypatch, check_min):
        # widely spread points: most pairs underflow, a band of them is subnormal
        rng = np.random.default_rng(11)
        X = np.concatenate([rng.uniform(-60.0, 60.0, (40, 2)), [[1e5, 0.0], [-1e5, 0.0]]])
        Y = np.concatenate([rng.uniform(-60.0, 60.0, (70, 2)), [[0.0, 1e5]]])
        specimens = table_specimens(2)
        monkeypatch.setattr(kernels, "_EXP_CHECK_MIN", check_min)
        got = [(k.block(X, Y).tobytes(), k.block(X, X).tobytes()) for _, k in specimens]
        monkeypatch.setattr(kernels, "_exp", np.exp)
        for (name, k), (block, square) in zip(specimens, got):
            assert block == k.block(X, Y).tobytes(), name
            assert square == k.block(X, X).tobytes(), name


class TestShift:
    def test_shift_adds_constant(self):
        k = shift_kernel(gaussian(1.0), 1.0)
        assert k(0.0, 0.0) == 2.0

    def test_zero_shift_is_identity_pointwise(self):
        base = gaussian(1.0)
        k = shift_kernel(base, 0.0)
        grid = np.linspace(-4, 4, 33)[:, None]
        assert np.array_equal(gram(k, grid), gram(base, grid))
        assert k.claims_c0

    def test_negative_shift_rejected(self):
        with pytest.raises(ParameterError):
            shift_kernel(gaussian(1.0), -0.5)

    def test_positive_shift_drops_c0_claim_and_raises_bound(self):
        k = shift_kernel(gaussian(1.0), 1.0)
        assert not k.claims_c0
        assert k.sup_bound == 2.0


class TestScale:
    def test_zero_of_field_kills_row(self):
        k = scale_kernel(gaussian(1.0), c0_bump_at([0.0]))
        for y in (-2.0, 0.5, 7.0):
            assert k(0.0, y) == 0.0

    def test_matches_manual_product(self):
        # g(x) = exp(-x^2): value at (1, 1) is exp(-1) * 1 * exp(-1)
        g = ScalarField(
            fn=lambda X: np.exp(-(X**2).sum(axis=1)),
            dim=1,
            is_c0=True,
            sup=1.0,
        )
        k = scale_kernel(gaussian(1.0), g)
        assert k(1.0, 1.0) == pytest.approx(math.exp(-1.0) ** 2, abs=1e-15)
        assert k(1.0, 1.0) == pytest.approx(EXP_TWO, abs=1e-12)

    def test_metadata_propagation(self):
        base = gaussian(1.0)
        g = c0_bump_at([0.0])
        k = scale_kernel(base, g)
        assert k.claims_c0
        assert k.sup_bound == pytest.approx(C0_BUMP_SUP**2, rel=1e-12)
        undeclared = ScalarField(fn=lambda X: np.ones(X.shape[0]), dim=1, is_c0=False)
        assert scale_kernel(base, undeclared).sup_bound == math.inf

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            scale_kernel(gaussian(1.0, dim=2), c0_bump_at([0.0]))


class TestCenter:
    def test_expanded_four_term_value(self):
        # <delta_1 - delta_0, delta_1 - delta_0> = k(1,1) - 2 k(1,0) + k(0,0)
        expected = 1.0 - 2.0 * EXP_HALF + 1.0
        k = center_kernel(gaussian(1.0), dirac(0.0), 0.0)
        assert k(1.0, 1.0) == pytest.approx(expected, abs=1e-14)
        assert k(1.0, 1.0) == pytest.approx(0.7869386805747332, abs=1e-12)

    def test_offset_adds_constant(self):
        k0 = center_kernel(gaussian(1.0), dirac(0.0), 0.0)
        k1 = center_kernel(gaussian(1.0), dirac(0.0), 1.0)
        assert k1(0.3, -0.7) == pytest.approx(k0(0.3, -0.7) + 1.0, abs=1e-15)

    def test_requires_probability_measure(self):
        signed = dirac(0.0) - dirac(1.0)
        with pytest.raises(MeasureError):
            center_kernel(gaussian(1.0), signed, 0.0)
        with pytest.raises(ParameterError):
            center_kernel(gaussian(1.0), dirac(0.0), -0.1)

    def test_descriptor_rows_equal_a_per_atom_build(self):
        rng = np.random.default_rng(3)
        for dim in (1, 3):
            w = rng.random(6)
            p = SignedDiscreteMeasure(rng.standard_normal((6, dim)) * 1e3, w / w.sum(), dim)
            k = center_kernel(gaussian(1.0, dim=dim), p, 0.25)
            want = [[list(map(float, at)), float(wt)] for at, wt in zip(p.atoms, p.weights)]
            rows = k.descriptor["p"]
            assert rows == want
            assert all(type(v) is float for at, wt in rows for v in at + [wt])

    def test_tiles_equal_one_block_and_one_tile_is_one_call(self, monkeypatch):
        rng = np.random.default_rng(4)
        base = gaussian(1.3, dim=2)
        calls = []

        def counted(a, b):
            calls.append(len(a[0]))
            return base.block_fn(a, b)

        child = Kernel(counted, 2, 1.0, True, {"family": "counted"})
        w = rng.random(50)
        p = SignedDiscreteMeasure(rng.uniform(-2, 2, (50, 2)), w / w.sum(), 2)
        X = rng.uniform(-3, 3, (400, 2))
        whole = center_kernel(child, p, 0.5)
        # |p|^2 fits in one tile, and so do 327 rows of m(X)
        assert calls == [50]
        calls.clear()
        column = whole.table(X[:327]).columns[-1]
        assert calls == [327]
        assert column.tobytes() == (base.block(X[:327], p.atoms) * p.weights).sum(axis=1).tobytes()
        calls.clear()
        assert whole.table(X).columns[-1][:327].tobytes() == column.tobytes()
        assert calls == [327, 73]
        # tiles of a few rows give the same bits
        monkeypatch.setattr(accumulate, "TILE_ENTRIES", 64)
        calls.clear()
        tiled = center_kernel(child, p, 0.5)
        column = tiled.table(X).columns[-1]
        assert set(calls) == {1}
        assert column.tobytes() == whole.table(X).columns[-1].tobytes()
        assert tiled([0.0, 0.0], [1.0, 0.5]) == whole([0.0, 0.0], [1.0, 0.5])
        assert tiled.block(X, X).tobytes() == whole.block(X, X).tobytes()

    def test_a_large_p_takes_bounded_memory(self):
        rng = np.random.default_rng(5)
        p = SignedDiscreteMeasure(rng.uniform(-5, 5, (2000, 1)), np.full(2000, 1 / 2000), 1)
        a, b = (
            SignedDiscreteMeasure(rng.uniform(-9, 9, (1024, 1)), np.full(1024, 1 / 1024), 1)
            for _ in range(2)
        )
        tracemalloc.start()
        try:
            k = center_kernel(gaussian(1.0), p)
            built = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            mmd(k, a, b)
            compared = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one |p| x |p| block took 34 MiB, and m(X) an |X| x |p| block
        assert built < 4 * 2**20
        assert compared < 4 * 2**20

    def test_gram_exactly_symmetric(self):
        rng = np.random.default_rng(2)
        p_atoms = rng.uniform(-1, 1, (5, 2))
        w = rng.random(5)
        p = SignedDiscreteMeasure(p_atoms, w / w.sum(), 2)
        k = center_kernel(gaussian(1.0, dim=2), p, 0.5)
        pts = random_points(rng, 30, 2)
        G = gram(k, pts)
        assert np.array_equal(G, G.T)


class TestC0Probe:
    def test_gaussian_trace_matches_closed_form(self):
        trace = c0_probe(gaussian(1.0), 0.0, radii=[1.0, 2.0, 4.0])
        expected = [math.exp(-0.5), math.exp(-2.0), math.exp(-8.0)]
        np.testing.assert_allclose(trace.values, expected, atol=1e-15)
        assert trace.passed  # e^-8 ~ 3.4e-4 < 1e-3

    def test_shifted_kernel_never_decays(self):
        trace = c0_probe(shift_kernel(gaussian(1.0), 1.0), 0.0, radii=[1.0, 4.0, 16.0])
        assert np.all(trace.values >= 1.0)
        assert not trace.passed

    def test_laplacian_trace_monotone(self):
        trace = c0_probe(laplacian(1.0), 0.0, radii=list(range(1, 21)))
        assert np.all(np.diff(trace.values) < 0)

    def test_validation(self):
        k = gaussian(1.0)
        with pytest.raises(ParameterError):
            c0_probe(k, 0.0, radii=[])
        with pytest.raises(ParameterError):
            c0_probe(k, 0.0, radii=[2.0, 1.0])

    @pytest.mark.parametrize(
        "radii",
        [[math.nan], [1.0, math.nan], [1.0, math.inf], [-math.inf], [math.inf], [0.0]],
        ids=["nan", "then-nan", "then-inf", "-inf", "inf", "zero"],
    )
    def test_bad_radii_are_named(self, radii):
        with pytest.raises(ParameterError, match=r"radii \[.*\] must be finite"):
            c0_probe(gaussian(1.0), 0.0, radii=radii)

    def test_samples_per_sphere_come_from_the_module_constant(self, monkeypatch):
        monkeypatch.setattr(kernels, "C0_PROBE_SAMPLES", 3)
        k = gaussian(1.0, dim=2)
        x = np.array([0.5, -0.25])
        dirs = np.random.default_rng(4).standard_normal((3, 2))
        dirs /= np.sqrt((dirs**2).sum(axis=1))[:, None]
        trace = c0_probe(k, x, radii=[1.0, 2.0], seed=4)
        for r, value in zip([1.0, 2.0], trace.values):
            assert value == np.abs(k.block(x[None, :], r * dirs)).max()


class TestGram:
    def test_singleton(self):
        k = gaussian(1.0)
        G = gram(k, [[0.5]], [[0.5]])
        assert G.shape == (1, 1) and G[0, 0] == 1.0

    def test_exact_symmetry(self):
        rng = np.random.default_rng(3)
        pts = random_points(rng, 50, 3)
        G = gram(gaussian(1.0, dim=3), pts)
        assert np.max(np.abs(G - G.T)) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            gram(gaussian(1.0, dim=2), [[0.0], [1.0]])

    def test_min_eigenvalue_within_tolerance(self):
        rng = np.random.default_rng(4)
        pts = random_points(rng, 50, 2)
        k = gaussian(1.0, dim=2)
        G = gram(k, pts)
        min_eig = float(np.linalg.eigvalsh(G)[0])
        assert min_eig >= -psd_tolerance(50, k.sup_bound)
        assert min_eig >= -1e-8


class TestScalarFields:
    def test_bump_field_zero_only_at_xi(self):
        g = c0_bump_at([1.0, -1.0])
        assert g([1.0, -1.0]) == 0.0
        rng = np.random.default_rng(5)
        pts = random_points(rng, 50, 2)
        vals = g.values(pts)
        assert np.all(vals > 0)

    def test_bump_field_decays_and_respects_sup(self):
        g = c0_bump_at([0.0])
        assert g([100.0]) < g([10.0]) < g([2.0 ** 0.25 * 1.0001]) <= C0_BUMP_SUP + 1e-12
        # declared sup is attained at |x - xi| = 2^(1/4)
        assert g([2.0**0.25]) == pytest.approx(C0_BUMP_SUP, abs=1e-12)

    def test_null_field_zeroes_every_listed_point(self):
        g = c0_null_at([[0.0], [2.0]])
        assert g([0.0]) == 0.0 and g([2.0]) == 0.0
        assert g([1.0]) > 0

    def test_saturating_field_is_not_c0(self):
        g = saturating_at([0.0])
        assert not g.is_c0
        assert g([0.0]) == 0.0
        assert g([50.0]) == pytest.approx(1.0, abs=1e-12)


def test_descriptor_tree_survives_composition():
    k = shift_kernel(scale_kernel(gaussian(1.0), c0_bump_at([0.0])), 1.0)
    d = k.descriptor
    assert d["op"] == "shift" and d["c"] == 1.0
    assert d["child"]["op"] == "scale"
    assert d["child"]["field"]["g"] == "c0_bump_at"
    assert d["child"]["child"] == {"family": "gaussian", "sigma": 1.0, "dim": 1}


def table_specimens(dim, width=1.0):
    """Each base family plain, shifted, scaled, scaled twice, shifted after
    a scaling, recentred, and recentred after a scaling, as (name, kernel)
    pairs; ``width`` is the gaussian sigma, the laplacian gamma and the
    inverse multiquadric c."""
    xi = np.zeros(dim)
    xi2 = np.full(dim, 0.5)
    p = SignedDiscreteMeasure(np.stack([xi, xi2, -xi2]), np.array([0.5, 0.25, 0.25]), dim)
    params = {"gaussian": "sigma", "laplacian": "gamma", "inverse_multiquadric": "c"}
    out = []
    for family, param in params.items():
        base = make_base_kernel(family, dim=dim, **{param: width})
        scaled = scale_kernel(base, c0_bump_at(xi))
        out += [
            (f"{family}", base),
            (f"shift-{family}", shift_kernel(base, 0.5)),
            (f"scale-{family}", scaled),
            (f"scale-scale-{family}", scale_kernel(scaled, c0_null_at(np.stack([xi, xi2])))),
            (f"shift-scale-{family}", shift_kernel(scaled, 1.0)),
            (f"center-{family}", center_kernel(base, p, 0.0)),
            (f"center-scale-{family}", center_kernel(scaled, p, 0.5)),
        ]
    return out


class TestPointTables:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_table_blocks_equal_point_blocks_bit_for_bit(self, dim):
        rng = np.random.default_rng(60 + dim)
        X = random_points(rng, 53, dim)
        Y = random_points(rng, 31, dim)
        for name, k in table_specimens(dim):
            TX, TY = k.table(X), k.table(Y)
            assert np.array_equal(TX.points, X), name
            for rows in (slice(None), slice(0, 1), slice(7, 30), slice(30, None), [4, 0, 52]):
                want = k.block(X[rows], Y).tobytes()
                assert k.block(TX[rows], TY).tobytes() == want, name
                # a table on one side only
                assert k.block(TX[rows], Y).tobytes() == want, name
            assert k.block(TX[5:20], TX[10:]).tobytes() == k.block(X[5:20], X[10:]).tobytes(), name
            # a single value k(x, y) is evaluated through the same columns
            whole = k.block(X, Y)
            for i in (0, 4, 17, 52):
                got = np.array([k(X[i], y) for y in Y])
                assert got.tobytes() == whole[i].tobytes(), name
            square = k.block(X, X)
            assert np.array([k(x, x) for x in X]).tobytes() == square.diagonal().tobytes(), name

    def test_tables_of_other_kernels_are_refused(self):
        X = np.linspace(-2.0, 2.0, 9)[:, None]
        k = gaussian(1.0)
        twin = gaussian(1.0)  # an equal descriptor, another object
        assert twin.descriptor == k.descriptor
        for other in (twin, shift_kernel(k, 0.0), scale_kernel(k, c0_bump_at(0.0))):
            with pytest.raises(ParameterError, match="another kernel"):
                k.block(other.table(X), X)
            with pytest.raises(ParameterError, match="another kernel"):
                k.block(X, other.table(X)[2:4])
            with pytest.raises(ParameterError, match="another kernel"):
                k.table(X) + other.table(X)

    def test_tables_validate_their_points_once(self):
        k = scale_kernel(gaussian(1.0, dim=2), c0_bump_at([0.0, 0.0]))
        with pytest.raises(ParameterError):
            k.table([[0.0, np.inf]])
        with pytest.raises(DimensionMismatchError):
            k.table(np.zeros((3, 3)))
        T = k.table(np.zeros((0, 2)))
        assert len(T) == 0
        assert k.block(T, np.ones((4, 2))).shape == (0, 4)
        assert k.block(np.ones((4, 2)), T).shape == (4, 0)

    def test_recentred_table_holds_the_mean_embedding_column(self):
        p = SignedDiscreteMeasure(np.array([[0.0], [1.0]]), np.array([0.25, 0.75]), 1)
        base = gaussian(1.0)
        k = center_kernel(base, p, 0.5)
        X = np.array([[0.0], [2.0], [-1.5]])
        T = k.table(X)
        assert len(T.columns) == 2
        m = [math.fsum(w * base(x, a) for a, w in zip(p.atoms, p.weights)) for x in X]
        np.testing.assert_allclose(T.columns[1], m, rtol=1e-15)

    def test_a_block_of_points_against_themselves_reads_them_once(self):
        calls = []

        def fn(X):
            calls.append(len(X))
            return c0_bump_at([0.0]).fn(X)

        g = ScalarField(fn=fn, dim=1, is_c0=True, sup=C0_BUMP_SUP)
        k = center_kernel(scale_kernel(gaussian(1.0), g), dirac(0.5))
        calls.clear()
        X = np.array([[0.0], [1.0], [3.0]])
        k.block(X, X)
        assert calls == [3]
        k.block(X, X.copy())
        assert calls == [3, 3, 3]

    def test_scaled_table_holds_the_field_column(self):
        g = c0_bump_at([1.0])
        k = shift_kernel(scale_kernel(gaussian(1.0), g), 1.0)
        X = np.array([[0.0], [1.0], [3.0]])
        T = k.table(X)
        assert isinstance(T, PointTable) and T.kernel is k
        assert len(T.columns) == 2
        assert T.columns[1].tobytes() == g.fn(X).tobytes()

    def test_concatenated_tables_equal_the_table_of_the_points(self):
        X = np.array([[0.5], [1.5], [2.5], [-0.75], [3.0]])
        specimens = dict(table_specimens(1))
        for name in ("gaussian", "scale-gaussian", "shift-scale-gaussian", "center-gaussian"):
            k = specimens[name]
            T = k.table(X)
            for a in range(1, len(X)):
                joined = T[:a] + T[a:]
                assert joined.kernel is k, name
                assert len(joined.columns) == len(T.columns), name
                for got, want in zip(joined.columns, T.columns):
                    assert got.tobytes() == want.tobytes(), name
            got = k.block(T[[2]] + T[[0]], T)
            assert got.tobytes() == k.block(X[[2, 0]], X).tobytes(), name

    def test_adding_a_table_of_no_points_returns_the_other(self):
        k = scale_kernel(gaussian(1.0), c0_bump_at(0.0))
        T = k.table(np.array([[0.5], [1.5], [2.5]]))
        empty = k.table(np.zeros((0, 1)))
        # the points column alone: a zip of the columns would drop the field
        assert len(empty.columns) == 1 and len(T.columns) == 2
        assert empty + T is T
        assert T + empty is T
        assert T[:0] + T is T

    def test_tables_are_never_written(self):
        k = scale_kernel(gaussian(1.0), c0_bump_at(0.0))
        T = k.table(np.array([[0.5], [1.5], [2.5]]))
        with pytest.raises(TypeError):
            T[0:1] = T[2:3]
        assert T.points.tobytes() == np.array([[0.5], [1.5], [2.5]]).tobytes()

    def test_a_single_index_is_refused(self):
        # X[i] is one point, not a table of one row, so tables take no int
        k = scale_kernel(gaussian(1.0), c0_bump_at(0.0))
        T = k.table(np.array([[0.5], [1.5], [2.5]]))
        for i in (1, np.int64(1), np.array(1)):
            with pytest.raises(TypeError, match="slice"):
                T[i]

    def test_empty_sides_never_evaluate_the_field(self):
        # a field may reduce over its rows, so it is never given none
        def fn(X):
            if not len(X):
                raise AssertionError("field evaluated on no points")
            return np.exp(-(X**2).sum(axis=1) / X.shape[0])

        k = scale_kernel(gaussian(1.0, dim=2), ScalarField(fn=fn, dim=2, is_c0=True, sup=1.0))
        X = np.ones((3, 2))
        empty = k.table(np.zeros((0, 2)))
        assert len(empty) == 0 and len(empty.columns) == 1
        for a, b in ((empty, X), (X, empty), (np.zeros((0, 2)), X), (k.table(X)[3:], X)):
            assert k.block(a, b).shape == (len(a), len(b))
        assert gram(k, np.zeros((0, 2))).shape == (0, 0)

    def test_gram_and_probe_read_tables(self, monkeypatch):
        k = scale_kernel(gaussian(1.0, dim=2), c0_bump_at([0.0, 0.0]))
        X = random_points(np.random.default_rng(7), 12, 2)
        assert gram(k, X).tobytes() == k.block(X, X).tobytes()
        monkeypatch.setattr(kernels, "C0_PROBE_SAMPLES", 4)
        trace = c0_probe(k, [0.5, 0.5], radii=(1.0, 2.0))
        assert trace.values.shape == (2,)


def test_kernels_compare_and_hash_by_identity():
    k, twin = gaussian(1.0), gaussian(1.0)
    assert k == k and k != twin
    assert hash(k) == hash(k)
    table = {k: "k", twin: "twin"}
    assert table[k] == "k" and table[twin] == "twin"


def test_random_compositions_keep_the_tiling_contract(monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    hnp = pytest.importorskip("hypothesis.extra.numpy")

    # whole blocks take the underflow check and the smallest tiles do not
    monkeypatch.setattr(kernels, "_EXP_CHECK_MIN", 16)
    coords = st.floats(-4.0, 4.0, allow_nan=False)

    def points(shape):
        # every element drawn, not one fill value repeated
        return hnp.arrays(np.float64, shape, elements=coords, fill=st.nothing())

    widths = st.floats(0.3, 3.0)
    bases = {
        "gaussian": lambda w, dim: gaussian(w, dim=dim),
        "laplacian": lambda w, dim: laplacian(1.0 / w, dim=dim),
        "inverse_multiquadric": lambda w, dim: inverse_multiquadric(w, 0.5 * w, dim=dim),
    }

    @st.composite
    def composed(draw, dim):
        k = bases[draw(st.sampled_from(sorted(bases)))](draw(widths), dim)
        # nested up to depth 3
        for op in draw(st.lists(st.sampled_from(["shift", "scale", "center"]), max_size=3)):
            if op == "shift":
                k = shift_kernel(k, draw(st.floats(0.0, 2.0)))
            elif op == "scale":
                k = scale_kernel(k, c0_bump_at(draw(points(dim))))
            else:
                n = draw(st.integers(1, 9))
                atoms = draw(points((n, dim)))
                w = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=n, max_size=n)))
                p = SignedDiscreteMeasure(atoms, w / w.sum(), dim)
                k = center_kernel(k, p, draw(st.floats(0.0, 2.0)))
        return k

    @st.composite
    def cases(draw):
        dim = draw(st.integers(1, 3))
        # widely spread points make most exp arguments underflow
        spread = draw(st.sampled_from([1.0, 12.0, 40.0, 1e3]))
        X = spread * draw(points((draw(st.integers(1, 24)), dim)))
        Y = spread * draw(points((draw(st.integers(1, 24)), dim)))
        return draw(composed(dim)), X, Y

    def span(draw, n):
        start = draw(st.integers(0, n - 1))
        return slice(start, draw(st.integers(start + 1, n)))

    @hypothesis.settings(max_examples=80, deadline=None)
    @hypothesis.given(cases(), st.data())
    def check(case, data):
        k, X, Y = case
        rows, cols = span(data.draw, len(X)), span(data.draw, len(Y))
        full = k.block(X, Y)
        assert k.block(X[rows], Y[cols]).tobytes() == full[rows, cols].tobytes()
        square = k.block(X, X)
        assert square.tobytes() == square.T.tobytes()
        assert k.block(X[rows], X).tobytes() == square[rows].tobytes()
        T = k.table(X)
        assert k.block(T[rows], Y).tobytes() == k.block(X[rows], Y).tobytes()
        assert k.block(T[rows], T).tobytes() == square[rows].tobytes()

    check()


# the far-field rule each specimen of table_specimens declares: its value,
# or None for no rule
FAR_VALUES = {
    "gaussian": 0.0,
    "shift-gaussian": 0.5,
    "scale-gaussian": 0.0,
    "scale-scale-gaussian": 0.0,
    "shift-scale-gaussian": 1.0,
    "laplacian": 0.0,
    "shift-laplacian": 0.5,
    "scale-laplacian": 0.0,
    "scale-scale-laplacian": 0.0,
    "shift-scale-laplacian": 1.0,
}

# numpy's AVX-512 exp rounds some lanes differently from its AVX2 and
# baseline versions, so the rule is checked with them switched off too
AVX512_OFF = "X86_V4 AVX512_ICL AVX512_SPR"


def beyond(x, y, radius):
    """Whether x and y are more than ``radius`` apart in exact arithmetic."""
    gap = sum((Fraction(float(a)) - Fraction(float(b))) ** 2 for a, b in zip(x, y))
    return gap > Fraction(radius) ** 2


def just_beyond(x, u, radius, excess):
    """x + radius (1 + excess) v, for v the unit vector along u (or the
    first axis if u is 0), moved an ulp at a time along v until it is more
    than ``radius`` from x exactly."""
    top = np.abs(u).max()
    if top == 0:
        u = np.eye(len(x))[0]
    else:
        # scaled first, so no square underflows and v is a unit vector
        # to within a few ulps
        u = u / top
        u = u / np.sqrt((u**2).sum())
    y = x + (radius * (1.0 + excess)) * u
    away = np.where(u < 0, -np.inf, np.inf)
    for _ in range(64):
        if beyond(x, y, radius):
            return y
        y = np.nextafter(y, away)
    raise AssertionError(f"no point placed just beyond {radius} from {x}")


class TestFarField:
    def test_rules_compose_as_declared(self):
        for dim in (1, 3):
            for name, k in table_specimens(dim):
                rule = k.far_field(np.zeros((2, dim)))
                if name not in FAR_VALUES:
                    assert rule is None, name
                    continue
                radius, value = rule
                assert value == FAR_VALUES[name] and not math.copysign(1.0, value) < 0, name
                base = math.sqrt(1492.0) if "gaussian" in name else 746.0
                assert base < radius < base * (1.0 + 1e-5), name

    def test_radius_tracks_the_width(self):
        for width in (1e-3, 1.0, 1e3):
            assert gaussian(width).far_field([0.0])[0] == pytest.approx(38.626 * width, rel=1e-4)
            assert laplacian(width).far_field([0.0])[0] == pytest.approx(746.0 / width, rel=1e-5)

    def test_no_rule_where_a_square_would_underflow_or_overflow(self):
        for k in (gaussian(1e-160), gaussian(1e153), laplacian(1e160), laplacian(1e-160)):
            assert k.far_field([0.0]) is None

    def test_rule_needs_points(self):
        assert gaussian(1.0).far_field(np.zeros((0, 1))) is None

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "values",
        [[1.0, np.inf], [1.0, np.nan], [1.0, -np.inf], [2.0, -0.5], [1.0, -0.0], [1.0, 1e155]],
        ids=["inf", "nan", "-inf", "negative", "-0.0", "square-overflows"],
    )
    def test_field_column_that_could_spoil_the_zero_disables_the_rule(self, values):
        g = ScalarField(fn=lambda X: np.where(X[:, 0] > 50.0, values[1], values[0]), dim=1, is_c0=False)
        base = gaussian(1.0)
        X = np.array([[0.0], [100.0], [200.0]])
        for k in (scale_kernel(base, g), shift_kernel(scale_kernel(base, g), 1.0)):
            assert k.far_field(X) is None
            assert k.far_field(X[:1]) is not None
        # the rule would have claimed +0.0 for every pair, which are all far
        whole = scale_kernel(base, g).block(X, X)
        assert whole[~np.eye(3, dtype=bool)].tobytes() != np.zeros(6).tobytes()

    def test_scale_of_a_nonzero_far_value_has_no_rule(self):
        bump = c0_bump_at([0.0])
        assert scale_kernel(shift_kernel(gaussian(1.0), 1.0), bump).far_field([0.0]) is None
        assert shift_kernel(scale_kernel(gaussian(1.0), bump), 0.0).far_field([0.0]) == (
            gaussian(1.0).far_field([0.0])
        )

    def test_rule_holds_bit_for_bit(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        hnp = pytest.importorskip("hypothesis.extra.numpy")

        @st.composite
        def cases(draw):
            dim = draw(st.integers(1, 3))
            width = 10.0 ** draw(st.floats(-3.0, 3.0))
            reach = 10.0 ** draw(st.floats(0.0, 8.0))
            n = draw(st.integers(1, 6))
            coords = st.floats(-reach, reach, allow_nan=False)
            X = draw(hnp.arrays(np.float64, (n, dim), elements=coords, fill=st.nothing()))
            U = draw(hnp.arrays(np.float64, (n, dim), elements=st.floats(-1.0, 1.0)))
            # down to a few ulps past the radius, and up to 1e-3 past it
            excess = 10.0 ** draw(st.floats(-16.0, -3.0))
            return width, X, U, excess

        @hypothesis.settings(max_examples=60, deadline=None)
        @hypothesis.given(cases())
        def check(case):
            width, X, U, excess = case
            dim = X.shape[1]
            for name, k in table_specimens(dim, width):
                if name not in FAR_VALUES:
                    continue
                radius = gaussian(width, dim).far_field(X)[0] if "gaussian" in name else (
                    laplacian(width, dim).far_field(X)[0]
                )
                pairs = [just_beyond(x, u, radius, excess) for x, u in zip(X, U)]
                if name in ("gaussian", "laplacian"):
                    # past the radius the exp argument is below -746 with the
                    # block's own float operations, not merely where exp
                    # happens to give 0 (from about -745.13)
                    sq = np.diagonal(_sqdist(X, np.array(pairs)))
                    t = -sq / (2.0 * width**2) if name == "gaussian" else -width * np.sqrt(sq)
                    assert (t < _EXP_ZERO_BELOW).all(), (name, t.max())
                points = np.concatenate([X, np.array(pairs)])
                rule = k.far_field(points)
                assert rule is not None and rule[0] == radius, name
                table = k.table(points)
                n = len(X)
                want = np.full(n, rule[1]).tobytes()
                whole = k.block(table, table)
                got = whole[np.arange(n), n + np.arange(n)]
                assert got.tobytes() == want, (name, got, rule)
                # the other argument order, and one pair at a time
                assert whole[n + np.arange(n), np.arange(n)].tobytes() == want, name
                for i in range(n):
                    one = k.block(table[i : i + 1], table[n + i : n + i + 1])
                    assert one.tobytes() == want[: one.itemsize], name

        check()

    def test_rule_holds_at_the_other_dispatch_level(self):
        from numpy._core import _multiarray_umath

        if os.environ.get("NPY_DISABLE_CPU_FEATURES"):
            pytest.skip("numpy dispatch is already restricted in this process")
        if not set(AVX512_OFF.split()) <= set(_multiarray_umath.__cpu_dispatch__):
            pytest.skip("numpy on this machine has no AVX-512 dispatch to switch off")
        pytest.importorskip("hypothesis")
        test = f"{__file__}::TestFarField::test_rule_holds_bit_for_bit"
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", test],
            cwd=Path(__file__).resolve().parents[1],
            env=dict(os.environ, NPY_DISABLE_CPU_FEATURES=AVX512_OFF),
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "1 passed" in proc.stdout
