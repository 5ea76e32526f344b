"""Tests for kernel construction, algebra and structural probes."""

import math

import numpy as np
import pytest

from mmdlab import (
    C0_BUMP_SUP,
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
    gram,
    inverse_multiquadric,
    laplacian,
    make_base_kernel,
    psd_tolerance,
    saturating_at,
    scale_kernel,
    shift_kernel,
)
from mmdlab.kernels import PointTable, _sqdist

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
        with pytest.raises(ParameterError):
            c0_probe(k, 0.0, radii=[1.0], samples_per_radius=0)


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


def table_specimens(dim):
    """Each base family plain, shifted, scaled, scaled twice, shifted after
    a scaling, recentred, and recentred after a scaling, as (name, kernel)
    pairs."""
    xi = np.zeros(dim)
    xi2 = np.full(dim, 0.5)
    p = SignedDiscreteMeasure(np.stack([xi, xi2, -xi2]), np.array([0.5, 0.25, 0.25]), dim)
    out = []
    for family in ("gaussian", "laplacian", "inverse_multiquadric"):
        base = make_base_kernel(family, dim=dim)
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
            table = k.table(X).reserve(2)
            with pytest.raises(ParameterError, match="another kernel"):
                table[0:1] = other.table(X)[3:4]

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

    def test_rows_are_copied_into_a_reserved_table(self):
        k = scale_kernel(gaussian(1.0), c0_bump_at(0.0))
        X = np.array([[0.5], [1.5], [2.5]])
        T = k.table(X)
        R = T.reserve(2)
        R[0:1] = T[2:3]
        R[1:2] = T[0:1]
        assert R.kernel is k
        assert k.block(R, T).tobytes() == k.block(X[[2, 0]], X).tobytes()

    def test_a_single_index_is_refused(self):
        # X[i] is one point, not a table of one row, so tables take no int
        k = scale_kernel(gaussian(1.0), c0_bump_at(0.0))
        T = k.table(np.array([[0.5], [1.5], [2.5]]))
        R = T.reserve(2)
        for i in (1, np.int64(1), np.array(1)):
            with pytest.raises(TypeError, match="slice"):
                T[i]
            with pytest.raises(TypeError, match="slice"):
                R[i] = T[0:1]
        with pytest.raises(ParameterError, match="at least one point"):
            T[:0].reserve(2)

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

    def test_gram_and_probe_read_tables(self):
        k = scale_kernel(gaussian(1.0, dim=2), c0_bump_at([0.0, 0.0]))
        X = random_points(np.random.default_rng(7), 12, 2)
        assert gram(k, X).tobytes() == k.block(X, X).tobytes()
        trace = c0_probe(k, [0.5, 0.5], radii=(1.0, 2.0), samples_per_radius=4)
        assert trace.values.shape == (2,)


def test_kernels_compare_and_hash_by_identity():
    k, twin = gaussian(1.0), gaussian(1.0)
    assert k == k and k != twin
    assert hash(k) == hash(k)
    table = {k: "k", twin: "twin"}
    assert table[k] == "k" and table[twin] == "twin"


def test_random_compositions_keep_the_tiling_contract():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    hnp = pytest.importorskip("hypothesis.extra.numpy")

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
    def kernels(draw, dim):
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
        X = draw(points((draw(st.integers(1, 24)), dim)))
        Y = draw(points((draw(st.integers(1, 24)), dim)))
        return draw(kernels(dim)), X, Y

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
