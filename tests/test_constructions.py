"""Tests for diffusing sequences, escape constructions and witness kernels."""

import collections
import itertools
import math
import tracemalloc
from dataclasses import astuple, replace

import numpy as np
import pytest

from mmdlab import (
    DegenerateMeasureError,
    ExclusionRegion,
    Kernel,
    MeasureError,
    MeasureSequence,
    NotAWitnessError,
    ParameterError,
    SearchDomain,
    SearchFailureError,
    ScalarField,
    SignedDiscreteMeasure,
    c0_bump_at,
    c0_null_at,
    c0_probe,
    center_kernel,
    diffusing_sequence,
    dirac,
    dirac_null_kernel,
    gaussian,
    identity_residuals,
    laplacian,
    mass_in_ball,
    mmd,
    norm,
    probe_sequence,
    saturating_at,
    scale_kernel,
    shift_kernel,
    verify_diffusing,
)
from mmdlab.constructions import (
    DiffusionCertificate,
    default_indices,
    diffusing_norm_bound,
    equal_mass_pair,
    escape_sequence,
)
from mmdlab import accumulate, constructions
from mmdlab.accumulate import TILE_ENTRIES
from mmdlab.kernels import C0_BUMP_SUP, inverse_multiquadric
from mmdlab.measures import empty_measure
from helpers import dirac_centered_kernel, shifted_dirac_null_kernel


def ball(center, radius, dim=1):
    return ExclusionRegion(np.full(dim, float(center)), radius)


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize(
    "build",
    [
        lambda: shift_kernel(gaussian(1.0), NAN),
        lambda: shift_kernel(gaussian(1.0), INF),
        lambda: center_kernel(gaussian(1.0), dirac(0.0), NAN),
        lambda: center_kernel(gaussian(1.0), dirac(0.0), INF),
        lambda: diffusing_sequence(gaussian(1.0), 8, NAN, ball(0.0, 1.0), SearchDomain(1, "grid")),
        lambda: SearchDomain(1, "grid", step=NAN),
        lambda: SearchDomain(1, "grid", step=INF),
        lambda: mass_in_ball(dirac(0.0), [0.0], NAN),
        lambda: probe_sequence(
            MeasureSequence((dirac(0.0), dirac(1.0))), dirac(0.0), gaussian(1.0), radii=[NAN]
        ),
    ],
    ids=[
        "shift-nan",
        "shift-inf",
        "center-nan",
        "center-inf",
        "diffusing-eps-nan",
        "step-nan",
        "step-inf",
        "ball-radius-nan",
        "probe-radius-nan",
    ],
)
def test_nan_and_infinite_parameters_are_refused(build):
    # each parameter is checked by a comparison that nan fails
    with pytest.raises(ParameterError):
        build()


class TestSearchDomain:
    def test_validation(self):
        with pytest.raises(ParameterError):
            SearchDomain(dim=1, strategy="spiral")
        with pytest.raises(ParameterError):
            SearchDomain(dim=1, step=0.0)
        with pytest.raises(ParameterError):
            SearchDomain(dim=0)


def descriptor_spacing(desc, eps):
    """The ray spacing recovered by walking a kernel's descriptor: the rule
    the diffusing search followed before kernels carried it."""
    target = eps * (1.0 - 1e-9)
    family = desc.get("family")
    if family == "gaussian":
        if target >= 1.0:
            return None
        return desc["sigma"] * math.sqrt(2.0 * math.log(1.0 / target))
    if family == "laplacian":
        if target >= 1.0:
            return None
        return math.log(1.0 / target) / desc["gamma"]
    if family == "inverse_multiquadric":
        if target >= 1.0:
            return None
        return desc["c"] * math.sqrt(target ** (-1.0 / desc["beta"]) - 1.0)
    if desc.get("op") == "scale":
        field = desc.get("field", {})
        name = field.get("g")
        if name == "c0_bump_at":
            sup = C0_BUMP_SUP
        elif name == "c0_null_at":
            sup = C0_BUMP_SUP ** max(1, len(field.get("xis", [])))
        elif name == "saturating_at":
            sup = 1.0
        elif field.get("sup") is not None:
            sup = float(field["sup"])
        else:
            return None
        child_eps = eps / (sup * sup)
        if child_eps >= 1.0:
            return None
        return descriptor_spacing(desc["child"], child_eps)
    return None


SPACING_BASES = [
    gaussian(1.0),
    gaussian(0.3),
    laplacian(1.0),
    laplacian(2.5),
    inverse_multiquadric(1.0, 0.5),
    inverse_multiquadric(2.0, 1.5),
    inverse_multiquadric(0.7, 3.0),
]
SPACING_WRAPS = {
    "plain": lambda k: k,
    "shift": lambda k: shift_kernel(k, 1.0),
    "center": lambda k: center_kernel(k, dirac(0.5), 0.0),
    "bump": lambda k: scale_kernel(k, c0_bump_at(0.0)),
    "null1": lambda k: scale_kernel(k, c0_null_at([0.0])),
    "null3": lambda k: scale_kernel(k, c0_null_at([-1.0, 0.0, 2.0])),
    "saturating": lambda k: scale_kernel(k, saturating_at(0.0)),
    "nested": lambda k: scale_kernel(
        scale_kernel(k, c0_bump_at(1.0)), c0_null_at([0.0, 3.0])
    ),
}
SPACING_EPS = [
    5e-324, 1e-300, 1e-12, 1e-6, 1.0 / 4096, 1.0 / 64, 0.1, 0.25, 0.5,
    1.0 - 1e-9, 1.0, 1.5, 1e300, math.inf,
]


def spacing_bits(rule, k, eps):
    """The bits of a spacing, None, or the error it raises (a tiny eps can
    overflow the inverse multiquadric's power)."""
    try:
        s = rule(k, eps)
    except ArithmeticError as exc:
        return type(exc)
    return None if s is None else s.hex()


class TestSpacing:
    @pytest.mark.parametrize("wrap", SPACING_WRAPS)
    def test_equals_the_descriptor_walk_bit_for_bit(self, wrap):
        for base in SPACING_BASES:
            k = SPACING_WRAPS[wrap](base)
            for eps in SPACING_EPS + [math.nan]:
                new = spacing_bits(lambda k, e: k.spacing(e), k, eps)
                old = spacing_bits(lambda k, e: descriptor_spacing(k.descriptor, e), k, eps)
                assert new == old, (k.descriptor, eps)

    def test_scaled_spacing_uses_the_field_sup(self):
        # a custom field declares its sup on the object, not in a descriptor
        g = ScalarField(fn=lambda X: np.full(X.shape[0], 0.5), dim=1, is_c0=True, sup=0.5)
        k = scale_kernel(gaussian(1.0), g)
        assert k.spacing(0.01) == gaussian(1.0).spacing(0.01 / 0.25)
        assert k.spacing(0.3) is None
        no_sup = scale_kernel(gaussian(1.0), ScalarField(fn=g.fn, dim=1, is_c0=True))
        assert no_sup.spacing(0.01) is None

    def test_descriptor_alone_gives_no_spacing(self):
        base = gaussian(1.0)
        k = Kernel(base.block_fn, 1, 1.0, True, dict(base.descriptor))
        assert k.spacing(0.01) is None

    @pytest.mark.parametrize("eps", [0.0, -1.0, -math.inf])
    def test_nonpositive_eps_rejected(self, eps):
        with pytest.raises(ParameterError):
            diffusing_sequence(gaussian(1.0), 4, eps, ball(0.0, 2.0))

    def test_gaussian_spacing_solves_kernel_equation(self):
        # spec'd worked value: exp(-s^2/2) = 1/4  =>  s = sqrt(2 ln 4)
        s = gaussian(1.0).spacing(0.25)
        assert s == pytest.approx(math.sqrt(2.0 * math.log(4.0)), rel=1e-6)
        assert s == pytest.approx(1.6651, abs=1e-4)
        assert gaussian(1.0)(0.0, s) <= 0.25

    def test_laplacian_and_imq_spacings(self):
        for k in (laplacian(0.5), inverse_multiquadric(1.0, 0.5)):
            s = k.spacing(0.1)
            assert s is not None
            assert k(0.0, s) <= 0.1

    def test_loose_eps_needs_no_spacing(self):
        assert gaussian(1.0).spacing(1.5) is None

    def test_scaled_kernel_spacing_descends_into_child(self):
        k = dirac_null_kernel(gaussian(1.0), [0.0])
        s = k.spacing(1.0 / 64.0)
        assert s is not None
        # conservative: pairwise values of the scaled kernel obey the bound
        assert gaussian(1.0)(0.0, s) * k.sup_bound <= 1.0 / 64.0 * 1.0000001


class TestDiffusingSequence:
    def test_single_point_no_pairwise_constraint(self):
        p = diffusing_sequence(gaussian(1.0), 1, 0.5, ball(0.0, 2.0))
        assert p.support_size == 1
        assert p.weights[0] == 1.0
        assert abs(p.atoms[0, 0]) > 2.0

    def test_certificate_holds_for_worked_size(self):
        k = gaussian(1.0)
        excl = ball(0.0, 3.0)
        p = diffusing_sequence(k, 4, 0.25, excl)
        cert = verify_diffusing(k, p, 0.25, excl)
        assert cert.ok
        assert cert.max_offdiag <= 0.25
        assert cert.min_exclusion_distance > 3.0
        # displayed bound at n=4, eps=1/4: 1/4 + (3/4)(1/4) = 0.4375
        assert cert.norm_bound == 0.4375
        assert cert.norm_sq <= 0.4375

    def test_equal_weights_probability(self):
        p = diffusing_sequence(gaussian(1.0), 8, 0.125, ball(0.0, 1.0))
        assert p.is_probability()
        assert np.all(p.weights == 1.0 / 8.0)

    def test_atoms_clear_exclusion_ball_exactly(self):
        excl = ball(0.0, 5.0)
        p = diffusing_sequence(gaussian(1.0), 16, 1.0 / 16.0, excl)
        assert mass_in_ball(p, 0.0, 5.0) == 0.0

    def test_requires_c0_claim(self):
        from mmdlab import shift_kernel

        with pytest.raises(ParameterError):
            diffusing_sequence(shift_kernel(gaussian(1.0), 1.0), 4, 0.25, ball(0.0, 1.0))

    def test_budget_exhaustion_names_failed_index(self):
        with pytest.raises(SearchFailureError) as err:
            diffusing_sequence(
                gaussian(1.0), 5, 1e-12, ball(0.0, 1.0), max_candidates=3
            )
        assert err.value.failed_index is not None
        assert 1 <= err.value.failed_index <= 5
        assert str(err.value.failed_index) in str(err.value)

    def test_negative_budget_rejected(self):
        with pytest.raises(ParameterError):
            diffusing_sequence(gaussian(1.0), 4, 0.25, ball(0.0, 1.0), max_candidates=-1)

    def test_budget_exhaustion_reports_candidates_scanned(self):
        # the grid's first shell holds 8 points, 4 of them inside the ball;
        # every pair among the first 20 points has a kernel value far above
        # 1e-300, so one atom is all that fits
        excl = ExclusionRegion(np.zeros(2), 1.0)
        dom = SearchDomain(dim=2, strategy="grid")
        with pytest.raises(SearchFailureError) as err:
            diffusing_sequence(gaussian(1.0, dim=2), 3, 1e-300, excl, dom, max_candidates=20)
        assert err.value.failed_index == 2
        assert err.value.candidates_scanned == 20
        assert "scanning 20 " in str(err.value)

    @pytest.mark.parametrize("strategy", ["grid", "random"])
    def test_alternative_strategies_certify(self, strategy):
        k = gaussian(1.0, dim=2)
        excl = ExclusionRegion(np.zeros(2), 2.0)
        dom = SearchDomain(dim=2, strategy=strategy, step=2.5, seed=3)
        p = diffusing_sequence(k, 6, 0.2, excl, dom)
        assert verify_diffusing(k, p, 0.2, excl).ok

    def test_bound_function_strictly_decreasing_in_n(self):
        values = [diffusing_norm_bound(1.0, n, 1.0 / n) for n in (2, 4, 8, 16, 32)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_norm_bound_invariant_across_sizes(self):
        k = gaussian(1.0)
        excl = ball(0.0, 9.0)
        for n in (2, 4, 8, 16):
            p = diffusing_sequence(k, n, 1.0 / n, excl)
            assert norm(k, p) ** 2 <= diffusing_norm_bound(1.0, n, 1.0 / n) + 1e-15


def ray_reference(dom, excl, spacing):
    """Ray points walked one at a time along e1."""
    u = np.zeros(dom.dim)
    u[0] = 1.0
    for m in itertools.count(1):
        yield excl.center + (excl.radius + m * spacing) * u


def grid_reference(dom, excl, spacing=None):
    """Grid shells walked point by point with itertools.product."""
    for shell in itertools.count(1):
        for z in itertools.product(range(-shell, shell + 1), repeat=dom.dim):
            if max(abs(c) for c in z) == shell:
                yield excl.center + dom.step * np.asarray(z, dtype=np.float64)


def random_reference(dom, excl, spacing=None):
    """Seeded isotropic draws, one point per pair of generator calls."""
    rng = np.random.default_rng(dom.seed)
    for m in itertools.count():
        v = rng.standard_normal(dom.dim)
        n = float(np.sqrt((v**2).sum())) or 1.0
        radius = excl.radius + dom.step * (1.0 + 0.25 * m + rng.random())
        yield excl.center + (radius / n) * v


REFERENCE_STREAMS = {
    "ray": ray_reference,
    "grid": grid_reference,
    "random": random_reference,
}


def first_rows(chunks, count):
    """The first ``count`` rows of a stream of candidate arrays."""
    out = []
    while count > 0:
        chunk = next(chunks)[:count]
        out.append(chunk)
        count -= len(chunk)
    return np.concatenate(out)


def greedy_oracle(k, n, eps, excl, dom, max_candidates=200_000):
    """One candidate at a time: (atoms, failed index or None, candidates drawn)."""
    spacing = k.spacing(eps) or dom.step
    stream = REFERENCE_STREAMS[dom.strategy](dom, excl, spacing)
    accepted = []
    drawn = 0
    for cand in itertools.islice(stream, max_candidates):
        drawn += 1
        if excl.contains(cand[None, :])[0]:
            continue
        if accepted:
            vals = k.block(cand[None, :], np.array(accepted))
            if float(np.max(np.abs(vals))) > eps:
                continue
        accepted.append(cand)
        if len(accepted) == n:
            return np.array(accepted), None, drawn
    return np.array(accepted), len(accepted) + 1, drawn


def nan_gaussian(dim):
    """A gaussian that returns nan for pairs 2.5 to 3.5 apart."""
    g = gaussian(1.0, dim=dim)

    def block(a, b):
        out = g.block_fn(a, b)
        X, Y = a[0], b[0]
        sq = ((X[:, None, :] - Y[None, :, :]) ** 2).sum(axis=-1)
        out[(sq > 6.25) & (sq < 12.25)] = np.nan
        return out

    return Kernel(block, dim, 1.0, True, {"family": "nan_gaussian"})


def search_kernels(dim):
    g = gaussian(1.0, dim=dim)
    return {
        "gaussian": g,
        "laplacian": laplacian(0.7, dim=dim),
        "null": dirac_null_kernel(g, np.zeros(dim)),
        # a kernel with no point table of its own, judged in blocks too
        "custom": Kernel(g.block_fn, dim, 1.0, True, {"family": "custom"}),
        "nan": nan_gaussian(dim),
    }


@pytest.fixture
def block_shapes(monkeypatch):
    """Shapes of every Kernel.block result, in call order."""
    shapes = []
    block = Kernel.block

    def recording_block(self, X, Y):
        out = block(self, X, Y)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(Kernel, "block", recording_block)
    return shapes


class TestBatchedSearch:
    """The greedy search, judging each chunk of candidates by a running row
    maximum, decides exactly as a one-at-a-time loop."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("strategy", ["ray", "grid", "random"])
    @pytest.mark.parametrize("kernel", ["gaussian", "laplacian", "null", "custom", "nan"])
    def test_atoms_equal_the_one_at_a_time_loop(self, dim, strategy, kernel):
        k = search_kernels(dim)[kernel]
        excl = ExclusionRegion(np.full(dim, 0.3), 1.5)
        # a step below the kernel's reach makes the grid and random streams
        # reject most candidates, so accepts fall mid-chunk
        dom = SearchDomain(dim=dim, strategy=strategy, step=0.6, seed=dim)
        n = 48 if dim < 3 or strategy == "ray" else 24
        want, failed, _ = greedy_oracle(k, n, 1.0 / n, excl, dom)
        assert failed is None
        got = diffusing_sequence(k, n, 1.0 / n, excl, dom)
        assert got.atoms.tobytes() == want.tobytes()

    @pytest.mark.parametrize("strategy", ["ray", "grid", "random"])
    def test_small_tiles_cap_the_batch(self, monkeypatch, block_shapes, strategy):
        monkeypatch.setattr(accumulate, "TILE_ENTRIES", 64)
        k = gaussian(1.0, dim=2)
        excl = ExclusionRegion(np.zeros(2), 1.0)
        dom = SearchDomain(dim=2, strategy=strategy, step=0.5, seed=5)
        want, _, _ = greedy_oracle(k, 40, 1.0 / 40, excl, dom)
        block_shapes.clear()
        got = diffusing_sequence(k, 40, 1.0 / 40, excl, dom)
        assert got.atoms.tobytes() == want.tobytes()
        assert all(r * c <= 64 for r, c in block_shapes)

    @pytest.mark.parametrize("kernel", ["gaussian", "laplacian", "custom"])
    def test_budget_exhaustion_fails_at_the_same_index(self, kernel):
        k = search_kernels(2)[kernel]
        excl = ExclusionRegion(np.zeros(2), 1.0)
        dom = SearchDomain(dim=2, strategy="grid", step=0.5)
        _, failed, drawn = greedy_oracle(k, 64, 1.0 / 64, excl, dom, max_candidates=900)
        assert failed is not None
        with pytest.raises(SearchFailureError) as err:
            diffusing_sequence(k, 64, 1.0 / 64, excl, dom, max_candidates=900)
        assert err.value.failed_index == failed
        assert err.value.candidates_scanned == drawn == 900

    def test_nan_pairs_are_accepted(self):
        k = nan_gaussian(1)
        excl = ExclusionRegion(np.zeros(1), 1.0)
        dom = SearchDomain(dim=1, strategy="grid", step=1.0)
        # after -2 and 2, the candidates -3 .. 4 are too close to one of them;
        # -5 is 3 from -2, a nan pair, and nan > eps is false
        p = diffusing_sequence(k, 3, 0.01, excl, dom)
        assert p.atoms[:, 0].tolist() == [-2.0, 2.0, -5.0]
        want, _, _ = greedy_oracle(k, 3, 0.01, excl, dom)
        assert p.atoms.tobytes() == want.tobytes()

    @pytest.mark.parametrize("strategy", ["ray", "grid", "random"])
    def test_no_candidate_atom_pair_is_evaluated_twice(self, monkeypatch, strategy):
        k = gaussian(1.0, dim=2)
        excl = ExclusionRegion(np.zeros(2), 1.0)
        # a step well below the kernel's reach: most candidates are rejected
        dom = SearchDomain(dim=2, strategy=strategy, step=0.25, seed=2)
        want, _, _ = greedy_oracle(k, 64, 1.0 / 64, excl, dom)
        pairs = collections.Counter()
        block = Kernel.block

        def recording_block(self, X, Y):
            for x in X.points:
                for y in Y.points:
                    pairs[x.tobytes(), y.tobytes()] += 1
            return block(self, X, Y)

        monkeypatch.setattr(Kernel, "block", recording_block)
        p = diffusing_sequence(k, 64, 1.0 / 64, excl, dom)
        assert p.atoms.tobytes() == want.tobytes()
        assert pairs and sum(pairs.values()) == len(pairs)
        # an atom is judged only against atoms accepted before it
        order = {a.tobytes(): i for i, a in enumerate(p.atoms)}
        for x, y in pairs:
            assert order.get(x, math.inf) > order[y]

    def test_blocks_hold_many_rows_within_a_tile(self, block_shapes):
        k = gaussian(1.0, dim=2)
        excl = ExclusionRegion(np.zeros(2), 2.0)
        dom = SearchDomain(dim=2, strategy="grid", step=0.25)
        diffusing_sequence(k, 256, 1.0 / 256, excl, dom)
        assert max(r for r, _ in block_shapes) > 1
        assert max(r * c for r, c in block_shapes) <= TILE_ENTRIES


def counted_bump(dim):
    """c0_bump_at(0) whose fn records how many rows it evaluates per call."""
    g = c0_bump_at(np.zeros(dim))
    rows = []

    def fn(X):
        rows.append(X.shape[0])
        return g.fn(X)

    return replace(g, fn=fn), rows


class TestFieldEvaluations:
    """A scaled kernel's field runs once per candidate and once per atom."""

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("strategy", ["ray", "grid", "random"])
    def test_search_evaluates_the_field_once_per_drawn_candidate(self, dim, strategy):
        g, rows = counted_bump(dim)
        k = dirac_null_kernel(gaussian(1.0, dim=dim), np.zeros(dim), g)
        excl = ExclusionRegion(np.full(dim, 0.2), 1.5)
        dom = SearchDomain(dim=dim, strategy=strategy, step=0.6, seed=dim)
        n = 40
        want, failed, drawn = greedy_oracle(k, n, 1.0 / n, excl, dom)
        assert failed is None
        # the search takes whole chunks from the stream until the chunk that
        # holds its last atom, and drops the candidates inside the ball
        spacing = k.spacing(1.0 / n) or dom.step
        chunks = constructions.STRATEGIES[strategy](dom, excl, spacing)
        seen = outside = 0
        while seen < drawn:
            chunk = next(chunks)
            seen += len(chunk)
            outside += int((~excl.contains(chunk)).sum())
        rows.clear()
        got = diffusing_sequence(k, n, 1.0 / n, excl, dom)
        assert got.atoms.tobytes() == want.tobytes()
        assert sum(rows) == outside
        rows.clear()
        assert verify_diffusing(k, got, 1.0 / n, excl).ok
        assert sum(rows) == n

    def test_search_never_evaluates_the_field_on_no_points(self, monkeypatch):
        # the first grid chunks hold no point or lie wholly in the ball, so
        # they leave no candidate to make a table of
        g, rows = counted_bump(1)
        monkeypatch.setattr(constructions, "_GRID_CHUNK", 3)
        k = dirac_null_kernel(gaussian(1.0), np.zeros(1), g)
        excl = ExclusionRegion(np.zeros(1), 3.0)
        dom = SearchDomain(dim=1, strategy="grid", step=0.6)
        want, failed, _ = greedy_oracle(k, 12, 1.0 / 12, excl, dom)
        assert failed is None
        rows.clear()
        got = diffusing_sequence(k, 12, 1.0 / 12, excl, dom)
        assert got.atoms.tobytes() == want.tobytes()
        assert rows and 0 not in rows


class TestGridCandidates:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("chunk", [5, 4096])
    def test_equal_the_product_walk(self, monkeypatch, dim, chunk):
        monkeypatch.setattr(constructions, "_GRID_CHUNK", chunk)
        # a one-dimensional shell holds two points, so fewer points suffice
        count = 400 if dim == 1 else 3000
        for center, step in ((0.0, 1.0), (0.37, 2.5), (-1e3, 0.1)):
            excl = ExclusionRegion(np.full(dim, center) + 0.1 * np.arange(dim), 1.0)
            dom = SearchDomain(dim=dim, strategy="grid", step=step)
            got = first_rows(constructions._grid_candidates(dom, excl, step), count)
            want = list(itertools.islice(grid_reference(dom, excl), count))
            assert got.tobytes() == np.array(want).tobytes()


class TestRayAndRandomCandidates:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("strategy", ["ray", "random"])
    def test_equal_their_point_walks(self, dim, strategy):
        count = 3 * constructions._LOOKAHEAD + 17
        for center, radius, step, spacing in (
            (0.0, 1.0, 1.0, 0.7),
            (0.37, 2.5, 0.3, 3.9),
            (-1e3, 0.0, 7.0, 1e-3),
        ):
            excl = ExclusionRegion(np.full(dim, center) + 0.1 * np.arange(dim), radius)
            dom = SearchDomain(dim=dim, strategy=strategy, step=step, seed=dim)
            chunks = constructions.STRATEGIES[strategy](dom, excl, spacing)
            got = first_rows(chunks, count)
            want = list(itertools.islice(REFERENCE_STREAMS[strategy](dom, excl, spacing), count))
            assert got.tobytes() == np.array(want).tobytes()


def test_search_equals_the_one_at_a_time_loop_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(
        st.sampled_from(["ray", "grid", "random"]),
        st.integers(1, 3),
        st.floats(0.05, 3.0),
        st.floats(1e-6, 0.9),
        st.sampled_from(["gaussian", "laplacian", "null", "nan"]),
    )
    def check(strategy, dim, step, eps, kernel):
        k = search_kernels(dim)[kernel]
        excl = ExclusionRegion(np.full(dim, 0.3), 1.5)
        dom = SearchDomain(dim=dim, strategy=strategy, step=step, seed=dim)
        # a small budget, so some searches fail and are compared too
        want, failed, drawn = greedy_oracle(k, 24, eps, excl, dom, max_candidates=1500)
        try:
            got = diffusing_sequence(k, 24, eps, excl, dom, max_candidates=1500)
        except SearchFailureError as err:
            assert (err.failed_index, err.candidates_scanned) == (failed, drawn)
        else:
            assert failed is None
            assert got.atoms.tobytes() == want.tobytes()

    check()


def dense_certificate(k, p, eps, excl):
    """verify_diffusing's fields computed from the whole Gram."""
    n = p.support_size
    G = k.block(p.atoms, p.atoms)
    off = np.abs(G - np.diag(np.diag(G)))
    max_off = float(off.max()) if n > 1 else 0.0
    dists = np.sqrt(((p.atoms - excl.center[None, :]) ** 2).sum(axis=1))
    min_dist = float(dists.min())
    norm_sq = math.fsum((np.multiply.outer(p.weights, p.weights) * G).ravel().tolist())
    bound = k.sup_bound / n + (n - 1) * eps / n
    ok = max_off <= eps and min_dist > excl.radius and norm_sq <= bound
    return DiffusionCertificate(n, eps, max_off, min_dist, excl.radius, norm_sq, bound, ok)


def bits(cert):
    return tuple(v.hex() if isinstance(v, float) else v for v in astuple(cert))


class TestVerifyDiffusing:
    """The tiled certificate equals the dense computation bit for bit."""

    @staticmethod
    def kernels(dim):
        base = gaussian(1.0, dim=dim)
        xi = np.zeros(dim)
        return {
            "gaussian": base,
            "laplacian": laplacian(0.8, dim=dim),
            "null": dirac_null_kernel(base, xi),
            "shifted_null": shifted_dirac_null_kernel(base, xi),
            "center": center_kernel(base, dirac(xi), 0.5),
        }

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("n", [1, 5, 130, 300])
    def test_fields_match_dense_gram(self, dim, n):
        excl = ExclusionRegion(np.zeros(dim), 2.0)
        eps = 1.0 / n
        kernels = self.kernels(dim)
        p = diffusing_sequence(kernels["null"], n, eps, excl)
        rng = np.random.default_rng(n + dim)
        # crowded atoms and signed weights: large off-diagonal values
        crowded = SignedDiscreteMeasure(
            rng.uniform(-4, 4, (n, dim)) + 3.0, rng.standard_normal(n), dim
        )
        for name, k in kernels.items():
            for m in (p, crowded):
                got = verify_diffusing(k, m, eps, excl)
                assert bits(got) == bits(dense_certificate(k, m, eps, excl)), name
        assert verify_diffusing(kernels["null"], p, eps, excl).ok

    def test_peak_memory_is_bounded_on_2048_atoms(self):
        k = dirac_null_kernel(gaussian(1.0), [0.0])
        excl = ball(0.0, 9.0)
        p = diffusing_sequence(k, 2048, 1.0 / 2048, excl)
        tracemalloc.start()
        try:
            cert = verify_diffusing(k, p, 1.0 / 2048, excl)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the dense Gram and its two temporaries took 96 MiB
        assert peak < 16 * 2**20
        assert cert.ok


class TestDiracNullKernel:
    def test_annihilates_the_dirac(self):
        k = dirac_null_kernel(gaussian(1.0), [0.0])
        assert norm(k, dirac(0.0)) == 0.0

    def test_separates_mean_zero_differences_elsewhere(self):
        k = dirac_null_kernel(gaussian(1.0, dim=2), [0.0, 0.0])
        rng = np.random.default_rng(13)
        for _ in range(25):
            x = rng.uniform(0.3, 3.0, 2)
            y = -rng.uniform(0.3, 3.0, 2)
            assert mmd(k, dirac(x), dirac(y)) > 1e-6

    def test_sections_decay(self):
        k = dirac_null_kernel(gaussian(1.0), [0.0])
        trace = c0_probe(k, [1.0], radii=[2.0, 4.0, 8.0, 16.0])
        assert trace.passed

    def test_rejects_non_c0_field(self):
        with pytest.raises(ParameterError):
            dirac_null_kernel(gaussian(1.0), [0.0], saturating_at([0.0]))

    def test_rejects_field_not_vanishing_at_xi(self):
        from mmdlab import c0_bump_at

        with pytest.raises(ParameterError):
            dirac_null_kernel(gaussian(1.0), [1.0], c0_bump_at([0.0]))


class TestShiftedNullKernel:
    def test_same_metric_as_unshifted_on_probability_pairs(self):
        base = gaussian(1.0)
        k0 = dirac_null_kernel(base, [0.0])
        k1 = shifted_dirac_null_kernel(base, [0.0])
        rng = np.random.default_rng(14)
        for _ in range(15):
            n = int(rng.integers(1, 10))
            w = rng.random(n)
            from mmdlab import SignedDiscreteMeasure

            p = SignedDiscreteMeasure(rng.uniform(-3, 3, (n, 1)), w / w.sum(), 1)
            q = dirac(rng.uniform(-3, 3, 1))
            a = mmd(k0, p, q)
            assert abs(mmd(k1, p, q) - a) <= 1e-12 * (1.0 + a)

    def test_no_longer_annihilates_but_stays_above_floor(self):
        base = gaussian(1.0)
        k1 = shifted_dirac_null_kernel(base, [0.0])
        assert norm(k1, dirac(0.0)) == 1.0  # the +1 restores |delta_xi|
        rng = np.random.default_rng(15)
        pts = rng.uniform(-5, 5, (40, 1))
        G = k1.block(pts, pts)
        floor = 1.0 - base.sup_bound * C0_BUMP_SUP**2
        assert np.min(G) >= floor - 1e-12


class TestDiracCenteredKernel:
    def test_row_at_xi_vanishes(self):
        k = dirac_centered_kernel(gaussian(1.0), [0.0])
        for y in (-3.0, 0.2, 5.0):
            assert abs(k(0.0, y)) <= 1e-15

    def test_annihilates_the_dirac(self):
        k = dirac_centered_kernel(gaussian(1.0), [0.0])
        assert norm(k, dirac(0.0)) == 0.0

    def test_same_metric_on_probability_pairs(self):
        base = gaussian(1.0, dim=2)
        k = dirac_centered_kernel(base, [0.0, 0.0])
        rng = np.random.default_rng(16)
        from mmdlab import SignedDiscreteMeasure

        for _ in range(15):
            n = int(rng.integers(1, 10))
            w = rng.random(n)
            p = SignedDiscreteMeasure(rng.uniform(-2, 2, (n, 2)), w / w.sum(), 2)
            q = dirac(rng.uniform(-2, 2, 2))
            a = mmd(base, p, q)
            assert abs(mmd(k, p, q) - a) <= 1e-12 * (1.0 + a)


class TestEscapeSequence:
    def test_dirac_witness_reduces_to_pure_diffusion(self):
        k = dirac_null_kernel(gaussian(1.0), [0.0])
        cons = escape_sequence(k, dirac(0.0), n_values=(2, 4, 8))
        assert cons.residual.is_zero()
        assert cons.scale == 1.0
        # mu_n == P_n when there is no negative part
        for mu_n, p_n in zip(cons.sequence, cons.diffusing):
            assert mu_n.support_size == p_n.support_size
            assert mmd(k, mu_n, p_n) == 0.0
        assert np.all(identity_residuals(k, cons) <= 1e-10)

    def test_general_signed_witness(self):
        base = gaussian(1.0)
        k = dirac_null_kernel(base, [0.0], c0_null_at([[0.0], [2.0]]))
        witness = dirac(0.0) - dirac(2.0).scaled(0.5)
        cons = escape_sequence(k, witness, n_values=(2, 4, 8, 16))
        assert cons.scale == 0.5
        assert cons.target.total_mass == 1.0
        for mu_n in cons.sequence:
            assert mu_n.is_probability()
        assert np.all(identity_residuals(k, cons) <= 1e-10)

    def test_mass_never_reaches_the_target_ball(self):
        base = gaussian(1.0)
        k = dirac_null_kernel(base, [0.0], c0_null_at([[0.0], [2.0]]))
        witness = dirac(0.0) - dirac(2.0).scaled(0.5)
        cons = escape_sequence(k, witness, n_values=(2, 4, 8))
        target_mass = mass_in_ball(cons.target, cons.center, cons.probe_radius)
        seq_masses = [
            mass_in_ball(mu_n, cons.center, cons.probe_radius) for mu_n in cons.sequence
        ]
        assert target_mass == 1.0
        assert all(m == cons.residual.total_mass for m in seq_masses)
        assert max(seq_masses) < target_mass

    def test_rejects_non_witness(self):
        with pytest.raises(NotAWitnessError):
            escape_sequence(gaussian(1.0), dirac(1.0))

    def test_rejects_zero_measure(self):
        with pytest.raises(DegenerateMeasureError):
            escape_sequence(gaussian(1.0), empty_measure(1))

    def test_equal_mass_routes_to_pair_helper(self):
        k = dirac_null_kernel(gaussian(1.0), [0.0], c0_null_at([[0.0], [2.0]]))
        witness = dirac(0.0) - dirac(2.0)
        with pytest.raises(MeasureError, match="equal_mass_pair"):
            escape_sequence(k, witness)

    def test_exclusion_must_cover_support(self):
        k = dirac_null_kernel(gaussian(1.0), [0.0], c0_null_at([[0.0], [2.0]]))
        witness = dirac(0.0) - dirac(2.0).scaled(0.5)
        with pytest.raises(ParameterError):
            escape_sequence(
                k, witness, excl=ExclusionRegion(np.array([1.0]), 0.5)
            )

    def test_probe_ball_stays_inside_offset_exclusion(self):
        k = dirac_null_kernel(gaussian(1.0), [0.0], c0_null_at([[0.0], [2.0]]))
        witness = dirac(0.0) - dirac(2.0).scaled(0.5)
        # exclusion centered away from the witness centroid at 1.0
        cons = escape_sequence(
            k, witness, n_values=(2, 4), excl=ExclusionRegion(np.array([0.0]), 6.0)
        )
        for p_n in cons.diffusing:
            assert mass_in_ball(p_n, cons.center, cons.probe_radius) == 0.0
        # covers the support but leaves no room for a probe ball
        with pytest.raises(ParameterError, match="probe ball"):
            escape_sequence(
                k, witness, n_values=(2,), excl=ExclusionRegion(np.array([-1.0]), 3.0)
            )

    def test_default_indices_are_dyadic(self):
        assert default_indices(64) == (2, 4, 8, 16, 32, 64)
        assert default_indices(100) == (2, 4, 8, 16, 32, 64)
        with pytest.raises(ParameterError):
            default_indices(1)


class TestEqualMassPair:
    def test_returns_probability_pair_at_zero_distance(self):
        k = dirac_null_kernel(gaussian(1.0), [0.0], c0_null_at([[0.0], [2.0]]))
        witness = dirac(0.0) - dirac(2.0)
        p, q = equal_mass_pair(k, witness)
        assert p.is_probability() and q.is_probability()
        assert (p - q).support_size > 0  # genuinely different measures
        assert mmd(k, p, q) <= 1e-10

    def test_rejects_unbalanced_witness(self):
        k = dirac_null_kernel(gaussian(1.0), [0.0], c0_null_at([[0.0], [2.0]]))
        with pytest.raises(MeasureError):
            equal_mass_pair(k, dirac(0.0) - dirac(2.0).scaled(0.5))
