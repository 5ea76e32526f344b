"""Tests for test-function batteries, probes, verdicts and the CSV schema."""

from dataclasses import replace

import numpy as np
import pytest

from mmdlab import (
    DimensionMismatchError,
    MeasureSequence,
    ParameterError,
    SignedDiscreteMeasure,
    Thresholds,
    bump,
    center_kernel,
    compute_verdicts,
    dirac,
    gaussian,
    integrate,
    kme_eval,
    kme_probe,
    laplacian,
    mass_in_ball,
    mmd,
    probe_sequence,
    scale_kernel,
    shift_kernel,
)
from mmdlab.diagnostics import TestFunction as ProbeFunction
from mmdlab.diagnostics import constant_one, default_battery, trace_settles
from mmdlab.measures import empty_measure, mixture
from mmdlab.kernels import c0_bump_at

from helpers import report_column


def geometric_dirac_sequence(dim=1, rho=0.75, count=40, start=1.0):
    target = np.zeros(dim)
    offset = np.zeros(dim)
    offset[0] = start
    items = []
    t = 1.0
    for _ in range(count):
        t *= rho
        items.append(dirac(target + t * offset))
    return MeasureSequence(tuple(items)), dirac(target)


class TestBump:
    def test_plateau_ramp_and_tail(self):
        f = bump([0.0], 1.0, 2.0)
        assert f.values(np.array([[0.0]]))[0] == 1.0
        assert f.values(np.array([[1.0]]))[0] == 1.0
        # linear ramp: (2 - 1.5) / (2 - 1) = 0.5, exact in binary
        assert f.values(np.array([[1.5]]))[0] == 0.5
        assert f.values(np.array([[2.0]]))[0] == 0.0
        assert f.values(np.array([[7.0]]))[0] == 0.0

    def test_radii_must_be_ordered(self):
        with pytest.raises(ParameterError):
            bump([0.0], 2.0, 1.0)
        with pytest.raises(ParameterError):
            bump([0.0], -0.5, 1.0)

    def test_zero_inner_radius_allowed(self):
        f = bump([0.0], 0.0, 1.0)
        assert f.values(np.array([[0.0]]))[0] == 1.0

    def test_bounded_by_one_for_probability_measures(self):
        rng = np.random.default_rng(0)
        f = bump([0.0, 0.0], 0.5, 1.5)
        for _ in range(20):
            n = int(rng.integers(1, 10))
            w = rng.random(n)
            p = SignedDiscreteMeasure(rng.uniform(-2, 2, (n, 2)), w / w.sum(), 2)
            val = integrate(p, f)
            assert 0.0 <= val <= 1.0


class TestIntegrate:
    def test_dirac_evaluates_function(self):
        f = bump([0.0], 1.0, 2.0)
        assert integrate(dirac(1.5), f) == 0.5

    def test_constant_gives_total_mass(self):
        mu = SignedDiscreteMeasure(np.array([[0.0], [4.0]]), [0.7, -0.2], 1)
        assert integrate(mu, constant_one(1)) == pytest.approx(0.5, abs=1e-15)

    def test_partial_coverage(self):
        mu = SignedDiscreteMeasure(np.array([[0.0], [5.0]]), [0.4, 0.6], 1)
        assert integrate(mu, bump([0.0], 1.0, 2.0)) == pytest.approx(0.4, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            integrate(dirac([0.0, 0.0]), bump([0.0], 1.0, 2.0))


class TestKmeProbe:
    def test_pointwise_for_rowwise_kernels(self):
        rng = np.random.default_rng(4)
        scaled = scale_kernel(laplacian(1.0, dim=2), c0_bump_at([0.5, 0.0]))
        p = SignedDiscreteMeasure(rng.normal(size=(9, 2)), np.full(9, 1.0 / 9), 2)
        for k in (gaussian(0.7, dim=2), scaled, center_kernel(scaled, p, 0.5)):
            nu = SignedDiscreteMeasure(rng.normal(size=(37, 2)), rng.normal(size=37), 2)
            f = kme_probe(k, nu)
            X = rng.normal(size=(300, 2))
            whole = f.values(X)
            for rows in (slice(1, 2), slice(7, 250, 3), rng.permutation(300)[:40]):
                assert f.values(X[rows]).tobytes() == whole[rows].tobytes()
            for i in (0, 123, 299):
                assert f.values(X[i : i + 1])[0].hex() == whole[i].hex()

    def test_values_are_the_embedding(self):
        rng = np.random.default_rng(5)
        k = gaussian(1.0, dim=3)
        nu = SignedDiscreteMeasure(rng.normal(size=(12, 3)), rng.random(12), 3)
        X = rng.normal(size=(20, 3))
        got = kme_probe(k, nu).values(X)
        want = [kme_eval(k, nu, x) for x in X]
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-15)

    def test_empty_reference_measure_embeds_to_zero(self):
        f = kme_probe(gaussian(1.0), empty_measure(1))
        assert f.values(np.array([[0.0], [2.0]])).tolist() == [0.0, 0.0]


class TestBattery:
    def test_default_battery_contents(self):
        k = gaussian(1.0)
        target = dirac(0.0)
        battery = default_battery(k, target)
        names = [f.name for f in battery]
        assert names[0] == "const1"
        assert "bump_t0" in names
        assert {"wide_r2", "wide_r4", "wide_r8"} <= set(names)
        assert sum(1 for f in battery if f.tag == "rkhs") == 5

    def test_rkhs_probes_gated_on_c0_claim(self):
        k = shift_kernel(gaussian(1.0), 1.0)
        battery = default_battery(k, dirac(0.0))
        assert all(f.tag != "rkhs" for f in battery)


class TestTraceSettles:
    def test_rule(self):
        t = Thresholds(final_tol=1e-2, slack=0.1, noise_floor=1e-12)
        assert trace_settles(np.array([1.0, 0.5, 0.1, 0.001]), t)
        # final above threshold
        assert not trace_settles(np.array([1.0, 0.5, 0.1, 0.05]), t)
        # rises more than 10% in the trailing half
        assert not trace_settles(np.array([1.0, 0.5, 0.001, 0.002]), t)
        # a rise inside the noise floor is forgiven
        assert trace_settles(np.array([1.0, 0.5, 0.0, 1e-13]), t)
        # early-half rises are ignored by design
        assert trace_settles(np.array([0.1, 5.0, 0.01, 0.005]), t)

    @pytest.mark.parametrize(
        "trace",
        [
            [np.nan] * 4,
            [np.nan, 0.5, 0.1, 0.001],
            [1.0, 0.5, np.nan, 0.001],
            [1.0, 0.5, 0.1, np.nan],
        ],
        ids=repr,
    )
    def test_a_nan_never_settles(self, trace):
        t = Thresholds(final_tol=1e-2, slack=0.1, noise_floor=1e-12)
        assert not trace_settles(np.array(trace), t)
        n = len(trace)
        verdicts = compute_verdicts(
            np.array(trace), ["cb"], np.array(trace)[:, None],
            np.ones((n, 1)), np.ones(n), t,
        )
        assert not verdicts.mmd_converges and not verdicts.weak_converges


class TestProbeSequence:
    def test_converging_sequence_all_verdicts(self):
        seq, target = geometric_dirac_sequence()
        report = probe_sequence(seq, target, gaussian(1.0))
        v = report.verdicts
        assert v.mmd_converges
        assert v.weak_rkhs_converges
        assert v.vague_converges
        assert v.weak_converges
        assert not v.mass_escapes

    def test_verdicts_recomputable_from_rows(self):
        seq, target = geometric_dirac_sequence()
        report = probe_sequence(seq, target, gaussian(1.0))
        again = compute_verdicts(
            report.mmd_to_target,
            list(report.fn_tags),
            report.fn_discrepancies,
            report.ball_masses,
            report.total_masses,
            report.thresholds,
        )
        assert again == report.verdicts

    def test_total_mass_row_constant_for_probability_sequences(self):
        rng = np.random.default_rng(1)
        base = dirac(0.0)
        other = SignedDiscreteMeasure(rng.uniform(0, 1, (4, 1)), np.full(4, 0.25), 1)
        items = [mixture([1 - 2.0**-i, 2.0**-i], [base, other]) for i in range(1, 30)]
        seq = MeasureSequence(tuple(items))
        report = probe_sequence(seq, base, gaussian(1.0))
        assert np.max(np.abs(report.total_masses - 1.0)) <= 1e-12

    def test_battery_must_contain_constant(self):
        seq, target = geometric_dirac_sequence(count=4)
        with pytest.raises(ParameterError, match="constant"):
            probe_sequence(seq, target, gaussian(1.0), battery=[bump([0.0], 0.5, 1.0)])
        # the constant 1 is known by its function, not by its name or tag
        lookalike = ProbeFunction(
            fn=lambda X: np.ones(X.shape[0]), dim=1, tag="cb", name="const1"
        )
        with pytest.raises(ParameterError, match="constant"):
            probe_sequence(seq, target, gaussian(1.0), battery=[lookalike])

    def test_battery_must_be_nonempty(self):
        seq, target = geometric_dirac_sequence(count=4)
        with pytest.raises(ParameterError):
            probe_sequence(seq, target, gaussian(1.0), battery=[])

    def test_renamed_constant_counts(self):
        seq, target = geometric_dirac_sequence(count=6)
        k = gaussian(1.0)
        battery = [bump([5.0], 0.5, 1.0), replace(constant_one(1), name="one")]
        report = probe_sequence(seq, target, k, battery=battery)
        assert report.fn_names == ("bump", "one")
        assert report.total_masses.tolist() == [1.0] * 6
        assert_probe_matches_oracle(seq, target, k, battery)

    def test_one_table_row_per_test_function(self, monkeypatch):
        from mmdlab import diagnostics

        seq, target = geometric_dirac_sequence(count=5)
        k = gaussian(1.0)
        battery = default_battery(k, target)
        radii = (2.0, 4.0, 8.0)
        shapes = []
        row_sums = diagnostics.exact_row_sums
        monkeypatch.setattr(
            diagnostics,
            "exact_row_sums",
            lambda terms: shapes.append(terms.shape) or row_sums(terms),
        )
        probe_sequence(seq, target, k, battery=battery, radii=radii)
        # one row per test function and per ball, for each index and then
        # the target: the constant-1 row gives the total masses, with no
        # extra ones row
        rows = len(battery) + len(radii)
        assert shapes == [(rows, mu.support_size) for mu in (*seq, target)]

    def test_every_column_comes_from_the_row_sums(self, monkeypatch):
        from mmdlab import diagnostics

        def refuse(*args):
            raise AssertionError("probe_sequence summed outside exact_row_sums")

        monkeypatch.setattr(diagnostics, "integrate", refuse)
        monkeypatch.setattr(diagnostics, "exact_sum", refuse)
        seq, target = geometric_dirac_sequence(count=5)
        report = probe_sequence(seq, target, gaussian(1.0))
        assert report.total_masses.tolist() == [1.0] * 5

    def test_dimension_checks(self):
        seq, _ = geometric_dirac_sequence(count=4)
        with pytest.raises(DimensionMismatchError):
            probe_sequence(seq, dirac([0.0, 0.0]), gaussian(1.0))

    def test_radii_validation(self):
        seq, target = geometric_dirac_sequence(count=4)
        with pytest.raises(ParameterError):
            probe_sequence(seq, target, gaussian(1.0), radii=[])

    def test_target_self_term_is_evaluated_once(self, monkeypatch):
        from mmdlab import diagnostics, embedding

        seq, _ = geometric_dirac_sequence(count=12)
        target = SignedDiscreteMeasure(np.array([[0.0], [0.3], [1.0]]), np.full(3, 1 / 3), 1)
        k = shift_kernel(gaussian(1.0), 1.0)
        want = embedding.inner(k, target, SignedDiscreteMeasure(target.atoms, target.weights, 1))
        self_terms = []
        mmd_calls = []
        self_gram_sum = embedding._self_gram_sum
        monkeypatch.setattr(
            embedding,
            "_self_gram_sum",
            lambda k, X, w: self_terms.append(w is target.weights) or self_gram_sum(k, X, w),
        )
        monkeypatch.setattr(
            diagnostics, "mmd", lambda *args: mmd_calls.append(args) or mmd(*args)
        )
        report = probe_sequence(seq, target, k)
        # one mmd per index, and the target's self term once in all
        assert len(mmd_calls) == len(seq)
        assert self_terms.count(True) == 1
        assert target._self_inner[0] is k
        assert target._self_inner[1].hex() == want.hex()
        expected = [mmd(k, mu_n, target) for mu_n in seq]
        assert report.mmd_to_target.tolist() == expected

    def test_column_accessor(self):
        seq, target = geometric_dirac_sequence(count=8)
        report = probe_sequence(seq, target, gaussian(1.0))
        col = report_column(report, "const1")
        assert col.shape == (8,)
        assert np.all(col == 0.0)  # probability sequence vs probability target


class TestForwardImplication:
    def test_weak_settling_implies_mmd_settling(self):
        """Every corpus report with a true weak verdict also has a true mmd
        verdict.  The corpus must converge at desk scale: a finite battery is
        coarser than the MMD, so a sequence that is still far away can settle
        every probe while its MMD trace has not reached the threshold yet."""
        rng = np.random.default_rng(21)
        corpus = []
        for case in range(12):
            dim = case % 2 + 1
            target_pt = rng.uniform(0, 1, dim)
            start = rng.uniform(0, 1, dim)
            rho = (0.7, 0.75, 0.8)[case % 3]
            items, t = [], 1.0
            for _ in range(40):
                t *= rho
                items.append(dirac(target_pt + t * (start - target_pt)))
            corpus.append((MeasureSequence(tuple(items)), dirac(target_pt), dim))
        # a stalled sequence: constant offset, weakly refuted by its bump
        stalled = MeasureSequence(tuple(dirac([1.0]) for _ in range(40)))
        corpus.append((stalled, dirac([0.0]), 1))

        checked_weak_true = 0
        for seq, target, dim in corpus:
            for k in (gaussian(1.0, dim=dim), shift_kernel(gaussian(1.0, dim=dim), 1.0)):
                report = probe_sequence(seq, target, k)
                if report.verdicts.weak_converges:
                    checked_weak_true += 1
                    assert report.verdicts.mmd_converges
        assert checked_weak_true > 0  # the implication was actually exercised


class TestCsv:
    def test_schema_and_verdict_comments(self):
        seq, target = geometric_dirac_sequence(count=6)
        report = probe_sequence(seq, target, gaussian(1.0))
        text = report.csv_text()
        lines = text.strip().split("\n")
        header = lines[0].split(",")
        assert header[0] == "n" and header[1] == "mmd"
        assert header[-1] == "total_mass"
        assert "ball_2" in header and "ball_8" in header
        data_rows = [l for l in lines[1:] if not l.startswith("#")]
        comment_rows = [l for l in lines if l.startswith("#")]
        assert len(data_rows) == 6
        assert all(len(r.split(",")) == len(header) for r in data_rows)
        assert sum("# verdict" in c for c in comment_rows) == 5
        assert any("mass_escapes=false" in c for c in comment_rows)

    def test_deterministic_text(self):
        seq, target = geometric_dirac_sequence(count=6)
        a = probe_sequence(seq, target, gaussian(1.0)).csv_text()
        b = probe_sequence(seq, target, gaussian(1.0)).csv_text()
        assert a == b

    def test_summary_items_cover_verdicts_and_thresholds(self):
        seq, target = geometric_dirac_sequence(count=40)
        report = probe_sequence(seq, target, gaussian(1.0))
        keys = dict(report.summary_items())
        assert keys["verdict_mmd_converges"] == "true"
        assert keys["verdict_mass_escapes"] == "false"
        assert "threshold_final_tol" in keys
        assert keys["rows"] == "40"


def probe_oracle(seq, target, k, battery, radii, center):
    """The per-index loop: one integrate per (index, function), one
    mass_in_ball per (index, radius) and one total_mass per index."""
    target_vals = [integrate(target, f) for f in battery]
    mmds, disc, balls, totals = [], [], [], []
    for mu_n in seq:
        mmds.append(mmd(k, mu_n, target))
        disc.append([abs(integrate(mu_n, f) - tv) for f, tv in zip(battery, target_vals)])
        balls.append([mass_in_ball(mu_n, center, r) for r in sorted(radii)])
        totals.append(mu_n.total_mass)
    return [np.array(v, dtype=np.float64) for v in (mmds, disc, balls, totals)]


def assert_probe_matches_oracle(
    seq, target, k, battery=None, radii=(2.0, 4.0, 8.0), center=None
):
    battery = default_battery(k, target) if battery is None else battery
    center = np.zeros(seq.dim) if center is None else np.asarray(center, dtype=np.float64)
    report = probe_sequence(
        seq, target, k, battery=battery, radii=radii, ball_center=center
    )
    want = probe_oracle(seq, target, k, battery, radii, center)
    got = (
        report.mmd_to_target,
        report.fn_discrepancies,
        report.ball_masses,
        report.total_masses,
    )
    for g, w in zip(got, want):
        assert g.shape == w.shape
        # bytes, so the sign of a zero counts too
        assert g.tobytes() == w.tobytes()


def sign_of_first(dim):
    """A pointwise function that tells 0.0 from -0.0."""
    return ProbeFunction(
        fn=lambda X: np.copysign(1.0, X[:, 0]), dim=dim, tag="cb", name="sign"
    )


class TestProbeEqualsPerIndexLoop:
    @pytest.mark.parametrize("dim", [1, 3])
    def test_mixtures_sharing_atoms(self, dim):
        rng = np.random.default_rng(10 + dim)
        k = gaussian(1.0, dim=dim)
        # atoms on a small integer grid, so the parts share some
        parts = [
            SignedDiscreteMeasure(rng.integers(-3, 4, (6, dim)) * 1.0, rng.random(6), dim)
            for _ in range(3)
        ]
        items = [mixture(rng.normal(size=3), parts) for _ in range(25)]
        target = parts[0]
        nu = SignedDiscreteMeasure(rng.normal(size=(9, dim)), rng.normal(size=9), dim)
        battery = default_battery(k, target) + [kme_probe(k, nu, name="kme_multi")]
        assert_probe_matches_oracle(MeasureSequence(tuple(items)), target, k, battery)

    @pytest.mark.parametrize("dim", [1, 3])
    def test_signed_zeros_stay_distinct(self, dim):
        k = gaussian(1.0, dim=dim)
        pos, neg = np.zeros(dim), np.zeros(dim)
        neg[0] = -0.0
        items = (
            dirac(pos),
            dirac(neg),
            SignedDiscreteMeasure(np.stack([neg, pos]), [0.25, -0.75], dim),
            SignedDiscreteMeasure(np.stack([pos, neg]), [-2.0, 0.5], dim),
        )
        target = dirac(neg)
        battery = default_battery(k, target) + [sign_of_first(dim)]
        report = probe_sequence(MeasureSequence(items), target, k, battery=battery)
        # the sign function sees 0.0 at index 1 and -0.0 in the target
        assert report_column(report, "sign").tolist() == [2.0, 0.0, 0.0, 1.5]
        assert_probe_matches_oracle(MeasureSequence(items), target, k, battery)

    @pytest.mark.parametrize("dim", [1, 3])
    def test_empty_measures_inside_the_sequence(self, dim):
        k = gaussian(1.0, dim=dim)
        a = np.full(dim, 0.5)
        items = (
            dirac(a),
            empty_measure(dim),
            # cancels to the empty measure at construction
            SignedDiscreteMeasure(np.stack([a, a]), [1.0, -1.0], dim),
            dirac(2 * a) - dirac(a),
        )
        battery = default_battery(k, dirac(a)) + [sign_of_first(dim)]
        assert_probe_matches_oracle(MeasureSequence(items), dirac(a), k, battery)
        only_empty = MeasureSequence((empty_measure(dim), empty_measure(dim)))
        assert_probe_matches_oracle(only_empty, dirac(a), k)

    @pytest.mark.parametrize("dim", [1, 3])
    def test_atoms_on_ball_boundaries(self, dim):
        # integer points at distance exactly 2 and 4 from the centre
        k = laplacian(1.0, dim=dim)
        center = np.ones(dim)
        items = []
        for r in (2.0, 4.0, 8.0, 2.5):
            a = center.copy()
            a[-1] += r
            items.append(dirac(a) + dirac(center))
        assert_probe_matches_oracle(
            MeasureSequence(tuple(items)), dirac(center), k, center=center
        )

    def test_recentred_embeddings_take_the_sequence_level_values(self):
        rng = np.random.default_rng(3)
        k = scale_kernel(center_kernel(gaussian(1.0), dirac(0.25)), c0_bump_at([0.0]))
        nu = SignedDiscreteMeasure(rng.normal(size=(5, 1)), rng.random(5), 1)
        pool = rng.normal(size=(12, 1))
        items = [
            SignedDiscreteMeasure(pool[rng.permutation(12)[:7]], rng.random(7), 1)
            for _ in range(10)
        ]
        battery = default_battery(k, dirac(0.0)) + [kme_probe(k, nu, name="kme_centred")]
        assert_probe_matches_oracle(MeasureSequence(tuple(items)), dirac(0.0), k, battery)

    def test_large_supports_take_the_binned_sums(self):
        # supports above accumulate.SMALL_INPUT sum through ExactAccumulator
        rng = np.random.default_rng(8)
        pool = rng.normal(size=(2600, 1))
        sizes = (2100, 2300, 2500)
        items = [SignedDiscreteMeasure(pool[:n], rng.normal(size=n), 1) for n in sizes]
        k = gaussian(1.0)
        assert_probe_matches_oracle(MeasureSequence(tuple(items)), dirac(0.0), k)

    def test_random_mixtures_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hypothesis.settings(max_examples=40, deadline=None)
        @hypothesis.given(
            st.integers(1, 3),
            st.integers(0, 2**32 - 1),
            st.integers(1, 12),
            st.integers(1, 8),
        )
        def check(dim, seed, count, pool_size):
            rng = np.random.default_rng(seed)
            # a small pool of points on a half-integer grid, with signed
            # zeros, so atoms repeat, merge and sit on ball boundaries
            pool = rng.integers(-6, 7, (pool_size, dim)) / 2.0
            pool[rng.random((pool_size, dim)) < 0.2] = -0.0
            parts = []
            for _ in range(3):
                n = int(rng.integers(0, 6))
                rows = pool[rng.integers(0, pool_size, n)]
                w = rng.normal(size=n)
                w[rng.random(n) < 0.2] = 0.0
                parts.append(SignedDiscreteMeasure(rows, w, dim))
            items = [mixture(rng.normal(size=3), parts) for _ in range(count)]
            k = gaussian(float(rng.uniform(0.3, 2.0)), dim=dim)
            target = parts[0] if parts[0].support_size else dirac(np.zeros(dim))
            nu = SignedDiscreteMeasure(pool, rng.normal(size=pool_size), dim)
            battery = default_battery(k, target) + [
                kme_probe(k, nu, name="kme_pool"),
                sign_of_first(dim),
            ]
            assert_probe_matches_oracle(
                MeasureSequence(tuple(items)), target, k, battery, radii=(1.0, 1.5, 3.0)
            )

        check()
