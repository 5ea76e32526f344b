"""Tests for test-function batteries, probes, verdicts and the CSV schema."""

import itertools
from collections import Counter
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
from mmdlab.measures import empty_measure, in_balls, mixture, support_union
from mmdlab.kernels import Kernel, c0_bump_at

from helpers import report_column
from test_embedding import algebra_kernels


def shared_atom_sequence(count=12):
    """Mixtures of a three-atom target and a two-atom measure: every index
    has the same five atoms, so the probe reads its MMD trace from one
    kernel block of them."""
    target = SignedDiscreteMeasure(np.array([[0.0], [0.3], [1.0]]), [0.25, 0.5, 0.25], 1)
    other = SignedDiscreteMeasure(np.array([[-1.5], [2.0]]), [0.5, 0.5], 1)
    items = [mixture([1.0 - 0.8**n, 0.8**n], [target, other]) for n in range(1, count + 1)]
    return MeasureSequence(tuple(items)), target


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

    @pytest.mark.parametrize("union", [False, True])
    def test_every_measure_column_row_is_summed_once(self, monkeypatch, union):
        from mmdlab import diagnostics

        if union:
            seq, target = shared_atom_sequence(count=30)
            k = shift_kernel(gaussian(1.0), 1.0)
        else:
            seq, target = geometric_dirac_sequence(count=5)
            k = gaussian(1.0)
        battery = default_battery(k, target)
        radii = (2.0, 4.0, 8.0)
        # each (measure, column) row as the per-measure loop forms it: the
        # weights times the test function's values or the ball's indicator
        want = Counter()
        for mu in (target, *seq):
            for f in battery:
                want[(f.values(mu.atoms) * mu.weights).tobytes()] += 1
            for r in radii:
                inside = in_balls(mu.atoms, np.zeros(1), [r])[0]
                want[(inside * mu.weights).tobytes()] += 1
        summed = Counter()
        calls = []
        row_sums = diagnostics.exact_row_sums
        monkeypatch.setattr(
            diagnostics,
            "exact_row_sums",
            lambda terms: calls.append(len(terms))
            or summed.update(map(np.ndarray.tobytes, terms))
            or row_sums(terms),
        )
        probe_sequence(seq, target, k, battery=battery, radii=radii)
        assert summed & want == want
        if union:
            # and one self-term row per measure and one cross-term row per
            # index, each in its own call per chunk
            assert sum(summed.values()) == sum(want.values()) + 2 * len(seq) + 1
        else:
            # the target's rows in one call, then the indices', all of one
            # atom, in one chunk
            assert summed == want
            assert calls == [len(battery) + len(radii), (len(battery) + len(radii)) * len(seq)]

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

    @pytest.mark.parametrize("union", [False, True])
    def test_target_self_term_is_evaluated_once(self, monkeypatch, union):
        from mmdlab import diagnostics, embedding

        if union:
            seq, target = shared_atom_sequence(count=12)
        else:
            seq, _ = geometric_dirac_sequence(count=12)
            target = SignedDiscreteMeasure(np.array([[0.0], [0.3], [1.0]]), np.full(3, 1 / 3), 1)
        # a kernel that does not claim c0 gets no embedded test functions,
        # so every kernel block is the MMD trace's
        k = shift_kernel(gaussian(1.0), 1.0)
        want = embedding.inner(k, target, SignedDiscreteMeasure(target.atoms, target.weights, 1))
        self_terms = (
            np.multiply.outer(target.weights, target.weights)
            * k.block(target.atoms, target.atoms)
        ).tobytes()
        expected = [mmd(k, mu_n, target) for mu_n in seq]
        gram_sums, mmd_calls, blocks, rows = [], [], [], []
        self_gram_sum = embedding._self_gram_sum
        monkeypatch.setattr(
            embedding,
            "_self_gram_sum",
            lambda k, X, w: gram_sums.append(w is target.weights) or self_gram_sum(k, X, w),
        )
        monkeypatch.setattr(
            diagnostics, "mmd", lambda *args: mmd_calls.append(args) or mmd(*args)
        )
        block = Kernel.block
        monkeypatch.setattr(
            Kernel, "block", lambda self, X, Y: blocks.append(1) or block(self, X, Y)
        )
        row_sums = diagnostics.exact_row_sums
        monkeypatch.setattr(
            diagnostics,
            "exact_row_sums",
            lambda terms: rows.extend(map(np.ndarray.tobytes, terms)) or row_sums(terms),
        )
        report = probe_sequence(seq, target, k)
        assert report.mmd_to_target.tolist() == expected
        if union:
            # one kernel block of the union's atoms for the whole trace, no
            # per-index mmd, and the target's self term one summed row
            assert len(blocks) == 1 and mmd_calls == [] and gram_sums == []
            assert rows.count(self_terms) == 1
        else:
            # one mmd per index.  Every pair here fits one block, so each
            # index's mmd makes one block and sums the target's quadrant of
            # it; the small target keeps no slot, and its self term is
            # never summed on its own
            assert len(mmd_calls) == len(seq)
            assert len(blocks) == len(seq)
            assert gram_sums == []
            assert target._self_inner is None
            assert embedding.inner(k, target, target).hex() == want.hex()

    def test_large_indices_match_mmd_and_a_small_target_keeps_no_slot(self, monkeypatch):
        from mmdlab import accumulate, diagnostics, embedding

        seq, _ = geometric_dirac_sequence(count=6)
        target = SignedDiscreteMeasure(np.array([[0.0], [0.3], [1.0]]), np.full(3, 1 / 3), 1)
        # 88 atoms and the target's 3 make a block of 91 * 91 entries, more
        # than half a tile, so these two indices' mmds take the tiled route
        n = 88
        assert 2 * (n + 3) ** 2 > accumulate.TILE_ENTRIES
        large = [
            SignedDiscreteMeasure(np.linspace(a, 40.0, n)[:, None], np.full(n, 1 / n), 1)
            for a in (2.0, 3.0)
        ]
        seq = MeasureSequence((*seq.items[:3], large[0], *seq.items[3:], large[1]))
        k = shift_kernel(gaussian(1.0), 1.0)
        expected = [mmd(k, mu_n, SignedDiscreteMeasure(target.atoms, target.weights, 1)) for mu_n in seq]
        gram_sums, mmd_calls = [], []
        self_gram_sum = embedding._self_gram_sum
        monkeypatch.setattr(
            embedding,
            "_self_gram_sum",
            lambda k, X, w: gram_sums.append(w is target.weights) or self_gram_sum(k, X, w),
        )
        monkeypatch.setattr(
            diagnostics, "mmd", lambda *args: mmd_calls.append(args) or mmd(*args)
        )
        report = probe_sequence(seq, target, k)
        assert len(mmd_calls) == len(seq)
        assert [v.hex() for v in report.mmd_to_target] == [v.hex() for v in expected]
        # the target's Gram of 9 entries spans no tile, so it keeps no slot
        # and each large index's mmd sums it again
        assert gram_sums.count(True) == 2
        assert target._self_inner is None

    def test_entry_rule(self, monkeypatch):
        from mmdlab import accumulate, diagnostics

        k = gaussian(1.0)
        # 5 atoms in all: 25 entries against 12 * 5 * (5 + 3) per index
        seq, target = shared_atom_sequence(count=12)
        atoms, _ = support_union((target, *seq), 1)
        sizes = [mu.support_size for mu in (target, *seq)]
        assert diagnostics._union_gram(k, atoms, sizes).shape == (5, 5)
        # more union entries than the per-index blocks would evaluate
        assert diagnostics._union_gram(k, atoms, sizes[:1] + [1] * 2) is None
        # a union Gram of more than one tile
        monkeypatch.setattr(accumulate, "TILE_ENTRIES", 24)
        assert diagnostics._union_gram(k, atoms, sizes) is None

    def test_chunks_hold_one_support_size(self, monkeypatch):
        from mmdlab import diagnostics

        monkeypatch.setattr(diagnostics, "CHUNK_TERMS", 12)
        sizes = [3, 2, 2, 2, 2, 0, 0, 5, 2, 4]
        chunks = list(diagnostics._chunks(sizes, lambda s: 3 * s))
        # the target alone, then at most two measures of two atoms, and
        # any number of empty ones
        assert chunks == [(0, 1), (1, 3), (3, 5), (5, 7), (7, 8), (8, 9), (9, 10)]

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


def nan_on_unit_gaps(dim):
    """A gaussian that is nan for pairs exactly 1 apart in coordinate 0."""
    g = gaussian(1.0, dim=dim)

    def block(a, b):
        out = g.block_fn(a, b)
        out[np.abs(a[0][..., 0] - b[0][..., 0]) == 1.0] = np.nan
        return out

    return Kernel(block, dim, 1.0, True, {"family": "nan_on_unit_gaps"})


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

    @pytest.mark.parametrize("union", [True, False])
    def test_union_and_per_index_routes_property(self, monkeypatch, union):
        """Every column of the probe, on either MMD route, equals per-index
        mmd, integrate and mass_in_ball bit for bit, over every algebra
        kernel and a kernel with nan entries."""
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        from mmdlab import accumulate, diagnostics

        if not union:
            # no union Gram fits in a tile of no entries
            monkeypatch.setattr(accumulate, "TILE_ENTRIES", 0)
        kernels = {dim: {**algebra_kernels(dim), "nan": nan_on_unit_gaps(dim)} for dim in (1, 2)}
        cases = [(name, dim) for dim in kernels for name in kernels[dim]]
        # few coordinates, signed zeros among them, so atoms repeat across
        # measures and the union stays small
        coords = [0.0, -0.0, 0.5, 1.0, -1.5]
        weights = st.sampled_from([0.5, -0.25, 1.0, 0.125, -3.0, 1e-3])

        def measure(draw, dim):
            pool = list(itertools.product(coords[: 5 if dim == 1 else 3], repeat=dim))
            rows = draw(st.lists(st.sampled_from(pool), max_size=5, unique=True))
            w = draw(st.lists(weights, min_size=len(rows), max_size=len(rows)))
            return SignedDiscreteMeasure(np.array(rows).reshape(len(rows), dim), w, dim)

        calls = []
        mmd_of = diagnostics.mmd
        monkeypatch.setattr(diagnostics, "mmd", lambda *a: calls.append(1) or mmd_of(*a))

        @hypothesis.settings(max_examples=120, deadline=None, derandomize=True)
        @hypothesis.given(st.sampled_from(cases), st.data())
        def check(case, data):
            name, dim = case
            k = kernels[dim][name]
            target = measure(data.draw, dim)
            kinds = st.sampled_from(["new", "new", "empty", "target"])
            items = []
            for kind in data.draw(st.lists(kinds, min_size=1, max_size=8)):
                if kind == "new":
                    items.append(measure(data.draw, dim))
                else:
                    items.append(target if kind == "target" else empty_measure(dim))
            measures = (target, *items)
            atoms, _ = support_union(measures, dim)
            m = target.support_size
            entries = sum(mu.support_size * (mu.support_size + m) for mu in items)
            if union:
                # repeat the items until the per-index blocks hold more
                # entries than the union's block
                hypothesis.assume(entries > 0)
                items = items * (atoms.shape[0] ** 2 // entries + 1)
            seq = MeasureSequence(tuple(items))
            calls.clear()
            battery = default_battery(k, target) + [sign_of_first(dim)]
            assert_probe_matches_oracle(seq, target, k, battery, radii=(0.5, 1.0, 2.0))
            assert len(calls) == (0 if union else len(seq))

        check()

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
