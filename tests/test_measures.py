"""Tests for signed discrete measures and their decompositions."""

import numpy as np
import pytest

from mmdlab import (
    DegenerateMeasureError,
    DimensionMismatchError,
    MeasureSequence,
    ParameterError,
    SignedDiscreteMeasure,
    dirac,
    mass_in_ball,
)
from mmdlab.measures import (
    empty_measure,
    jordan_decompose,
    mixture,
    normalize_positive_part,
)
from mmdlab.accumulate import exact_sum
from mmdlab.measures import in_balls, support_union


def measure_1d(spec):
    """Build a 1-D measure from {coordinate: weight} pairs (test shorthand)."""
    atoms = [[x] for x in spec]
    return SignedDiscreteMeasure(np.array(atoms, float), list(spec.values()), 1)


def weights_by_atom(mu):
    return {float(a[0]): float(w) for a, w in zip(mu.atoms, mu.weights)}


class TestConstruction:
    def test_dirac_has_unit_mass(self):
        d = dirac(0.0)
        assert d.total_mass == 1.0
        assert d.support_size == 1
        assert d.is_probability()

    def test_duplicates_merge_exactly(self):
        mu = SignedDiscreteMeasure(np.array([[0.0], [0.0]]), [0.5, 0.5], 1)
        assert mu.support_size == 1
        assert mu.weights[0] == 1.0

    def test_zero_weights_dropped_after_merge(self):
        mu = SignedDiscreteMeasure(np.array([[0.0], [0.0], [1.0]]), [1.0, -1.0, 2.0], 1)
        assert weights_by_atom(mu) == {1.0: 2.0}

    def test_first_occurrence_order_preserved(self):
        mu = SignedDiscreteMeasure(
            np.array([[3.0], [1.0], [3.0], [2.0]]), [1.0, 1.0, 1.0, 1.0], 1
        )
        assert [float(a[0]) for a in mu.atoms] == [3.0, 1.0, 2.0]

    def test_no_distance_snapping(self):
        # nearby-but-unequal atoms stay distinct
        mu = SignedDiscreteMeasure(np.array([[0.0], [1e-15]]), [1.0, 1.0], 1)
        assert mu.support_size == 2

    def test_rejects_nonfinite(self):
        with pytest.raises(ParameterError):
            SignedDiscreteMeasure(np.array([[np.nan]]), [1.0], 1)
        with pytest.raises(ParameterError):
            SignedDiscreteMeasure(np.array([[0.0]]), [np.inf], 1)

    def test_length_mismatch(self):
        with pytest.raises(ParameterError):
            SignedDiscreteMeasure(np.array([[0.0]]), [1.0, 2.0], 1)

    def test_empty_measure_is_legal(self):
        mu = empty_measure(3)
        assert mu.is_zero()
        assert mu.total_mass == 0.0
        assert not mu.is_probability()

    def test_immutable_arrays(self):
        mu = dirac(0.0)
        with pytest.raises(ValueError):
            mu.atoms[0, 0] = 1.0


def merged_by_loop(atoms, weights):
    """The row-by-row merge: first occurrence order, weights summed exactly,
    zero sums dropped."""
    atoms = np.asarray(atoms, dtype=np.float64)
    slots, rows, ws = {}, [], []
    for row, w in zip(atoms, np.asarray(weights, dtype=np.float64).ravel()):
        key = row.tobytes()
        if key not in slots:
            slots[key] = len(rows)
            rows.append(row)
            ws.append([])
        ws[slots[key]].append(float(w))
    summed = [exact_sum(w) for w in ws]
    keep = [i for i, w in enumerate(summed) if w != 0.0]
    kept = np.array([rows[i] for i in keep]).reshape(len(keep), atoms.shape[1])
    return kept, np.array([summed[i] for i in keep])


class TestMerge:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("repeats", [False, True])
    def test_equals_the_row_by_row_merge(self, dim, repeats):
        rng = np.random.default_rng(dim + 10 * repeats)
        for n in (0, 1, 2, 9, 60):
            if repeats:
                atoms = (rng.integers(-2, 3, (n, dim)) / 2.0).astype(float)
                atoms[rng.random((n, dim)) < 0.2] = -0.0
            else:
                atoms = rng.normal(size=(n, dim))
            weights = rng.normal(size=n) * np.exp2(rng.integers(-40, 41, n))
            weights[rng.random(n) < 0.2] = 0.0
            weights[rng.random(n) < 0.1] = -0.0
            mu = SignedDiscreteMeasure(atoms, weights, dim)
            want_atoms, want_weights = merged_by_loop(atoms, weights)
            assert mu.atoms.shape == (want_atoms.shape[0], dim)
            assert mu.atoms.tobytes() == want_atoms.tobytes()
            assert mu.weights.tobytes() == want_weights.tobytes()
            assert mu.atoms.flags.c_contiguous

    def test_signed_zero_atoms_stay_distinct(self):
        mu = SignedDiscreteMeasure(np.array([[0.0], [-0.0], [0.0]]), [1.0, 2.0, 4.0], 1)
        assert mu.weights.tolist() == [5.0, 2.0]
        assert np.signbit(mu.atoms[:, 0]).tolist() == [False, True]

    def test_caller_arrays_are_not_frozen(self):
        atoms = np.array([[0.0], [1.0]])
        weights = np.array([0.5, 0.5])
        mu = SignedDiscreteMeasure(atoms, weights, 1)
        assert atoms.flags.writeable and weights.flags.writeable
        atoms[0, 0] = 7.0
        weights[0] = 3.0
        assert mu.atoms[0, 0] == 0.0 and mu.weights[0] == 0.5
        with pytest.raises(ValueError):
            mu.weights[0] = 1.0

    def test_fortran_ordered_input(self):
        atoms = np.asfortranarray(np.arange(12.0).reshape(4, 3))
        mu = SignedDiscreteMeasure(atoms, [1.0, 0.0, 2.0, 3.0], 3)
        assert mu.atoms.tolist() == atoms[[0, 2, 3]].tolist()
        assert mu.atoms.flags.c_contiguous


class TestSupportUnion:
    def test_slots_gather_each_measure(self):
        rng = np.random.default_rng(2)
        pool = rng.integers(-2, 3, (7, 2)) / 2.0
        pool[0] = [0.0, -0.0]
        pool[1] = [0.0, 0.0]
        items = [
            SignedDiscreteMeasure(pool[rng.integers(0, 7, 5)], rng.random(5) + 0.1, 2)
            for _ in range(20)
        ] + [empty_measure(2)]
        atoms, slots = support_union(items, 2)
        slots = list(slots)
        assert len(slots) == len(items)
        for mu, idx in zip(items, slots):
            assert idx.dtype == np.intp
            assert atoms[idx].tobytes() == mu.atoms.tobytes()
        keys = [row.tobytes() for row in atoms]
        assert len(set(keys)) == len(keys)
        # first occurrence order
        seen = []
        for mu in items:
            for row in mu.atoms:
                if row.tobytes() not in seen:
                    seen.append(row.tobytes())
        assert keys == seen

    def test_signed_zeros_get_their_own_slots(self):
        atoms, slots = support_union([dirac(0.0), dirac(-0.0), dirac(0.0)], 1)
        assert atoms.shape == (2, 1)
        assert [idx.tolist() for idx in slots] == [[0], [1], [0]]
        assert np.signbit(atoms[:, 0]).tolist() == [False, True]

    def test_only_empty_measures(self):
        atoms, slots = support_union([empty_measure(3)] * 2, 3)
        assert atoms.shape == (0, 3)
        assert [idx.size for idx in slots] == [0, 0]


class TestInBalls:
    def test_closed_balls_match_mass_in_ball(self):
        rng = np.random.default_rng(6)
        atoms = rng.integers(-4, 5, (40, 2)).astype(float)
        w = rng.normal(size=40)
        mu = SignedDiscreteMeasure(atoms, w, 2)
        center = np.array([0.5, -1.0])
        radii = [0.5, 2.5, 3.0, 20.0]
        inside = in_balls(mu.atoms, center, radii)
        assert inside.shape == (4, mu.support_size)
        for r, mask in zip(radii, inside):
            assert exact_sum(mu.weights[mask]).hex() == mass_in_ball(mu, center, r).hex()
        # the boundary is closed: (0.5, 1.5) is at distance 2.5 exactly
        on_edge = in_balls(np.array([[0.5, 1.5]]), center, [2.5])
        assert on_edge.tolist() == [[True]]


class TestArithmetic:
    def test_subtraction_cancels_to_empty(self):
        mu = measure_1d({0.0: 1.0, 1.0: -0.5})
        assert (mu - mu).is_zero()

    def test_addition_merges(self):
        mu = dirac(0.0) + dirac(0.0)
        assert weights_by_atom(mu) == {0.0: 2.0}

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            dirac([0.0]) + dirac([0.0, 0.0])


class TestJordan:
    def test_simple_sign_split(self):
        mu = dirac(0.0) - dirac(1.0)
        pos, neg = jordan_decompose(mu)
        assert weights_by_atom(pos) == {0.0: 1.0}
        assert weights_by_atom(neg) == {1.0: 1.0}

    def test_all_positive_gives_empty_negative_part(self):
        pos, neg = jordan_decompose(measure_1d({0.0: 0.3, 1.0: 0.7}))
        assert neg.is_zero() and neg.total_mass == 0.0

    def test_three_atom_split_and_reconstruction(self):
        mu = measure_1d({0.0: 0.7, 2.0: -0.3, 1.0: 0.5})
        pos, neg = jordan_decompose(mu)
        assert weights_by_atom(pos) == {0.0: 0.7, 1.0: 0.5}
        assert weights_by_atom(neg) == {2.0: 0.3}
        assert weights_by_atom(pos - neg) == weights_by_atom(mu)

    def test_reconstruction_and_disjoint_support_randomized(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(1, 20))
            d = int(rng.integers(1, 4))
            mu = SignedDiscreteMeasure(
                rng.uniform(-2, 2, (n, d)), rng.standard_normal(n), d
            )
            pos, neg = jordan_decompose(mu)
            assert np.all(pos.weights > 0) and np.all(neg.weights > 0)
            pos_keys = {a.tobytes() for a in pos.atoms}
            neg_keys = {a.tobytes() for a in neg.atoms}
            assert not (pos_keys & neg_keys)
            recon = pos - neg
            assert weights_by_atom_nd(recon) == weights_by_atom_nd(mu)


def weights_by_atom_nd(mu):
    return {a.tobytes(): float(w) for a, w in zip(mu.atoms, mu.weights)}


class TestNormalize:
    def test_divides_by_positive_mass(self):
        mu = measure_1d({0.0: 2.0, 1.0: -1.0})
        out = normalize_positive_part(mu)
        assert weights_by_atom(out) == {0.0: 1.0, 1.0: -0.5}

    def test_already_normalized_unchanged(self):
        mu = dirac(0.0) - dirac(1.0)
        out = normalize_positive_part(mu)
        assert weights_by_atom(out) == weights_by_atom(mu)

    def test_negates_when_negative_part_dominates(self):
        mu = measure_1d({0.0: -3.0, 1.0: 1.0})
        out = normalize_positive_part(mu)
        got = weights_by_atom(out)
        assert got[0.0] == pytest.approx(1.0, abs=1e-15)
        assert got[1.0] == pytest.approx(-1.0 / 3.0, abs=1e-15)
        pos, neg = jordan_decompose(out)
        assert pos.total_mass == pytest.approx(1.0, abs=1e-15)
        assert neg.total_mass <= pos.total_mass

    def test_zero_measure_rejected(self):
        with pytest.raises(DegenerateMeasureError):
            normalize_positive_part(empty_measure(1))


class TestMixture:
    def test_single_part_identity(self):
        p = measure_1d({0.0: 0.4, 1.0: 0.6})
        assert weights_by_atom(mixture([1.0], [p])) == weights_by_atom(p)

    def test_escape_style_combination(self):
        # 0.4 delta_0 + (1 - 0.4) delta_5: total mass exactly 1
        neg = measure_1d({0.0: 0.4})
        p_n = dirac(5.0)
        out = mixture([1.0, 0.6], [neg, p_n])
        assert weights_by_atom(out) == {0.0: 0.4, 5.0: 0.6}
        assert out.total_mass == 1.0

    def test_duplicate_atoms_merge(self):
        out = mixture([0.5, 0.5], [dirac(0.0), dirac(0.0)])
        assert weights_by_atom(out) == {0.0: 1.0}

    def test_length_mismatch(self):
        with pytest.raises(ParameterError):
            mixture([1.0], [dirac(0.0), dirac(1.0)])

    def test_mass_in_ball_linearity_exact_dyadic(self):
        parts = [measure_1d({0.0: 0.5, 3.0: 0.25}), measure_1d({0.5: 0.75})]
        w = [0.5, 0.25]
        mixed = mass_in_ball(mixture(w, parts), 0.0, 1.0)
        split = sum(c * mass_in_ball(p, 0.0, 1.0) for c, p in zip(w, parts))
        assert mixed == split

    def test_mass_in_ball_linearity_randomized(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            parts = []
            for _ in range(3):
                n = int(rng.integers(1, 8))
                parts.append(
                    SignedDiscreteMeasure(
                        rng.uniform(-2, 2, (n, 2)), rng.standard_normal(n), 2
                    )
                )
            w = rng.random(3)
            mixed = mass_in_ball(mixture(w, parts), [0.0, 0.0], 1.5)
            split = sum(c * mass_in_ball(p, [0.0, 0.0], 1.5) for c, p in zip(w, parts))
            assert mixed == pytest.approx(split, abs=1e-14)


class TestMassInBall:
    def test_dirac(self):
        assert mass_in_ball(dirac(0.0), 0.0, 1.0) == 1.0

    def test_excludes_far_atom(self):
        mu = measure_1d({0.0: 0.4, 5.0: 0.6})
        assert mass_in_ball(mu, 0.0, 1.0) == 0.4

    def test_boundary_is_closed(self):
        assert mass_in_ball(dirac(1.0), 0.0, 1.0) == 1.0

    def test_negative_radius_rejected(self):
        with pytest.raises(ParameterError):
            mass_in_ball(dirac(0.0), 0.0, -1.0)


class TestProbabilityPredicate:
    def test_accepts_probability(self):
        assert measure_1d({0.0: 0.25, 1.0: 0.75}).is_probability()

    def test_rejects_signed_or_offmass(self):
        assert not measure_1d({0.0: 1.5, 1.0: -0.5}).is_probability()
        assert not measure_1d({0.0: 0.9}).is_probability()

    def test_tolerance_window(self):
        mu = measure_1d({0.0: 1.0 + 5e-13})
        assert mu.is_probability()
        assert not mu.is_probability(tol=1e-14)


class TestMeasureSequence:
    def test_shared_dim_enforced(self):
        with pytest.raises(DimensionMismatchError):
            MeasureSequence((dirac([0.0]), dirac([0.0, 1.0])))

    def test_default_indices(self):
        seq = MeasureSequence((dirac(0.0), dirac(1.0)))
        assert seq.indices == (1, 2)
        assert len(seq) == 2

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            MeasureSequence(())
