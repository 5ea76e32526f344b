"""The numpy summation behaviour that bit-identical traces rely on.

``kernels._sqdist`` adds squared coordinate differences one column at a
time and expects the bits of ``.sum(axis=-1)``; bump test functions,
``measures.in_balls``, ``diagnostics.kme_probe`` and the mean embedding
column of ``kernels.center_kernel`` take last-axis row sums and expect a
row's sum not to depend on the other rows evaluated with it.
If a numpy release changes either behaviour these tests fail, instead of
digests shifting silently.
"""

import numpy as np
import pytest


def wide_terms(rng, shape):
    # magnitudes across 2**-60..2**60 make the order of additions visible
    return rng.standard_normal(shape) * np.exp2(rng.integers(-60, 61, shape))


@pytest.mark.parametrize("n", range(1, 8))
def test_short_last_axis_sums_add_left_to_right(n):
    rng = np.random.default_rng(n)
    terms = wide_terms(rng, (4000, n))
    left_to_right = terms[:, 0].copy()
    for j in range(1, n):
        left_to_right += terms[:, j]
    assert terms.sum(axis=-1).tobytes() == left_to_right.tobytes()
    assert terms.sum(axis=1).tobytes() == left_to_right.tobytes()
    if n >= 3:
        # the data tells orders apart: right to left differs on some rows
        right_to_left = terms[:, -1].copy()
        for j in range(n - 2, -1, -1):
            right_to_left += terms[:, j]
        assert right_to_left.tobytes() != left_to_right.tobytes()


@pytest.mark.parametrize("p", [1, 2, 3, 7, 8, 9, 16, 17, 33, 100, 200, 513])
def test_row_sums_do_not_depend_on_row_position(p):
    rng = np.random.default_rng(p)
    terms = wide_terms(rng, (300, p))
    terms[rng.random(terms.shape) < 0.05] = -0.0
    whole = terms.sum(axis=1)
    for rows in (
        slice(0, 1),
        slice(299, 300),
        slice(5, 6),
        slice(3, 250, 7),
        slice(None, None, -1),
        rng.permutation(300)[:57],
    ):
        assert terms[rows].sum(axis=1).tobytes() == whole[rows].tobytes()
    for i in (0, 1, 150, 299):
        assert terms[i].sum().hex() == whole[i].hex()
        # a single row, copied on its own into a fresh array
        assert np.array(terms[i : i + 1]).sum(axis=1)[0].hex() == whole[i].hex()
