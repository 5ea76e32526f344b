"""Evaluable positive-definite kernels and the algebra used by the experiments.

A :class:`Kernel` pairs a vectorized evaluation rule with the metadata the
rest of the package relies on: a bound on the diagonal (``sup_bound``), a
claim that sections vanish at infinity (``claims_c0``), a ``spacing`` rule
for the diffusing search, and a ``descriptor`` recording how the kernel was
built.  Kernels compose: :func:`shift_kernel` adds a constant,
:func:`scale_kernel` conjugates by a scalar field, and :func:`center_kernel`
recenters the feature map at a probability measure.  Descriptors nest
accordingly, so provenance survives composition; the other metadata is
composed by the same functions.

Evaluation is pure and lazy: nothing is tabulated at construction, and the
same two points always produce the same float, which several exact-equality
invariants downstream depend on.  Composite rules are arranged so that
``k(x, y)`` and ``k(y, x)`` run the identical sequence of float operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .accumulate import weighted_gram_sum
from .errors import DimensionMismatchError, MeasureError, ParameterError
from .measures import SignedDiscreteMeasure, as_point, as_points

BASE_FAMILIES = ("gaussian", "laplacian", "inverse_multiquadric")

# spacing is shaved slightly below the analytic solution of k(s) = eps so
# the greedy acceptance test is not decided by the last ulp
_SPACING_MARGIN = 1.0 - 1e-9


def _base_spacing(solve: Callable[[float], float]) -> Callable[[float], float | None]:
    """A base family's spacing rule from its solution s of k(s) = target < 1."""

    def spacing(eps):
        target = eps * _SPACING_MARGIN
        return None if target >= 1.0 else solve(target)

    return spacing


def _sqdist(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    # (a - b)**2 == (b - a)**2, so (i, j) and (j, i) are bit-identical for X is Y
    d = X.shape[1]
    if d >= 8:
        # numpy sums a last axis of 8 or more terms pairwise, which a
        # left-to-right loop over the coordinates would not reproduce
        return ((X[:, None, :] - Y[None, :, :]) ** 2).sum(axis=-1)
    # below 8 terms numpy adds left to right; one column at a time gives the
    # same bits without the (n, m, d) temporary
    out = (X[:, None, 0] - Y[None, :, 0]) ** 2
    for j in range(1, d):
        out += (X[:, None, j] - Y[None, :, j]) ** 2
    return out


@dataclass(frozen=True)
class Kernel:
    """A symmetric positive-definite function with evaluation metadata.

    ``block_fn`` maps an (n, d) and an (m, d) array to the (n, m) matrix of
    pairwise values.  ``sup_bound`` bounds ``k(x, x)`` (hence ``|k(x, y)|``
    by Cauchy-Schwarz).  ``claims_c0`` asserts that every section
    ``k(x, .)`` vanishes at infinity; it is an assertion, probed empirically
    by :func:`c0_probe`, never a certificate.  ``rowwise`` declares that
    ``block_fn(X[rows], Y[cols])`` equals ``block_fn(X, Y)[rows, cols]`` bit
    for bit and that ``block_fn(X, X)`` is exactly symmetric.  A large block
    may then be evaluated one tile at a time, and a self inner product may
    evaluate and sum only the upper triangle of its Gram.  ``spacing(eps)``
    is a distance s such that points s or more apart have ``|k| <= eps``, or
    None when no analytic rule is known.
    """

    block_fn: Callable[[np.ndarray, np.ndarray], np.ndarray] = field(repr=False)
    dim: int
    sup_bound: float
    claims_c0: bool
    descriptor: dict
    rowwise: bool = False
    spacing: Callable[[float], float | None] = field(default=lambda eps: None, repr=False)

    def block(self, X, Y) -> np.ndarray:
        """Matrix of values k(X_i, Y_j)."""
        Xa = as_points(X, self.dim)
        Ya = as_points(Y, self.dim)
        if Xa.shape[0] == 0 or Ya.shape[0] == 0:
            return np.zeros((Xa.shape[0], Ya.shape[0]))
        return self.block_fn(Xa, Ya)

    def __call__(self, x, y) -> float:
        """Single pairwise value k(x, y)."""
        xa = as_point(x, self.dim)
        ya = as_point(y, self.dim)
        return float(self.block_fn(xa[None, :], ya[None, :])[0, 0])


# ---------------------------------------------------------------------------
# base families
# ---------------------------------------------------------------------------


def gaussian(sigma: float = 1.0, dim: int = 1) -> Kernel:
    """exp(-|x-y|^2 / (2 sigma^2)); unit diagonal, sections vanish at infinity."""
    if sigma <= 0:
        raise ParameterError("gaussian bandwidth sigma must be positive")
    two_s2 = 2.0 * float(sigma) ** 2

    def block(X, Y):
        return np.exp(-_sqdist(X, Y) / two_s2)

    return Kernel(
        block_fn=block,
        dim=int(dim),
        sup_bound=1.0,
        claims_c0=True,
        rowwise=True,
        descriptor={"family": "gaussian", "sigma": float(sigma), "dim": int(dim)},
        spacing=_base_spacing(lambda t: float(sigma) * math.sqrt(2.0 * math.log(1.0 / t))),
    )


def laplacian(gamma: float = 1.0, dim: int = 1) -> Kernel:
    """exp(-gamma |x-y|)."""
    if gamma <= 0:
        raise ParameterError("laplacian rate gamma must be positive")
    g = float(gamma)

    def block(X, Y):
        return np.exp(-g * np.sqrt(_sqdist(X, Y)))

    return Kernel(
        block_fn=block,
        dim=int(dim),
        sup_bound=1.0,
        claims_c0=True,
        rowwise=True,
        descriptor={"family": "laplacian", "gamma": g, "dim": int(dim)},
        spacing=_base_spacing(lambda t: math.log(1.0 / t) / g),
    )


def inverse_multiquadric(c: float = 1.0, beta: float = 0.5, dim: int = 1) -> Kernel:
    """(1 + |x-y|^2 / c^2)^(-beta); unit diagonal, polynomial decay."""
    if c <= 0 or beta <= 0:
        raise ParameterError("inverse_multiquadric needs c > 0 and beta > 0")
    c2 = float(c) ** 2
    b = float(beta)

    def block(X, Y):
        return (1.0 + _sqdist(X, Y) / c2) ** (-b)

    return Kernel(
        block_fn=block,
        dim=int(dim),
        sup_bound=1.0,
        claims_c0=True,
        rowwise=True,
        descriptor={
            "family": "inverse_multiquadric",
            "c": float(c),
            "beta": b,
            "dim": int(dim),
        },
        spacing=_base_spacing(lambda t: float(c) * math.sqrt(t ** (-1.0 / b) - 1.0)),
    )


_FAMILY_BUILDERS = {
    "gaussian": gaussian,
    "laplacian": laplacian,
    "inverse_multiquadric": inverse_multiquadric,
}


def make_base_kernel(family: str, dim: int = 1, **params) -> Kernel:
    """Build one of the named base families by keyword parameters."""
    try:
        builder = _FAMILY_BUILDERS[family]
    except KeyError:
        raise ParameterError(
            f"unknown kernel family {family!r}; choose from {BASE_FAMILIES}"
        ) from None
    return builder(dim=dim, **params)


# ---------------------------------------------------------------------------
# scalar fields (the g of the scaled-kernel construction)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalarField:
    """A real function on R^d used to conjugate a kernel.

    ``is_c0`` declares decay at infinity, ``sup`` (if known) bounds |g|, and
    ``zero_set`` lists points where g is exactly zero.  ``fn`` maps an (n, d)
    array to the n values of g and is evaluated pointwise, so
    ``fn(X[rows])`` equals ``fn(X)[rows]`` bit for bit.
    """

    fn: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    dim: int
    is_c0: bool
    sup: float | None = None
    zero_set: np.ndarray | None = None
    descriptor: dict = field(default_factory=dict)

    def values(self, X) -> np.ndarray:
        return np.asarray(self.fn(as_points(X, self.dim)), dtype=np.float64)

    def __call__(self, x) -> float:
        return float(self.values(as_point(x, self.dim)[None, :])[0])


# sup of r^2 / (1 + r^4)^(3/4), attained at r^2 = sqrt(2)
C0_BUMP_SUP = 2.0**0.5 * 3.0**-0.75


def c0_bump_at(xi, dim: int | None = None) -> ScalarField:
    """Continuous field vanishing only at ``xi`` and decaying like 1/|x|.

    g(x) = r^2 / (1 + r^4)^(3/4) with r = |x - xi|: a quadratic zero at xi,
    strictly positive elsewhere, and O(1/r) at infinity, so it vanishes at
    infinity as the scaled-kernel construction requires.
    """
    p = as_point(xi, dim)

    def fn(X):
        r2 = ((X - p[None, :]) ** 2).sum(axis=1)
        return r2 / (1.0 + r2 * r2) ** 0.75

    return ScalarField(
        fn=fn,
        dim=p.shape[0],
        is_c0=True,
        sup=C0_BUMP_SUP,
        zero_set=p[None, :].copy(),
        descriptor={"g": "c0_bump_at", "xi": [float(v) for v in p]},
    )


def c0_null_at(points, dim: int | None = None) -> ScalarField:
    """Product of :func:`c0_bump_at` fields: zero exactly on ``points``."""
    pts = as_points(points, dim)
    if pts.shape[0] == 0:
        raise ParameterError("c0_null_at needs at least one zero point")
    factors = [c0_bump_at(p) for p in pts]

    def fn(X):
        out = factors[0].fn(X)
        for f in factors[1:]:
            out = out * f.fn(X)
        return out

    return ScalarField(
        fn=fn,
        dim=pts.shape[1],
        is_c0=True,
        sup=C0_BUMP_SUP ** len(factors),
        zero_set=pts.copy(),
        descriptor={"g": "c0_null_at", "xis": [[float(v) for v in p] for p in pts]},
    )


def saturating_at(xi, dim: int | None = None) -> ScalarField:
    """g(x) = 1 - exp(-|x - xi|^2): vanishes only at xi but tends to 1.

    Not a valid scaler for the null-kernel construction (it does not vanish
    at infinity); provided so presets can demonstrate the rejection.
    """
    p = as_point(xi, dim)

    def fn(X):
        r2 = ((X - p[None, :]) ** 2).sum(axis=1)
        return 1.0 - np.exp(-r2)

    return ScalarField(
        fn=fn,
        dim=p.shape[0],
        is_c0=False,
        sup=1.0,
        zero_set=p[None, :].copy(),
        descriptor={"g": "saturating_at", "xi": [float(v) for v in p]},
    )


FIELD_BUILDERS = {
    "c0_bump_at": c0_bump_at,
    "c0_null_at": c0_null_at,
    "saturating_at": saturating_at,
}


# ---------------------------------------------------------------------------
# kernel algebra
# ---------------------------------------------------------------------------


def shift_kernel(k: Kernel, c: float) -> Kernel:
    """k + c.  Positive shifts preserve positive definiteness; negative ones
    would not, so c < 0 is rejected.  A positive shift destroys decay at
    infinity, hence ``claims_c0`` drops to False for c > 0."""
    if c < 0:
        raise ParameterError("shift constant must be nonnegative")
    cc = float(c)

    def block(X, Y):
        return k.block_fn(X, Y) + cc

    return Kernel(
        block_fn=block,
        dim=k.dim,
        sup_bound=k.sup_bound + cc,
        claims_c0=k.claims_c0 and cc == 0.0,
        descriptor={"op": "shift", "c": cc, "child": k.descriptor},
        rowwise=k.rowwise,
    )


def scale_kernel(k: Kernel, g: ScalarField) -> Kernel:
    """g(x) k(x, y) g(y).

    The (i, j) entry is computed as ``(g_i * g_j) * k_ij`` so symmetry is
    exact.  Sections inherit decay either from the kernel or from a C0
    field, and the declared sup of g (when present) propagates to
    ``sup_bound``.
    """
    if g.dim != k.dim:
        raise DimensionMismatchError(
            f"field dimension {g.dim} != kernel dimension {k.dim}"
        )
    child = k.block_fn

    def block(X, Y):
        gx = g.fn(X)
        gy = g.fn(Y)
        return (gx[:, None] * gy[None, :]) * child(X, Y)

    def spacing(eps):
        if g.sup is None:
            return None
        # |g(x) k g(y)| <= sup^2 |k|; a bound >= 1 means no constraint at all
        child_eps = eps / (g.sup * g.sup)
        return None if child_eps >= 1.0 else k.spacing(child_eps)

    bounded = math.isfinite(k.sup_bound)
    sup = k.sup_bound * g.sup * g.sup if g.sup is not None else math.inf
    return Kernel(
        block_fn=block,
        dim=k.dim,
        sup_bound=sup,
        claims_c0=k.claims_c0 or (g.is_c0 and bounded),
        descriptor={"op": "scale", "field": dict(g.descriptor), "child": k.descriptor},
        rowwise=k.rowwise,
        spacing=spacing,
    )


def center_kernel(k: Kernel, p: SignedDiscreteMeasure, a: float = 0.0) -> Kernel:
    """Recenter the feature map at the probability measure ``p``.

    The returned kernel is the inner product of (delta_x - p) with
    (delta_y - p) under ``k``, plus the constant ``a``.  Expanded:

        k(x, y) - m(x) - m(y) + |p|^2 + a,

    where m is the embedding of p under ``k``.  |p|^2 is computed once here;
    m costs O(support of p) per evaluated point and is evaluated per block.
    Recentering annihilates ``p`` when a = 0 and leaves the metric on
    probability measures unchanged for any a >= 0.
    """
    if a < 0:
        raise ParameterError("centering offset a must be nonnegative")
    if p.dim != k.dim:
        raise DimensionMismatchError(
            f"measure dimension {p.dim} != kernel dimension {k.dim}"
        )
    if not p.is_probability():
        raise MeasureError("center_kernel requires a probability measure")

    child = k.block_fn
    p_atoms = p.atoms
    p_weights = p.weights
    norm_sq = weighted_gram_sum(p_weights, child(p_atoms, p_atoms), p_weights)
    const = norm_sq + float(a)

    # a BLAS matrix-vector product, whose rounding of a column can depend on
    # the column's position in X: the recentred kernel is not rowwise
    def mean_embedding(X):
        return p_weights @ child(p_atoms, X)

    def block(X, Y):
        mx = mean_embedding(X)
        my = mean_embedding(Y)
        # grouped as k - (m_i + m_j) + const so (i,j) and (j,i) match exactly
        return (child(X, Y) - (mx[:, None] + my[None, :])) + const

    rows = [[list(map(float, at)), float(w)] for at, w in zip(p_atoms, p_weights)]
    return Kernel(
        block_fn=block,
        dim=k.dim,
        # diagonal is |delta_x - p|^2 + a <= (2 sqrt(sup))^2 + a
        sup_bound=4.0 * k.sup_bound + float(a),
        claims_c0=False,
        descriptor={"op": "center", "a": float(a), "p": rows, "child": k.descriptor},
    )


# ---------------------------------------------------------------------------
# structural probes
# ---------------------------------------------------------------------------


def gram(k: Kernel, pts_a, pts_b=None) -> np.ndarray:
    """Dense matrix k(a_i, b_j); exactly symmetric when pts_b is omitted."""
    A = as_points(pts_a, k.dim)
    B = A if pts_b is None else as_points(pts_b, k.dim)
    return k.block(A, B)


def psd_tolerance(n: int, sup_bound: float) -> float:
    """Eigenvalue drift allowance: floating-point eigensolvers produce
    O(n * eps * |G|) negative noise on genuinely PSD matrices."""
    return 1e-8 * n * sup_bound


@dataclass(frozen=True)
class DecayTrace:
    """Sampled evidence that a kernel section vanishes at infinity.

    ``values[i]`` is the max of |k(x, y)| over sampled |y| = radii[i].  The
    probe reports evidence from finitely many evaluations, never a
    certificate.
    """

    radii: np.ndarray
    values: np.ndarray
    eps: float
    passed: bool


def c0_probe(
    k: Kernel,
    x,
    radii,
    samples_per_radius: int = 32,
    eps: float = 1e-3,
    seed: int = 0,
) -> DecayTrace:
    """Sample |k(x, .)| on spheres of growing radius around the origin.

    Passes when the sampled sup at the largest radius falls below ``eps``.
    """
    r = np.asarray(radii, dtype=np.float64).ravel()
    if r.size == 0:
        raise ParameterError("c0_probe needs at least one radius")
    if np.any(r <= 0) or np.any(np.diff(r) <= 0):
        raise ParameterError("radii must be positive and strictly increasing")
    if samples_per_radius < 1:
        raise ParameterError("samples_per_radius must be at least 1")
    xa = as_point(x, k.dim)
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((samples_per_radius, k.dim))
    norms = np.sqrt((dirs**2).sum(axis=1))
    norms[norms == 0] = 1.0
    dirs /= norms[:, None]

    values = np.empty_like(r)
    for i, radius in enumerate(r):
        sphere = radius * dirs
        values[i] = float(np.max(np.abs(k.block(xa[None, :], sphere))))
    return DecayTrace(radii=r, values=values, eps=float(eps), passed=bool(values[-1] <= eps))
