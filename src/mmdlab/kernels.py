"""Evaluable positive-definite kernels and the algebra used by the experiments.

A :class:`Kernel` pairs a vectorized evaluation rule with the metadata the
rest of the package relies on: a bound on the diagonal (``sup_bound``), a
claim that sections vanish at infinity (``claims_c0``), a ``spacing`` rule
for the diffusing search, a far-field rule (:meth:`Kernel.far_field`) for
sums that skip entries known in advance, and a ``descriptor`` recording how
the kernel was built.  Kernels compose: :func:`shift_kernel` adds a constant,
:func:`scale_kernel` conjugates by a scalar field, and :func:`center_kernel`
recenters the feature map at a probability measure.  Descriptors nest
accordingly, so provenance survives composition; the other metadata is
composed by the same functions.

Evaluation is pure and lazy: nothing is tabulated at construction, and the
same two points always produce the same float, which several exact-equality
invariants downstream depend on.  Composite rules are arranged so that
``k(x, y)`` and ``k(y, x)`` run the identical sequence of float operations.

A kernel evaluates through one function, ``block_fn``, over two tuples of
per-point columns: the points, and the per-point values the kernel reads
(the field column of each :func:`scale_kernel`, the mean embedding column
of each :func:`center_kernel`).  ``k(x, y)`` and :meth:`Kernel.block` on
points build those columns first.  A caller that evaluates many blocks
over one point set builds them once, as a :class:`PointTable`, with
:meth:`Kernel.table`.  Slices of a table feed :meth:`Kernel.block` with no
further validation or per-point work, and give the same bits as the points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .accumulate import row_tiles, tiled_gram_sum
from .errors import DimensionMismatchError, MeasureError, ParameterError
from .measures import SignedDiscreteMeasure, as_point, as_points

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


# np.exp rounds every argument below this to +0.0: exp(-745.13) is the
# smallest subnormal, 5e-324, and exp(-746) is 0.0
_EXP_ZERO_BELOW = -746.0
# blocks of fewer entries go straight to np.exp: the underflow check costs
# a few microseconds a call, which thousands of small blocks of nearby
# points pay for nothing; perfbench runs at 1024, 2048 and 4096 are in
# CHANGES.md
_EXP_CHECK_MIN = 2048


# a far-field radius is the analytic one times this: _sqdist of d
# coordinates, the division or sqrt and the product with the rate round at
# most d + 5 times, each by under 2**-53 relative, which cannot undo a
# relative margin of 1e-6 or more on the exp argument for any d below 10**9
_FAR_MARGIN = 1.0 + 1e-6
# a radius whose square is below this could lose that margin to underflow
_FAR_MIN_SQUARE = 2.0**-1000


def _exp_far_field(radius: float) -> Callable[[tuple], tuple[float, float] | None]:
    """The far-field rule of a base family whose exp argument is below
    ``_EXP_ZERO_BELOW`` wherever points are more than ``radius`` apart:
    np.exp rounds there to +0.0 at every dispatch level."""
    r = radius * _FAR_MARGIN
    rule = (r, 0.0) if _FAR_MIN_SQUARE <= r * r < math.inf else None
    return lambda cols: rule


def _exp(t: np.ndarray) -> np.ndarray:
    """np.exp(t) bit for bit; t is a temporary the caller owns.

    numpy's vector exp takes several times longer on an argument that
    underflows than on one that does not, and in a diffusing sequence
    almost every off-diagonal argument underflows.  When a quarter of a
    block's lanes or more do, those lanes are set to +0.0 directly and
    np.exp runs on the others, gathered into one contiguous array; each
    lane's exp is computed from that lane alone, so its bits do not change.
    nan compares false, so a nan lane is evaluated.
    """
    if t.size >= _EXP_CHECK_MIN:
        dead = t < _EXP_ZERO_BELOW
        # with fewer dead lanes, the gather and scatter cost more than
        # the underflows they skip
        if 4 * np.count_nonzero(dead) >= t.size:
            live = np.flatnonzero(np.logical_not(dead, out=dead))
            out = np.zeros(t.shape)
            out.reshape(-1)[live] = np.exp(t.reshape(-1)[live])
            return out
    return np.exp(t, out=t)


@dataclass(frozen=True, eq=False)
class Kernel:
    """A symmetric positive-definite function with evaluation metadata.

    ``table_fn(X)`` maps validated points, at least one, to a tuple of
    columns, each with one row per point: ``X`` itself first, then whatever
    per-point values the kernel reads (the field column g(X) of a
    :func:`scale_kernel`, the mean embedding column m(X) of a
    :func:`center_kernel`).  ``block_fn(a, b)`` maps two such tuples, of n
    and m points, to the (n, m) matrix of pairwise values; the base
    families read ``a[0]`` and ``b[0]``, the points, and a kernel that keeps
    no per-point values leaves ``table_fn`` at its default, the points
    alone.  Every block, ``k(x, y)`` included, is evaluated by these two.
    ``sup_bound`` bounds ``k(x, x)`` (hence ``|k(x, y)|`` by
    Cauchy-Schwarz).  ``claims_c0`` asserts that every section ``k(x, .)``
    vanishes at infinity; it is an assertion, probed empirically by
    :func:`c0_probe`, never a certificate.  ``spacing(eps)`` is a distance
    s such that points s or more apart have ``|k| <= eps``, or None when no
    analytic rule is known.

    ``far_field_fn`` maps the columns of a table of at least one point to a
    far-field rule ``(radius, value)``, or None when no rule is known:
    every entry of a block between rows of that table whose two points are
    more than ``radius`` apart, in exact arithmetic, is bit for bit
    ``value``, at every numpy SIMD dispatch level.  It is a proof from the
    float operations of ``block_fn``, not an estimate; a sum may skip those
    entries (:func:`mmdlab.accumulate.symmetric_gram_sum`).  The gaussian
    and laplacian families have ``(r, 0.0)``, with r just past the distance
    where their exp argument falls below -746; :func:`shift_kernel` keeps
    the radius and adds its constant to the value; :func:`scale_kernel`
    keeps a zero rule when the table's field column has no sign bit and a
    finite square; the other kernels have none.

    The contract: ``block_fn`` computes each entry from its two rows alone,
    and ``table_fn`` each row from its point alone, so any tile equals that
    slice of the whole block bit for bit, and ``block_fn(a, a)`` is exactly
    symmetric.  Large blocks are therefore evaluated in tiles and self
    inner products over the upper triangle.  A kernel that breaks it loses
    only bit-reproducibility between tilings.  Kernels compare and hash by
    identity, as the self-term slot assumes.
    """

    block_fn: Callable[[tuple, tuple], np.ndarray] = field(repr=False)
    dim: int
    sup_bound: float
    claims_c0: bool
    descriptor: dict
    spacing: Callable[[float], float | None] = field(default=lambda eps: None, repr=False)
    far_field_fn: Callable[[tuple], tuple[float, float] | None] = field(
        default=lambda cols: None, repr=False
    )
    table_fn: Callable[[np.ndarray], tuple] = field(default=lambda X: (X,), repr=False)

    def table(self, X) -> PointTable:
        """The points X, validated once, with the per-point values k reads."""
        return PointTable(self, self._point_columns(X))

    def block(self, X, Y) -> np.ndarray:
        """Matrix of values k(X_i, Y_j).

        X and Y are points, validated on every call, or tables built by this
        kernel's :meth:`table` (or slices of them), which are used as they
        are.  A table built by any other kernel object is refused.  Y is X
        reads the columns once.
        """
        a = self._columns_of(X)
        b = a if Y is X else self._columns_of(Y)
        n, m = a[0].shape[0], b[0].shape[0]
        if not n or not m:
            return np.zeros((n, m))
        return self.block_fn(a, b)

    def far_field(self, X) -> tuple[float, float] | None:
        """The far-field rule ``(radius, value)`` of blocks among the points
        X (points, or a table this kernel built), or None: every entry
        whose two points are more than ``radius`` apart is bit for bit
        ``value``."""
        a = self._columns_of(X)
        return self.far_field_fn(a) if len(a[0]) else None

    def __call__(self, x, y) -> float:
        """Single pairwise value k(x, y)."""
        a = self.table_fn(as_point(x, self.dim)[None, :])
        b = self.table_fn(as_point(y, self.dim)[None, :])
        return float(self.block_fn(a, b)[0, 0])

    def _columns_of(self, X) -> tuple:
        """The columns of a table this kernel built, or of validated points."""
        if not isinstance(X, PointTable):
            return self._point_columns(X)
        if X.kernel is not self:
            raise ParameterError("point table was built by another kernel")
        return X.columns

    def _point_columns(self, X) -> tuple:
        X = as_points(X, self.dim)
        # a block with no points is zeros, so the columns of no points are
        # the points alone: no per-point rule ever sees an empty array
        return self.table_fn(X) if len(X) else (X,)


class PointTable:
    """Points validated for one kernel, with the per-point values it reads.

    Built by :meth:`Kernel.table` and accepted by that kernel's
    :meth:`Kernel.block` alone.  ``columns`` is the tuple the kernel's
    ``table_fn`` returned and its ``block_fn`` reads: ``columns[0]`` holds
    the (n, d) points and every column has one row per point, so
    ``table[rows]`` is the table of ``points[rows]`` bit for bit.  ``rows``
    is a slice or a 1-d array of row indices, never a single index, so a
    table always has rows of points.  A table is never written: ``a + b``
    is a new table of a's rows and then b's.
    """

    __slots__ = ("kernel", "columns")

    def __init__(self, kernel: Kernel, columns: tuple):
        self.kernel = kernel
        self.columns = columns

    @property
    def points(self) -> np.ndarray:
        return self.columns[0]

    def __len__(self) -> int:
        return self.columns[0].shape[0]

    def __getitem__(self, rows) -> PointTable:
        _check_rows(rows)
        return PointTable(self.kernel, tuple([c[rows] for c in self.columns]))

    def __add__(self, other: PointTable) -> PointTable:
        if other.kernel is not self.kernel:
            raise ParameterError("point table was built by another kernel")
        # a table of no points may hold its points column alone
        if not len(other):
            return self
        if not len(self):
            return other
        return PointTable(
            self.kernel, tuple([np.concatenate(c) for c in zip(self.columns, other.columns)])
        )


def _check_rows(rows) -> None:
    if not isinstance(rows, slice) and np.ndim(rows) != 1:
        raise TypeError("index a point table by a slice or a 1-d array of rows")


# ---------------------------------------------------------------------------
# base families
# ---------------------------------------------------------------------------


def _square(x: float) -> float:
    """x ** 2, or inf where Python raises on the overflow."""
    try:
        return x**2
    except OverflowError:
        return math.inf


def _require_positive(message: str, *values: float) -> None:
    """Refuse a base family whose parameters, or the constants its blocks
    derive from them, are not all finite and positive (nan included)."""
    if not all(0.0 < v < math.inf for v in values):
        raise ParameterError(message)


def gaussian(sigma: float = 1.0, dim: int = 1) -> Kernel:
    """exp(-|x-y|^2 / (2 sigma^2)); unit diagonal, sections vanish at infinity."""
    sigma = float(sigma)
    two_s2 = 2.0 * _square(sigma)
    _require_positive(
        "gaussian bandwidth sigma must be positive with 2 sigma^2 finite and nonzero",
        sigma,
        two_s2,
    )

    def block(a, b):
        return _exp(-_sqdist(a[0], b[0]) / two_s2)

    return Kernel(
        block_fn=block,
        dim=int(dim),
        sup_bound=1.0,
        claims_c0=True,
        descriptor={"family": "gaussian", "sigma": sigma, "dim": int(dim)},
        spacing=_base_spacing(lambda t: sigma * math.sqrt(2.0 * math.log(1.0 / t))),
        # |x - y|^2 / (2 sigma^2) > 746 beyond sigma sqrt(1492)
        far_field_fn=_exp_far_field(sigma * math.sqrt(-2.0 * _EXP_ZERO_BELOW)),
    )


def laplacian(gamma: float = 1.0, dim: int = 1) -> Kernel:
    """exp(-gamma |x-y|)."""
    g = float(gamma)
    _require_positive("laplacian rate gamma must be positive and finite", g)

    def block(a, b):
        return _exp(-g * np.sqrt(_sqdist(a[0], b[0])))

    return Kernel(
        block_fn=block,
        dim=int(dim),
        sup_bound=1.0,
        claims_c0=True,
        descriptor={"family": "laplacian", "gamma": g, "dim": int(dim)},
        spacing=_base_spacing(lambda t: math.log(1.0 / t) / g),
        far_field_fn=_exp_far_field(-_EXP_ZERO_BELOW / g),
    )


def inverse_multiquadric(c: float = 1.0, beta: float = 0.5, dim: int = 1) -> Kernel:
    """(1 + |x-y|^2 / c^2)^(-beta); unit diagonal, polynomial decay."""
    c, beta = float(c), float(beta)
    c2 = _square(c)
    _require_positive(
        "inverse_multiquadric needs finite c > 0 and beta > 0 with c^2 finite and nonzero",
        c,
        c2,
        beta,
    )

    def block(a, b):
        return (1.0 + _sqdist(a[0], b[0]) / c2) ** (-beta)

    return Kernel(
        block_fn=block,
        dim=int(dim),
        sup_bound=1.0,
        claims_c0=True,
        descriptor={
            "family": "inverse_multiquadric",
            "c": c,
            "beta": beta,
            "dim": int(dim),
        },
        spacing=_base_spacing(lambda t: c * math.sqrt(t ** (-1.0 / beta) - 1.0)),
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
            f"unknown kernel family {family!r}; choose from {tuple(_FAMILY_BUILDERS)}"
        ) from None
    return builder(dim=dim, **params)


# ---------------------------------------------------------------------------
# scalar fields (the g of the scaled-kernel construction)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalarField:
    """A real function on R^d used to conjugate a kernel.

    ``is_c0`` declares decay at infinity and ``sup`` (if known) bounds |g|.
    ``fn`` maps an (n, d) array to the n values of g and is evaluated
    pointwise, so ``fn(X[rows])`` equals ``fn(X)[rows]`` bit for bit.
    """

    fn: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    dim: int
    is_c0: bool
    sup: float | None = None
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
    if not 0 <= c < math.inf:
        raise ParameterError("shift constant must be finite and nonnegative")
    cc = float(c)

    def block(a, b):
        return k.block_fn(a, b) + cc

    def far_field(cols):
        rule = k.far_field_fn(cols)
        # the block's own float addition: a far value of 0.0 becomes cc
        return None if rule is None else (rule[0], rule[1] + cc)

    # a shift reads no per-point values of its own: its tables are its child's
    return Kernel(
        block_fn=block,
        dim=k.dim,
        sup_bound=k.sup_bound + cc,
        claims_c0=k.claims_c0 and cc == 0.0,
        descriptor={"op": "shift", "c": cc, "child": k.descriptor},
        far_field_fn=far_field,
        table_fn=k.table_fn,
    )


def scale_kernel(k: Kernel, g: ScalarField) -> Kernel:
    """g(x) k(x, y) g(y).

    The (i, j) entry is computed as ``(g_i * g_j) * k_ij`` so symmetry is
    exact.  Sections inherit decay either from the kernel or from a C0
    field, and the declared sup of g (when present) propagates to
    ``sup_bound``.  A table holds the child's columns and then the column
    g(X), which has the bits of g at each point alone (the
    :class:`ScalarField` contract), so g runs once per point of a table.
    """
    if g.dim != k.dim:
        raise DimensionMismatchError(
            f"field dimension {g.dim} != kernel dimension {k.dim}"
        )

    def table(X):
        return k.table_fn(X) + (g.fn(X),)

    def block(a, b):
        return (a[-1][:, None] * b[-1][None, :]) * k.block_fn(a[:-1], b[:-1])

    def far_field(cols):
        rule = k.far_field_fn(cols[:-1])
        if rule is None or rule[1] != 0.0:
            return None
        # (g_i * g_j) * 0.0 keeps the zero's bits only when g_i * g_j is
        # finite with no sign bit: 0 * inf and 0 * nan are nan, and a
        # negative factor flips the zero's sign
        g_col = cols[-1]
        if np.signbit(g_col).any():
            return None
        top = float(g_col.max())
        return rule if top * top < math.inf else None

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
        spacing=spacing,
        far_field_fn=far_field,
        table_fn=table,
    )


def center_kernel(k: Kernel, p: SignedDiscreteMeasure, a: float = 0.0) -> Kernel:
    """Recenter the feature map at the probability measure ``p``.

    The returned kernel is the inner product of (delta_x - p) with
    (delta_y - p) under ``k``, plus the constant ``a``.  Expanded:

        k(x, y) - m(x) - m(y) + |p|^2 + a,

    where m is the embedding of p under ``k``.  |p|^2 is computed once here.
    A table holds the child's columns and then m(X), a last-axis row sum
    that numpy rounds for each point alone.  Both are evaluated a row tile
    at a time (:func:`~mmdlab.accumulate.row_tiles`), so memory stays
    O(tile) for any size of p.  Recentering
    annihilates ``p`` when a = 0 and leaves the metric on probability
    measures unchanged for any a >= 0.
    """
    if not 0 <= a < math.inf:
        raise ParameterError("centering offset a must be finite and nonnegative")
    if p.dim != k.dim:
        raise DimensionMismatchError(
            f"measure dimension {p.dim} != kernel dimension {k.dim}"
        )
    if not p.is_probability():
        raise MeasureError("center_kernel requires a probability measure")

    p_cols = k.table_fn(p.atoms)
    norm_sq = tiled_gram_sum(
        p.weights, lambda rows: k.block_fn(tuple(c[rows] for c in p_cols), p_cols), p.weights
    )
    const = norm_sq + float(a)

    def table(X):
        cols = k.table_fn(X)
        m = np.empty(len(X))
        for rows in row_tiles(len(X), p.support_size):
            tile = tuple([c[rows] for c in cols])
            m[rows] = (k.block_fn(tile, p_cols) * p.weights).sum(axis=1)
        return cols + (m,)

    def block(s, t):
        # grouped as k - (m_i + m_j) + const so (i,j) and (j,i) match exactly
        return (k.block_fn(s[:-1], t[:-1]) - (s[-1][:, None] + t[-1][None, :])) + const

    rows = [[at, w] for at, w in zip(p.atoms.tolist(), p.weights.tolist())]
    return Kernel(
        block_fn=block,
        dim=k.dim,
        # diagonal is |delta_x - p|^2 + a <= (2 sqrt(sup))^2 + a
        sup_bound=4.0 * k.sup_bound + float(a),
        claims_c0=False,
        descriptor={"op": "center", "a": float(a), "p": rows, "child": k.descriptor},
        table_fn=table,
    )


# ---------------------------------------------------------------------------
# structural probes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecayTrace:
    """Sampled evidence that a kernel section vanishes at infinity.

    ``values[i]`` is the max of |k(x, y)| over sampled |y| = radii[i].  The
    probe reports evidence from finitely many evaluations, never a
    certificate.
    """

    values: np.ndarray
    passed: bool


# the sampled sup at the largest radius that passes :func:`c0_probe`, and
# the directions sampled on each sphere
C0_PROBE_EPS = 1e-3
C0_PROBE_SAMPLES = 32


def c0_probe(k: Kernel, x, radii, seed: int = 0) -> DecayTrace:
    """Sample |k(x, .)| in ``C0_PROBE_SAMPLES`` seeded directions on spheres
    of growing finite radius around the origin.

    Passes when the sampled sup at the largest radius falls below
    ``C0_PROBE_EPS``.
    """
    r = np.asarray(radii, dtype=np.float64).ravel()
    if r.size == 0:
        raise ParameterError("c0_probe needs at least one radius")
    if not (np.all(np.isfinite(r)) and np.all(r > 0) and np.all(np.diff(r) > 0)):
        raise ParameterError(f"radii {r.tolist()} must be finite, positive and strictly increasing")
    row = k.table(as_point(x, k.dim)[None, :])
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((C0_PROBE_SAMPLES, k.dim))
    norms = np.sqrt((dirs**2).sum(axis=1))
    norms[norms == 0] = 1.0
    dirs /= norms[:, None]

    values = np.empty_like(r)
    for i, radius in enumerate(r):
        sphere = radius * dirs
        values[i] = float(np.max(np.abs(k.block(row, sphere))))
    return DecayTrace(values=values, passed=bool(values[-1] <= C0_PROBE_EPS))
