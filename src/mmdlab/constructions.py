"""Constructive sequences and counterexample kernels.

Three constructions live here.

* :func:`diffusing_sequence` greedily builds a uniform probability measure
  on n points that all avoid an exclusion ball and have pairwise-small
  kernel values, so its embedding norm is at most sup/n + (n-1) eps / n.
  Pushing eps = 1/n drives the norm to zero while the mass marches off to
  infinity.

* :func:`escape_sequence` turns a kernel-annihilated signed measure
  (a "witness": |mu| = 0 under k) into a sequence of probability measures
  mu_n = neg + (1 - neg(X)) P_n whose MMD to the positive part equals
  (1 - neg(X)) |P_n| exactly, yet which keeps no mass near that target.

* :func:`dirac_null_kernel` builds the kernels that admit such witnesses:
  conjugating a separating kernel by a field vanishing at xi kills the
  embedding of delta_xi while still separating mean-zero differences away
  from xi.  Shifting it by 1 (``shift_kernel(null, 1.0)``) restores
  separation of all signed measures without changing the metric on
  probability measures; recentering at delta_xi
  (``center_kernel(base, dirac(xi))``) gives the reverse counterexample.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import accumulate
from .accumulate import symmetric_gram_sum
from .embedding import mmd, norm
from .errors import (
    DimensionMismatchError,
    MeasureError,
    NotAWitnessError,
    ParameterError,
    SearchFailureError,
)
from .kernels import (
    Kernel,
    ScalarField,
    c0_bump_at,
    scale_kernel,
)
from .measures import (
    MeasureSequence,
    SignedDiscreteMeasure,
    _as_int,
    as_point,
    in_balls,
    jordan_decompose,
    mixture,
    normalize_positive_part,
)

# largest embedding norm a witness may have, absorbing float noise only
WITNESS_TOL = 1e-10
# the default exclusion ball's radius beyond the witness support
EXCLUSION_MARGIN = 1.0
# a search for n atoms scans at most max(MIN_CANDIDATES,
# CANDIDATES_PER_ATOM * n) candidates unless told otherwise: a ray places
# one atom per candidate, so a budget that did not grow with n would stop
# every large enough search
MIN_CANDIDATES = 200_000
CANDIDATES_PER_ATOM = 8


@dataclass(frozen=True)
class ExclusionRegion:
    """Closed ball the construction must keep all atoms strictly outside."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = as_point(self.center)
        if not math.isfinite(self.radius) or self.radius < 0:
            raise ParameterError("exclusion radius must be finite and nonnegative")
        object.__setattr__(self, "center", c)

    def contains(self, pts: np.ndarray) -> np.ndarray:
        return in_balls(pts, self.center, [self.radius])[0]


@dataclass(frozen=True)
class SearchDomain:
    """Candidate enumeration for the greedy point search.

    Strategies, each a stream of candidate arrays of ``_LOOKAHEAD`` rows:
      ray    -- points at center + (R + m s) e1, m = 1, 2, ...; s is
                derived analytically from the kernel when possible, else
                ``step``.
      grid   -- expanding integer shells scaled by ``step``, each in
                itertools.product's order, in chunks that may span
                shells; the shells wholly inside the exclusion ball come
                first as one int, the number of their points, which are
                counted against the budget but never enumerated.
      random -- seeded isotropic draws with linearly growing radius.

    All three enumerate an unbounded region, which the diffusing search
    needs; all three are deterministic given the seed.  The search judges
    each array's rows in order by their running maximum |k| against the
    accepted atoms (:func:`diffusing_sequence`).
    """

    dim: int
    strategy: str = "ray"
    step: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ParameterError(f"unknown search strategy {self.strategy!r}")
        if not 0 < self.step < math.inf:
            raise ParameterError("search step must be finite and positive")
        object.__setattr__(self, "dim", _as_int(self.dim, "search dimension", 1))
        object.__setattr__(self, "seed", _as_int(self.seed, "search seed", 0))


# candidates each stream yields at a time
_LOOKAHEAD = 256


def _ray_candidates(dom: SearchDomain, excl: ExclusionRegion, spacing: float):
    u = np.zeros(dom.dim)
    u[0] = 1.0
    for first in itertools.count(1, _LOOKAHEAD):
        m = np.arange(first, first + _LOOKAHEAD)
        yield excl.center + (excl.radius + m[:, None] * spacing) * u


# a bound on a grid point's distance from the center, widened by this, is
# a bound on the distance in_balls computes: the point's sum and product,
# the difference, d squares, d - 1 additions and the sqrt round at most
# d + 5 times, each by under 2**-53 relative, as in kernels._FAR_MARGIN
_INSIDE_MARGIN = 1.0 + 1e-6


def _shells_inside(dom: SearchDomain, excl: ExclusionRegion) -> int:
    """The number of grid shells, from the first, whose every point
    ``ExclusionRegion.contains`` calls inside the ball.

    Shell s's points lie at most ``step * s`` from the center in every
    coordinate.  Adding that offset to the center rounds by at most 2**-53
    of the center's largest coordinate, which the bound adds twice over,
    and ``_INSIDE_MARGIN`` covers the rounding of the distance.  The bound
    is monotone in s, its float operations too, so the count is found by
    doubling and bisection.  A shell past 2**1023 is not called inside.
    """
    top = float(np.abs(excl.center).max()) * 2.0**-52
    root = math.sqrt(dom.dim) * _INSIDE_MARGIN

    def inside(shell: int) -> bool:
        return shell < 2**1023 and root * (dom.step * float(shell) + top) <= excl.radius

    hi = 1
    while inside(hi):
        hi *= 2
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if inside(mid) else (lo, mid)
    return lo


def _cube_rows(out: np.ndarray, shell: int, first: int) -> None:
    """Fill ``out`` with the points of the cube [-shell, shell]**c, c its
    columns, whose C-order flat indices run from ``first``: their digits in
    base 2 shell + 1, less shell.

    Only the last k digits, those of a block of at least ``len(out)``
    indices, vary along the rows, and the digits before them step once at
    most, so an index past intp costs nothing more."""
    n, c = out.shape
    if not c:
        return
    side = 2 * shell + 1
    k = 1
    while k < c and side**k < n:
        k += 1
    high, low = divmod(first, side**k)
    # the rows before ``split`` share the leading digits of ``high``, the
    # rest those of high + 1
    split = side**k - low
    for lead, rows in ((high, out[:split]), (high + 1, out[split:])):
        for j in range(c - k - 1, -1, -1):
            lead, digit = divmod(lead, side)
            rows[:, j] = digit - shell
    v = np.arange(low, low + n) % side**k
    for j in range(c - 1, c - k - 1, -1):
        out[:, j] = v % side - shell
        v //= side


def _shell_rows(out: np.ndarray, shell: int, first: int) -> None:
    """Fill ``out`` with the points z of Z**c, c its columns, with max |z_i|
    == shell whose ranks in itertools.product's order run from ``first``.

    That order walks the face z_0 = -shell, a whole (c - 1)-cube, then for
    each -shell < z_0 < shell the (c - 1)-shell of the same radius, then the
    face z_0 = shell.  A run of rows over whole (c - 1)-shells repeats one
    copy of it, built here, so the work is proportional to the rows."""
    n, c = out.shape
    side = 2 * shell + 1
    face = side ** (c - 1)
    ring = face - (side - 2) ** (c - 1)
    # the rank of the first point of the face z_0 = shell
    upper = face + (side - 2) * ring
    segments = ((0, face, -shell), (face, upper, None), (upper, upper + face, shell))
    for start, stop, z0 in segments:
        a, b = max(first, start), min(first + n, stop)
        if a >= b:
            continue
        rows = out[a - first : b - first]
        if z0 is not None:
            rows[:, 0] = z0
            _cube_rows(rows[:, 1:], shell, a - start)
            continue
        block, at = divmod(a - start, ring)
        if ring <= len(rows):
            ring_rows = np.empty((ring, c - 1))
            _shell_rows(ring_rows, shell, 0)
            i = np.arange(at, at + len(rows))
            rows[:, 0] = i // ring + (block + 1 - shell)
            np.take(ring_rows, i, axis=0, out=rows[:, 1:], mode="wrap")
            continue
        # fewer rows than one (c - 1)-shell: they span two blocks at most
        while len(rows):
            take = min(ring - at, len(rows))
            rows[:take, 0] = block + 1 - shell
            _shell_rows(rows[:take, 1:], shell, at)
            rows, block, at = rows[take:], block + 1, 0


def _grid_candidates(dom: SearchDomain, excl: ExclusionRegion, spacing: float):
    # the shells wholly inside the ball first, as the count of their
    # points, (2 s + 1)**d - 1 for s shells: they are never candidates
    # outside the ball, and a large ball holds more of them than any budget
    # could enumerate.  Then integer points with max |z_i| == shell in
    # itertools.product's lexicographic order, shell after shell, cut into
    # chunks of _LOOKAHEAD rows that may span shells; each chunk's rows are
    # decoded from their ranks in the shell, so no array holds more than
    # a chunk in any dimension
    d = dom.dim
    inside = _shells_inside(dom, excl)
    if inside:
        yield (2 * inside + 1) ** d - 1
    z = np.empty((_LOOKAHEAD, d))
    filled = 0
    for shell in itertools.count(inside + 1):
        size = (2 * shell + 1) ** d - (2 * shell - 1) ** d
        first = 0
        while first < size:
            take = min(len(z) - filled, size - first)
            _shell_rows(z[filled : filled + take], shell, first)
            filled += take
            first += take
            if filled == len(z):
                yield excl.center + dom.step * z
                filled = 0


def _random_candidates(dom: SearchDomain, excl: ExclusionRegion, spacing: float):
    rng = np.random.default_rng(dom.seed)

    def draw(m):
        v = rng.standard_normal(dom.dim)
        n = float(np.sqrt((v**2).sum())) or 1.0
        radius = excl.radius + dom.step * (1.0 + 0.25 * m + rng.random())
        return excl.center + (radius / n) * v

    for first in itertools.count(0, _LOOKAHEAD):
        yield np.array([draw(m) for m in range(first, first + _LOOKAHEAD)])


# each strategy's candidate stream, given the domain, the exclusion ball and
# the ray spacing
STRATEGIES = {
    "ray": _ray_candidates,
    "grid": _grid_candidates,
    "random": _random_candidates,
}


# the search's window is the spacing times this: the ray's next candidate
# lies one spacing on, and the margin keeps that nearest pair inside
_WINDOW_MARGIN = 1.0 + 1e-6


def _reach(c: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """``reach[i] > i`` such that every row j >= reach[i] lies more than r
    from row i in coordinate 0, given ``hi = fl(c + r)``: ``c_j > hi_i`` or
    ``c_i > hi_j``, either of which makes |c_j - c_i| > r exactly.

    From the suffix minimum of c and the suffix maximum of hi: the rows
    from reach[i] on all lie beyond row i on one side, so the bound holds
    for rows in any order, and is tight for rows sorted in c.  An r of inf
    gives every row the end of c.
    """
    right = np.searchsorted(np.minimum.accumulate(c[::-1])[::-1], hi, side="right")
    left = np.searchsorted(-np.maximum.accumulate(hi[::-1])[::-1], -c, side="right")
    return np.maximum(np.minimum(right, left), np.arange(1, len(c) + 1))


def _window_pairs(X, Y, lo, hi, r):
    """Batches ``(rows, atoms)`` of index arrays, each of at most
    ``TILE_ENTRIES`` pairs, listing every pair of a row of X and an atom of
    Y within r of each other in every coordinate, in row order.

    Row i's atoms within r in coordinate 0 are ``lo[i]:hi[i]``.  The rows
    are cut by the running total of their band sizes, each cut the most
    rows, at least one, whose bands hold at most ``TILE_ENTRIES`` pairs.  A
    cut lists its rows' bands and drops a pair whose gap in a later
    coordinate is above r: the gap's rounding is monotone and r is a float,
    so the exact gap is above r too.  What is left is yielded in slices of
    ``TILE_ENTRIES``, of which there is more than one only when a single
    row's band holds more.
    """
    sizes = hi - lo
    ends = np.cumsum(sizes)
    # row i's band laid end to end: atom lo[i] + (position - band start)
    shift = lo - (ends - sizes)
    step = accumulate.TILE_ENTRIES
    start = base = 0
    while start < len(lo):
        stop = max(start + 1, int(np.searchsorted(ends, base + step, side="right")))
        cut = slice(start, stop)
        own = np.repeat(np.arange(start, stop), sizes[cut])
        atoms = np.arange(base, ends[stop - 1]) + np.repeat(shift[cut], sizes[cut])
        far = np.zeros(len(own), dtype=bool)
        for j in range(1, X.shape[1]):
            far |= np.abs(X[own, j] - Y[atoms, j]) > r
        if far.any():
            keep = np.logical_not(far, out=far)
            own, atoms = own[keep], atoms[keep]
        for first in range(0, len(own), step):
            yield own[first : first + step], atoms[first : first + step]
        start, base = stop, ends[stop - 1]


def diffusing_sequence(
    k: Kernel,
    n: int,
    eps: float,
    excl: ExclusionRegion,
    dom: SearchDomain | None = None,
    max_candidates: int | None = None,
) -> SignedDiscreteMeasure:
    """Uniform probability measure on n greedily chosen points.

    Every atom lies strictly outside ``excl`` and every off-diagonal kernel
    value satisfies |k(x_i, x_j)| <= eps.  The greedy loop accepts a
    candidate exactly when it clears the ball and the pairwise bound
    against all previously accepted points; enumeration order and budget
    come from ``dom``.

    The strategy's stream yields candidates as arrays.  Those of a chunk
    outside the ball become one point table (:meth:`Kernel.table`), and the
    chunk's accepted rows are concatenated onto the table of the atoms
    accepted before it, which starts with no points, so per-point work
    such as a scaling field runs once per candidate outside the ball.  One invariant drives the search:
    ``worst[i]`` is pending row i's largest |k| against every atom accepted
    so far.  It is raised once against the atoms accepted before the chunk,
    by :meth:`Kernel.pairs` (``np.maximum.at`` keeps a nan, as
    ``np.maximum`` does), then walked in order: row i is accepted when
    ``worst[i] <= eps`` (a nan maximum is accepted, as ``nan > eps`` is
    false), and each accept raises the rows after it against the new atom
    alone, by one :meth:`Kernel.block` call.  So no (candidate, atom) pair
    is evaluated twice, and every candidate is judged against exactly the
    atoms accepted before it, as in a one-at-a-time loop: the kernel's
    contract makes each pair and each row the same bits as a single-pair
    block, and a maximum is exact in any order.  Each call holds at most
    ``TILE_ENTRIES`` kernel values.

    Only pairs within a radius r of each other in every coordinate are
    raised: the accepted atoms are kept sorted in coordinate 0, each row's
    band of atoms within r in that coordinate is read by ``searchsorted``,
    and the pairs of a band more than r apart in a later coordinate are
    dropped (:func:`_window_pairs`); an accept raises only the rows up to
    ``_reach``.  r is the kernel's spacing s(eps) (:attr:`Kernel.spacing`)
    times ``_WINDOW_MARGIN``.  A skipped pair is more than r apart in some
    coordinate, so more than s apart, and the spacing rule bounds its |k|
    by eps, so it cannot raise a ``worst`` past eps and each decision keeps
    its bits.  A kernel with no spacing rule has an infinite r, and every
    window holds every row and atom.  The measure keeps the atoms in
    acceptance order.

    Raises :class:`SearchFailureError` naming the first index that could
    not be filled within ``max_candidates`` candidates, by default
    ``max(MIN_CANDIDATES, CANDIDATES_PER_ATOM * n)``, and the number of
    candidates scanned; :class:`ParameterError`, before any candidate is
    drawn, for an eps whose spacing is inf.
    """
    n = _as_int(n, "n", 1)
    if not eps > 0:
        raise ParameterError("eps must be positive")
    if max_candidates is None:
        max_candidates = max(MIN_CANDIDATES, CANDIDATES_PER_ATOM * n)
    if max_candidates < 0:
        raise ParameterError("max_candidates must be nonnegative")
    if not k.claims_c0:
        raise ParameterError(
            "diffusing_sequence needs a kernel whose sections vanish at "
            "infinity; the greedy search cannot be expected to terminate "
            "otherwise"
        )
    dom = dom or SearchDomain(dim=k.dim)
    if dom.dim != k.dim:
        raise DimensionMismatchError(
            f"search dimension {dom.dim} != kernel dimension {k.dim}"
        )
    if excl.center.shape[0] != k.dim:
        raise DimensionMismatchError("exclusion center dimension mismatch")

    spacing = k.spacing(eps)
    if spacing == math.inf:
        raise ParameterError(f"eps={eps!r} is too small for the kernel's spacing rule")
    stream = STRATEGIES[dom.strategy](dom, excl, spacing or dom.step)
    # past the spacing every |k| <= eps, which cannot reject a candidate
    window = math.inf if spacing is None else spacing * _WINDOW_MARGIN
    # the table of the atoms accepted before the current chunk, in order of
    # coordinate 0, and that coordinate; the points in acceptance order
    near = k.table(np.empty((0, k.dim)))
    near_c = near.points[:, 0]
    placed = []
    count = scanned = 0
    while count < n and scanned < max_candidates:
        chunk = next(stream)
        if isinstance(chunk, int):
            # that many candidates, all inside the ball
            scanned += min(chunk, max_candidates - scanned)
            continue
        chunk = chunk[: max_candidates - scanned]
        scanned += len(chunk)
        rows = chunk[~excl.contains(chunk)]
        if not len(rows):
            continue
        pending = k.table(rows)
        c = rows[:, 0]
        # fl(x + r) is inf past the float range, which reads as near
        with np.errstate(over="ignore"):
            c_r, near_r = c + window, near_c + window
        worst = np.zeros(len(pending))
        lo = np.searchsorted(near_r, c, side="left")
        hi = np.searchsorted(near_c, c_r, side="right")
        for own, atoms in _window_pairs(rows, near.points, lo, hi, window):
            values = k.pairs(pending[own], near[atoms])
            np.maximum.at(worst, own, np.abs(values))
        reach = _reach(c, c_r)
        taken = []
        for i in range(len(pending)):
            if worst[i] > eps:
                continue
            taken.append(i)
            if count + len(taken) == n:
                break
            # one call: a chunk holds fewer rows than a tile has entries
            for start in range(i + 1, reach[i], accumulate.TILE_ENTRIES):
                part = worst[start : min(reach[i], start + accumulate.TILE_ENTRIES)]
                column = k.block(pending[start : start + len(part)], pending[i : i + 1])[:, 0]
                np.maximum(part, np.abs(column), out=part)
        if taken:
            count += len(taken)
            placed.append(rows[taken])
            near = near + pending[taken]
            near_c = near.points[:, 0]
            if not (near_c[:-1] <= near_c[1:]).all():
                # two sorted runs, which a stable sort merges in about linear time
                order = np.argsort(near_c, kind="stable")
                near, near_c = near[order], near_c[order]
    if count < n:
        failed = count + 1
        raise SearchFailureError(
            f"could not place point {failed} of {n} after scanning {scanned} "
            f"of at most {max_candidates} candidates (eps={eps!r}, "
            f"strategy={dom.strategy!r})",
            failed_index=failed,
            candidates_scanned=scanned,
        )
    return SignedDiscreteMeasure(np.concatenate(placed), np.full(n, 1.0 / n), k.dim)


@dataclass(frozen=True)
class DiffusionCertificate:
    """Exhaustively recomputed evidence for a diffusing measure.

    ``norm_bound`` is sup/n + (n-1) eps / n; ``ok`` requires the pairwise
    bound, the exclusion clearance, and norm_sq <= norm_bound, all checked
    from scratch rather than trusted from the search.
    """

    n: int
    eps: float
    max_offdiag: float
    min_exclusion_distance: float
    exclusion_radius: float
    norm_sq: float
    norm_bound: float
    ok: bool


def verify_diffusing(
    k: Kernel, p: SignedDiscreteMeasure, eps: float, excl: ExclusionRegion
) -> DiffusionCertificate:
    """O(n^2) recheck of the diffusing-sequence guarantees.

    The Gram is checked in one pass over its upper-triangle tiles, read
    from one point table, so memory stays O(tile) and per-point work runs
    once per atom.  G is exactly symmetric (the contract of :class:`Kernel`),
    so those tiles hold every off-diagonal value; diagonal entries count as
    ``G_ii - G_ii``, as in the dense ``|G - diag(diag(G))|``.  No far field
    is skipped (:meth:`Kernel.far_field`): every entry is evaluated, so the
    certificate does not rest on the rule it would check.  A measure with
    no atoms has no norm bound, and raises :class:`ParameterError`.
    """
    n = p.support_size
    if not n:
        raise ParameterError("verify_diffusing needs a measure with at least one atom")
    X = k.table(p.atoms)
    max_off = np.float64(0.0)

    def upper_rows(start: int, stop: int, end: int) -> np.ndarray:
        nonlocal max_off
        tile = k.block(X[start:stop], X[start:end])
        off = np.abs(tile)
        i = np.arange(stop - start)
        off[i, i] = np.abs(tile[i, i] - tile[i, i])
        # np.maximum, unlike max(), keeps a nan
        max_off = np.maximum(max_off, off.max())
        return tile

    norm_sq = symmetric_gram_sum(p.weights, upper_rows)
    max_off = float(max_off) if n > 1 else 0.0
    dists = np.sqrt(((p.atoms - excl.center[None, :]) ** 2).sum(axis=1))
    min_dist = float(dists.min())
    bound = diffusing_norm_bound(k.sup_bound, n, eps)
    ok = max_off <= eps and min_dist > excl.radius and norm_sq <= bound
    return DiffusionCertificate(
        n=n,
        eps=eps,
        max_offdiag=max_off,
        min_exclusion_distance=min_dist,
        exclusion_radius=excl.radius,
        norm_sq=norm_sq,
        norm_bound=bound,
        ok=ok,
    )


def diffusing_norm_bound(sup_bound: float, n: int, eps: float) -> float:
    """The displayed norm bound sup/n + (n-1) eps / n, for n >= 1 atoms."""
    if not n >= 1:
        raise ParameterError("the norm bound needs at least one atom")
    return sup_bound / n + (n - 1) * eps / n


# ---------------------------------------------------------------------------
# escape construction from an annihilated witness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EscapeConstruction:
    """Output of :func:`escape_sequence`.

    ``sequence`` holds mu_n = residual + scale * P_n (probability measures);
    ``target`` is the positive part they approach in MMD; ``diffusing``
    keeps the raw P_n; ``probe_radius`` is an open-ball radius around
    ``center`` that contains the whole witness support but none of the
    diffusing atoms, so mass inside it stays at residual mass < 1 forever.
    """

    sequence: MeasureSequence
    target: SignedDiscreteMeasure
    residual: SignedDiscreteMeasure
    scale: float
    diffusing: tuple[SignedDiscreteMeasure, ...]
    center: np.ndarray
    probe_radius: float


def default_indices(n_max: int) -> tuple[int, ...]:
    """Powers of two up to n_max (dyadic sizes keep 1/n and masses exact)."""
    if n_max < 2:
        raise ParameterError("n_max must be at least 2")
    out = []
    n = 2
    while n <= n_max:
        out.append(n)
        n *= 2
    return tuple(out)


def escape_sequence(
    k: Kernel,
    witness: SignedDiscreteMeasure,
    n_values=None,
    dom: SearchDomain | None = None,
    excl: ExclusionRegion | None = None,
    max_candidates: int | None = None,
) -> EscapeConstruction:
    """Build mu_n = neg + (1 - neg(X)) P_n from an annihilated witness.

    The sizes n of the P_n (eps = 1/n) are ``n_values``, any non-empty
    iterable of positive integers, Python's or numpy's (a float, even a
    whole one, is refused); ``None`` gives 2, 4, ..., 64.
    Each P_n's search scans at most ``max_candidates`` candidates, by
    default the budget :func:`diffusing_sequence` gives its n.

    The witness is normalized so its positive part has mass 1 and must have
    embedding norm <= ``WITNESS_TOL`` (exact vanishing holds analytically for
    the null-kernel witnesses; the tolerance only absorbs float noise) and
    strictly smaller negative mass.  Witnesses with equal positive and
    negative mass are a separate, simpler refutation: see
    :func:`equal_mass_pair`.

    Because the negative part and the positive part share an embedding,
    mmd(mu_n, pos) = (1 - neg(X)) |P_n| holds exactly, while every mu_n
    puts mass neg(X) < 1 near the witness support.
    """
    mu = normalize_positive_part(witness)
    w_norm = norm(k, mu)
    if w_norm > WITNESS_TOL:
        raise NotAWitnessError(
            f"witness has embedding norm {w_norm!r} > {WITNESS_TOL!r}; "
            "it is not annihilated by this kernel"
        )
    pos, neg = jordan_decompose(mu)
    neg_mass = neg.total_mass
    if neg_mass >= 1.0 - 1e-12:
        raise MeasureError(
            "witness has equal positive and negative mass; the construction "
            "degenerates to two probability measures at distance zero "
            "(use equal_mass_pair)"
        )

    center = mu.atoms.mean(axis=0)
    support_radius = float(
        np.sqrt(((mu.atoms - center[None, :]) ** 2).sum(axis=1)).max()
    )
    if excl is None:
        excl = ExclusionRegion(center=center, radius=support_radius + EXCLUSION_MARGIN)
    elif np.any(~excl.contains(mu.atoms)):
        raise ParameterError("exclusion ball must contain the witness support")
    # the probe ball sits around the witness centroid; it must hold the whole
    # support yet stay inside the exclusion ball so no diffusing atom enters
    offset = float(np.sqrt(((center - excl.center) ** 2).sum()))
    max_safe = excl.radius - offset
    if max_safe <= support_radius:
        raise ParameterError(
            "exclusion ball leaves no room for a probe ball around the "
            "witness support"
        )
    probe_radius = (support_radius + max_safe) / 2.0
    dom = dom or SearchDomain(dim=k.dim)

    sizes = default_indices(64) if n_values is None else tuple(n_values)
    try:
        indices = tuple(map(operator.index, sizes))
    except TypeError:
        raise ParameterError(f"sequence sizes must be integers, got {sizes!r}") from None
    if not indices:
        raise ParameterError("n_values must hold at least one size")
    if any(n < 1 for n in indices):
        raise ParameterError("sequence sizes must be positive")
    scale = 1.0 - neg_mass
    parts = []
    items = []
    for n in indices:
        p_n = diffusing_sequence(k, n, 1.0 / n, excl, dom, max_candidates)
        parts.append(p_n)
        items.append(mixture([1.0, scale], [neg, p_n]))
    return EscapeConstruction(
        sequence=MeasureSequence(tuple(items), indices=indices),
        target=pos,
        residual=neg,
        scale=scale,
        diffusing=tuple(parts),
        center=center,
        probe_radius=probe_radius,
    )


def identity_residuals(k: Kernel, cons: EscapeConstruction) -> np.ndarray:
    """Per-index |mmd(mu_n, target) - scale * |P_n||, both sides recomputed."""
    out = np.empty(len(cons.sequence))
    for i, (mu_n, p_n) in enumerate(zip(cons.sequence, cons.diffusing)):
        out[i] = abs(mmd(k, mu_n, cons.target) - cons.scale * norm(k, p_n))
    return out


def equal_mass_pair(
    k: Kernel, witness: SignedDiscreteMeasure
) -> tuple[SignedDiscreteMeasure, SignedDiscreteMeasure]:
    """The equal-mass branch: two probability measures at MMD ~ 0.

    When the witness has equal positive and negative mass, its two halves
    are already distinct probability measures with the same embedding; no
    sequence is needed to refute separation.
    """
    mu = normalize_positive_part(witness)
    w_norm = norm(k, mu)
    if w_norm > WITNESS_TOL:
        raise NotAWitnessError(f"witness has embedding norm {w_norm!r} > {WITNESS_TOL!r}")
    pos, neg = jordan_decompose(mu)
    if abs(neg.total_mass - pos.total_mass) > 1e-12:
        raise MeasureError(
            "equal_mass_pair needs a witness with equal positive and "
            "negative mass; use escape_sequence otherwise"
        )
    return pos, neg


# ---------------------------------------------------------------------------
# counterexample kernels
# ---------------------------------------------------------------------------


def dirac_null_kernel(
    base: Kernel, xi, g: ScalarField | None = None
) -> Kernel:
    """Conjugate ``base`` by a field vanishing only at xi.

    The result annihilates delta_xi (its embedding is the zero function)
    while, for a separating base, still separating all mean-zero signed
    measures supported away from xi.  The field must vanish at infinity;
    a merely bounded field (e.g. :func:`saturating_at`) is rejected because
    it cannot guarantee decaying sections over an arbitrary bounded base.
    """
    p = as_point(xi, base.dim)
    if g is None:
        g = c0_bump_at(p)
    if not g.is_c0:
        raise ParameterError(
            "scaling field must vanish at infinity (is_c0=True); "
            f"got field {g.descriptor or '<custom>'}"
        )
    if g.dim != base.dim:
        raise DimensionMismatchError("field dimension does not match the kernel")
    if g(p) != 0.0:
        raise ParameterError("scaling field must be exactly zero at xi")
    return scale_kernel(base, g)

