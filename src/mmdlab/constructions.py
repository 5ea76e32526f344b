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
from dataclasses import dataclass

import numpy as np

from .accumulate import row_tiles, symmetric_gram_sum
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

    Strategies, each a stream of (m, d) candidate arrays:
      ray    -- points at center + (R + m s) e1, m = 1, 2, ...; s is
                derived analytically from the kernel when possible, else
                ``step``.
      grid   -- expanding integer shells scaled by ``step``.
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
        if self.dim < 1:
            raise ParameterError("search dimension must be at least 1")


# grid points enumerated at a time, and candidates the ray and random
# streams yield at a time
_GRID_CHUNK = 4096
_LOOKAHEAD = 256


def _ray_candidates(dom: SearchDomain, excl: ExclusionRegion, spacing: float):
    u = np.zeros(dom.dim)
    u[0] = 1.0
    for first in itertools.count(1, _LOOKAHEAD):
        m = np.arange(first, first + _LOOKAHEAD)
        yield excl.center + (excl.radius + m[:, None] * spacing) * u


def _grid_candidates(dom: SearchDomain, excl: ExclusionRegion, spacing: float):
    # integer points with max |z_i| == shell in itertools.product's
    # lexicographic order: the C-order flat indices of the shell's cube, a
    # chunk at a time so memory stays bounded in any dimension
    d = dom.dim
    for shell in itertools.count(1):
        side = 2 * shell + 1
        for start in range(0, side**d, _GRID_CHUNK):
            flat = np.arange(start, min(start + _GRID_CHUNK, side**d))
            z = np.stack(np.unravel_index(flat, (side,) * d), axis=1) - shell
            z = z[np.abs(z).max(axis=1) == shell]
            yield excl.center + dom.step * z.astype(np.float64)


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


def _raise_worst(k: Kernel, worst: np.ndarray, rows, atoms) -> None:
    """worst[i] = max(worst[i], max_j |k(rows_i, atoms_j)|), a row tile
    (:func:`~mmdlab.accumulate.row_tiles`) at a time.  max and np.maximum
    both keep a nan."""
    for tile in row_tiles(len(rows), len(atoms)):
        part = worst[tile]
        np.maximum(part, np.abs(k.block(rows[tile], atoms)).max(axis=1), out=part)


def diffusing_sequence(
    k: Kernel,
    n: int,
    eps: float,
    excl: ExclusionRegion,
    dom: SearchDomain | None = None,
    max_candidates: int = 200_000,
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
    accepted before it, so per-point work such as a scaling field runs once
    per candidate outside the ball.  One invariant drives the search:
    ``worst[i]`` is pending row i's largest |k| against every atom accepted
    so far.  It is raised once against the atoms accepted before the chunk,
    then walked in order: row i is accepted when ``worst[i] <= eps`` (a nan
    maximum is accepted, as ``nan > eps`` is false), and each accept raises
    the rows after it against the new atom alone.  So no (candidate, atom) pair is evaluated twice, and every
    candidate is judged against exactly the atoms accepted before it, as
    in a one-at-a-time loop: the kernel's tiling contract makes each row
    the same bits as a single-row block, and a maximum is exact in any
    order.  Blocks hold at most ``TILE_ENTRIES`` kernel values.

    Raises :class:`SearchFailureError` naming the first index that could
    not be filled within ``max_candidates`` candidates, and the number of
    candidates scanned.
    """
    if n < 1:
        raise ParameterError("n must be at least 1")
    if not eps > 0:
        raise ParameterError("eps must be positive")
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

    stream = STRATEGIES[dom.strategy](dom, excl, k.spacing(eps) or dom.step)
    # the table of the atoms accepted before the current chunk
    accepted = None
    count = scanned = 0
    while count < n and scanned < max_candidates:
        chunk = next(stream)[: max_candidates - scanned]
        scanned += len(chunk)
        rows = chunk[~excl.contains(chunk)]
        if not len(rows):
            continue
        pending = k.table(rows)
        worst = np.zeros(len(pending))
        if accepted is not None:
            _raise_worst(k, worst, pending, accepted)
        taken = []
        for i in range(len(pending)):
            if worst[i] > eps:
                continue
            taken.append(i)
            if count + len(taken) == n:
                break
            _raise_worst(k, worst[i + 1 :], pending[i + 1 :], pending[i : i + 1])
        if taken:
            count += len(taken)
            accepted = pending[taken] if accepted is None else accepted + pending[taken]
    if count < n:
        failed = count + 1
        raise SearchFailureError(
            f"could not place point {failed} of {n} after scanning {scanned} "
            f"of at most {max_candidates} candidates (eps={eps!r}, "
            f"strategy={dom.strategy!r})",
            failed_index=failed,
            candidates_scanned=scanned,
        )
    return SignedDiscreteMeasure(accepted.points, np.full(n, 1.0 / n), k.dim)


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
    certificate does not rest on the rule it would check.
    """
    n = p.support_size
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
    min_dist = float(dists.min()) if n else math.inf
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
    """The displayed norm bound sup/n + (n-1) eps / n."""
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
    max_candidates: int = 200_000,
) -> EscapeConstruction:
    """Build mu_n = neg + (1 - neg(X)) P_n from an annihilated witness.

    The sizes n of the P_n (eps = 1/n) are ``n_values``, by default 2, 4, ..., 64.

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

    indices = tuple(int(n) for n in (n_values or default_indices(64)))
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

