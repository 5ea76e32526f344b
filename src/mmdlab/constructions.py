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

* :func:`dirac_null_kernel` and friends build the kernels that admit such
  witnesses: conjugating a separating kernel by a field vanishing at xi
  kills the embedding of delta_xi while still separating mean-zero
  differences away from xi; shifting by 1 restores separation of all
  signed measures without changing the metric on probability measures;
  recentering at delta_xi (``center_kernel(base, dirac(xi))``) gives the
  reverse counterexample.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .accumulate import TILE_ENTRIES, symmetric_gram_sum
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
    shift_kernel,
)
from .measures import (
    MeasureSequence,
    SignedDiscreteMeasure,
    as_point,
    jordan_decompose,
    mixture,
    normalize_positive_part,
)

WITNESS_TOL = 1e-10


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
        d = np.sqrt(((pts - self.center[None, :]) ** 2).sum(axis=1))
        return d <= self.radius


@dataclass(frozen=True)
class SearchDomain:
    """Candidate enumeration for the greedy point search.

    Strategies:
      ray    -- points at center + (R + m s) * direction, m = 1, 2, ...;
                s is derived analytically from the kernel when possible,
                else ``step``.
      grid   -- expanding integer shells scaled by ``step``.
      random -- seeded isotropic draws with linearly growing radius.

    All three enumerate an unbounded region, which the diffusing search
    needs; all three are deterministic given the seed.
    """

    dim: int
    strategy: str = "ray"
    direction: tuple[float, ...] | None = None
    step: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ParameterError(f"unknown search strategy {self.strategy!r}")
        if self.step <= 0:
            raise ParameterError("search step must be positive")
        if self.dim < 1:
            raise ParameterError("search dimension must be at least 1")


def _unit_direction(dom: SearchDomain) -> np.ndarray:
    if dom.direction is None:
        e = np.zeros(dom.dim)
        e[0] = 1.0
        return e
    d = as_point(dom.direction, dom.dim)
    n = float(np.sqrt((d**2).sum()))
    if n == 0:
        raise ParameterError("search direction must be nonzero")
    return d / n


# grid points enumerated at a time, and candidates the greedy search draws
# from its stream at a time
_GRID_CHUNK = 4096
_LOOKAHEAD = 256


def _ray_candidates(dom: SearchDomain, excl: ExclusionRegion, spacing: float):
    u = _unit_direction(dom)
    for m in itertools.count(1):
        yield excl.center + (excl.radius + m * spacing) * u


def _grid_candidates(dom: SearchDomain, excl: ExclusionRegion):
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
            yield from excl.center + dom.step * z.astype(np.float64)


def _random_candidates(dom: SearchDomain, excl: ExclusionRegion):
    rng = np.random.default_rng(dom.seed)
    for m in itertools.count():
        v = rng.standard_normal(dom.dim)
        n = float(np.sqrt((v**2).sum())) or 1.0
        radius = excl.radius + dom.step * (1.0 + 0.25 * m + rng.random())
        yield excl.center + (radius / n) * v


# each strategy's candidate stream, given the domain, the exclusion ball and
# the ray spacing
STRATEGIES = {
    "ray": _ray_candidates,
    "grid": lambda dom, excl, spacing: _grid_candidates(dom, excl),
    "random": lambda dom, excl, spacing: _random_candidates(dom, excl),
}


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

    Candidates are drawn in look-ahead chunks, each made into one point
    table (:meth:`Kernel.table`), and the accepted atoms are copied into
    another, so per-point work such as a scaling field runs once per
    candidate outside the ball.  Candidates are judged a batch of rows per
    :meth:`Kernel.block` call.  A batch ends at its first accepted row and
    the search resumes right after it, so every candidate is judged against
    exactly the atoms accepted before it, as in a one-at-a-time loop: the
    kernel's tiling contract makes each row of the batch the same bits as a
    single-row block, and a row maximum is exact in any order.  The batch
    doubles after a fully rejected batch, halves after an accept (so a
    search that accepts every candidate makes one block call per
    candidate), and holds at most ``TILE_ENTRIES`` kernel values.

    Raises :class:`SearchFailureError` naming the first index that could
    not be filled within ``max_candidates`` candidates, and the number of
    candidates scanned.
    """
    if n < 1:
        raise ParameterError("n must be at least 1")
    if eps <= 0:
        raise ParameterError("eps must be positive")
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

    spacing = k.spacing(eps) or dom.step
    stream = itertools.islice(STRATEGIES[dom.strategy](dom, excl, spacing), max_candidates)
    # point tables: the drawn candidates outside the ball, of which
    # pending[start:end] are not yet judged, and the accepted atoms, laid
    # out from the first chunk that has a candidate outside the ball
    pending = accepted = None
    start = end = 0
    count = 0
    scanned = 0
    size = 1
    while count < n:
        if start == end:
            chunk = list(itertools.islice(stream, _LOOKAHEAD))
            if not chunk:
                break
            scanned += len(chunk)
            rows = np.array(chunk)
            rows = rows[~excl.contains(rows)]
            if len(rows):
                pending = k.table(rows)
                if accepted is None:
                    accepted = pending.reserve(n)
                start, end = 0, len(pending)
            continue
        if not count:
            hit = 0
        else:
            batch = pending[start : start + size]
            worst = np.abs(k.block(batch, judged_against)).max(axis=1)
            # a nan row maximum is accepted, as `nan > eps` is false
            ok = ~(worst > eps)
            if ok[0]:
                hit = 0
            else:
                hits = np.flatnonzero(ok)
                if not hits.size:
                    start += ok.size
                    size = min(2 * size, max(TILE_ENTRIES // count, 1))
                    continue
                hit = int(hits[0])
            size = max(size // 2, 1)
        accepted[count : count + 1] = pending[start + hit : start + hit + 1]
        count += 1
        judged_against = accepted[:count]
        start += hit + 1
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
    exclusion: ExclusionRegion
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
    n_max: int = 64,
    dom: SearchDomain | None = None,
    excl: ExclusionRegion | None = None,
    margin: float = 1.0,
    witness_tol: float = WITNESS_TOL,
    max_candidates: int = 200_000,
) -> EscapeConstruction:
    """Build mu_n = neg + (1 - neg(X)) P_n from an annihilated witness.

    The witness is normalized so its positive part has mass 1 and must have
    embedding norm <= witness_tol (exact vanishing holds analytically for
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
    if w_norm > witness_tol:
        raise NotAWitnessError(
            f"witness has embedding norm {w_norm!r} > {witness_tol!r}; "
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
        if margin <= 0:
            raise ParameterError("margin must be positive")
        excl = ExclusionRegion(center=center, radius=support_radius + margin)
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

    indices = tuple(int(n) for n in (n_values or default_indices(n_max)))
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
        sequence=MeasureSequence(tuple(items), label="escape", indices=indices),
        target=pos,
        residual=neg,
        scale=scale,
        diffusing=tuple(parts),
        exclusion=excl,
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
    k: Kernel,
    witness: SignedDiscreteMeasure,
    witness_tol: float = WITNESS_TOL,
) -> tuple[SignedDiscreteMeasure, SignedDiscreteMeasure]:
    """The equal-mass branch: two probability measures at MMD ~ 0.

    When the witness has equal positive and negative mass, its two halves
    are already distinct probability measures with the same embedding; no
    sequence is needed to refute separation.
    """
    mu = normalize_positive_part(witness)
    w_norm = norm(k, mu)
    if w_norm > witness_tol:
        raise NotAWitnessError(
            f"witness has embedding norm {w_norm!r} > {witness_tol!r}"
        )
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


def shifted_dirac_null_kernel(base: Kernel, xi, g: ScalarField | None = None) -> Kernel:
    """dirac_null_kernel + 1: separates all signed measures again, but keeps
    the null kernel's metric on probability measures, so MMD convergence to
    delta_xi no longer implies any mass ever reaches xi."""
    return shift_kernel(dirac_null_kernel(base, xi, g), 1.0)
