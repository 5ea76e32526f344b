"""Finitely supported signed measures on R^d.

A :class:`SignedDiscreteMeasure` is a list of atoms (points) with real
weights.  It is the computational carrier for everything this package
manipulates: probability measures, mean-zero differences, and the signed
witnesses fed to the counterexample constructions.  Measures are immutable
after construction; every operation returns a new one.

Atom merging uses exact coordinate equality.  Constructions place atoms
deliberately, so distance-based snapping would silently change a measure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .accumulate import exact_sum
from .errors import (
    DegenerateMeasureError,
    DimensionMismatchError,
    ParameterError,
)

PROBABILITY_TOL = 1e-12


def _float_array(x) -> np.ndarray:
    try:
        return np.asarray(x, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        # a coordinate that is not a number, or ragged rows
        raise ParameterError(f"coordinates must be numbers in a regular array: {exc}") from None


def as_point(x, dim: int | None = None) -> np.ndarray:
    """Coerce a scalar or 1-D sequence to a finite float vector."""
    p = np.atleast_1d(_float_array(x))
    if p.ndim != 1:
        raise ParameterError(f"a point must be one-dimensional, got shape {p.shape}")
    if not np.isfinite(p).all():
        raise ParameterError("point coordinates must be finite")
    if dim is not None and p.shape[0] != dim:
        raise DimensionMismatchError(f"expected dimension {dim}, got {p.shape[0]}")
    return p


def as_points(pts, dim: int | None = None) -> np.ndarray:
    """Coerce input to an (n, d) array of finite coordinates.

    Accepts a single point, a flat list of 1-D points, or an (n, d) array.
    """
    arr = _float_array(pts)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        # a flat vector is a column of 1-D points unless dim says otherwise
        arr = arr.reshape(-1, dim) if dim is not None and dim > 1 else arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise ParameterError(f"points must form an (n, d) array, got shape {arr.shape}")
    if arr.size and not np.isfinite(arr).all():
        raise ParameterError("point coordinates must be finite")
    if dim is not None and arr.shape[1] != dim:
        raise DimensionMismatchError(f"expected dimension {dim}, got {arr.shape[1]}")
    return arr


def _row_keys(atoms: np.ndarray) -> list[bytes]:
    """The bytes of each row: equal keys are bit-identical rows, so 0.0 and
    -0.0 differ."""
    size = atoms.shape[1] * atoms.itemsize
    if size == 0:
        return [b""] * atoms.shape[0]
    buf = atoms.tobytes()
    return [buf[i : i + size] for i in range(0, len(buf), size)]


@dataclass(frozen=True)
class SignedDiscreteMeasure:
    """A signed measure with finitely many atoms.

    Duplicate atoms are merged (weights summed) and zero-weight atoms are
    dropped at construction, so ``atoms`` are pairwise distinct and every
    stored weight is nonzero.  First occurrence determines atom order.

    ``_self_inner`` is one memo slot of :func:`mmdlab.embedding.inner`, as
    (kernel object, value): the last self inner product of a support whose
    Gram spans more than one tile, or one kept by
    :func:`mmdlab.embedding.keep_self_inner` whatever the size, as a
    sequence probe does for its target.  ``inner`` reads it before it looks
    at the size.
    """

    atoms: np.ndarray
    weights: np.ndarray
    dim: int = field(default=-1)
    _self_inner: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        atoms = as_points(self.atoms, None if self.dim < 0 else self.dim)
        weights = np.asarray(self.weights, dtype=np.float64).ravel()
        if atoms.shape[0] != weights.shape[0]:
            raise ParameterError(
                f"{atoms.shape[0]} atoms but {weights.shape[0]} weights"
            )
        if weights.size and not np.isfinite(weights).all():
            raise ParameterError("weights must be finite")
        dim = atoms.shape[1] if self.dim < 0 else self.dim

        keys = _row_keys(atoms)
        if len(set(keys)) < len(keys):
            # repeated rows: sum each atom's weights exactly, in input order
            grouped: dict[bytes, list[float]] = {}
            firsts = []
            for i, (key, w) in enumerate(zip(keys, weights.tolist())):
                ws = grouped.get(key)
                if ws is None:
                    grouped[key] = [w]
                    firsts.append(i)
                else:
                    ws.append(w)
            # a single weight is its own exact sum
            summed = [
                ws[0] if len(ws) == 1 else exact_sum(ws) for ws in grouped.values()
            ]
            atoms = atoms[firsts]
            weights = np.array(summed, dtype=np.float64)
        # boolean indexing copies, so the caller's arrays are never frozen
        keep = weights != 0.0
        new_atoms = np.ascontiguousarray(atoms[keep])
        new_weights = weights[keep]
        new_atoms.setflags(write=False)
        new_weights.setflags(write=False)
        object.__setattr__(self, "atoms", new_atoms)
        object.__setattr__(self, "weights", new_weights)
        object.__setattr__(self, "dim", dim)

    # -- basic queries -------------------------------------------------

    @property
    def support_size(self) -> int:
        return self.atoms.shape[0]

    @property
    def total_mass(self) -> float:
        return exact_sum(self.weights)

    def is_probability(self, tol: float = PROBABILITY_TOL) -> bool:
        """All weights nonnegative and total mass within ``tol`` of 1."""
        if self.support_size == 0:
            return False
        return bool(np.all(self.weights >= 0.0)) and abs(self.total_mass - 1.0) <= tol

    def is_zero(self) -> bool:
        return self.support_size == 0

    # -- arithmetic (merging happens in the constructor) ----------------

    def __neg__(self) -> "SignedDiscreteMeasure":
        return SignedDiscreteMeasure(self.atoms, -self.weights, self.dim)

    def __add__(self, other: "SignedDiscreteMeasure") -> "SignedDiscreteMeasure":
        if not isinstance(other, SignedDiscreteMeasure):
            return NotImplemented
        if other.dim != self.dim:
            raise DimensionMismatchError(
                f"cannot add measures of dimension {self.dim} and {other.dim}"
            )
        return SignedDiscreteMeasure(
            np.concatenate([self.atoms, other.atoms], axis=0),
            np.concatenate([self.weights, other.weights]),
            self.dim,
        )

    def __sub__(self, other: "SignedDiscreteMeasure") -> "SignedDiscreteMeasure":
        return self.__add__(-other)

    def scaled(self, c: float) -> "SignedDiscreteMeasure":
        return SignedDiscreteMeasure(self.atoms, float(c) * self.weights, self.dim)

    def __repr__(self) -> str:  # keep reprs short; atoms can be large
        return (
            f"SignedDiscreteMeasure(support_size={self.support_size}, "
            f"dim={self.dim}, total_mass={self.total_mass!r})"
        )


def empty_measure(dim: int) -> SignedDiscreteMeasure:
    """The null measure on R^dim (legal; embeds to the zero function)."""
    return SignedDiscreteMeasure(np.empty((0, dim)), np.empty(0), dim)


def dirac(x, dim: int | None = None) -> SignedDiscreteMeasure:
    """Unit point mass at ``x``."""
    p = as_point(x, dim)
    return SignedDiscreteMeasure(p[None, :], np.ones(1), p.shape[0])


def jordan_decompose(
    mu: SignedDiscreteMeasure,
) -> tuple[SignedDiscreteMeasure, SignedDiscreteMeasure]:
    """Split into positive and negative parts, both with positive weights.

    ``mu == pos - neg`` holds atom-for-atom and the supports are disjoint
    (each atom carries a single signed weight after merging).
    """
    pos_mask = mu.weights > 0.0
    neg_mask = mu.weights < 0.0
    pos = SignedDiscreteMeasure(mu.atoms[pos_mask], mu.weights[pos_mask], mu.dim)
    neg = SignedDiscreteMeasure(mu.atoms[neg_mask], -mu.weights[neg_mask], mu.dim)
    return pos, neg


def normalize_positive_part(mu: SignedDiscreteMeasure) -> SignedDiscreteMeasure:
    """Rescale (negating first if needed) so the positive part has mass 1.

    After this the decomposition satisfies ``neg(X) <= pos(X) == 1``.
    Raises :class:`DegenerateMeasureError` on the zero measure.
    """
    if mu.is_zero():
        raise DegenerateMeasureError("cannot normalize the zero measure")
    pos, neg = jordan_decompose(mu)
    if neg.total_mass > pos.total_mass:
        mu = -mu
        pos, neg = neg, pos
    scale = pos.total_mass
    if scale <= 0.0:
        raise DegenerateMeasureError("measure has no positive part after orientation")
    return mu.scaled(1.0 / scale)


def mixture(
    weights: Sequence[float], parts: Sequence[SignedDiscreteMeasure]
) -> SignedDiscreteMeasure:
    """Weighted sum of measures; atoms shared between parts are merged."""
    if len(weights) != len(parts):
        raise ParameterError(
            f"{len(weights)} weights but {len(parts)} component measures"
        )
    if not parts:
        raise ParameterError("mixture needs at least one component")
    dim = parts[0].dim
    for p in parts[1:]:
        if p.dim != dim:
            raise DimensionMismatchError("mixture components must share a dimension")
    atoms = np.concatenate([p.atoms for p in parts], axis=0)
    w = np.concatenate([float(c) * p.weights for c, p in zip(weights, parts)])
    return SignedDiscreteMeasure(atoms, w, dim)


def mass_in_ball(mu: SignedDiscreteMeasure, center, radius: float) -> float:
    """Signed mass of the closed ball ``{x : |x - center| <= radius}``."""
    if not radius >= 0:
        raise ParameterError("radius must be nonnegative")
    if mu.support_size == 0:
        return 0.0
    c = as_point(center, mu.dim)
    return exact_sum(mu.weights[in_balls(mu.atoms, c, [radius])[0]])


def in_balls(atoms: np.ndarray, center: np.ndarray, radii) -> np.ndarray:
    """``inside[j, i]``: atom i lies in the closed ball of radius ``radii[j]``.

    Each atom's distance to ``center`` depends on its own row alone.
    """
    dist = np.sqrt(((atoms - center[None, :]) ** 2).sum(axis=1))
    return dist[None, :] <= np.asarray(radii, dtype=np.float64)[:, None]


def support_union(
    measures: Sequence[SignedDiscreteMeasure], dim: int
) -> tuple[np.ndarray, Iterator[np.ndarray]]:
    """The distinct atoms of several measures, and where each measure's are.

    Atoms are told apart by their bytes, as merging does, so 0.0 and -0.0
    stay apart, and kept in order of first occurrence.  Returns
    ``(atoms, slots)``: ``slots`` yields, for each measure in turn, the
    indices ``idx`` with ``atoms[idx]`` equal to its atoms bit for bit.
    They are made as they are read, so a long sequence never holds the
    index arrays of all its measures at once.
    """
    slot_of: dict[bytes, int] = {}
    new_rows = []
    for mu in measures:
        keys = _row_keys(mu.atoms)
        # a measure's atoms are distinct, so each new key is new once
        new = [j for j, key in enumerate(keys) if key not in slot_of]
        for j in new:
            slot_of[keys[j]] = len(slot_of)
        if new:
            new_rows.append(mu.atoms[new])
    atoms = np.concatenate(new_rows) if new_rows else np.empty((0, dim))
    slots = (
        np.array([slot_of[key] for key in _row_keys(mu.atoms)], dtype=np.intp)
        for mu in measures
    )
    return atoms, slots


@dataclass(frozen=True)
class MeasureSequence:
    """An ordered list of measures sharing one dimension.

    ``indices`` carries the sequence index of each item (typically the n of
    a size-n construction); it defaults to 1-based positions.
    """

    items: tuple[SignedDiscreteMeasure, ...]
    indices: tuple[int, ...] = ()

    def __post_init__(self):
        items = tuple(self.items)
        if not items:
            raise ParameterError("a measure sequence cannot be empty")
        dim = items[0].dim
        for m in items[1:]:
            if m.dim != dim:
                raise DimensionMismatchError("sequence items must share a dimension")
        indices = tuple(self.indices) or tuple(range(1, len(items) + 1))
        if len(indices) != len(items):
            raise ParameterError("indices and items must have equal length")
        object.__setattr__(self, "items", items)
        object.__setattr__(self, "indices", indices)

    @property
    def dim(self) -> int:
        return self.items[0].dim

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterable[SignedDiscreteMeasure]:
        return iter(self.items)
