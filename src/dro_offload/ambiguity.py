"""L1-ball ambiguity sets over a discrete task-size sample space.

Task sizes live on a fixed grid of atoms (bits). Each TD's reference
distribution is the histogram of its historical samples over the atoms,
and its ball is the L1 ball of radius epsilon around it. One
`AmbiguitySet` holds every TD's ball: the I x K matrix of references,
one row per TD, and the one radius. TDs that share a history share one
row, spread to all I with `np.broadcast_to`.

Histories are drawn in array passes. Each sample stream spends only its
`default_rng(stream).random(Q)`; one `searchsorted` through the truth's
cdf, the way `Generator.choice(atoms, Q, p=truth)` maps its uniforms,
turns every stream's draws into atom indices, bit for bit the atoms
`choice` would return. Every atom lies in its own bin, so an atom's index
is its bin, and one offset `bincount` gives every stream's histogram. The
set's constructor checks the matrix of references once, and the
worst-case shift runs across its rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, ShapeError

PROB_TOL = 1e-9


def _check_probs(probs: np.ndarray) -> None:
    """ConfigError unless every row of `probs` (2-D) is a probability vector."""
    # NaN fails too; with the sum, no entry passes 1 + PROB_TOL
    negative = ~(probs >= 0.0).all(axis=1)
    if negative.any():
        row = tuple(probs[negative][0].tolist())
        raise ConfigError(f"probabilities must be finite and non-negative, got {row}")
    sums = probs.sum(axis=1)
    off = np.abs(sums - 1.0) > PROB_TOL
    if off.any():
        raise ConfigError(f"probabilities must sum to 1, got {sums[off][0]!r}")


@dataclass(frozen=True)
class SampleSpace:
    """K discrete task sizes (bits, ascending). A sample's bin is its atom's index."""

    atoms: tuple[float, ...]

    def __post_init__(self):
        if len(self.atoms) < 1:
            raise ConfigError("sample space needs at least one atom")
        if not all(a > 0 for a in self.atoms):
            raise ConfigError(f"task-size atoms must be > 0 bits, got {self.atoms}")
        if not math.isfinite(sum(self.atoms)):  # an expected size is a sum over the atoms
            raise ConfigError(f"task-size atoms and their sum must be finite, got {self.atoms}")
        if any(b <= a for a, b in zip(self.atoms, self.atoms[1:])):
            raise ConfigError("atoms must be strictly increasing")

    @property
    def num_atoms(self) -> int:
        return len(self.atoms)


@dataclass(frozen=True)
class Distribution:
    """Probability vector over the sample-space atoms."""

    probs: tuple[float, ...]

    def __post_init__(self):
        _check_probs(np.asarray(self.probs, dtype=float)[None])

    @property
    def num_atoms(self) -> int:
        return len(self.probs)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.probs, dtype=float)

    @classmethod
    def uniform(cls, num_atoms: int) -> "Distribution":
        return cls(probs=tuple([1.0 / num_atoms] * num_atoms))


@dataclass(frozen=True, eq=False)
class AmbiguitySet:
    """One L1 ball of `radius` per TD over one sample space: row i of the read-only
    I x K matrix `references` is the center of TD i's ball."""

    space: SampleSpace
    references: np.ndarray
    radius: float

    def __post_init__(self):
        references = np.asarray(self.references, dtype=float).view()
        if references.ndim != 2 or references.shape[1] != self.space.num_atoms:
            raise ShapeError(
                f"references must be a matrix with one column per atom ({self.space.num_atoms}), "
                f"got shape {references.shape}"
            )
        _check_probs(references)
        if not self.radius >= 0:
            raise ConfigError(f"radius must be >= 0, got {self.radius}")
        references.flags.writeable = False
        object.__setattr__(self, "references", references)


def tolerance_from_confidence(num_atoms: int, num_samples: int, confidence: float) -> float:
    """Radius epsilon = (K/2Q) * ln(2K / (1 - confidence))."""
    if num_atoms < 1 or num_samples < 1:
        raise ConfigError("num_atoms and num_samples must be >= 1")
    if not 0.0 < confidence < 1.0:
        raise ConfigError(f"confidence must be in (0, 1), got {confidence}")
    return num_atoms / (2.0 * num_samples) * math.log(2.0 * num_atoms / (1.0 - confidence))


def worst_case_rows(references: np.ndarray, radius: float) -> np.ndarray:
    """Each row's distribution in its L1 ball maximizing the expected task size.

    Greedy mass shift, per row of `references`: up to
    radius/2 total probability moves from the smallest atoms onto the
    largest one. This is the exact argmax of a linear objective with
    ascending coefficients over the L1 ball intersected with the simplex.
    The shift runs across rows, atom by atom in the same order for each.
    """
    # C order: a plain copy of a broadcast matrix is column-major, and a dot along
    # a strided row can differ from a contiguous one in the last bit
    p = np.array(references, dtype=float, order="C")
    k_top = p.shape[1] - 1
    budget = np.minimum(radius / 2.0, 1.0 - p[:, k_top])
    moved = np.zeros(len(p))
    for k in range(k_top):
        # a row whose budget is spent takes nothing more
        take = np.where(moved < budget, np.minimum(p[:, k], budget - moved), 0.0)
        p[:, k] -= take
        moved += take
    p[:, k_top] += moved
    return p


def _atom_indices(
    truth: Distribution, space: SampleSpace, num_samples: int, streams
) -> np.ndarray:
    """Atom indices of num_samples i.i.d. draws under the truth, one row per stream: row
    s holds the indices of the atoms `default_rng(s).choice(atoms, num_samples,
    p=truth)` returns, bit for bit."""
    if num_samples < 1:
        raise DataError(f"num_samples must be >= 1, got {num_samples}")
    if truth.num_atoms != space.num_atoms:
        raise ShapeError("truth distribution does not match sample space")
    cdf = truth.as_array().cumsum()
    cdf /= cdf[-1]
    uniforms = np.empty((len(streams), num_samples))
    for row, stream in zip(uniforms, streams):
        np.random.default_rng(stream).random(out=row)
    return cdf.searchsorted(uniforms, side="right")


def generate_history(
    truth: Distribution, space: SampleSpace, num_samples: int, seed
) -> np.ndarray:
    """Draw num_samples i.i.d. atom values (bits) under the truth distribution."""
    return np.asarray(space.atoms)[_atom_indices(truth, space, num_samples, [seed])[0]]


def reference_sets(
    truth: Distribution, space: SampleSpace, num_samples: int, streams, radius: float, num_rows: int
) -> AmbiguitySet:
    """The ambiguity set of `radius` around num_rows empirical distributions: row i is
    the histogram of num_samples draws under the truth on streams[i], normalized by
    num_samples. From one stream, every row is that stream's histogram, a broadcast
    view with no copy."""
    bins = _atom_indices(truth, space, num_samples, streams)
    k = space.num_atoms
    offsets = k * np.arange(len(streams))[:, None]
    counts = np.bincount((bins + offsets).ravel(), minlength=k * len(streams))
    references = np.broadcast_to(counts.reshape(-1, k) / num_samples, (num_rows, k))
    return AmbiguitySet(space, references, radius)
