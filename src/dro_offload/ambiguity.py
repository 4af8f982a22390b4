"""L1-ball ambiguity sets over a discrete task-size sample space.

Task sizes live on a fixed grid of atoms (bits). The reference
distribution is the histogram of historical samples over the atom bins,
and the ambiguity set is the L1 ball of radius epsilon around it.

Histories are drawn in array passes. Each sample stream spends only its
`default_rng(stream).random(Q)`; one `searchsorted` through the truth's
cdf, the way `Generator.choice(atoms, Q, p=truth)` maps its uniforms,
turns every stream's draws into atom indices, bit for bit the atoms
`choice` would return. Every atom lies in its own bin, so an atom's index
is its bin, and one offset `bincount` gives every stream's histogram. The
probability checks then run once on the matrix of references, and the
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


def _checked(cls, **fields):
    """An instance of the frozen dataclass `cls` whose checks its caller already ran,
    on a whole matrix at once."""
    obj = object.__new__(cls)
    vars(obj).update(fields)
    return obj


@dataclass(frozen=True)
class SampleSpace:
    """K discrete task sizes (bits, ascending) with their histogram bins."""

    atoms: tuple[float, ...]
    bin_edges: tuple[float, ...]

    def __post_init__(self):
        if len(self.atoms) < 1:
            raise ConfigError("sample space needs at least one atom")
        if not all(a > 0 for a in self.atoms):
            raise ConfigError(f"task-size atoms must be > 0 bits, got {self.atoms}")
        if len(self.bin_edges) != len(self.atoms) + 1:
            raise ConfigError("need exactly K+1 bin edges for K atoms")
        if any(b <= a for a, b in zip(self.atoms, self.atoms[1:])):
            raise ConfigError("atoms must be strictly increasing")
        if any(b <= a for a, b in zip(self.bin_edges, self.bin_edges[1:])):
            raise ConfigError("bin edges must be strictly increasing")
        for k, atom in enumerate(self.atoms):
            if not (self.bin_edges[k] <= atom < self.bin_edges[k + 1]):
                raise ConfigError(f"atom {atom} outside its bin [d{k}, d{k + 1})")

    @property
    def num_atoms(self) -> int:
        return len(self.atoms)

    @classmethod
    def with_midpoint_edges(cls, atoms: list[float]) -> "SampleSpace":
        """Bins split halfway between atoms; first edge 0, last edge +inf."""
        atoms = [float(a) for a in atoms]
        mids = [(a + b) / 2.0 for a, b in zip(atoms, atoms[1:])]
        return cls(atoms=tuple(atoms), bin_edges=tuple([0.0, *mids, math.inf]))


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

    def mean(self, space: SampleSpace) -> float:
        """Expected task size in bits under this distribution."""
        if space.num_atoms != self.num_atoms:
            raise ShapeError("distribution/sample-space length mismatch")
        return float(np.dot(self.probs, space.atoms))

    @classmethod
    def uniform(cls, num_atoms: int) -> "Distribution":
        return cls(probs=tuple([1.0 / num_atoms] * num_atoms))


@dataclass(frozen=True)
class AmbiguitySet:
    space: SampleSpace
    reference: Distribution
    radius: float

    def __post_init__(self):
        if self.space.num_atoms != self.reference.num_atoms:
            raise ShapeError("reference distribution does not match sample space")
        if not self.radius >= 0:
            raise ConfigError(f"radius must be >= 0, got {self.radius}")


def tolerance_from_confidence(num_atoms: int, num_samples: int, confidence: float) -> float:
    """Radius epsilon = (K/2Q) * ln(2K / (1 - confidence))."""
    if num_atoms < 1 or num_samples < 1:
        raise ConfigError("num_atoms and num_samples must be >= 1")
    if not 0.0 < confidence < 1.0:
        raise ConfigError(f"confidence must be in (0, 1), got {confidence}")
    return num_atoms / (2.0 * num_samples) * math.log(2.0 * num_atoms / (1.0 - confidence))


def worst_case_rows(references: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Each row's distribution in its ambiguity set maximizing the expected task size.

    Greedy mass shift, per row of `references` with its radius: up to
    radius/2 total probability moves from the smallest atoms onto the
    largest one. This is the exact argmax of a linear objective with
    ascending coefficients over the L1 ball intersected with the simplex.
    The shift runs across rows, atom by atom in the same order for each.
    """
    p = np.array(references, dtype=float)
    k_top = p.shape[1] - 1
    budget = np.minimum(np.asarray(radii, dtype=float) / 2.0, 1.0 - p[:, k_top])
    moved = np.zeros(len(p))
    for k in range(k_top):
        # a row whose budget is spent takes nothing more
        take = np.where(moved < budget, np.minimum(p[:, k], budget - moved), 0.0)
        p[:, k] -= take
        moved += take
    p[:, k_top] += moved
    return p


def worst_case_mean_distribution(amb: AmbiguitySet) -> tuple[Distribution, float]:
    """Distribution in the ambiguity set maximizing the expected task size, and
    that size: `worst_case_rows` on the one set."""
    p = worst_case_rows(amb.reference.as_array()[None], np.array([amb.radius]))[0]
    dist = Distribution(probs=tuple(p))
    return dist, dist.mean(amb.space)


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
    truth: Distribution, space: SampleSpace, num_samples: int, streams, radius: float
) -> list[AmbiguitySet]:
    """One ambiguity set of `radius` per sample stream, around the empirical
    distribution of num_samples draws under the truth on that stream: the histogram
    over the space's bins, normalized by num_samples. The checks of `Distribution` and
    `AmbiguitySet` run once, on the matrix of references."""
    bins = _atom_indices(truth, space, num_samples, streams)
    k = space.num_atoms
    offsets = k * np.arange(len(streams))[:, None]
    counts = np.bincount((bins + offsets).ravel(), minlength=k * len(streams))
    references = counts.reshape(-1, k) / num_samples
    _check_probs(references)
    if not radius >= 0:
        raise ConfigError(f"radius must be >= 0, got {radius}")
    references = [_checked(Distribution, probs=tuple(row)) for row in references]
    return [_checked(AmbiguitySet, space=space, reference=ref, radius=radius) for ref in references]
