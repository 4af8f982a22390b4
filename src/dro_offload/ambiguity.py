"""L1-ball ambiguity sets over a discrete task-size sample space.

Task sizes live on a fixed grid of atoms (bits). The reference
distribution is the histogram of historical samples over the atom bins,
and the ambiguity set is the L1 ball of radius epsilon around it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, ShapeError

PROB_TOL = 1e-9


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
        arr = np.asarray(self.probs, dtype=float)
        if not (arr >= 0.0).all():  # NaN fails too; with the sum, no entry passes 1 + PROB_TOL
            raise ConfigError(f"probabilities must be finite and non-negative, got {self.probs}")
        if abs(arr.sum() - 1.0) > PROB_TOL:
            raise ConfigError(f"probabilities must sum to 1, got {arr.sum()!r}")

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


def empirical_distribution(samples, space: SampleSpace) -> Distribution:
    """Histogram of the history (task sizes in bits) over the sample-space bins, normalized by Q."""
    samples = np.asarray(samples, dtype=float)
    if samples.size < 1:
        raise DataError("history must contain at least one sample")
    bins = np.searchsorted(space.bin_edges, samples, side="right") - 1
    outside = (bins < 0) | (bins >= space.num_atoms)  # NaN sorts past the last edge
    if outside.any():
        raise DataError(f"history sample {samples[outside][0]} falls outside every bin")
    counts = np.bincount(bins, minlength=space.num_atoms)
    return Distribution(probs=tuple(counts / samples.size))


def tolerance_from_confidence(num_atoms: int, num_samples: int, confidence: float) -> float:
    """Radius epsilon = (K/2Q) * ln(2K / (1 - confidence))."""
    if num_atoms < 1 or num_samples < 1:
        raise ConfigError("num_atoms and num_samples must be >= 1")
    if not 0.0 < confidence < 1.0:
        raise ConfigError(f"confidence must be in (0, 1), got {confidence}")
    return num_atoms / (2.0 * num_samples) * math.log(2.0 * num_atoms / (1.0 - confidence))


def worst_case_mean_distribution(amb: AmbiguitySet) -> tuple[Distribution, float]:
    """Distribution in the ambiguity set maximizing the expected task size.

    Greedy mass shift: up to radius/2 total probability moves from the
    smallest atoms onto the largest one. This is the exact argmax of a
    linear objective with ascending coefficients over the L1 ball
    intersected with the simplex.
    """
    p = amb.reference.as_array().copy()
    k_top = amb.space.num_atoms - 1
    budget = min(amb.radius / 2.0, 1.0 - p[k_top])
    moved = 0.0
    for k in range(k_top):
        if moved >= budget:
            break
        take = min(p[k], budget - moved)
        p[k] -= take
        moved += take
    p[k_top] += moved
    dist = Distribution(probs=tuple(p))
    return dist, dist.mean(amb.space)


def generate_history(
    truth: Distribution, space: SampleSpace, num_samples: int, seed
) -> np.ndarray:
    """Draw num_samples i.i.d. atom values (bits) under the truth distribution."""
    if num_samples < 1:
        raise DataError(f"num_samples must be >= 1, got {num_samples}")
    if truth.num_atoms != space.num_atoms:
        raise ShapeError("truth distribution does not match sample space")
    rng = np.random.default_rng(seed)
    return rng.choice(np.asarray(space.atoms), size=num_samples, p=truth.as_array())
