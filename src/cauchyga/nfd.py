"""Finite-support fitness distributions and the L1 metric between them.

A population's fitness histogram is a map from fitness value to the number
of individuals carrying it; dividing by the population size gives a
normalized fitness distribution (NFD), a finite-support probability
distribution over fitness values. Selection operators act on NFDs, and the
L1 distance between two NFDs is the yardstick for how much an operator
reshapes a population.

Conventions used throughout the package:
  - Fitness values are exact float keys; two fitnesses aggregate only when
    bit-identical. No epsilon bucketing.
  - Support iteration is always in ascending fitness order, so every
    summation is deterministic and reproducible.
  - All fitness values are >= 0.
  - Instances are treated as immutable after construction.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from math import fsum
from typing import Iterable, Iterator

MASS_SUM_TOL = 1e-12


def _ascending(entries: dict) -> dict:
    return {x: entries[x] for x in sorted(entries)}


@dataclass(frozen=True)
class FitnessDistribution:
    """Histogram of a population's fitness values.

    Maps each fitness value to the count of individuals carrying it.
    Counts are strictly positive integers; zero-count keys are never stored.
    """

    entries: dict[float, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        clean: dict[float, int] = {}
        for x, c in self.entries.items():
            x = float(x)
            if x < 0.0:
                raise ValueError(f"negative fitness: {x}")
            c = int(c)
            if c < 0:
                raise ValueError(f"negative count for fitness {x}: {c}")
            if c > 0:
                clean[x] = c
        object.__setattr__(self, "entries", _ascending(clean))

    @property
    def total_count(self) -> int:
        """Population size implied by the histogram."""
        return sum(self.entries.values())

    @property
    def support(self) -> set[float]:
        return set(self.entries)

    def count(self, x: float) -> int:
        return self.entries.get(x, 0)

    def __iter__(self) -> Iterator[tuple[float, int]]:
        return iter(self.entries.items())

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class NFD:
    """Normalized fitness distribution: finite-support probability masses.

    Maps fitness values (>= 0) to strictly positive masses that sum to 1
    within ``MASS_SUM_TOL``. Iteration walks the support in ascending order.
    """

    entries: dict[float, float]

    def __post_init__(self) -> None:
        clean: dict[float, float] = {}
        for x, m in self.entries.items():
            x = float(x)
            m = float(m)
            if x < 0.0:
                raise ValueError(f"negative fitness: {x}")
            if m <= 0.0:
                raise ValueError(f"nonpositive mass at fitness {x}: {m}")
            if m > 1.0:
                raise ValueError(f"mass above 1 at fitness {x}: {m}")
            clean[x] = m
        if not clean:
            raise ValueError("empty support")
        total = fsum(clean.values())
        if abs(total - 1.0) > MASS_SUM_TOL:
            raise ValueError(f"masses sum to {total!r}, not 1")
        object.__setattr__(self, "entries", _ascending(clean))

    @property
    def support(self) -> set[float]:
        return set(self.entries)

    def mass(self, x: float) -> float:
        return self.entries.get(x, 0.0)

    def mean(self) -> float:
        """Expected fitness under this distribution."""
        return fsum(x * m for x, m in self.entries.items())

    def max_fitness(self) -> float:
        return next(reversed(self.entries))

    def __iter__(self) -> Iterator[tuple[float, float]]:
        return iter(self.entries.items())

    def __len__(self) -> int:
        return len(self.entries)


def fitness_distribution_from_values(values: Iterable[float]) -> FitnessDistribution:
    """Build the fitness histogram of a population given as raw values.

    Args:
        values: Nonempty iterable of fitness values, each >= 0.

    Returns:
        FitnessDistribution whose count at x is the multiplicity of x and
        whose total count equals ``len(values)``.

    Raises:
        ValueError: On an empty population or a negative fitness value.
    """
    counts = Counter(float(v) for v in values)
    if not counts:
        raise ValueError("empty population")
    for x in counts:
        if x < 0.0:
            raise ValueError(f"negative fitness: {x}")
    return FitnessDistribution(dict(counts))


def normalize(rho: FitnessDistribution) -> NFD:
    """Divide a fitness histogram by its total count.

    The support is unchanged; masses are count/total.

    Raises:
        ValueError: If the histogram has zero total count.
    """
    n = rho.total_count
    if n < 1:
        raise ValueError("zero total count")
    return NFD({x: c / n for x, c in rho})


def distance(phi1: NFD, phi2: NFD) -> float:
    """L1 distance between two NFDs over the union of their supports.

    Sums |phi1(x) - phi2(x)| over every x in either support, visiting the
    union in ascending order. Always in [0, 2]; equals 2 exactly when the
    supports are disjoint.
    """
    keys = sorted(phi1.support | phi2.support)
    return fsum(abs(phi1.mass(x) - phi2.mass(x)) for x in keys)


def renormalized(masses: dict[float, float]) -> NFD:
    """Build an NFD from positive weights, dividing out their exact sum.

    Applied after every operator application so rounding drift can never
    accumulate across repeated selections.
    """
    total = fsum(masses.values())
    if total <= 0.0:
        raise ValueError("weights must have positive sum")
    return NFD({x: m / total for x, m in masses.items()})
