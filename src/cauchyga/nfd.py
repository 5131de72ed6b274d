"""Finite-support fitness distributions and the L1 metric between them.

Counting how many individuals of a population carry each fitness value and
dividing by the population size gives its normalized fitness distribution
(NFD, :meth:`NFD.from_values`), a finite-support probability distribution
over fitness values. Selection operators act on NFDs, and the
L1 distance between two NFDs is the yardstick for how much an operator
reshapes a population.

Conventions used throughout the package:
  - Fitness values are exact float keys; two fitnesses aggregate only when
    bit-identical. No epsilon bucketing.
  - Support iteration is always in ascending fitness order, so every
    summation is deterministic and reproducible.
  - All fitness values are finite and >= 0; masses are positive and finite.
  - Instances are treated as immutable after construction.
  - An operator whose result lives on its input's support (Boltzmann
    selection, and proportionate selection on the positive part) reuses
    the input's validated, ascending keys through ``NFD._on_support`` and
    checks only the new masses.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import fsum, inf
from typing import Iterable, Iterator

MASS_SUM_TOL = 1e-12


def _check_masses(entries: dict[float, float]) -> None:
    """Every mass in (0, 1] (NaN fails), and the masses sum to 1."""
    for x, m in entries.items():
        if not 0.0 < m <= 1.0:
            if m > 1.0:
                raise ValueError(f"mass above 1 at fitness {x}: {m}")
            raise ValueError(f"nonpositive mass at fitness {x}: {m}")
    if not entries:
        raise ValueError("empty support")
    total = fsum(entries.values())
    if abs(total - 1.0) > MASS_SUM_TOL:
        raise ValueError(f"masses sum to {total!r}, not 1")


@dataclass(frozen=True)
class NFD:
    """Normalized fitness distribution: finite-support probability masses.

    Maps finite fitness values (>= 0) to strictly positive masses that sum
    to 1 within ``MASS_SUM_TOL``. Iteration walks the support in ascending
    order.
    """

    entries: dict[float, float]

    def __post_init__(self) -> None:
        clean: dict[float, float] = {}
        for x, m in self.entries.items():
            x = float(x)
            if x < 0.0:
                raise ValueError(f"negative fitness: {x}")
            if not x < inf:
                raise ValueError(f"non-finite fitness: {x}")
            clean[x] = float(m)
        _check_masses(clean)
        object.__setattr__(self, "entries", {x: clean[x] for x in sorted(clean)})

    @classmethod
    def from_values(cls, values: Iterable[float]) -> NFD:
        """NFD with mass count(x) / len(values) at x; 0.0 and -0.0 are one x.

        Raises:
            ValueError: On no values, or a negative or non-finite value (a
                negative one is named first).
        """
        counts = Counter(float(v) for v in values)
        if not counts:
            raise ValueError("empty population")
        for x in counts:
            if x < 0.0:
                raise ValueError(f"negative fitness: {x}")
        n = sum(counts.values())
        return cls({x: c / n for x, c in counts.items()})

    @classmethod
    def _on_support(cls, keys: Iterable[float], masses: list[float]) -> NFD:
        """NFD with ``masses`` on the keys of an existing NFD, in their order.

        ``keys`` must come from an NFD (or be an order-preserving subset of
        one), or be floats the caller has checked the same way, so they are
        already finite, nonnegative, distinct and ascending; they are
        neither converted nor sorted again. Only the new masses are
        checked, exactly as the constructor checks them.
        """
        entries = dict(zip(keys, masses))
        _check_masses(entries)
        phi = object.__new__(cls)
        object.__setattr__(phi, "entries", entries)
        return phi

    def mean(self) -> float:
        """Expected fitness under this distribution."""
        return fsum(x * m for x, m in self.entries.items())

    def max_fitness(self) -> float:
        return next(reversed(self.entries))

    def __iter__(self) -> Iterator[tuple[float, float]]:
        return iter(self.entries.items())

    def __len__(self) -> int:
        return len(self.entries)


def distance(phi1: NFD, phi2: NFD) -> float:
    """L1 distance between two NFDs over the union of their supports.

    Sums |phi1(x) - phi2(x)| over every x in either support. Always in
    [0, 2]; equals 2 exactly when the supports are disjoint.

    On one shared support (every operator output against its input) the
    two ascending mass sequences are zipped. Otherwise the terms are
    |phi1(x) - phi2(x)| over the shared keys, then the masses only phi1
    has, then the masses only phi2 has; disjoint supports have no shared
    terms. No path sorts the union: ``fsum`` rounds the exact sum of its
    terms, so the result does not depend on their order.
    """
    a, b = phi1.entries, phi2.entries
    if a.keys() == b.keys():
        return fsum([abs(p - q) for p, q in zip(a.values(), b.values())])
    shared = a.keys() & b.keys()
    if not shared:
        return fsum([*a.values(), *b.values()])
    terms = [abs(a[x] - b[x]) for x in shared]
    terms += [a[x] for x in a.keys() - shared]
    terms += [b[x] for x in b.keys() - shared]
    return fsum(terms)
