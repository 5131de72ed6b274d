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

Many NFDs at once are a padded block (:func:`padded`): ``values`` and
``masses`` of shape ``(B, K)`` hold NFD r's ascending support and masses
in row r's first ``lengths[r]`` columns, and 0 after them. Padding
changes no ``fsum``, and no other sum but a -0.0 (x + 0.0 is x otherwise).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import fsum, inf
from typing import Iterable

import numpy as np

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


def _check_mass_rows(values: np.ndarray, masses: np.ndarray, lengths: np.ndarray) -> None:
    """:func:`_check_masses` on each row's real entries; a row not plainly
    within its rules is checked again as a dict, which raises their message."""
    real = np.arange(masses.shape[1]) < lengths[:, None]
    in_range = ((masses > 0.0) & (masses <= 1.0)) | ~real
    sums = np.where(real, masses, 0.0).sum(axis=1)
    # numpy's sum of k terms in [0, 1] is within k * 2**-52 * sum of the exact sum
    near = np.abs(sums - 1.0) + lengths * 2.0**-52 * sums <= MASS_SUM_TOL
    for r in np.flatnonzero(~in_range.all(axis=1) | ~near | (lengths < 1)).tolist():
        k = lengths[r]
        _check_masses(dict(zip(values[r, :k].tolist(), masses[r, :k].tolist())))


@dataclass(frozen=True)
class NFD:
    """Normalized fitness distribution: finite-support probability masses.

    Maps finite fitness values (>= 0) to strictly positive masses that sum
    to 1 within ``MASS_SUM_TOL``. ``entries`` is the one way to read the
    points: it walks the support in ascending order.
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


def padded(nfds: list[NFD]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``nfds`` as a padded block: values, masses and lengths."""
    lengths = np.array([len(phi) for phi in nfds], dtype=np.intp)
    width = int(lengths.max(initial=0))
    values, masses = np.zeros((2, len(nfds), width))
    real = np.arange(width) < lengths[:, None]
    values[real] = [x for phi in nfds for x in phi.entries]
    masses[real] = [m for phi in nfds for m in phi.entries.values()]
    return values, masses, lengths


def row_distances(masses1: np.ndarray, masses2: np.ndarray) -> list[float]:
    """Row r's L1 distance between two blocks of masses on one support:
    :func:`distance`'s shared-support sum, bit for bit, row by row."""
    return [fsum(row) for row in np.abs(masses1 - masses2).tolist()]
