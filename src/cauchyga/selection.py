"""Selection operators on NFDs and the one check of an inverse temperature.

Boltzmann selection tilts masses by exp(gamma * fitness); proportionate
selection tilts them by the fitness value itself. Selection strength is
``nfd.distance`` between the distribution before and after an operator fires.

Both operators build their result on the input's support, which the input
NFD has already validated and sorted, so only the new masses are checked.
The one Boltzmann tilt is :func:`boltzmann_tilt`, over a padded block of
NFDs (see :mod:`cauchyga.nfd`); :func:`boltzmann_apply` is its one-row
case. Its weights take one ``math.exp`` per point, not a vectorized
``np.exp``, whose last bits depend on the SIMD kernel numpy picks for the
CPU and would change the verification outputs. Weights are normalized by
their ``fsum``, which is exactly rounded and so independent of summation
order.
"""

from __future__ import annotations

from math import exp, fsum, isfinite

import numpy as np

from .benchmarks import _is_real

# selection.distance stays importable: bench/test_bench.py looks it up here
from .nfd import NFD, _check_mass_rows, distance, padded

# smallest subnormal double: the floor of a weight that underflows to zero
_TINY = 5e-324


def _check_gamma(gamma: float) -> None:
    """The package's one inverse-temperature rule: a real number
    (:func:`benchmarks._is_real`, checked by type, not converted), then
    finite, then >= 0."""
    if not _is_real(gamma):
        raise ValueError(f"inverse temperature must be a real number, got {gamma!r}")
    if not isfinite(gamma):
        raise ValueError("inverse temperature must be finite")
    if gamma < 0.0:
        raise ValueError("inverse temperature must be nonnegative")


def boltzmann_tilt(
    values: np.ndarray, masses: np.ndarray, lengths: np.ndarray, gammas
) -> np.ndarray:
    """Boltzmann selection on each row of a padded block, row r at
    inverse temperature ``gammas[r]``; returns the new masses, padded.

    A row's new mass at x is proportional to its mass times
    exp(gamma * x), normalized over the row's support, which is preserved
    exactly. gamma = 0 is the identity.

    Weights are computed as exp(gamma * (x - x_max)); the common factor
    exp(gamma * x_max) cancels in the normalization, so this is exact while
    never overflowing even at gamma in the hundreds. A weight that
    underflows to zero (gamma times the distance from the top exceeding
    ~745) is floored at the smallest subnormal: the true weight is positive,
    and the floor keeps the support preserved without measurably moving any
    distance.

    Raises:
        ValueError: If a gamma is negative, NaN or infinite, or a row's new
            masses fail an NFD's checks (:func:`nfd._check_masses`).
    """
    gammas = np.asarray(gammas, dtype=float)
    if not np.isfinite(gammas).all():
        raise ValueError("inverse temperature must be finite")
    if (gammas < 0.0).any():
        raise ValueError("inverse temperature must be nonnegative")
    real = np.arange(values.shape[1]) < lengths[:, None]
    x_max = values[np.arange(len(lengths)), lengths - 1]
    powers = (gammas[:, None] * (values - x_max[:, None]))[real].tolist()
    weights = masses[real] * np.fromiter(map(exp, powers), float, len(powers))
    weights = np.where(weights > _TINY, weights, _TINY)
    flat, ends = weights.tolist(), np.cumsum(lengths).tolist()
    totals = [fsum(flat[a:b]) for a, b in zip([0, *ends], ends)]
    tilted = np.zeros_like(masses)
    tilted[real] = weights / np.repeat(totals, lengths)
    _check_mass_rows(values, tilted, lengths)
    return tilted


def boltzmann_apply(phi: NFD, gamma: float) -> NFD:
    """Apply Boltzmann selection at inverse temperature gamma: the one-row
    case of :func:`boltzmann_tilt`, on phi's keys as they are.

    Raises:
        ValueError: If gamma is not a real number, or is negative, NaN or infinite.
    """
    _check_gamma(gamma)
    tilted = boltzmann_tilt(*padded([phi]), [gamma])
    return NFD._on_support(phi.entries.keys(), tilted[0].tolist())


def proportionate_apply(phi: NFD) -> NFD:
    """Apply proportionate selection: mass at x proportional to x * phi(x).

    Any mass sitting at fitness 0 is annihilated, so the result's support
    can shrink by that one point and no other. A positive point whose
    weight x * phi(x) underflows to zero (a subnormal fitness) is floored at
    the smallest subnormal, as in ``boltzmann_apply``, so it stays in the
    support.

    Raises:
        ValueError: If the mean fitness is 0 (all mass at fitness 0).
    """
    mu = phi.mean()
    if mu <= 0.0:
        raise ValueError("degenerate proportionate selection")
    positive = [(x, m) for x, m in phi.entries.items() if x > 0.0]
    weights = [max(x * m, _TINY) for x, m in positive]
    total = fsum(weights)
    return NFD._on_support([x for x, _ in positive], [w / total for w in weights])


def proportionate_strength_closed_form(phi: NFD) -> float:
    """Mean absolute fitness deviation divided by the mean fitness.

    Equals ``distance(phi, proportionate_apply(phi))`` without
    materializing the selected distribution.

    Raises:
        ValueError: If the mean fitness is 0.
    """
    mu = phi.mean()
    if mu <= 0.0:
        raise ValueError("degenerate proportionate selection")
    return fsum(m * abs(mu - x) for x, m in phi.entries.items()) / mu
