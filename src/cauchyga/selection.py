"""Selection operators on NFDs and the one check of an inverse temperature.

Boltzmann selection tilts masses by exp(gamma * fitness); proportionate
selection tilts them by the fitness value itself. Selection strength is
``nfd.distance`` between the distribution before and after an operator fires.

Both operators build their result on the input's support, which the input
NFD has already validated and sorted, so only the new masses are checked.
Boltzmann weights take one ``math.exp`` per point, not a vectorized
``np.exp``: numpy's SIMD exp can differ from libm's in the last bit, which
would change the verification outputs. Weights are normalized by their
``fsum``, which is exactly rounded and so independent of summation order.
"""

from __future__ import annotations

from math import exp, fsum, isfinite
from typing import Iterable

# selection.distance stays importable: bench/test_bench.py looks it up here
from .nfd import NFD, distance

# smallest subnormal double: the floor of a weight that underflows to zero
_TINY = 5e-324


def _check_gamma(gamma: float) -> None:
    """The package's one inverse-temperature rule: finite first, then >= 0."""
    if not isfinite(gamma):
        raise ValueError("inverse temperature must be finite")
    if gamma < 0.0:
        raise ValueError("inverse temperature must be nonnegative")


def _reweighted(keys: Iterable[float], weights: list[float]) -> NFD:
    """NFD with masses weights / sum on ``keys``, taken in order from an NFD."""
    total = fsum(weights)
    return NFD._on_support(keys, [w / total for w in weights])


def boltzmann_apply(phi: NFD, gamma: float) -> NFD:
    """Apply Boltzmann selection at inverse temperature gamma.

    The result's mass at x is proportional to phi(x) * exp(gamma * x),
    normalized over the support, which is preserved exactly. gamma = 0 is
    the identity.

    Weights are computed as exp(gamma * (x - x_max)); the common factor
    exp(gamma * x_max) cancels in the normalization, so this is exact while
    never overflowing even at gamma in the hundreds. A weight that
    underflows to zero (gamma times the distance from the top exceeding
    ~745) is floored at the smallest subnormal: the true weight is positive,
    and the floor keeps the support preserved without measurably moving any
    distance.

    The result reuses phi's keys as they are; only its masses are checked.

    Raises:
        ValueError: If gamma is negative, NaN or infinite.
    """
    _check_gamma(gamma)
    entries = phi.entries
    x_max = phi.max_fitness()
    weights = [
        w if (w := m * exp(gamma * (x - x_max))) > _TINY else _TINY
        for x, m in entries.items()
    ]
    return _reweighted(entries.keys(), weights)


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
    return _reweighted([x for x, _ in positive], weights)


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
    return fsum(m * abs(mu - x) for x, m in phi) / mu
