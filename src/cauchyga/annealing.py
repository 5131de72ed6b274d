"""Inverse-temperature schedules for Boltzmann selection.

A schedule is the Cauchy family: its generation-n value is the partial
sum

    gamma_n = g0 * sum_{k=1..n} k**(-alpha),    1 < alpha <= inf,

a convergent, nondecreasing sequence. At alpha = inf every partial sum is
exactly 1, so gamma_n = g0 for every n: the constant schedule is the
alpha = inf member, and ``constant_schedule`` builds it. ``calibrate_g0``
solves for the g0 that makes the schedule hit a target gamma at a chosen
horizon.

Every schedule and ``calibrate_g0`` read the unit partial sums,
sum_{k=1..n} k**(-alpha), from cached immutable tables, each added in
ascending k order from 0. Schedules are immutable.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .selection import _check_gamma


def _check_alpha(alpha: float) -> None:
    """The one exponent rule: the partial sums converge only for alpha > 1."""
    if not alpha > 1.0:
        raise ValueError("alpha must exceed 1")


@dataclass(frozen=True)
class AnnealingSchedule:
    """The Cauchy schedule with first value g0 = gamma_1 and exponent alpha.

    Build instances with :func:`constant_schedule` or
    :func:`cauchy_schedule` rather than directly.
    """

    g0: float
    alpha: float

    def __post_init__(self) -> None:
        _check_alpha(self.alpha)
        _check_gamma(self.g0)


@functools.cache
def _unit_sums(alpha: float, size: int) -> tuple[float, ...]:
    """Entry n is sum_{k=1..n} k**(-alpha), for n = 0 .. size, added in ascending k."""
    ks = np.arange(1, size + 1, dtype=np.float64)
    return (0.0, *np.cumsum(ks**-alpha).tolist())


def _sums_through(alpha: float, n: int) -> tuple[float, ...]:
    """The cached table with entry n: size the next power of two >= max(n, 16)."""
    return _unit_sums(alpha, max(16, 1 << (n - 1).bit_length()))


def constant_schedule(gamma: float) -> AnnealingSchedule:
    """The alpha = inf schedule: gamma at every generation."""
    return cauchy_schedule(gamma, math.inf)


def cauchy_schedule(g0: float, alpha: float) -> AnnealingSchedule:
    """Schedule with power-law increments g0 / k**alpha, 1 < alpha <= inf."""
    return AnnealingSchedule(float(g0), float(alpha))


def gamma_at(schedule: AnnealingSchedule, n: int) -> float:
    """Inverse temperature used at generation n (n >= 1).

    g0 times the ascending partial sum of k**(-alpha) up to n; that sum is
    exactly 1 at alpha = inf, so a constant schedule returns g0 itself.

    Raises:
        ValueError: If n < 1.
    """
    if n < 1:
        raise ValueError("generation index must be >= 1")
    return schedule.g0 * _sums_through(schedule.alpha, n)[n]


def tail_sum(schedule: AnnealingSchedule, m: int, n: int) -> float:
    """Sum of the schedule increments over generations m+1 .. n.

    Equals gamma_n - gamma_m with gamma_0 defined as 0, so a constant
    schedule's tail sum is 0 for m >= 1.

    Raises:
        ValueError: If not n > m >= 0.
    """
    if m < 0 or n <= m:
        raise ValueError(f"need n > m >= 0, got m={m}, n={n}")
    prefix = _sums_through(schedule.alpha, n)
    return schedule.g0 * (prefix[n] - prefix[m])


def calibrate_g0(alpha: float, horizon: int, gamma_target: float) -> float:
    """Choose g0 so the Cauchy schedule reaches gamma_target at the horizon.

    Returns gamma_target divided by the partial sum of k**(-alpha) over
    k = 1 .. horizon, so ``gamma_at(cauchy_schedule(g0, alpha), horizon)``
    round-trips to gamma_target; at alpha = inf that is gamma_target.

    Raises:
        ValueError: If alpha <= 1, horizon < 1, or gamma_target is negative
            or not finite.
    """
    _check_alpha(alpha)
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    _check_gamma(gamma_target)
    return gamma_target / _sums_through(alpha, horizon)[horizon]
