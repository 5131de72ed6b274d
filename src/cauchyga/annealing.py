"""Inverse-temperature schedules for Boltzmann selection.

A schedule is the Cauchy family: its generation-n value is the partial
sum

    gamma_n = g0 * sum_{k=1..n} k**(-alpha),    1 < alpha <= inf,

a convergent, nondecreasing sequence. At alpha = inf every partial sum is
exactly 1, so gamma_n = g0 for every n: the constant schedule is the
alpha = inf member, and ``constant_schedule`` builds it. ``calibrate_g0``
solves for the g0 that makes the schedule hit a target gamma at a chosen
horizon.

Unit partial sums, sum_{k=1..n} k**(-alpha), are accumulated in ascending
k order into one grow-only table per alpha that every schedule with that
alpha and ``calibrate_g0`` read. No value depends on which call grew the
table, so concurrent callers agree. Schedules are immutable.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .selection import _check_gamma


@dataclass(frozen=True)
class AnnealingSchedule:
    """The Cauchy schedule with first value g0 = gamma_1 and exponent alpha.

    Build instances with :func:`constant_schedule` or
    :func:`cauchy_schedule` rather than directly.
    """

    g0: float
    alpha: float

    def __post_init__(self) -> None:
        if not self.alpha > 1.0:
            raise ValueError("alpha must exceed 1")
        _check_gamma(self.g0)


# alpha -> array whose entry n is sum_{k=1..n} k**(-alpha); entry 0 is 0
_UNIT_SUMS: defaultdict[float, np.ndarray] = defaultdict(lambda: np.zeros(1))


def _unit_sums(alpha: float, n: int) -> np.ndarray:
    """The table of unit partial sums for ``alpha``, grown to hold entry n."""
    prefix = _UNIT_SUMS[alpha]
    have = len(prefix) - 1
    if n <= have:
        return prefix
    grow_to = max(n, 2 * have, 16)
    ks = np.arange(have + 1, grow_to + 1, dtype=np.float64)
    # Seed the chunk with the running total so the accumulation is the
    # same sequence of additions a single ascending pass would perform;
    # table values then never depend on the growth history.
    seeded = np.concatenate([prefix[-1:], ks ** -alpha])
    prefix = np.concatenate([prefix, np.cumsum(seeded)[1:]])
    _UNIT_SUMS[alpha] = prefix
    return prefix


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
    return schedule.g0 * float(_unit_sums(schedule.alpha, n)[n])


def tail_sum(schedule: AnnealingSchedule, m: int, n: int) -> float:
    """Sum of the schedule increments over generations m+1 .. n.

    Equals gamma_n - gamma_m with gamma_0 defined as 0, so a constant
    schedule's tail sum is 0 for m >= 1.

    Raises:
        ValueError: If not n > m >= 0.
    """
    if m < 0 or n <= m:
        raise ValueError(f"need n > m >= 0, got m={m}, n={n}")
    prefix = _unit_sums(schedule.alpha, n)
    return schedule.g0 * float(prefix[n] - prefix[m])


def calibrate_g0(alpha: float, horizon: int, gamma_target: float) -> float:
    """Choose g0 so the Cauchy schedule reaches gamma_target at the horizon.

    Returns gamma_target divided by the partial sum of k**(-alpha) over
    k = 1 .. horizon, so ``gamma_at(cauchy_schedule(g0, alpha), horizon)``
    round-trips to gamma_target; at alpha = inf that is gamma_target.

    Raises:
        ValueError: If alpha <= 1, horizon < 1, or gamma_target is negative
            or not finite.
    """
    if not alpha > 1.0:
        raise ValueError("alpha must exceed 1")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    _check_gamma(gamma_target)
    return gamma_target / float(_unit_sums(alpha, horizon)[horizon])
