"""Reference forms that package code is pinned against with ``==``.

Each is a form the package replaced; all but the last are the dict or
list forms a padded-block kernel replaced:

  - ``dict_boltzmann_apply``: the Boltzmann tilt of one dict NFD, a list
    comprehension over its entries with one ``math.exp`` per point,
    normalized by the ``fsum`` of the weights (``selection.boltzmann_tilt``);
  - ``dict_lemma1`` and ``dict_lemma2``: both sides of each lemma from dict
    NFDs, ``nfd.distance`` and a running sum of ``math.expm1`` terms
    (``theory.lemma1_bounds`` and ``theory.lemma2_bounds``);
  - ``list_random_nfds``: the NFDs of draw orders 2 and 3, built one by one from Python
    lists (``verify.random_nfd_block``);
  - ``three_branch_distance``: ``nfd.distance`` as it was while the metric
    suite compared dict NFDs, with a zip of the masses on one support and a
    sum of the masses on disjoint supports (``nfd.distance``'s one union
    formula).
"""

from __future__ import annotations

import math
from itertools import accumulate
from math import exp, fsum

import numpy as np

from cauchyga.annealing import AnnealingSchedule, gamma_at, tail_sum
from cauchyga.nfd import NFD, distance
from cauchyga.selection import _TINY, _check_gamma


def dict_boltzmann_apply(phi: NFD, gamma: float) -> NFD:
    """Boltzmann selection on one dict NFD: mass m * exp(gamma * (x - x_max)),
    floored at the smallest subnormal, over the weights' ``fsum``."""
    _check_gamma(gamma)
    entries = phi.entries
    x_max = phi.max_fitness()
    weights = [
        w if (w := m * exp(gamma * (x - x_max))) > _TINY else _TINY
        for x, m in entries.items()
    ]
    total = fsum(weights)
    return NFD._on_support(entries.keys(), [w / total for w in weights])


def dict_lemma1(phi: NFD, gamma1: float, gamma2: float) -> tuple[float, float]:
    sel1, sel2 = dict_boltzmann_apply(phi, gamma1), dict_boltzmann_apply(phi, gamma2)
    return abs(distance(phi, sel1) - distance(phi, sel2)), distance(sel1, sel2)


def dict_tail_bound(phi: NFD, schedule: AnnealingSchedule, m: int, n: int) -> float:
    tail = tail_sum(schedule, m, n)
    rhs = 0.0
    for x in phi.entries:
        if x * tail > 700.0:
            return math.inf
        rhs += math.expm1(x * tail)
    return rhs


def dict_lemma2(phi: NFD, schedule: AnnealingSchedule, m: int, n: int) -> tuple[float, float]:
    op_n = dict_boltzmann_apply(phi, gamma_at(schedule, n))
    op_m = dict_boltzmann_apply(phi, gamma_at(schedule, m))
    return distance(op_n, op_m), dict_tail_bound(phi, schedule, m, n)


def list_random_nfds(rng: np.random.Generator, count: int, max_support: int = 20,
                     value_low: float = 0.0, value_high: float = 1.0) -> list[NFD]:
    """Draw order 2 NFD by NFD: sizes, values, then one exponential per
    distinct value; masses are the exponentials times 1.0 / their in-order
    sum; an NFD with a zero mass is drawn again, after the others."""
    sizes = rng.integers(1, max_support + 1, size=count).tolist()
    values = rng.uniform(value_low, value_high, size=sum(sizes)).tolist()
    ends = accumulate(sizes)
    supports = [sorted(set(values[end - k : end])) for k, end in zip(sizes, ends)]
    lengths = [len(support) for support in supports]
    draws = rng.standard_exponential(sum(lengths)).tolist()
    nfds: list[NFD | None] = []
    for support, k, end in zip(supports, lengths, accumulate(lengths)):
        exponentials = draws[end - k : end]
        acc = 0.0
        for e in exponentials:
            acc += e
        masses = [e * (1.0 / acc) for e in exponentials]
        nfds.append(NFD._on_support(support, masses) if min(masses) > 0.0 else None)
    for i, phi in enumerate(nfds):
        if phi is None:
            nfds[i] = list_random_nfds(rng, 1, max_support, value_low, value_high)[0]
    return nfds


def three_branch_distance(phi1: NFD, phi2: NFD) -> float:
    """The L1 distance with a path per support relation; ``fsum`` rounds the
    exact sum, so the order of the terms does not matter."""
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
