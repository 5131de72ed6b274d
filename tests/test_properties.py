"""Hypothesis property tests: realized strength and the operator algebra's edges.

``realized_strength`` must equal the NFD route bit for bit, so those tests
compare with ``==``. The operator tests use the tolerances the rest of the
suite uses (``Tolerances.semigroup_tol`` for the semigroup law).

Every test runs derandomized, so tier-1 sees the same examples on every run.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cauchyga.engine import population_nfd, realized_strength
from cauchyga.nfd import NFD, distance, renormalized
from cauchyga.selection import boltzmann_apply, proportionate_apply
from cauchyga.verify import Tolerances

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)

ZEROS = st.sampled_from([0.0, -0.0])
FITNESS = st.floats(min_value=0.0, max_value=1e6, allow_nan=False) | ZEROS
TINY = float(np.finfo(np.float64).tiny)  # smallest normal double
NORMAL = st.floats(min_value=TINY, max_value=100.0)


@st.composite
def populations(draw, values=FITNESS):
    """(fitness, chosen): values from a small pool, so ties are common."""
    pool = draw(st.lists(values, min_size=1, max_size=5))
    fitness = np.array(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40)))
    chosen = np.array(
        draw(st.lists(st.integers(0, len(fitness) - 1), min_size=1, max_size=60))
    )
    return fitness, chosen


def nfd_strength(fitness: np.ndarray, chosen: np.ndarray) -> float:
    """The reference: two dict NFDs and their L1 distance."""
    return distance(population_nfd(fitness), population_nfd(fitness[chosen]))


@PROPERTY
@given(populations())
def test_realized_strength_equals_nfd_distance(case):
    fitness, chosen = case
    assert realized_strength(fitness, chosen) == nfd_strength(fitness, chosen)


@PROPERTY
@given(populations(values=ZEROS | st.sampled_from([0.25, 1.0])))
def test_realized_strength_with_both_signed_zeros(case):
    fitness, chosen = case
    assert realized_strength(fitness, chosen) == nfd_strength(fitness, chosen)


@PROPERTY
@given(populations(values=ZEROS))
def test_realized_strength_counts_signed_zeros_as_one_value(case):
    fitness, chosen = case
    assert realized_strength(fitness, chosen) == nfd_strength(fitness, chosen) == 0.0


@PROPERTY
@given(
    FITNESS, st.integers(1, 40), st.lists(st.integers(0, 39), min_size=1, max_size=60)
)
def test_realized_strength_one_point_support_is_zero(value, n, picks):
    fitness = np.full(n, value)
    chosen = np.array(picks) % n
    assert realized_strength(fitness, chosen) == nfd_strength(fitness, chosen) == 0.0


@PROPERTY
@given(
    populations(),
    st.floats(max_value=-5e-324, min_value=-1e6, allow_nan=False),
    st.data(),
)
def test_realized_strength_rejects_negative_fitness(case, negative, data):
    fitness, chosen = case
    fitness[data.draw(st.integers(0, len(fitness) - 1))] = negative
    with pytest.raises(ValueError, match="negative fitness"):
        nfd_strength(fitness, chosen)
    with pytest.raises(ValueError, match="negative fitness"):
        realized_strength(fitness, chosen)


def test_realized_strength_rejects_empty_population():
    empty = np.array([], dtype=np.float64)
    none = np.array([], dtype=np.intp)
    for fitness, chosen in ((empty, none), (np.ones(3), none)):
        with pytest.raises(ValueError, match="empty population"):
            nfd_strength(fitness, chosen)
        with pytest.raises(ValueError, match="empty population"):
            realized_strength(fitness, chosen)


@st.composite
def nfds(draw, values=st.floats(min_value=0.0, max_value=100.0, allow_nan=False)):
    """NFD on 1..8 distinct fitness values with positive weights."""
    support = draw(st.lists(values, min_size=1, max_size=8, unique=True))
    weights = draw(
        st.lists(
            st.floats(min_value=1e-6, max_value=1.0),
            min_size=len(support),
            max_size=len(support),
        )
    )
    return renormalized(dict(zip(support, weights)))


@PROPERTY
@given(nfds(), st.floats(min_value=1e3, max_value=1e300))
def test_boltzmann_subnormal_floor_keeps_support(phi, gamma):
    out = boltzmann_apply(phi, gamma)
    assert out.support == phi.support
    assert all(m > 0.0 for _, m in out)


@PROPERTY
@given(nfds(values=NORMAL), ZEROS, st.floats(min_value=1e-6, max_value=1.0))
def test_proportionate_drops_exactly_the_zero_point(phi, zero, weight):
    with_zero = renormalized({zero: weight, **dict(phi)})
    out = proportionate_apply(with_zero)
    assert out.support == with_zero.support - {0.0}


@pytest.mark.xfail(
    raises=ValueError,
    strict=True,
    reason="proportionate_apply: the weight x * phi(x) of a subnormal positive "
    "fitness underflows to 0, and NFD rejects the nonpositive mass instead "
    "of the support keeping that point",
)
@PROPERTY
@given(st.floats(min_value=5e-324, max_value=TINY, exclude_max=True), ZEROS)
def test_proportionate_keeps_subnormal_positive_fitness(x, zero):
    out = proportionate_apply(NFD({zero: 0.25, x: 0.25, 1.0: 0.5}))
    assert out.support == {x, 1.0}


def test_proportionate_rejects_mass_only_at_signed_zero():
    for zero in (0.0, -0.0):
        with pytest.raises(ValueError, match="degenerate"):
            proportionate_apply(NFD({zero: 1.0}))


@PROPERTY
@given(
    nfds(),
    st.floats(min_value=600.0, max_value=800.0),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_boltzmann_semigroup_near_exp_overflow(phi, total, split):
    # gamma times the support's span spans exp's range edge: the unshifted
    # weights would overflow past 709, the shifted ones underflow past -745
    span = max(phi.support) - min(phi.support)
    gamma = total / span if span > 0.0 else total
    assume(math.isfinite(gamma))  # an infinite gamma is the next test's case
    g1 = gamma * split
    g2 = gamma - g1
    two = boltzmann_apply(boltzmann_apply(phi, g1), g2)
    one = boltzmann_apply(phi, g1 + g2)
    assert distance(two, one) <= Tolerances().semigroup_tol


@pytest.mark.xfail(
    strict=True,
    reason="boltzmann_apply accepts gamma = inf: inf * 0 at the top fitness "
    "is NaN, and NFD's mass checks let the NaN masses through",
)
@PROPERTY
@given(nfds())
def test_boltzmann_infinite_gamma_fails_loudly(phi):
    with pytest.raises(ValueError):
        boltzmann_apply(phi, math.inf)
