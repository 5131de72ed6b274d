"""Hypothesis property tests: fast paths, and the operator algebra's edges.

The GA's realized strength (``engine._strengths``, here on a stack of one
population), ``distance``, ``boltzmann_apply``, ``cauchy_tail_profile``
and ``random_nfd`` each replaced a slower reference that is kept here;
they must equal it bit for bit, so those tests compare with ``==``. The
operator tests use the tolerances the rest of the suite uses
(``verify.SEMIGROUP_TOL`` for the semigroup law).

Every test runs derandomized, so tier-1 sees the same examples on every run.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cauchyga.annealing import cauchy_schedule, gamma_at
from cauchyga.engine import _strengths, population_nfd
from cauchyga.nfd import NFD, distance
from cauchyga.selection import boltzmann_apply, proportionate_apply
from cauchyga.theory import cauchy_tail_profile
from cauchyga.verify import SEMIGROUP_TOL, random_nfd

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


def counted_nfd(fitness: np.ndarray) -> NFD:
    """A population's NFD written out: count each value, mass count / n."""
    values = fitness.tolist()
    if not values:
        raise ValueError("empty population")
    return NFD({x: c / len(values) for x, c in Counter(values).items()})


def nfd_strength(fitness: np.ndarray, chosen: np.ndarray) -> float:
    """The reference: two dict NFDs and their L1 distance."""
    return distance(counted_nfd(fitness), counted_nfd(fitness[chosen]))


def realized_strength(fitness: np.ndarray, chosen: np.ndarray) -> float:
    """The GA's realized strength of one population, as a stack of one."""
    return _strengths(fitness[None], chosen[None])[0]


@PROPERTY
@given(populations())
def test_population_nfd_equals_counted_nfd(case):
    fitness, _ = case
    assert list(population_nfd(fitness).entries.items()) == list(
        counted_nfd(fitness).entries.items()
    )


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


def renormalized(masses: dict[float, float]) -> NFD:
    """NFD from positive weights on any support, divided by their exact sum.

    The reference for the operators in ``selection``, which normalize the
    same way on their input's support.
    """
    total = math.fsum(masses.values())
    if total <= 0.0:
        raise ValueError("weights must have positive sum")
    return NFD({x: m / total for x, m in masses.items()})


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
    assert out.entries.keys() == phi.entries.keys()
    assert all(m > 0.0 for _, m in out.entries.items())


@PROPERTY
@given(nfds(values=NORMAL), ZEROS, st.floats(min_value=1e-6, max_value=1.0))
def test_proportionate_drops_exactly_the_zero_point(phi, zero, weight):
    with_zero = renormalized({zero: weight, **phi.entries})
    out = proportionate_apply(with_zero)
    assert out.entries.keys() == with_zero.entries.keys() - {0.0}


@PROPERTY
@given(st.floats(min_value=5e-324, max_value=TINY, exclude_max=True), ZEROS)
def test_proportionate_keeps_subnormal_positive_fitness(x, zero):
    out = proportionate_apply(NFD({zero: 0.25, x: 0.25, 1.0: 0.5}))
    assert out.entries.keys() == {x, 1.0}


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
    span = max(phi.entries) - min(phi.entries)
    gamma = total / span if span > 0.0 else total
    assume(math.isfinite(gamma))  # an infinite gamma is the next test's case
    g1 = gamma * split
    g2 = gamma - g1
    two = boltzmann_apply(boltzmann_apply(phi, g1), g2)
    one = boltzmann_apply(phi, g1 + g2)
    assert distance(two, one) <= SEMIGROUP_TOL


@PROPERTY
@given(nfds())
def test_boltzmann_infinite_gamma_fails_loudly(phi):
    with pytest.raises(ValueError):
        boltzmann_apply(phi, math.inf)


@pytest.mark.parametrize("gamma", [math.nan, math.inf])
def test_boltzmann_rejects_non_finite_gamma(gamma):
    with pytest.raises(ValueError, match="must be finite"):
        boltzmann_apply(NFD({0.5: 0.5, 1.0: 0.5}), gamma)


def test_nfd_rejects_nan_mass():
    with pytest.raises(ValueError, match="nonpositive mass"):
        NFD({0.5: math.nan, 1.0: 0.5})


@pytest.mark.parametrize("x", [math.nan, math.inf])
def test_nfd_rejects_non_finite_fitness(x):
    with pytest.raises(ValueError, match="non-finite fitness"):
        NFD({x: 0.5, 1.0: 0.5})


# --- fast paths against the references they replaced -----------------------

POOL = st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, 3.0, 1e-300, 5e-324])


def reference_distance(p: NFD, q: NFD) -> float:
    a, b = p.entries, q.entries
    return math.fsum(abs(a.get(x, 0.0) - b.get(x, 0.0)) for x in sorted(a.keys() | b.keys()))


@PROPERTY
@given(nfds(values=POOL), nfds(values=POOL))
def test_distance_equals_union_order_reference(p, q):
    # a small pool makes equal, nested, overlapping and disjoint supports
    assert distance(p, q) == reference_distance(p, q)
    assert distance(q, p) == reference_distance(q, p)


@st.composite
def pooled_pairs(draw):
    """Two NFDs on one drawn pool of values: one point shared, one not."""
    pool = draw(
        st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=3, max_size=8,
                 unique=True)
    )
    shared, own, rest = pool[0], pool[1], st.sampled_from(pool[2:])
    weight = st.floats(min_value=1e-6, max_value=1.0)
    p = {shared: draw(weight), own: draw(weight), **draw(nfds(values=rest)).entries}
    q = {shared: draw(weight), **draw(nfds(values=rest)).entries}
    return renormalized(p), renormalized(q)


@PROPERTY
@given(pooled_pairs())
def test_distance_on_partly_shared_supports_equals_reference(pair):
    p, q = pair
    assert distance(p, q) == reference_distance(p, q)
    assert distance(q, p) == reference_distance(q, p)


@PROPERTY
@given(nfds(), st.floats(min_value=0.0, max_value=1e3))
def test_distance_on_shared_support_equals_reference(phi, gamma):
    out = boltzmann_apply(phi, gamma)
    assert distance(phi, out) == reference_distance(phi, out)


@PROPERTY
@given(nfds(values=FITNESS), st.floats(min_value=0.0, max_value=1e300))
def test_boltzmann_equals_renormalized_reference(phi, gamma):
    x_max = max(phi.entries)
    ref = renormalized({
        x: max(m * math.exp(gamma * (x - x_max)), 5e-324)
        for x, m in phi.entries.items()
    })
    out = boltzmann_apply(phi, gamma)
    assert out.entries == ref.entries
    assert list(out.entries) == list(ref.entries)


def reference_tail_profile(phi, schedule, checkpoints):
    """The per-pair form: both operators recomputed for every pair.

    Levels and pairs are sampled as when the pair count was a setting, at
    its only used value: s evenly spaced integers from N to 4N, s the
    smallest with s*(s-1)/2 >= 6, and the first 6 pairs in lexicographic
    order.
    """
    pairs_per_checkpoint = 6
    profile = []
    for ckpt in checkpoints:
        lo, hi = ckpt, 4 * ckpt
        s = 2
        while s * (s - 1) // 2 < pairs_per_checkpoint and s < hi - lo + 1:
            s += 1
        levels = sorted({lo + round(i * (hi - lo) / (s - 1)) for i in range(s)})
        worst = 0.0
        for m, n in list(combinations(levels, 2))[:pairs_per_checkpoint]:
            op_m = boltzmann_apply(phi, gamma_at(schedule, m))
            op_n = boltzmann_apply(phi, gamma_at(schedule, n))
            worst = max(worst, distance(op_n, op_m))
        profile.append((ckpt, worst))
    return profile


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(
    nfds(),
    st.sampled_from([0.1, 1.0, 10.0]),
    st.sampled_from([1.1, 1.5, 2.0]),
    st.lists(st.integers(1, 40), min_size=1, max_size=6, unique=True),
)
def test_tail_profile_equals_per_pair_recomputation(phi, g0, alpha, ckpts):
    checkpoints = sorted(ckpts)
    got = cauchy_tail_profile(phi, cauchy_schedule(g0, alpha), checkpoints)
    ref = reference_tail_profile(phi, cauchy_schedule(g0, alpha), checkpoints)
    assert got == ref


def reference_random_nfd(rng, max_support=20, value_low=0.0, value_high=1.0):
    """The np.unique form random_nfd replaced."""
    while True:
        k = int(rng.integers(1, max_support + 1))
        values = np.unique(rng.uniform(value_low, value_high, size=k))
        masses = rng.dirichlet(np.ones(len(values)))
        if masses.min() > 0.0:
            return NFD(dict(zip(values.tolist(), masses.tolist())))


@PROPERTY
@given(
    st.integers(0, 2**63),
    st.integers(1, 40),
    st.sampled_from([(0.0, 1.0), (0.0, 1e-300), (0.0, 5e-323), (2.0, 2.0)]),
)
def test_random_nfd_equals_np_unique_reference(seed, max_support, bounds):
    # tiny and empty value ranges force duplicate draws
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(5):
        got = random_nfd(ours, max_support, *bounds)
        ref = reference_random_nfd(theirs, max_support, *bounds)
        assert got.entries == ref.entries
        assert list(got.entries) == list(ref.entries)
    assert ours.random() == theirs.random()


@pytest.mark.parametrize(
    "low,high", [(-1.0, 1.0), (1.0, 0.5), (0.0, math.inf), (math.nan, 1.0)]
)
def test_random_nfd_rejects_bad_value_range(low, high):
    # the support is built from the drawn values unchecked, so the range is
    # checked, and before anything is drawn
    rng = np.random.default_rng(163)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="value range"):
        random_nfd(rng, 5, low, high)
    assert rng.bit_generator.state == before

