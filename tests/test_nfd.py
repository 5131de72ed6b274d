"""Construction, normalization, support, and metric behavior of NFDs."""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest

from cauchyga.nfd import NFD, distance
from cauchyga.verify import random_nfd


def test_from_values_counts_multiplicities():
    phi = NFD.from_values([1.0, 1.0, 2.0])
    assert phi.entries == {1.0: 2 / 3, 2.0: 1 / 3}
    assert len(phi) == 2


def test_from_values_singleton_zero():
    assert NFD.from_values([0.0]).entries == {0.0: 1.0}
    # 0.0 and -0.0 are one fitness value
    assert NFD.from_values([-0.0, 0.0, 1.0, 0.0]).entries == {0.0: 0.75, 1.0: 0.25}


def test_from_values_matches_counter_oracle():
    rng = np.random.default_rng(7)
    values = rng.choice([0.5, 1.25, 2.0, 3.75], size=150).tolist()
    phi = NFD.from_values(values)
    expected = [(x, c / 150) for x, c in sorted(Counter(values).items())]
    assert list(phi.entries.items()) == expected


def test_from_values_rejects_empty():
    with pytest.raises(ValueError, match="empty population"):
        NFD.from_values([])


def test_from_values_rejects_negative():
    with pytest.raises(ValueError, match="negative fitness: -0.5"):
        NFD.from_values([1.0, -0.5])
    # a negative value is named even when a non-finite one comes first
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="negative fitness: -0.5"):
            NFD.from_values([bad, 1.0, -0.5])
        with pytest.raises(ValueError, match="non-finite fitness"):
            NFD.from_values([1.0, bad])


def test_normalize_divides_by_total():
    phi = NFD.from_values([1.0, 2.0, 1.0])
    assert phi.entries.get(1.0, 0.0) == 2 / 3
    assert phi.entries.get(2.0, 0.0) == 1 / 3
    assert phi.entries.keys() == {1.0, 2.0}


def test_normalize_point_mass():
    assert NFD.from_values([5.0] * 7).entries == {5.0: 1.0}


def test_normalize_rejects_zero_total():
    # an exhausted iterator is a population of size zero
    with pytest.raises(ValueError, match="empty population"):
        NFD.from_values(iter([]))


def test_normalize_masses_sum_to_one():
    rng = np.random.default_rng(3)
    for _ in range(50):
        values = rng.integers(0, 40, size=rng.integers(1, 200)).astype(float)
        phi = NFD.from_values(values.tolist())
        assert abs(sum(m for _, m in phi.entries.items()) - 1.0) <= 1e-12


def test_support_examples():
    assert NFD({1.0: 0.5, 3.0: 0.5}).entries.keys() == {1.0, 3.0}
    assert NFD({0.0: 1.0}).entries.keys() == {0.0}
    assert NFD.from_values([2.0, 2.0, 2.0]).entries.keys() == {2.0}


def test_support_bounded_by_population_size():
    rng = np.random.default_rng(11)
    phi = NFD.from_values(rng.uniform(0, 1, size=150).tolist())
    assert len(phi) <= 150


def test_nfd_validation():
    with pytest.raises(ValueError, match="empty support"):
        NFD({})
    with pytest.raises(ValueError, match="nonpositive mass"):
        NFD({1.0: 0.0, 2.0: 1.0})
    with pytest.raises(ValueError, match="negative fitness"):
        NFD({-1.0: 1.0})
    with pytest.raises(ValueError, match="sum"):
        NFD({1.0: 0.5, 2.0: 0.4})


def test_nfd_iterates_in_ascending_fitness_order():
    phi = NFD({3.0: 0.25, 1.0: 0.5, 2.0: 0.25})
    assert [x for x, _ in phi.entries.items()] == [1.0, 2.0, 3.0]


def test_distance_identity():
    rng = np.random.default_rng(5)
    for _ in range(20):
        phi = random_nfd(rng)
        assert distance(phi, phi) == 0.0


def test_distance_disjoint_supports():
    assert distance(NFD({0.0: 1.0}), NFD({1.0: 1.0})) == 2.0


def test_distance_hand_computed():
    d = distance(NFD({0.0: 0.5, 1.0: 0.5}), NFD({0.0: 0.25, 1.0: 0.75}))
    assert d == pytest.approx(0.5, abs=1e-15)


def test_distance_on_partly_shared_supports_hand_computed():
    # 0.5 only in the first, |0.5 - 0.25| shared, 0.75 only in the second
    p, q = NFD({0.1: 0.5, 0.2: 0.5}), NFD({0.2: 0.25, 0.3: 0.75})
    assert distance(p, q) == distance(q, p) == 1.5


def test_metric_axioms_on_random_triples():
    rng = np.random.default_rng(17)
    for _ in range(500):
        p1, p2, p3 = (random_nfd(rng) for _ in range(3))
        d12 = distance(p1, p2)
        d13 = distance(p1, p3)
        d23 = distance(p2, p3)
        assert d12 >= 0.0 and d13 >= 0.0 and d23 >= 0.0
        # masses are normalized within 1e-12, so the hard ceiling carries
        # the same slack
        assert max(d12, d13, d23) <= 2.0 + 1e-12
        assert distance(p2, p1) == d12
        assert d13 <= d12 + d23 + 1e-12
        if p1.entries != p2.entries:
            assert d12 > 0.0


def test_distance_invariant_under_common_shift():
    rng = np.random.default_rng(23)
    for _ in range(50):
        p1, p2 = random_nfd(rng), random_nfd(rng)
        c = float(rng.uniform(0.1, 5.0))
        q1 = NFD({x + c: m for x, m in p1.entries.items()})
        q2 = NFD({x + c: m for x, m in p2.entries.items()})
        assert distance(q1, q2) == distance(p1, p2)


def test_normalize_of_from_values_is_valid_nfd():
    rng = np.random.default_rng(29)
    for _ in range(50):
        values = rng.uniform(0, 10, size=rng.integers(1, 60)).tolist()
        phi = NFD.from_values(values)
        assert isinstance(phi, NFD)  # constructor revalidates invariants
        assert phi.entries.keys() == set(values)
