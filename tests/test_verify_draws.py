"""Verify draw order 3: each suite draws its cases in blocks of bulk draws.

``random_nfd_block`` draws many NFDs as one padded block in three
generator calls; ``random_nfd`` is its one row at count 1, and its draws
are pinned against numpy's own ``dirichlet`` in ``test_properties.py``. A
metric case lays three NFDs on one row of such a block, with one more bulk
call for the keep flags and one for the exponentials. A suite draws a full
block of ``CASE_BLOCK`` cases at a time, so a case's draws depend only on
the seed, the suite and the case index: a shorter run is a prefix of a
longer one.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import list_random_nfds
from scipy.stats import chi2

from cauchyga import verify
from cauchyga.nfd import NFD, distance
from cauchyga.verify import CASE_BLOCK, LEMMA_ALPHAS, LEMMA_G0S, random_nfd, random_nfd_block

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@PROPERTY
@given(
    st.integers(0, 2**63),
    st.integers(1, 40),
    st.sampled_from([(0.0, 1.0), (0.0, 1e-300), (0.0, 5e-323), (2.0, 2.0)]),
)
def test_random_nfd_is_random_nfds_at_count_one(seed, max_support, bounds):
    # the one row of a one-row block; tiny and empty value ranges force
    # duplicate draws
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(5):
        got = random_nfd(ours, max_support, *bounds)
        (values,), (masses,), (k,) = random_nfd_block(theirs, 1, max_support, *bounds)
        assert list(got.entries) == values[:k].tolist()
        assert list(got.entries.values()) == masses[:k].tolist()
    assert ours.bit_generator.state == theirs.bit_generator.state


@pytest.mark.parametrize("count", [0, 1, CASE_BLOCK])
@pytest.mark.parametrize(
    "low,high", [(-1.0, 1.0), (1.0, 0.5), (0.0, math.inf), (math.nan, 1.0)]
)
def test_random_nfds_rejects_bad_value_range_before_any_draw(count, low, high):
    rng = np.random.default_rng(163)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="value range"):
        random_nfd_block(rng, count, 5, low, high)
    assert rng.bit_generator.state == before


class ZerosAt:
    """A generator whose first ``standard_exponential`` call has 0.0 at
    ``positions``; every other call is the wrapped generator's."""

    def __init__(self, rng: np.random.Generator, positions: list[int]) -> None:
        self.rng, self.positions = rng, positions

    def __getattr__(self, name):
        return getattr(self.rng, name)

    def standard_exponential(self, size):
        draws = self.rng.standard_exponential(size)
        draws[self.positions] = 0.0
        self.positions = []
        return draws


def zero_mass_draws(seed: int):
    """16 NFDs from ``seed`` with a zero mass forced into NFDs 3 and 9, the
    NFDs expected from it, and the generator state after them."""
    reference = np.random.default_rng(seed)
    block = list_random_nfds(reference, 16)
    redrawn = [random_nfd(reference), random_nfd(reference)]  # in NFD order
    firsts = np.cumsum([0] + [len(phi.entries) for phi in block]).tolist()
    assert len(block[9].entries) >= 2  # so its second mass is the zero
    rng = ZerosAt(np.random.default_rng(seed), [firsts[9] + 1, firsts[3]])
    expected = [{3: redrawn[0], 9: redrawn[1]}.get(i, phi) for i, phi in enumerate(block)]
    return rng, expected, reference.bit_generator.state


def test_a_zero_mass_is_drawn_again_through_count_one():
    rng, expected, state = zero_mass_draws(173)
    values, masses, lengths = random_nfd_block(rng, 16)
    assert rng.bit_generator.state == state
    assert lengths.tolist() == [len(phi) for phi in expected]
    for i, phi in enumerate(expected):
        k = len(phi)
        assert values[i, :k].tolist() == list(phi.entries), i
        assert masses[i, :k].tolist() == list(phi.entries.values()), i
        assert not values[i, k:].any() and not masses[i, k:].any(), i


def test_the_padded_draw_redraws_a_zero_mass_as_the_list_draw_does():
    rng, expected, state = zero_mass_draws(173)
    listed = list_random_nfds(rng, 16)
    assert rng.bit_generator.state == state
    assert [list(p.entries.items()) for p in listed] == [list(p.entries.items()) for p in expected]


def test_bulk_nfds_have_the_law_of_the_suites():
    # support sizes uniform on 1..20; a support sorted, distinct and in range
    values, _, lengths = random_nfd_block(np.random.default_rng(179), 20_000)
    sizes = np.bincount(lengths, minlength=21)
    assert sizes[0] == 0 and len(sizes) == 21
    expected = len(lengths) / 20
    statistic = float(((sizes[1:] - expected) ** 2 / expected).sum())
    assert statistic < chi2.isf(1e-4, df=19)
    for row, k in zip(values.tolist(), lengths.tolist()):
        support = row[:k]
        assert all(0.0 <= a < b <= 1.0 for a, b in zip(support, support[1:]))
        assert 0.0 <= support[0] <= 1.0


def test_lemma2_index_draws_match_generator_choice(monkeypatch):
    # the block's alpha and g0 indices are the draws rng.choice makes
    windows = []

    def recording(values, masses, lengths, schedules, ms, ns):
        windows.extend((s.alpha, s.g0, m, n) for s, m, n in zip(schedules, ms, ns))
        return real(values, masses, lengths, schedules, ms, ns)

    real = verify.lemma2_bounds
    monkeypatch.setattr(verify, "lemma2_bounds", recording)
    ours, reference = np.random.default_rng(167), np.random.default_rng(167)
    cases = 2 * CASE_BLOCK
    assert len(list(verify.lemma2_suite(ours, cases))) == cases
    expected = []
    for _ in range(cases // CASE_BLOCK):
        random_nfd_block(reference, CASE_BLOCK)
        alphas = reference.choice(LEMMA_ALPHAS, size=CASE_BLOCK).tolist()
        g0s = reference.choice(LEMMA_G0S, size=CASE_BLOCK).tolist()
        ms = reference.integers(1, 50, size=CASE_BLOCK)
        ns = reference.integers(ms + 1, 51).tolist()
        expected += zip(alphas, g0s, ms.tolist(), ns)
    assert windows == expected
    assert all(1 <= m < n <= 50 for _, _, m, n in windows)
    assert ours.bit_generator.state == reference.bit_generator.state


def metric_triples(rng) -> list[list[NFD]]:
    """A metric block's triples as dict NFDs, drawn in the documented order:
    the support block, then a keep flag and an exponential per NFD, case and
    column; an NFD that keeps nothing is the point mass at the least value."""
    values, _, lengths = random_nfd_block(rng, CASE_BLOCK)
    keeps = rng.integers(0, 2, size=(3, *values.shape), dtype=bool).tolist()
    draws = rng.standard_exponential((3, *values.shape)).tolist()
    triples = []
    for r, (row, k) in enumerate(zip(values.tolist(), lengths.tolist())):
        triple = []
        for t in range(3):
            kept = [(x, e) for x, keep, e in zip(row[:k], keeps[t][r], draws[t][r]) if keep]
            acc = 0.0
            for _, e in kept:
                acc += e
            masses = {x: e * (1.0 / acc) for x, e in kept}
            triple.append(NFD(masses) if kept else NFD({row[0]: 1.0}))
        triples.append(triple)
    return triples


class NoKeeps:
    """A generator whose first boolean ``integers`` call keeps nothing for
    NFD ``t`` of case ``r``; every other call is the wrapped generator's."""

    def __init__(self, rng: np.random.Generator, t: int, r: int) -> None:
        self.rng, self.at = rng, (t, r)

    def __getattr__(self, name):
        return getattr(self.rng, name)

    def integers(self, *args, **kwargs):
        draws = self.rng.integers(*args, **kwargs)
        if draws.dtype == bool and self.at:
            draws[self.at] = False
            self.at = None
        return draws


def test_a_metric_case_is_three_nfds_on_one_support():
    # NFD 2 of case 5 keeps nothing, so it is the point mass at the least value
    ours, theirs = (NoKeeps(np.random.default_rng(181), 2, 5) for _ in range(2))
    cases = list(verify.metric_suite(ours, 2 * CASE_BLOCK))
    triples = metric_triples(theirs) + metric_triples(theirs)
    assert ours.bit_generator.state == theirs.bit_generator.state
    expected = [(distance(p1, p3), distance(p1, p2) + distance(p2, p3)) for p1, p2, p3 in triples]
    assert [(lhs, rhs) for _, lhs, rhs, _ in cases] == expected
    least = random_nfd_block(np.random.default_rng(181), CASE_BLOCK)[0][5, 0]
    assert triples[5][2].entries == {least: 1.0}
    assert all(not problems for *_, problems in cases)


def test_the_metric_checks_are_reachable_at_the_bench_size():
    # overlapping supports give d13 < 2 and equal NFDs give d12 == 0, so the
    # triangle and zero-distance checks can fail; disjoint pairs reach the
    # normalization check
    rng = np.random.Generator(np.random.PCG64([42, 0]))
    triples = [t for _ in range(8) for t in metric_triples(rng)][:1000]
    d12, d13 = ([distance(t[0], t[b]) for t in triples] for b in (1, 2))
    assert [c.lhs for c in verify._suite_output(42, 0, 1000)[1]] == d13
    assert sum(d < 2.0 for d in d13) > 500 and d12.count(0.0) > 10
    assert any(not p.entries.keys() & q.entries.keys() for p, q, _ in triples)


@pytest.fixture(scope="module")
def thousand_cases():
    return {i: verify._suite_output(42, i, 1000)[1] for i in range(4)}


@pytest.mark.parametrize("cases", [20, 300])
@pytest.mark.parametrize(
    "suite_index", range(4), ids=[name for name, _ in verify.SUITES[:4]]
)
def test_a_shorter_run_is_a_prefix_of_a_longer_one(thousand_cases, suite_index, cases):
    # 300 cases cross two block boundaries and end inside the third block
    assert 20 < CASE_BLOCK < 300 < 3 * CASE_BLOCK
    rows = verify._suite_output(42, suite_index, cases)[1]
    assert rows == thousand_cases[suite_index][:cases]


def test_the_report_names_the_draw_order(tmp_path):
    verify.run_verify(42, 1, tmp_path)
    header = (tmp_path / "verify_report.txt").read_text().splitlines()[:3]
    assert header == ["seed = 42", "cases per suite = 1", f"draw order = {verify.DRAW_ORDER}"]
