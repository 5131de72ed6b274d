"""Verify draw order 2: each suite draws its cases in blocks of bulk draws.

``random_nfd_block`` draws many NFDs as one padded block in three
generator calls; ``random_nfds`` is its NFD view, and at count 1 it is
``random_nfd``, whose draws are pinned against numpy's own ``dirichlet``
in ``test_properties.py``. A suite draws a full block of
``CASE_BLOCK`` cases at a time, so a case's draws depend only on the seed,
the suite and the case index: a shorter run is a prefix of a longer one.
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
from cauchyga.verify import (
    CASE_BLOCK,
    LEMMA_ALPHAS,
    LEMMA_G0S,
    random_nfd,
    random_nfd_block,
    random_nfds,
)

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@PROPERTY
@given(
    st.integers(0, 2**63),
    st.integers(1, 40),
    st.sampled_from([(0.0, 1.0), (0.0, 1e-300), (0.0, 5e-323), (2.0, 2.0)]),
)
def test_random_nfd_is_random_nfds_at_count_one(seed, max_support, bounds):
    # tiny and empty value ranges force duplicate draws
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(5):
        got = random_nfd(ours, max_support, *bounds)
        ref = random_nfds(theirs, 1, max_support, *bounds)[0]
        assert list(got.entries.items()) == list(ref.entries.items())
    assert ours.bit_generator.state == theirs.bit_generator.state


@pytest.mark.parametrize("count", [0, 1, CASE_BLOCK])
@pytest.mark.parametrize(
    "low,high", [(-1.0, 1.0), (1.0, 0.5), (0.0, math.inf), (math.nan, 1.0)]
)
def test_random_nfds_rejects_bad_value_range_before_any_draw(count, low, high):
    rng = np.random.default_rng(163)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="value range"):
        random_nfds(rng, count, 5, low, high)
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
    block = random_nfds(reference, 16)
    redrawn = [random_nfd(reference), random_nfd(reference)]  # in NFD order
    firsts = np.cumsum([0] + [len(phi.entries) for phi in block]).tolist()
    assert len(block[9].entries) >= 2  # so its second mass is the zero
    rng = ZerosAt(np.random.default_rng(seed), [firsts[9] + 1, firsts[3]])
    expected = [{3: redrawn[0], 9: redrawn[1]}.get(i, phi) for i, phi in enumerate(block)]
    return rng, expected, reference.bit_generator.state


def test_a_zero_mass_is_drawn_again_through_count_one():
    rng, expected, state = zero_mass_draws(173)
    got = random_nfds(rng, 16)
    for i, (phi, ref) in enumerate(zip(got, expected)):
        assert list(phi.entries.items()) == list(ref.entries.items()), i
    assert rng.bit_generator.state == state


def test_the_padded_draw_redraws_a_zero_mass_as_the_list_draw_does():
    rng, expected, state = zero_mass_draws(173)
    theirs = ZerosAt(np.random.default_rng(173), rng.positions)
    values, masses, lengths = random_nfd_block(rng, 16)
    assert rng.bit_generator.state == state
    assert lengths.tolist() == [len(phi) for phi in expected]
    for i, phi in enumerate(expected):
        k = len(phi)
        assert values[i, :k].tolist() == list(phi.entries), i
        assert masses[i, :k].tolist() == list(phi.entries.values()), i
        assert not values[i, k:].any() and not masses[i, k:].any(), i
    listed = list_random_nfds(theirs, 16)
    assert [list(p.entries.items()) for p in listed] == [list(p.entries.items()) for p in expected]


def test_bulk_nfds_have_the_law_of_the_suites():
    # support sizes uniform on 1..20; a support sorted, distinct and in range
    nfds = random_nfds(np.random.default_rng(179), 20_000)
    sizes = np.bincount([len(phi.entries) for phi in nfds], minlength=21)
    assert sizes[0] == 0 and len(sizes) == 21
    expected = len(nfds) / 20
    statistic = float(((sizes[1:] - expected) ** 2 / expected).sum())
    assert statistic < chi2.isf(1e-4, df=19)
    for phi in nfds:
        support = list(phi.entries)
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
        random_nfds(reference, CASE_BLOCK)
        alphas = reference.choice(LEMMA_ALPHAS, size=CASE_BLOCK).tolist()
        g0s = reference.choice(LEMMA_G0S, size=CASE_BLOCK).tolist()
        ms = reference.integers(1, 50, size=CASE_BLOCK)
        ns = reference.integers(ms + 1, 51).tolist()
        expected += zip(alphas, g0s, ms.tolist(), ns)
    assert windows == expected
    assert all(1 <= m < n <= 50 for _, _, m, n in windows)
    assert ours.bit_generator.state == reference.bit_generator.state


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
