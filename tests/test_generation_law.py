"""One whole generation against its exact law, on populations small enough
to enumerate every outcome.

The operator tests pin each operator's own law and the digests pin bytes;
these tests check their composition. For a fixed population of n
one-gene individuals of ``bits`` bits, :func:`exact_law` returns the
probability of every ordered next population, written from the law the
engine's docstring states: 2 * ceil(n / 2) i.i.d. roulette parents,
paired in halves (draw i with draw ceil(n / 2) + i); each pair crosses
with probability p_c, swapping each bit with probability 1/2; the first
n children are kept (children a_0 .. a_{m-1}, then b_0 ..); every bit
flips with probability p_m; with elitism the best parent replaces the
worst child, each first on ties. This is one step of the
finite-population Markov chain of Nix and Vose (1992).

:func:`one_generation` steps R copies of the population once as one
stack: the draws of a ``_draw_block`` of R generations of one generator,
whose generations are i.i.d., are the draws of R runs' first generation.
A chi-square test compares the counts of the R outcomes with the law.
Cells whose expected count is below 5 are pooled into one; the threshold
is the chi-square quantile at ``ALPHA`` on (kept cells - 1) degrees of
freedom, so it follows from R and the number of cells. A defect fed in
through the config (crossover at 1 - p_c, mutation at 1.2 * p_m) must be
rejected at the same threshold.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from scipy.stats import chi2

from cauchyga import engine
from cauchyga.benchmarks import make_objective
from cauchyga.engine import GaConfig, make_population, step_generation

SPEC = make_objective("schwefel", 1)
R = 40_000  # stacked runs per case
ALPHA = 1e-4  # false-rejection probability of one comparison

# (n, bits, levels of the fixed population, gamma (None: proportionate),
# crossover_prob, mutation_prob_per_bit, elitism)
CASES = {
    "n2-b1-proportionate": (2, 1, (0, 1), None, 0.7, 0.08, False),
    "n2-b2-boltzmann": (2, 2, (1, 3), 3.0, 0.7, 0.05, False),
    "n3-b1-boltzmann": (3, 1, (0, 1, 1), 2.0, 0.7, 0.08, False),
    "n3-b2-proportionate": (3, 2, (0, 1, 3), None, 0.7, 0.08, False),
    "n3-b2-boltzmann": (3, 2, (0, 1, 3), 3.0, 0.7, 0.08, False),
    "n3-b2-boltzmann-elitism": (3, 2, (2, 1, 3), 3.0, 0.7, 0.08, True),
}


def fixed_population(n: int, bits: int, levels: tuple[int, ...]):
    genes = np.array(levels, dtype=engine._gene_dtype(bits)).reshape(n, 1)
    return make_population(genes, SPEC, bits)


def exact_law(
    n: int, bits: int, levels: tuple[int, ...], gamma: float | None,
    p_c: float, p_m: float, elitism: bool,
) -> np.ndarray:
    """The probability of each ordered next population, an (L,) * n array
    over the children's levels, L = 2**bits."""
    size = 1 << bits
    pop = fixed_population(n, bits, levels)
    fitness = pop.fitness.astype(float)
    weights = fitness if gamma is None else np.exp(gamma * (fitness - fitness.max()))
    parent = np.zeros(size)
    np.add.at(parent, list(levels), weights / weights.sum())

    # one pair's children before mutation: Q[x', y'] over the parents (x, y)
    pair = np.zeros((size, size))
    for x, y in itertools.product(range(size), repeat=2):
        both = parent[x] * parent[y]
        pair[x, y] += both * (1.0 - p_c)
        for mask in range(size):
            d = (x ^ y) & mask
            pair[x ^ d, y ^ d] += both * p_c / size
    flips = np.array([[bin(x ^ y).count("1") for y in range(size)] for x in range(size)])
    mutation = p_m**flips * (1.0 - p_m) ** (bits - flips)
    pair = mutation.T @ pair @ mutation

    # kept children: a_0 .. a_{m-1} at positions 0 .. m - 1, b_k at m + k
    m = (n + 1) // 2
    law = np.ones((size,) * n)
    for k in range(m):
        shape = [1] * n
        if m + k < n:
            shape[k] = shape[m + k] = size
            law = law * pair.reshape(shape)
        else:
            shape[k] = size
            law = law * pair.sum(axis=1).reshape(shape)
    if not elitism:
        return law
    raw = fixed_population(size, bits, tuple(range(size))).raw
    elite = levels[int(pop.raw.argmin())]
    kept = np.zeros_like(law)
    for children in itertools.product(range(size), repeat=n):
        worst = int(raw[list(children)].argmax())
        kept[children[:worst] + (elite,) + children[worst + 1 :]] += law[children]
    return kept


def one_generation(
    n: int, bits: int, levels: tuple[int, ...], gamma: float | None,
    p_c: float, p_m: float, elitism: bool, seed: int,
) -> np.ndarray:
    """Counts of each ordered next population over R stacked runs."""
    cfg = GaConfig(objective=SPEC, pop_size=n, generations=1, crossover_prob=p_c,
                   mutation_prob_per_bit=p_m, runs=1, elitism=elitism, bits_per_var=bits)
    rng = np.random.Generator(np.random.PCG64(seed))
    block = engine._draw_block([rng], cfg, R)
    draws = tuple(np.concatenate(parts) for parts in zip(*block))
    pop = fixed_population(n, bits, levels)
    stack = make_population(np.tile(pop.genes, (R, 1, 1)), SPEC, bits)
    nxt, _ = step_generation(stack, cfg, gamma, draws)
    cells = np.ravel_multi_index(tuple(nxt.genes[..., 0].T), (1 << bits,) * n)
    return np.bincount(cells, minlength=(1 << bits) ** n)


def chi_square(counts: np.ndarray, law: np.ndarray) -> tuple[float, float]:
    """The statistic and its threshold at ``ALPHA``; cells expected below 5
    are pooled into one, and an outcome of probability 0 fails outright."""
    expected = law.ravel() * counts.sum()
    assert counts[expected == 0].sum() == 0, "an impossible population was drawn"
    small = (expected > 0) & (expected < 5)
    obs = np.append(counts[expected >= 5], counts[small].sum())
    exp = np.append(expected[expected >= 5], expected[small].sum())
    if exp[-1] == 0:
        obs, exp = obs[:-1], exp[:-1]
    stat = float(((obs - exp) ** 2 / exp).sum())
    return stat, float(chi2.isf(ALPHA, exp.size - 1))


@pytest.mark.parametrize("case", CASES)
def test_exact_law_is_a_distribution_over_populations(case):
    law = exact_law(*CASES[case])
    assert law.min() >= 0.0 and law.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("index, case", enumerate(CASES))
def test_one_generation_follows_its_exact_law(index, case):
    counts = one_generation(*CASES[case], seed=index)
    stat, threshold = chi_square(counts, exact_law(*CASES[case]))
    assert stat < threshold, f"{case}: chi-square {stat:.1f} >= {threshold:.1f}"


@pytest.mark.parametrize(
    "defect", [lambda p_c, p_m: (1.0 - p_c, p_m), lambda p_c, p_m: (p_c, 1.2 * p_m)],
    ids=["crossover-1-p_c", "mutation-1.2p_m"],
)
def test_a_defect_fed_in_through_the_config_is_rejected(defect):
    n, bits, levels, gamma, p_c, p_m, elitism = CASES["n3-b2-boltzmann"]
    counts = one_generation(n, bits, levels, gamma, *defect(p_c, p_m), elitism, seed=99)
    stat, threshold = chi_square(counts, exact_law(n, bits, levels, gamma, p_c, p_m, elitism))
    assert stat > threshold
