"""One whole generation against its exact law, on populations small enough
to enumerate every outcome.

The operator tests pin each operator's own law and the digests pin bytes;
these tests check their composition. An individual of ``dims`` genes of
``bits`` bits is written as one genome code of dims * bits bits, its genes
in turn, most significant first. For a fixed population of n codes,
:func:`exact_law` returns the probability of every ordered next
population, written from the law the engine's docstring states:
2 * ceil(n / 2) i.i.d. roulette parents, paired in halves (draw i with
draw ceil(n / 2) + i); each pair crosses with probability p_c, swapping
each bit of the genome with probability 1/2; the first n children are
kept (children a_0 .. a_{m-1}, then b_0 ..); every bit flips with
probability p_m; with elitism the best parent replaces the worst child,
each first on ties. This is one step of the finite-population Markov
chain of Nix and Vose (1992). The dims-2 case checks that each gene draws
its own crossover mask and that the flips cover every gene's bits.

:func:`one_generation` steps R copies of the population once as one
stack: the draws of a ``_draw_block`` of R generations of one generator,
whose generations are i.i.d., are the draws of R runs' first generation.
A chi-square test compares the counts of the R outcomes with the law.
Cells whose expected count is below 5 are pooled into one; the threshold
is the chi-square quantile at ``ALPHA`` on (kept cells - 1) degrees of
freedom, so it follows from R and the number of cells. A population the
law gives probability 0 fails outright.

The defects the module catches, each rejected at the same threshold:

  - crossover at 1 - p_c and mutation at 1.2 * p_m, fed in through the
    config;
  - elitism that writes the best parent over the best child instead of the
    worst: the generation is stepped with elitism off and the defect
    applied to its children. It draws populations the law rules out;
  - in the dims-2 case, gene 1 crossed with gene 0's mask, or gene 1's
    mutation flips dropped, patched into the draws.

Children taken from the wrong half of the pool (the last n, not the first)
cannot be caught: the pairs are i.i.d. and each pair's law is symmetric,
so the law of the ordered next population is unchanged.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from scipy.stats import chi2

from cauchyga import engine
from cauchyga.benchmarks import make_objective
from cauchyga.engine import GaConfig, make_population, step_generation

R = 40_000  # stacked runs per case
ALPHA = 1e-4  # false-rejection probability of one comparison

# (n, dims, bits, genome codes of the fixed population, gamma (None:
# proportionate), crossover_prob, mutation_prob_per_bit, elitism)
CASES = {
    "n2-b1-proportionate": (2, 1, 1, (0, 1), None, 0.7, 0.08, False),
    "n2-b2-boltzmann": (2, 1, 2, (1, 3), 3.0, 0.7, 0.05, False),
    "n3-b1-boltzmann": (3, 1, 1, (0, 1, 1), 2.0, 0.7, 0.08, False),
    "n3-b2-proportionate": (3, 1, 2, (0, 1, 3), None, 0.7, 0.08, False),
    "n3-b2-boltzmann": (3, 1, 2, (0, 1, 3), 3.0, 0.7, 0.08, False),
    "n3-b2-boltzmann-elitism": (3, 1, 2, (2, 1, 3), 3.0, 0.7, 0.08, True),
    "n4-b2-boltzmann": (4, 1, 2, (0, 1, 2, 3), 1.0, 0.7, 0.08, False),
    "n2-d2-b2-boltzmann": (2, 2, 2, (6, 9), 2.0, 0.7, 0.08, False),
}


def fixed_population(dims: int, bits: int, codes):
    """The population of the given genome codes, one individual per code."""
    shifts = bits * np.arange(dims - 1, -1, -1)
    genes = (np.array(codes)[:, None] >> shifts) & ((1 << bits) - 1)
    spec = make_objective("schwefel", dims)
    return make_population(genes.astype(engine._gene_dtype(bits)), spec, bits)


def exact_law(
    n: int, dims: int, bits: int, codes: tuple[int, ...], gamma: float | None,
    p_c: float, p_m: float, elitism: bool,
) -> np.ndarray:
    """The probability of each ordered next population, an (S,) * n array
    over the children's genome codes, S = 2**(dims * bits)."""
    length = dims * bits
    size = 1 << length
    pop = fixed_population(dims, bits, codes)
    fitness = pop.fitness.astype(float)
    weights = fitness if gamma is None else np.exp(gamma * (fitness - fitness.max()))
    parent = np.zeros(size)
    np.add.at(parent, list(codes), weights / weights.sum())

    # one pair's children before mutation: Q[x', y'] over the parents (x, y)
    pair = np.zeros((size, size))
    for x, y in itertools.product(range(size), repeat=2):
        both = parent[x] * parent[y]
        pair[x, y] += both * (1.0 - p_c)
        for mask in range(size):
            d = (x ^ y) & mask
            pair[x ^ d, y ^ d] += both * p_c / size
    flips = np.array([[bin(x ^ y).count("1") for y in range(size)] for x in range(size)])
    mutation = p_m**flips * (1.0 - p_m) ** (length - flips)
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
    raw = fixed_population(dims, bits, range(size)).raw
    elite = codes[int(pop.raw.argmin())]
    kept = np.zeros_like(law)
    for children in itertools.product(range(size), repeat=n):
        worst = int(raw[list(children)].argmax())
        kept[children[:worst] + (elite,) + children[worst + 1 :]] += law[children]
    return kept


def next_codes(
    n: int, dims: int, bits: int, codes: tuple[int, ...], gamma: float | None,
    p_c: float, p_m: float, elitism: bool, seed: int,
) -> np.ndarray:
    """The (R, n) genome codes of the next population of R stacked runs."""
    pop = fixed_population(dims, bits, codes)
    spec = make_objective("schwefel", dims)
    cfg = GaConfig(objective=spec, pop_size=n, generations=1, crossover_prob=p_c,
                   mutation_prob_per_bit=p_m, runs=1, elitism=elitism, bits_per_var=bits)
    rng = np.random.Generator(np.random.PCG64(seed))
    block = engine._draw_block([rng], cfg, R)
    draws = tuple(np.concatenate(parts) for parts in zip(*block))
    stack = make_population(np.tile(pop.genes, (R, 1, 1)), spec, bits)
    nxt, _ = step_generation(stack, cfg, gamma, draws)
    # genes in turn, most significant first, as fixed_population reads them
    children = np.zeros((R, n), dtype=np.int64)
    for d in range(dims):
        children = children << bits | nxt.genes[..., d]
    return children


def tally(children: np.ndarray, length: int) -> np.ndarray:
    """Counts of each ordered population among the rows of ``children``,
    whose codes have ``length`` bits."""
    n = children.shape[1]
    cells = np.ravel_multi_index(tuple(children.T), (1 << length,) * n)
    return np.bincount(cells, minlength=(1 << length) ** n)


def one_generation(*case, seed: int) -> np.ndarray:
    """Counts of each ordered next population over R stacked runs."""
    dims, bits = case[1:3]
    return tally(next_codes(*case, seed=seed), dims * bits)


def chi_square(counts: np.ndarray, law: np.ndarray) -> tuple[float, float]:
    """The statistic and its threshold at ``ALPHA``; cells expected below 5
    are pooled into one, and an outcome of probability 0 fails outright:
    the statistic is then inf."""
    expected = law.ravel() * counts.sum()
    small = (expected > 0) & (expected < 5)
    obs = np.append(counts[expected >= 5], counts[small].sum())
    exp = np.append(expected[expected >= 5], expected[small].sum())
    if exp[-1] == 0:
        obs, exp = obs[:-1], exp[:-1]
    stat = float(((obs - exp) ** 2 / exp).sum())
    if counts[expected == 0].any():  # an impossible population was drawn
        stat = math.inf
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
    n, dims, bits, codes, gamma, p_c, p_m, elitism = CASES["n3-b2-boltzmann"]
    counts = one_generation(n, dims, bits, codes, gamma, *defect(p_c, p_m), elitism, seed=99)
    law = exact_law(n, dims, bits, codes, gamma, p_c, p_m, elitism)
    stat, threshold = chi_square(counts, law)
    assert stat > threshold


def test_elitism_over_the_best_child_is_rejected():
    n, dims, bits, codes, gamma, p_c, p_m, elitism = CASES["n3-b2-boltzmann-elitism"]
    children = next_codes(n, dims, bits, codes, gamma, p_c, p_m, False, seed=98)
    raw = fixed_population(dims, bits, range(1 << dims * bits)).raw
    elite = codes[int(fixed_population(dims, bits, codes).raw.argmin())]
    children[np.arange(R), raw[children].argmin(axis=1)] = elite
    law = exact_law(n, dims, bits, codes, gamma, p_c, p_m, elitism)
    stat, threshold = chi_square(tally(children, dims * bits), law)
    assert stat > threshold


@pytest.mark.parametrize(
    "defect",
    [lambda r, c, masks, f: (r, c, masks[..., :1].repeat(2, axis=-1), f),
     lambda r, c, m, flips: (r, c, m, flips * np.array([1, 0], dtype=flips.dtype))],
    ids=["one-mask-for-both-genes", "no-flips-in-gene-1"],
)
def test_a_defect_in_one_genes_draws_is_rejected(monkeypatch, defect):
    monkeypatch.setitem(globals(), "step_generation", lambda pop, cfg, gamma, draws:
                        engine.step_generation(pop, cfg, gamma, defect(*draws)))
    case = CASES["n2-d2-b2-boltzmann"]
    stat, threshold = chi_square(one_generation(*case, seed=97), exact_law(*case))
    assert stat > threshold
