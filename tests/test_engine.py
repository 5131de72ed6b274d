"""Decode, variation operators, generation pipeline, and reproducibility."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from scipy.stats import binom, chi2

from cauchyga import engine
from cauchyga.annealing import cauchy_schedule, constant_schedule, gamma_at
from cauchyga.benchmarks import (
    FUNCTION_NAMES,
    _reduce,
    evaluate_raw_batch,
    make_objective,
    to_fitness_batch,
)
from cauchyga.engine import (
    SERIES_COLUMNS,
    GaConfig,
    aggregate,
    decode_batch,
    make_population,
    multi_run,
    mutate,
    population_nfd,
    select_parents,
    selection_probabilities,
    step_generation,
    uniform_crossover,
)
from cauchyga.nfd import distance
from cauchyga.selection import boltzmann_apply, proportionate_apply

RAST = make_objective("rastrigin", 15)


def genes_of(bits, bits_per_var: int = 5) -> np.ndarray:
    """The bit-matrix reference: each gene's bits read big-endian as its level.

    A (..., n, dims * bits_per_var) matrix of 0/1 bits gives the
    (..., n, dims) gene levels the engine stores, in its dtype.
    """
    bits = np.asarray(bits)
    if ((bits != 0) & (bits != 1)).any():
        raise ValueError("bits must be 0 or 1")
    weights = 1 << np.arange(bits_per_var - 1, -1, -1)
    levels = bits.reshape(*bits.shape[:-1], -1, bits_per_var) @ weights
    return levels.astype(engine._gene_dtype(bits_per_var))


def bits_of(genes, bits_per_var: int = 5) -> np.ndarray:
    """The inverse of :func:`genes_of`: gene levels written out as bits."""
    shifts = np.arange(bits_per_var - 1, -1, -1)
    bits = (np.asarray(genes)[..., None] >> shifts) & 1
    return bits.astype(np.uint8).reshape(*bits.shape[:-2], -1)


def decode_one(bits, spec=RAST) -> np.ndarray:
    """Decode a single genome's bits through the batch decoder."""
    return decode_batch(genes_of([bits]), spec, 5)[0]


def random_bits(rng, rows: int, length: int = 75) -> np.ndarray:
    return rng.integers(0, 2, size=(rows, length), dtype=np.uint8)


def random_genes(rng, rows: int, dims: int = 15) -> np.ndarray:
    """Uniform 5-bit genomes: the levels of uniform random bits."""
    return genes_of(random_bits(rng, rows, 5 * dims))


def crossover_draws(rng, pairs: int, dims: int = 15) -> tuple[np.ndarray, np.ndarray]:
    """A crossover double per pair, then each pair's 5-bit swap masks, as
    the GA's stream draws them (one byte of raw words per gene)."""
    decisions = rng.random(pairs)
    return decisions, engine._draw_genes(rng, pairs * dims, 5).reshape(pairs, dims)


def gene_flips(rng, genes: np.ndarray, p: float, bits_per_var: int = 5) -> np.ndarray:
    """The flip mask of a Bernoulli(p) process over the genomes' bits."""
    positions = engine._flip_positions(rng, genes.size * bits_per_var, p)
    return engine._flip_mask(positions, genes.shape, bits_per_var)


def flip_mask_by_hand(positions, size: int, bits_per_var: int) -> list[int]:
    """The flat flip mask of ``size`` genes, one bit position at a time: bit
    q is bit q % bits_per_var of gene q // bits_per_var, counted from the
    gene's most significant bit."""
    mask = [0] * size
    for q in positions:
        mask[q // bits_per_var] ^= 1 << (bits_per_var - 1 - q % bits_per_var)
    return mask


def generation_draws(rngs, cfg: GaConfig) -> tuple[np.ndarray, ...]:
    """The draws of one generation, a block of one, one generator per run."""
    return engine._draw_block(rngs, cfg, 1)[0]


def step(pop, cfg: GaConfig, gen: int, draws):
    """step_generation at the config's gamma of generation ``gen``."""
    gamma_n = None if cfg.schedule is None else gamma_at(cfg.schedule, gen)
    return step_generation(pop, cfg, gamma_n, draws)


def small_config(**kw) -> GaConfig:
    base = dict(
        objective=make_objective("rastrigin", 3),
        schedule=constant_schedule(5.0),
        pop_size=20,
        generations=5,
        runs=2,
        master_seed=7,
    )
    base.update(kw)
    return GaConfig(**base)


def test_decode_all_zero_hits_lower_bound():
    assert np.all(decode_one([0] * 75) == -5.12)


def test_decode_all_one_hits_upper_bound():
    assert np.all(decode_one([1] * 75) == 5.12)


def test_decode_big_endian_slice():
    bits = [1, 0, 0, 0, 0] + [0] * 70  # v = 16 in the first variable
    x = decode_one(bits)
    assert x[0] == pytest.approx(-5.12 + 16 / 31 * 10.24, abs=1e-15)
    assert x[0] == pytest.approx(0.16516, abs=1e-5)
    assert np.all(x[1:] == -5.12)


def test_decode_is_bijection_on_gene_slices():
    spec = make_objective("rastrigin", 1)
    values = set()
    for v in range(32):
        bits = [(v >> (4 - j)) & 1 for j in range(5)]
        values.add(float(decode_one(bits, spec)[0]))
    assert len(values) == 32


def test_decode_rejects_wrong_length():
    with pytest.raises(ValueError, match="genome length 14 != dims 15"):
        decode_batch(np.zeros((1, 14), np.uint8), RAST, 5)
    with pytest.raises(ValueError, match="genome length 14 != dims 15"):
        make_population(np.zeros((2, 14), np.uint8), RAST, 5)


def test_decode_rejects_bits_other_than_0_or_1():
    # A genome is stored as gene levels, so a bit of 2 can only reach the
    # engine as a level: [2, 0, 0, 0, 0] read big-endian is level 32, past
    # a 5-bit lattice, and the bit-matrix reference rejects the bit itself.
    spec = make_objective("rastrigin", 1)
    for row in ([0, 0, 0, 0, 2], [2, 0, 0, 0, 0]):
        with pytest.raises(ValueError, match="bits must be 0 or 1"):
            genes_of([row])
    with pytest.raises(ValueError, match=r"gene levels must be integers in \[0, 32\)"):
        decode_batch(np.array([[32]], np.uint8), spec, 5)
    # past the table size limit make_population decodes through decode_batch
    wide = make_objective("rastrigin", 17)  # 2**16 levels x 17 dims > 2**20 entries
    genes = np.zeros((2, 17), np.int32)
    genes[1, 5] = 2**16
    with pytest.raises(ValueError, match=r"gene levels must be integers in \[0, 65536\)"):
        make_population(genes, wide, 16)


@pytest.mark.parametrize("bits_per_var", [5, 10, 16])
def test_make_population_rejects_a_gene_level_outside_the_lattice(bits_per_var):
    # a 3-dim rastrigin bit row with bits[0, 4] = 2 used to evaluate as the
    # genome 00010; as levels, anything outside [0, 2**bits_per_var) is an
    # error, where the table gather would read another column's entry or
    # run past the last column
    spec = make_objective("rastrigin", 3)
    top = 2**bits_per_var
    assert make_population(np.array([[top - 1, 0, 0]]), spec, bits_per_var).raw.shape == (1,)
    for bad in (np.array([[top, 0, 0]]), np.array([[0, -1, 0]]),
                np.array([[[0, 0, 0], [0, 0, top + 7]]])):
        with pytest.raises(ValueError, match=rf"gene levels must be integers in \[0, {top}\)"):
            make_population(bad, spec, bits_per_var)
    with pytest.raises(ValueError, match="gene levels must be integers in"):
        make_population(np.array([[0.5, 0.0, 0.0]]), spec, bits_per_var)


def test_individual_fields_recompute_bit_exactly():
    # each row recomputed on its own matches the batch it was evaluated in
    rng = np.random.default_rng(61)
    pop = make_population(random_genes(rng, 150), RAST, 5)
    assert pop.genes.shape == (150, 15) and pop.raw.shape[-1] == 150
    for i in range(150):
        raw = evaluate_raw_batch(RAST, decode_batch(pop.genes[i : i + 1], RAST, 5))
        assert raw[0] == pop.raw[i]
        assert to_fitness_batch(RAST, raw)[0] == pop.fitness[i]


def test_select_parents_single_individual():
    rng = np.random.default_rng(67)
    pop = make_population(np.zeros((1, 15), dtype=np.uint8), RAST, 5)
    out = select_parents(pop.fitness, 2.0, rng.random(5))
    assert out.tolist() == [0] * 5


def test_gamma_zero_boltzmann_is_uniform():
    rng = np.random.default_rng(71)
    pop = make_population(random_genes(rng, 10), RAST, 5)
    p = selection_probabilities(pop.fitness, 0.0)
    assert np.allclose(p, 0.1, atol=1e-15)


def test_boltzmann_selection_two_individuals_hand_computed():
    # fitness gap of exactly 1 at gamma = ln 3 puts 3/4 on the fitter one
    fitness = np.array([0.0, 1.0])
    p = selection_probabilities(fitness, math.log(3.0))
    assert p[1] == pytest.approx(0.75, abs=1e-12)
    rng = np.random.default_rng(73)
    draws = select_parents(fitness, math.log(3.0), rng.random(100_000))
    frac = np.count_nonzero(fitness[draws] == 1.0) / 100_000
    assert frac == pytest.approx(0.75, abs=0.01)


def test_boltzmann_probabilities_shift_invariant():
    rng = np.random.default_rng(79)
    pop = make_population(random_genes(rng, 30), RAST, 5)
    p1 = selection_probabilities(pop.fitness, 12.0)
    p2 = selection_probabilities(pop.fitness + 0.37, 12.0)
    assert np.max(np.abs(p1 - p2)) <= 1e-12


def test_proportionate_rejects_all_zero_fitness():
    with pytest.raises(ValueError, match="degenerate population"):
        selection_probabilities(np.zeros(3), None)
    with pytest.raises(ValueError, match="empty population"):
        selection_probabilities(np.zeros(0), None)


def test_sampling_matches_operator_expectation():
    rng = np.random.default_rng(83)
    fitness = rng.choice(np.round(rng.uniform(0.1, 1.0, size=8), 3), size=150)
    phi = population_nfd(fitness)
    for gamma_n, operator in (
        (3.0, lambda p: boltzmann_apply(p, 3.0)),
        (None, proportionate_apply),
    ):
        drawn = select_parents(fitness, gamma_n, rng.random(100_000))
        empirical = population_nfd(fitness[drawn])
        assert distance(empirical, operator(phi)) <= 0.02


def test_crossover_identical_parents_fixed():
    rng = np.random.default_rng(89)
    a = random_genes(rng, 50)
    ca, cb = uniform_crossover(a, a.copy(), 1.0, *crossover_draws(rng, 50))
    assert np.array_equal(ca, a)
    assert np.array_equal(cb, a)


def test_crossover_probability_zero_is_identity():
    rng = np.random.default_rng(97)
    a, b = random_genes(rng, 50), random_genes(rng, 50)
    ca, cb = uniform_crossover(a, b, 0.0, *crossover_draws(rng, 50))
    assert np.array_equal(ca, a) and np.array_equal(cb, b)


def test_crossover_preserves_positionwise_multiset():
    # per bit, through the bit-matrix reference
    rng = np.random.default_rng(101)
    a, b = random_genes(rng, 50), random_genes(rng, 50)
    ca, cb = uniform_crossover(a, b, 1.0, *crossover_draws(rng, 50))
    assert ca.dtype == np.uint8 and cb.dtype == np.uint8
    assert np.array_equal(bits_of(ca) + bits_of(cb), bits_of(a) + bits_of(b))
    assert not np.array_equal(ca, a)  # the pairs did cross


def test_crossover_complementary_parents_stay_complementary():
    rng = np.random.default_rng(103)
    a = random_genes(rng, 50)
    ca, cb = uniform_crossover(a, a ^ 31, 1.0, *crossover_draws(rng, 50))
    assert np.array_equal(bits_of(ca), 1 - bits_of(cb))


def test_crossover_rejects_length_mismatch():
    rng = np.random.default_rng(107)
    with pytest.raises(ValueError, match="length mismatch"):
        uniform_crossover(
            np.zeros((1, 15), np.uint8), np.zeros((1, 14), np.uint8), 0.5,
            *crossover_draws(rng, 1),
        )


@pytest.mark.parametrize("crossover_prob", [0.25, 0.8])
def test_crossover_rate_and_fair_swaps(crossover_prob):
    # complementary parents make every swap visible: child a holds a 1
    # exactly where its pair swapped; the bounds are binomial standard
    # deviations (4 for the two fractions, 5 for the worst of 75 loci)
    n, length = 20_000, 75
    a = np.zeros((n, 15), np.uint8)
    draws = crossover_draws(np.random.default_rng(151), n)
    ca = bits_of(uniform_crossover(a, a ^ 31, crossover_prob, *draws)[0])
    crossing = ca.any(axis=1)  # a crossing row swaps nothing with chance 2**-75
    m = int(crossing.sum())
    sd = math.sqrt(crossover_prob * (1 - crossover_prob) / n)
    assert abs(m / n - crossover_prob) <= 4 * sd
    swaps = ca[crossing].sum(axis=0)
    assert swaps.size == length
    assert abs(swaps.sum() / (m * length) - 0.5) <= 4 * math.sqrt(0.25 / (m * length))
    assert np.abs(swaps - m / 2).max() <= 5 * math.sqrt(m / 4)


@pytest.mark.parametrize(
    "bit_generator", [np.random.Philox, np.random.MT19937, np.random.SFC64]
)
def test_crossover_keeps_positionwise_law_on_any_bit_generator(bit_generator):
    # the masks are that bit generator's own raw words
    rng = np.random.Generator(bit_generator(167))
    a, b = random_genes(rng, 50), random_genes(rng, 50)
    ca, cb = uniform_crossover(a, b, 0.7, *crossover_draws(rng, 50))
    assert np.array_equal(ca & cb, a & b)  # per bit, the minimum
    assert np.array_equal(ca | cb, a | b)  # and the maximum
    assert not np.array_equal(ca, a)  # the pairs did cross


@pytest.mark.parametrize("bits_per_var", [5, 10])
def test_crossover_swaps_exactly_the_mask_bits_of_crossing_pairs(bits_per_var):
    # read as bit matrices, a crossing pair swaps the bits its mask sets
    # and no others; a pair that does not cross keeps its parents
    rng = np.random.default_rng(171)
    top = 2**bits_per_var
    a, b = (rng.integers(0, top, (40, 3)).astype(engine._gene_dtype(bits_per_var))
            for _ in range(2))
    decisions = rng.random(40)
    masks = engine._draw_genes(rng, 120, bits_per_var).reshape(40, 3)
    ca, cb = uniform_crossover(a, b, 0.5, decisions, masks)
    swap = bits_of(masks, bits_per_var).astype(bool) & (decisions < 0.5)[:, None]
    bits_a, bits_b = bits_of(a, bits_per_var), bits_of(b, bits_per_var)
    assert np.array_equal(bits_of(ca, bits_per_var), np.where(swap, bits_b, bits_a))
    assert np.array_equal(bits_of(cb, bits_per_var), np.where(swap, bits_a, bits_b))
    assert ca.dtype == a.dtype


def test_mutate_edge_probabilities():
    rng = np.random.default_rng(109)
    g = random_genes(rng, 20)
    assert np.array_equal(mutate(g, gene_flips(rng, g, 0.0)), g)
    assert np.array_equal(bits_of(mutate(g, gene_flips(rng, g, 1.0))), 1 - bits_of(g))
    assert mutate(g[:0], gene_flips(rng, g[:0], 0.5)).shape == (0, 15)
    with pytest.raises(ValueError, match="mutation probability"):
        engine._flip_positions(rng, g.size, 1.5)


def test_mutate_flip_count_matches_binomial_mean():
    rng = np.random.default_rng(113)
    genes = np.zeros((100_000, 15), dtype=np.uint8)
    flips = bits_of(mutate(genes, gene_flips(rng, genes, 0.01))).sum(axis=1)
    assert np.mean(flips) == pytest.approx(0.75, abs=0.03)
    assert np.var(flips) == pytest.approx(75 * 0.01 * 0.99, abs=0.03)


def test_mutate_flip_positions_are_uniform():
    # chi-square goodness of fit of the flip counts per locus and per block
    # of 100 rows against the uniform law, each at the 0.1% level
    genes = np.zeros((20_000, 15), np.uint8)
    rng = np.random.default_rng(157)
    flips = bits_of(mutate(genes, gene_flips(rng, genes, 0.01)))
    for counts in (flips.sum(axis=0), flips.reshape(200, -1).sum(axis=1)):
        expected = counts.sum() / counts.size
        stat = float(((counts - expected) ** 2).sum() / expected)
        assert chi2.sf(stat, counts.size - 1) > 1e-3


@pytest.mark.parametrize("mutation_prob", [0.05, 1.0])
def test_mutate_leaves_its_input_unchanged(mutation_prob):
    genes = random_genes(np.random.default_rng(161), 30)
    kept = genes.copy()
    rng = np.random.default_rng(163)
    out = mutate(genes, gene_flips(rng, genes, mutation_prob))
    assert np.array_equal(genes, kept)
    assert not np.array_equal(out, kept)


@pytest.mark.parametrize("bits_per_var", [1, 5, 8, 10, 16])
def test_mutation_flips_the_bit_matrix_positions(bits_per_var):
    # the flips of flat bit positions, mapped to genes, are exactly the
    # flips of those positions of the bit matrix, also where two flips hit
    # one gene
    rng = np.random.default_rng(173 + bits_per_var)
    genes = rng.integers(0, 2**bits_per_var, (6, 4)).astype(engine._gene_dtype(bits_per_var))
    size = genes.size * bits_per_var
    positions = np.sort(rng.choice(size, size // 3, replace=False))
    hits = np.bincount(positions // bits_per_var)
    assert hits.max() == 1 if bits_per_var == 1 else hits.max() >= 2
    bits = bits_of(genes, bits_per_var)
    bits.reshape(-1)[positions] ^= 1
    out = mutate(genes, engine._flip_mask(positions, genes.shape, bits_per_var))
    assert out.dtype == genes.dtype
    assert np.array_equal(bits_of(out, bits_per_var), bits)


@pytest.mark.parametrize("bits_per_var", [1, 5, 8, 10, 16])
def test_flip_mask_sets_the_bits_of_the_positions(bits_per_var):
    # the mask of a stack of runs equals the bit-by-bit reference, also
    # where two positions hit one gene; no position leaves a zero mask
    rng = np.random.default_rng(179 + bits_per_var)
    shape = (3, 6, 4)
    size = math.prod(shape)
    positions = np.sort(rng.choice(size * bits_per_var, size * bits_per_var // 3, replace=False))
    hits = np.bincount(positions // bits_per_var)
    assert hits.max() == 1 if bits_per_var == 1 else hits.max() >= 2
    mask = engine._flip_mask(positions, shape, bits_per_var)
    assert mask.shape == shape and mask.dtype == engine._gene_dtype(bits_per_var)
    assert mask.ravel().tolist() == flip_mask_by_hand(positions.tolist(), size, bits_per_var)
    assert not engine._flip_mask(positions[:0], shape, bits_per_var).any()


def test_mutate_rejects_flips_of_another_shape():
    # a mask of one gene fewer, or one that would broadcast, is not the genes'
    genes = random_genes(np.random.default_rng(181), 4)
    for shape in ((4, 14), (1, 4, 15), (15,)):
        with pytest.raises(ValueError, match="flips of shape"):
            mutate(genes, np.zeros(shape, np.uint8))


def test_step_no_variation_point_mass_is_stationary():
    cfg = small_config(crossover_prob=0.0, mutation_prob_per_bit=0.0)
    genes = np.tile(
        genes_of(np.random.default_rng(127).integers(0, 2, 15, dtype=np.uint8)), (20, 1)
    )
    pop = make_population(genes[None], cfg.objective, 5)
    rng = np.random.default_rng(131)
    nxt, parents = step(pop, cfg, 1, generation_draws([rng], cfg))
    assert engine._strengths(pop.fitness, parents) == [0.0]
    assert np.array_equal(nxt.genes, pop.genes)


def test_step_huge_gamma_takes_over():
    cfg = small_config(
        crossover_prob=0.0,
        mutation_prob_per_bit=0.0,
        schedule=constant_schedule(1e6),
    )
    rng = np.random.default_rng(137)
    pop = make_population(random_genes(rng, 20, 3)[None], cfg.objective, 5)
    nxt, _ = step(pop, cfg, 1, generation_draws([rng], cfg))
    assert np.all(nxt.fitness == pop.fitness.max())


def test_step_preserves_population_size():
    # on a stack of 3 runs the population size is the last axis, not the runs
    for pop_size in (20, 21):  # even and odd pairing paths
        cfg = small_config(pop_size=pop_size)
        rngs = [np.random.default_rng(139 + r) for r in range(3)]
        genes = np.stack([random_genes(rng, pop_size, 3) for rng in rngs])
        pop = make_population(genes, cfg.objective, 5)
        nxt, parents = step(pop, cfg, 1, generation_draws(rngs, cfg))
        assert nxt.raw.shape == nxt.fitness.shape == parents.shape == (3, pop_size)
        assert nxt.genes.shape == pop.genes.shape and nxt.genes.dtype == np.uint8


def test_run_single_generation_series():
    cfg = small_config(generations=1)
    series = engine._run_stack(cfg, (0,))[0]
    assert series.shape == (1, 5) and series.dtype == np.float64


def test_run_is_deterministic():
    cfg = small_config()
    first, again, other = (engine._run_stack(cfg, (i,))[0] for i in (0, 0, 1))
    assert np.array_equal(first, again)
    assert not np.array_equal(first, other)


def test_runs_of_two_master_seeds_do_not_share_a_stream():
    # a seed mixed as master_seed ^ run_index * 0x9E3779B97F4A7C15 made
    # run 1 of master 42 replay run 0 of master 42 ^ 0x9E3779B97F4A7C15
    run1 = engine._run_stack(small_config(master_seed=42), (1,))[0]
    other = engine._run_stack(small_config(master_seed=42 ^ 0x9E3779B97F4A7C15), (0,))[0]
    assert not np.array_equal(run1, other)


def hand_records(cfg: GaConfig, run_index: int, bits_per_var: int = 5) -> list[list[float]]:
    """One run stepped a generation at a time, each record reduced on its own.

    The draws come a block at a time, as the stream takes them; the
    strength of each generation is its own ``_strengths`` call.
    """
    rng = np.random.Generator(np.random.PCG64([cfg.master_seed, run_index]))
    n, dims = cfg.pop_size, cfg.objective.dims
    genes = engine._draw_genes(rng, n * dims, bits_per_var).reshape(1, n, dims)
    pop = make_population(genes, cfg.objective, bits_per_var)
    best, records = pop.raw.min(axis=1), []
    for start in range(0, cfg.generations, engine.BLOCK):
        count = min(engine.BLOCK, cfg.generations - start)
        for gen, draws in enumerate(engine._draw_block([rng], cfg, count), start + 1):
            nxt, parents = step(pop, cfg, gen, draws)
            gamma = 0.0 if cfg.schedule is None else gamma_at(cfg.schedule, gen)
            best = np.minimum(best, nxt.raw.min(axis=1))
            records.append([gamma, float(best[0]), float(nxt.raw.min()),
                            float(nxt.raw.sum(axis=1)[0] / n),
                            engine._strengths(pop.fitness, parents)[0]])
            pop = nxt
    return records


def test_run_rows_are_the_generation_records():
    # a block's records, its strengths among them, equal the records of
    # its generations reduced one at a time (compared with ==), alone or
    # in a stack, for runs of one partial block, one full block, and
    # blocks that end mid-block
    assert engine.RECORD_COLUMNS == (
        "gamma", "best_so_far_raw", "gen_best_raw", "mean_raw", "strength"
    )
    for generations in (4, 16, 17, 40):
        cfg = small_config(generations=generations, schedule=cauchy_schedule(1.0, 2.0))
        records = hand_records(cfg, 2)
        assert engine._run_stack(cfg, (2,))[0].tolist() == records
        assert engine._run_stack(cfg, (0, 2, 5))[1].tolist() == records


def test_best_so_far_nonincreasing():
    cfg = small_config(generations=40)
    _, best, gen_best, _, _ = engine._run_stack(cfg, (3,))[0].T
    assert all(b <= a for a, b in zip(best, best[1:]))
    assert all(b <= g for b, g in zip(best, gen_best))


def column(table: np.ndarray, name: str) -> np.ndarray:
    """The series table's column for a series CSV column name."""
    return table[:, SERIES_COLUMNS.index(name) - 1]


def test_multi_run_single_run_zero_std():
    cfg = small_config(runs=1)
    table = aggregate(multi_run(cfg))
    assert np.all(column(table, "best_raw_std") == 0.0)
    assert np.all(column(table, "mean_raw_std") == 0.0)


def test_multi_run_reproducible_and_order_independent():
    cfg = small_config(runs=3)
    # a run depends only on its index, not on which runs ran before it
    runs = {i: engine._run_stack(cfg, (i,))[0] for i in reversed(range(cfg.runs))}
    stack = multi_run(cfg)
    assert stack.shape == (cfg.runs, cfg.generations, len(engine.RECORD_COLUMNS))
    assert np.array_equal(stack, np.stack([runs[i] for i in range(cfg.runs)]))
    table = aggregate(stack)
    assert table.shape == (cfg.generations, len(SERIES_COLUMNS) - 1)
    assert table.dtype == np.float64


@pytest.mark.parametrize(
    "runs, generations", [(1, 1), (3, 1), (17, 1), (17, 4), (40, 7)]
)
def test_aggregate_reduces_each_quantity_as_a_contiguous_column(runs, generations):
    # the reference: one contiguous (runs, generations) array per quantity;
    # at one generation and 8 or more runs numpy sums it pairwise
    stack = np.random.default_rng(runs * 10 + generations).standard_normal(
        (runs, generations, 5)
    ) * [1.0, 1e3, 1.0, 1e-3, 0.5]
    table = aggregate(stack)
    assert table.shape == (generations, len(SERIES_COLUMNS) - 1)
    assert column(table, "gamma_n").tolist() == stack[0, :, 0].tolist()
    for index, prefix in ((1, "best_raw"), (3, "mean_raw"), (4, "strength")):
        reference = np.array(stack[:, :, index].tolist())
        assert np.array_equal(column(table, f"{prefix}_mean"), reference.mean(axis=0))
        if prefix != "strength":
            assert np.array_equal(column(table, f"{prefix}_std"), reference.std(axis=0))


def test_elitism_keeps_best_from_worsening():
    cfg = small_config(elitism=True, generations=30, mutation_prob_per_bit=0.05)
    gen_best = engine._run_stack(cfg, (0,))[0][:, 2]
    assert all(b <= a + 1e-12 for a, b in zip(gen_best, gen_best[1:]))


def test_elitism_carries_best_parent_row():
    cfg = small_config(elitism=True, mutation_prob_per_bit=0.1)
    rng = np.random.default_rng(141)
    pop = make_population(random_genes(rng, 20, 3)[None], cfg.objective, 5)
    best = int(np.argmin(pop.raw[0]))
    nxt, _ = step(pop, cfg, 1, generation_draws([rng], cfg))
    row = np.flatnonzero((nxt.genes[0] == pop.genes[0, best]).all(axis=1))
    assert row.size >= 1
    assert nxt.raw[0, row[0]] == pop.raw[0, best]
    assert nxt.fitness[0, row[0]] == pop.fitness[0, best]
    assert nxt.raw[0].min() <= pop.raw[0, best]


def test_config_validation():
    with pytest.raises(ValueError, match="mutation_prob_per_bit"):
        small_config(mutation_prob_per_bit=0.2)
    with pytest.raises(ValueError, match="crossover_prob"):
        small_config(crossover_prob=1.5)
    with pytest.raises(ValueError, match="pop_size"):
        small_config(pop_size=0)


def test_config_rejects_a_schedule_that_is_not_one():
    # the positional form from when the scheme name preceded the schedule
    with pytest.raises(ValueError, match="schedule must be None or an AnnealingSchedule"):
        GaConfig(make_objective("rastrigin", 3), "cauchy_boltzmann")
    assert GaConfig(make_objective("rastrigin", 3)).schedule is None


def test_config_is_frozen_and_replace_rechecks_it():
    cfg = small_config()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.schedule = "cauchy_boltzmann"
    with pytest.raises(ValueError, match="schedule must be None or an AnnealingSchedule"):
        dataclasses.replace(cfg, schedule="cauchy_boltzmann")
    assert dataclasses.replace(cfg, schedule=None).schedule is None


def test_config_rejects_single_individual():
    # one individual leaves selection nothing to choose between
    with pytest.raises(ValueError, match="pop_size must be >= 2"):
        small_config(pop_size=1)
    assert small_config(pop_size=2).pop_size == 2


def test_config_rejects_a_negative_master_seed():
    # SeedSequence takes any nonnegative integer and would reject -1 only
    # once a run starts
    with pytest.raises(ValueError, match="master_seed must be >= 0"):
        small_config(master_seed=-1)
    assert small_config(master_seed=2**64).master_seed == 2**64


@pytest.mark.parametrize("seed", [1.5, True])
def test_config_rejects_a_master_seed_that_is_not_an_integer(seed):
    # 1.5 would fail only inside SeedSequence; True would run as seed 1
    with pytest.raises(ValueError, match=f"master_seed must be an integer, got {seed!r}"):
        small_config(master_seed=seed)


@pytest.mark.parametrize(
    "field, value",
    [("pop_size", 10.5), ("generations", True), ("runs", True), ("runs", 2.0),
     ("bits_per_var", "5")],
)
def test_config_rejects_an_integer_field_that_is_not_an_integer(field, value):
    # True would run one run; 10.5 would fail only deep inside numpy
    with pytest.raises(ValueError, match=f"{field} must be an integer, got {value!r}"):
        small_config(**{field: value})


@pytest.mark.parametrize(
    "field, value",
    [("crossover_prob", True), ("crossover_prob", "0.8"), ("mutation_prob_per_bit", np.False_),
     ("mutation_prob_per_bit", None)],
    ids=["crossover-bool", "crossover-str", "mutation-numpy-bool", "mutation-none"],
)
def test_config_rejects_a_probability_that_is_not_a_real_number(field, value):
    # True would cross every pair as probability 1.0
    with pytest.raises(ValueError, match=f"{field} must be a real number, got {value!r}"):
        small_config(**{field: value})


def test_config_takes_numpy_probabilities_as_floats():
    cfg = small_config(crossover_prob=np.float64(0.75), mutation_prob_per_bit=np.float32(0.0))
    assert (cfg.crossover_prob, cfg.mutation_prob_per_bit) == (0.75, 0.0)
    assert type(cfg.crossover_prob) is float and type(cfg.mutation_prob_per_bit) is float


def test_config_takes_numpy_integers_as_ints():
    fields = dict(pop_size=20, generations=5, runs=2, bits_per_var=5)
    cfg = small_config(**{name: np.int64(v) for name, v in fields.items()})
    assert {name: getattr(cfg, name) for name in fields} == fields
    assert all(type(getattr(cfg, name)) is int for name in fields)


@pytest.mark.parametrize("value", ["false", 0, None])
def test_config_rejects_an_elitism_that_is_not_a_bool(value):
    # the string "false" is truthy, so it would run with elitism on
    with pytest.raises(ValueError, match=f"elitism must be a bool, got {value!r}"):
        small_config(elitism=value)


def test_config_takes_a_numpy_bool_elitism():
    np.testing.assert_array_equal(
        engine.multi_run(small_config(elitism=np.True_)),
        engine.multi_run(small_config(elitism=True)),
    )


def test_config_takes_a_numpy_integer_seed_as_that_int():
    # the config, the metadata and the seed sequence all see the int 7
    cfg = small_config(master_seed=np.uint64(7), runs=3)
    assert type(cfg.master_seed) is int and cfg.master_seed == 7
    np.testing.assert_array_equal(engine.multi_run(cfg), engine.multi_run(small_config(runs=3)))


def test_cauchy_scheme_uses_schedule_gamma():
    cfg = small_config(schedule=cauchy_schedule(1.0, 2.0), generations=3)
    gammas = engine._run_stack(cfg, (0,))[0][:, 0].tolist()
    assert gammas == pytest.approx([1.0, 1.25, 1.0 + 0.25 + 1 / 9], abs=1e-12)


def test_proportionate_records_zero_gamma():
    cfg = small_config(schedule=None, generations=2)
    assert engine._run_stack(cfg, (0,))[0][:, 0].tolist() == [0.0, 0.0]


def reference_decode(bits, spec, bits_per_var) -> np.ndarray:
    """The lattice mapping written out: big-endian gene value, then affine."""
    n = bits.shape[0]
    weights = 2 ** np.arange(bits_per_var - 1, -1, -1, dtype=np.float64)
    v = bits.reshape(n, spec.dims, bits_per_var).astype(np.float64) @ weights
    return spec.lower + v / float(2**bits_per_var - 1) * (spec.upper - spec.lower)


@pytest.mark.parametrize("dims", [1, 2, 15])
@pytest.mark.parametrize("bits_per_var", [1, 2, 5, 8, 16])
@pytest.mark.parametrize("name", FUNCTION_NAMES)
def test_lattice_evaluation_equals_decoded_evaluation(name, bits_per_var, dims):
    spec = make_objective(name, dims)
    rng = np.random.default_rng(7 * bits_per_var + dims)
    bits = random_bits(rng, 300, dims * bits_per_var)
    bits[0], bits[1] = 0, 1  # both ends of the box
    if bits_per_var <= 8:  # plus one row per level, every gene at that level
        levels = np.arange(2**bits_per_var)[:, None] >> np.arange(bits_per_var)[::-1]
        bits = np.vstack([bits, np.tile(levels & 1, dims).astype(np.uint8)])
    genes = genes_of(bits, bits_per_var)
    points = decode_batch(genes, spec, bits_per_var)
    assert points.tobytes() == reference_decode(bits, spec, bits_per_var).tobytes()
    pop = make_population(genes, spec, bits_per_var)
    raw = evaluate_raw_batch(spec, points)
    assert pop.raw.tobytes() == raw.tobytes()
    assert pop.fitness.tobytes() == to_fitness_batch(spec, raw).tobytes()
    if bits_per_var == 16:
        engine._lattice.cache_clear()  # drop the large tables


@pytest.mark.parametrize("name", FUNCTION_NAMES)
def test_population_past_the_table_limit_evaluates_decoded_points(name):
    spec = make_objective(name, 17)  # 2**16 levels x 17 dims > 2**20 entries
    assert engine._lattice(spec, 16)[1] is None
    genes = genes_of(random_bits(np.random.default_rng(151), 40, 17 * 16), 16)
    assert genes.dtype == np.uint16
    pop = make_population(genes, spec, 16)
    raw = evaluate_raw_batch(spec, decode_batch(genes, spec, 16))
    assert pop.raw.tobytes() == raw.tobytes()


def test_lattice_tables_are_read_only():
    points, tables = engine._lattice(RAST, 5)
    for table in (points, *tables):
        with pytest.raises(ValueError):
            table[0] = 0.0
    decoded = decode_batch(np.zeros((1, 15), np.uint8), RAST, 5)
    decoded[0, 0] = 1.0  # a decoded batch is the caller's own array
    assert points[0] == -5.12


@pytest.mark.parametrize("bits_per_var", [0, 17])
def test_config_and_decode_reject_bits_per_var_outside_1_to_16(bits_per_var):
    with pytest.raises(ValueError, match=r"bits_per_var must be in \[1, 16\]"):
        small_config(bits_per_var=bits_per_var)
    with pytest.raises(ValueError, match=r"bits_per_var must be in \[1, 16\]"):
        decode_batch(np.zeros((1, 3), np.uint8), make_objective("rastrigin", 3), bits_per_var)
    assert small_config(bits_per_var=16).genome_length == 48


@pytest.mark.parametrize("count", [None, 7, 1000])
@pytest.mark.parametrize(
    "selection,gamma", [("proportionate", 0.0), ("boltzmann_const", 300.0)]
)
def test_roulette_matches_generator_choice(selection, gamma, count):
    fitness = np.random.default_rng(131).random(150)
    zero_rows = np.arange(0, 150, 7)
    if selection == "proportionate":
        fitness[zero_rows] = 0.0
    gamma_n = None if selection == "proportionate" else gamma
    p = selection_probabilities(fitness, gamma_n)
    size = 150 if count is None else count  # None: one parent per individual
    ours, reference = np.random.default_rng(137), np.random.default_rng(137)
    got = select_parents(fitness, gamma_n, ours.random(size))
    want = reference.choice(150, size=size, replace=True, p=p)
    assert got.tolist() == want.tolist()
    # choice consumed exactly the doubles the roulette looked up
    assert ours.random() == reference.random()
    if selection == "proportionate":
        assert not np.isin(got, zero_rows).any()


def test_roulette_double_on_a_cumulative_sum_picks_the_next_row():
    # as in Generator.choice, so a zero-probability row is never drawn,
    # not even by the double 0.0
    fitness = np.array([0.0, 0.5, 0.5])
    got = select_parents(fitness, None, np.array([0.0, 0.5, 0.75]))
    assert got.tolist() == [1, 2, 2]


def test_roulette_rejects_nan_or_negative_probabilities():
    draws = np.random.default_rng(139).random(2)
    message = "selection probabilities must be nonnegative"
    with pytest.raises(ValueError, match=message):
        select_parents(np.array([0.5, math.nan]), None, draws)
    with pytest.raises(ValueError, match=message):
        select_parents(np.array([1.0, -0.5]), None, draws)
    with pytest.raises(ValueError, match=message):
        select_parents(np.array([0.5, math.nan]), 2.0, draws)
    for gamma in (math.nan, math.inf):
        with pytest.raises(ValueError, match="inverse temperature must be finite"):
            select_parents(np.array([0.5, 0.25]), gamma, draws)


@pytest.mark.parametrize("gamma_n", ["2", True, np.True_], ids=repr)
def test_roulette_rejects_a_gamma_that_is_not_a_real_number(gamma_n):
    draws = np.random.default_rng(139).random(2)
    with pytest.raises(ValueError, match="^inverse temperature must be a real number, got "):
        select_parents(np.array([0.5, 0.25]), gamma_n, draws)


@pytest.mark.parametrize("gamma_n", [None, 2.0])
def test_selection_probabilities_reject_nan_fitness(gamma_n):
    message = "selection probabilities must be nonnegative with a finite positive sum"
    with pytest.raises(ValueError, match=message):
        selection_probabilities(np.array([0.5, math.nan]), gamma_n)
    with pytest.raises(ValueError, match=message):  # one bad row of a stack
        selection_probabilities(np.array([[0.5, 0.25], [0.5, math.nan]]), gamma_n)


@pytest.mark.parametrize("bad", [1.0, -0.5, math.nan])
def test_roulette_rejects_a_double_outside_0_1(bad):
    # 1.0 looked up past the last row, -0.5 silently picked row 0
    with pytest.raises(ValueError, match=r"roulette draws must be in \[0, 1\)"):
        select_parents(np.array([0.5, 0.5]), None, np.array([bad, 0.3]))
    with pytest.raises(ValueError, match=r"roulette draws must be in \[0, 1\)"):
        select_parents(np.full((2, 2), 0.5), 1.0, np.array([[0.3, 0.3], [0.3, bad]]))
    assert select_parents(np.array([0.5, 0.5]), None, np.array([0.0, 0.9])).tolist() == [0, 1]


def test_crossover_rejects_masks_narrower_than_the_genome():
    # 8 bytes at L = 75 swapped positions 0-63 and silently never 64-74;
    # masks now come one per gene and must match the parents' shape
    a, b = np.zeros((1, 15), np.uint8), np.full((1, 15), 31, np.uint8)
    with pytest.raises(ValueError, match=r"masks of shape \(1, 8\) do not fit pairs"):
        uniform_crossover(a, b, 1.0, np.array([0.0]), np.full((1, 8), 255, np.uint8))
    ca, _ = uniform_crossover(a, b, 1.0, np.array([0.0]), np.full((1, 15), 255, np.uint8))
    assert bits_of(ca).sum() == 75


def test_crossover_rejects_decisions_that_do_not_fit_the_pairs():
    # one decision used to broadcast to every pair: [0.0] crossed all 50
    rng = np.random.default_rng(179)
    a, b = random_genes(rng, 50), random_genes(rng, 50)
    _, masks = crossover_draws(rng, 50)
    for decisions in (np.array([0.0]), np.zeros(49), np.zeros((50, 1)), np.zeros((2, 50))):
        with pytest.raises(ValueError, match="do not fit pairs of shape"):
            uniform_crossover(a, b, 0.5, decisions, masks)
    with pytest.raises(ValueError, match="do not fit pairs of shape"):
        uniform_crossover(a, b, 0.5, np.zeros(50), masks[None])
    ca, _ = uniform_crossover(a, b, 0.5, np.ones(50), masks)
    assert np.array_equal(ca, a)


def test_roulette_rejects_draws_for_another_number_of_populations():
    # two populations zipped with one row of draws gave shape (1, 2)
    with pytest.raises(ValueError, match=r"roulette draws of shape \(1, 2\) for populations"):
        select_parents(np.full((2, 3), 0.5), 1.0, np.array([[0.3, 0.9]]))
    with pytest.raises(ValueError, match=r"roulette draws of shape \(2, 2\) for populations"):
        select_parents(np.full(3, 0.5), 1.0, np.full((2, 2), 0.3))
    with pytest.raises(ValueError, match=r"roulette draws of shape \(2,\) for populations"):
        select_parents(np.full((2, 3), 0.5), None, np.array([0.3, 0.9]))
    assert select_parents(np.full((2, 3), 0.5), 1.0, np.full((2, 4), 0.5)).shape == (2, 4)


def python_levels(bits, dims, bits_per_var) -> list[list[int]]:
    """The level of every gene, read bit by bit, most significant first."""
    rows = []
    for genome in bits.tolist():
        row = []
        for column in range(dims):
            level = 0
            for bit in genome[column * bits_per_var : (column + 1) * bits_per_var]:
                level = 2 * level + bit
            row.append(level)
        rows.append(row)
    return rows


def table_gather(spec, bits_per_var, levels) -> np.ndarray:
    """Raw values gathered from the term tables at column * levels + level."""
    _, tables = engine._lattice(spec, bits_per_var)
    index = np.array([[c * 2**bits_per_var + v for c, v in enumerate(row)] for row in levels])
    return _reduce(spec, tuple(t[index] for t in tables))


@pytest.mark.parametrize("dims", [1, 3, 15])
@pytest.mark.parametrize("bits_per_var", [1, 2, 5, 8, 16])
def test_table_index_equals_a_bitwise_big_endian_read(bits_per_var, dims):
    # the genes are a bitwise big-endian read of the genome, and the table
    # entries make_population reduces are the ones at those levels
    spec = make_objective("rastrigin", dims)
    bits = random_bits(np.random.default_rng(bits_per_var * 31 + dims), 60,
                       dims * bits_per_var)
    bits[0], bits[1] = 0, 1
    levels = python_levels(bits, dims, bits_per_var)
    genes = genes_of(bits, bits_per_var)
    assert genes.tolist() == levels
    assert levels[1] == [2**bits_per_var - 1] * dims
    assert bits_of(genes, bits_per_var).tolist() == bits.tolist()
    raw = make_population(genes, spec, bits_per_var).raw
    assert raw.tobytes() == table_gather(spec, bits_per_var, levels).tobytes()


def test_table_index_is_exact_at_the_table_size_limit():
    spec = make_objective("rastrigin", 16)  # 2**16 levels x 16 dims = 2**20 entries
    try:
        assert engine._lattice(spec, 16)[1][0].size == 2**20
        bits = random_bits(np.random.default_rng(157), 40, 16 * 16)
        bits[0], bits[1] = 0, 1
        bits[2] = np.tile([0] + [1] * 15, 16)  # level 2**15 - 1 in every column
        levels = python_levels(bits, 16, 16)
        pop = make_population(genes_of(bits, 16), spec, 16)
        assert pop.raw.tobytes() == table_gather(spec, 16, levels).tobytes()
        raw = evaluate_raw_batch(spec, reference_decode(bits, spec, 16))
        assert pop.raw.tobytes() == raw.tobytes()
    finally:
        engine._lattice.cache_clear()  # drop the 8 MB table


def test_points_path_past_the_table_size_limit_matches_a_bitwise_read():
    spec = make_objective("rastrigin", 17)  # 2**16 levels x 17 dims > 2**20 entries
    assert engine._lattice(spec, 16)[1] is None
    bits = random_bits(np.random.default_rng(163), 20, 17 * 16)
    bits[0], bits[1] = 0, 1
    levels = np.array(python_levels(bits, 17, 16))
    points = spec.lower + levels / float(2**16 - 1) * (spec.upper - spec.lower)
    pop = make_population(genes_of(bits, 16), spec, 16)
    assert pop.raw.tobytes() == evaluate_raw_batch(spec, points).tobytes()


def strength(fitness: np.ndarray, chosen: np.ndarray) -> float:
    """The realized strength of one population, as a stack of one."""
    return engine._strengths(fitness[None], np.asarray(chosen)[None])[0]


def test_realized_strength_counts_negative_zero_as_zero():
    signed = np.array([-0.0, 0.0, 0.5])
    both = strength(signed, [0, 1])
    assert both == strength(signed, [1, 1])
    assert both == strength(np.array([0.0, 0.0, 0.5]), [0, 1])
    assert both == math.fsum([1.0 - 2 / 3, 1 / 3])
    assert strength(np.array([-0.0]), [0]) == 0.0


@pytest.mark.parametrize("n, k", [(1, 1), (150, 150), (1024, 1024), (1024, 1025), (1500, 40)])
def test_realized_strength_sums_exactly_as_integers_or_by_fsum(n, k):
    # up to 1024 individuals and picks the gaps are summed as 64-bit
    # integers of one unit; past that through fsum; both equal the dict
    # NFDs' distance, on rows with many distinct values and on rows with few
    rng = np.random.default_rng(n + k)
    rows = [rng.random(n), rng.integers(0, 7, n) / 7.0]
    picks = [rng.integers(0, n, k), rng.integers(0, n, k)]
    got = engine._strengths(np.array(rows), np.array(picks))
    for fitness, chosen, value in zip(rows, picks, got):
        assert value == distance(population_nfd(fitness), population_nfd(fitness[chosen]))


def test_realized_strength_without_selection_has_its_floor():
    # Uniform draws of 150 from 150 distinct values leave each value drawn
    # Binomial(150, 1/150) times; E|count - 1| = 2 * P(count = 0), so the
    # mean distance to the drawn pool is 2 * (1 - 1/150)**150, not 0.
    fitness = np.random.default_rng(1).random(150)
    rng = np.random.default_rng(2)
    strengths = [
        strength(fitness, select_parents(fitness, 0.0, rng.random(150)))
        for _ in range(4000)
    ]
    assert abs(np.mean(strengths) - 2.0 * (1.0 - 1.0 / 150) ** 150) <= 0.004


# (function, schedule, pop_size, elitism, crossover_prob, mutation_prob)
LOCKSTEP_CASES = [
    ("rastrigin", None, 20, False, 0.8, 0.01),
    ("griewangk", constant_schedule(5.0), 21, True, 1.0, 0.01),
    ("ackley", cauchy_schedule(1.0, 2.0), 21, False, 0.0, 0.05),
    ("schwefel", constant_schedule(5.0), 20, True, 0.8, 0.0),
    ("rastrigin", cauchy_schedule(1.0, 1.5), 21, True, 0.0, 0.0),
    ("ackley", None, 20, False, 1.0, 0.0),
]


@pytest.mark.parametrize(
    "name, schedule, pop_size, elitism, crossover_prob, mutation_prob", LOCKSTEP_CASES
)
def test_lockstep_run_is_byte_identical_alone_or_stacked(
    name, schedule, pop_size, elitism, crossover_prob, mutation_prob
):
    # 6 generations are one partial block; 17 end one generation into the
    # second block, at 10 bits per variable (two mask bytes per gene)
    for generations, bits_per_var in ((6, 5), (17, 10)):
        cfg = GaConfig(
            objective=make_objective(name, 3), schedule=schedule, pop_size=pop_size,
            generations=generations, crossover_prob=crossover_prob,
            mutation_prob_per_bit=mutation_prob, runs=17, master_seed=23,
            elitism=elitism, bits_per_var=bits_per_var,
        )
        alone = [engine._run_stack(cfg, (i,))[0] for i in range(cfg.runs)]
        assert alone[0].shape == (cfg.generations, 5)
        for indices in (range(3), range(17), (16, 4, 9)):
            stack = engine._run_stack(cfg, indices)
            assert stack.shape == (len(indices), cfg.generations, 5)
            for i, records in zip(indices, stack):
                assert records.tobytes() == alone[i].tobytes(), (generations, indices, i)


def test_parents_paired_in_draw_order_have_the_product_law():
    # Without crossover or mutation the children are the pool in draw
    # order, so child rows i and 3 + i are pair i of the 3 pairs. On a
    # fixed population of distinct genomes their joint counts must follow
    # p x p, with p the selection probabilities (chi-square at the 0.1%
    # level, 36 cells).
    cfg = small_config(
        objective=make_objective("rastrigin", 1), schedule=constant_schedule(3.0),
        pop_size=6, crossover_prob=0.0, mutation_prob_per_bit=0.0,
    )
    genomes = np.array([[0], [5], [11], [16], [22], [31]], np.uint8)
    runs, steps = 40, 100
    pop = make_population(np.repeat(genomes[None], runs, axis=0), cfg.objective, 5)
    p = selection_probabilities(pop.fitness[0], 3.0)
    rngs = [np.random.default_rng(1000 + r) for r in range(runs)]
    counts = np.zeros((6, 6))
    for gen in range(1, steps + 1):
        nxt, _ = step(pop, cfg, gen, generation_draws(rngs, cfg))
        ids = (nxt.genes[:, :, None, :] == genomes).all(axis=-1).argmax(axis=-1)
        np.add.at(counts, (ids[:, :3].ravel(), ids[:, 3:].ravel()), 1)
    expected = np.outer(p, p) * counts.sum()
    assert expected.min() >= 5
    stat = float(((counts - expected) ** 2 / expected).sum())
    assert chi2.sf(stat, counts.size - 1) > 1e-3


def chi_square_binomial_sf(counts: np.ndarray, trials: int, p: float) -> float:
    """Chi-square goodness of fit of flip counts against Binomial(trials, p).

    Values whose expected frequency is below 5 are pooled into the tails.
    """
    k = np.arange(trials + 1)
    expected = binom.pmf(k, trials, p) * counts.size
    observed = np.bincount(counts, minlength=trials + 1).astype(float)
    keep = np.flatnonzero(expected >= 5)
    lo, hi = keep[0], keep[-1]
    exp = np.concatenate(([expected[: lo + 1].sum()], expected[lo + 1 : hi],
                          [expected[hi:].sum()]))
    obs = np.concatenate(([observed[: lo + 1].sum()], observed[lo + 1 : hi],
                          [observed[hi:].sum()]))
    return float(chi2.sf(((obs - exp) ** 2 / exp).sum(), exp.size - 1))


class QuarterGaps:
    """A generator whose geometric draws come a quarter of the size asked.

    The gaps stay i.i.d. Geometric(p), but a chunk now falls short of the
    flip count about every time, so the top-up path runs on most draws.
    """

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.calls = 0

    def geometric(self, p, size):
        self.calls += 1
        return self.rng.geometric(p, max(1, size // 4))


@pytest.mark.parametrize("size, p", [(300, 0.05), (40, 0.3), (2250, 0.01)])
@pytest.mark.parametrize("source", ["generator", "quartered"])
def test_flip_count_is_binomial_and_positions_uniform(size, p, source):
    rng = np.random.default_rng(size) if source == "generator" else QuarterGaps(size)
    draws = [engine._flip_positions(rng, size, p) for _ in range(4000)]
    if source == "quartered":
        assert rng.calls > 1.5 * len(draws)  # the top-up path did run
    counts = np.array([d.size for d in draws])
    for d in draws:
        assert d.dtype.kind == "i" and np.all(np.diff(d) > 0)
        assert d.size == 0 or (d[0] >= 0 and d[-1] < size)
    # mean and variance of Binomial(size, p) within five standard errors
    mean, var = size * p, size * p * (1 - p)
    assert abs(counts.mean() - mean) <= 5 * math.sqrt(var / counts.size)
    assert abs(counts.var() - var) <= 5 * var * math.sqrt(2 / counts.size)
    assert chi_square_binomial_sf(counts, size, p) > 1e-3
    # every position equally likely to flip
    hits = np.bincount(np.concatenate(draws), minlength=size)
    stat = float(((hits - hits.mean()) ** 2).sum() / hits.mean())
    assert chi2.sf(stat, size - 1) > 1e-3


class OnesFirst:
    """A generator whose first geometric chunk is all ones, then real gaps."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.sizes = []

    def geometric(self, p, size):
        self.sizes.append(size)
        if len(self.sizes) == 1:
            return np.ones(size, dtype=np.int64)
        return self.rng.geometric(p, size)


def test_flip_positions_tops_up_a_chunk_that_falls_short():
    # gaps of 1 put the first chunk's flips at 0 .. chunk - 1, short of the
    # end, so a second chunk continues from the last of them
    size, p = 2000, 0.01
    rng = OnesFirst(5)
    flips = engine._flip_positions(rng, size, p)
    chunk = rng.sizes[0]
    assert chunk < size and len(rng.sizes) >= 2
    assert flips[:chunk].tolist() == list(range(chunk))
    assert np.all(np.diff(flips) > 0) and flips[-1] < size
    reference = np.random.default_rng(5).geometric(p, rng.sizes[1]).cumsum() + chunk - 1
    tail = flips[chunk:]
    assert tail.tolist() == reference[: tail.size].tolist()


def two_byte_genes(rng, size: int) -> list[int]:
    """``size`` 10-bit genes read by hand from one ``random_raw`` call:
    two little-endian bytes of the words per gene, low 10 bits kept."""
    words = rng.bit_generator.random_raw(-(-size // 4))
    raw = b"".join(int(w).to_bytes(8, "little") for w in words)
    return [int.from_bytes(raw[2 * i : 2 * i + 2], "little") & 1023 for i in range(size)]


@pytest.mark.parametrize("p", [0.0, 0.05])
@pytest.mark.parametrize("n", [20, 21])
@pytest.mark.parametrize("runs", [1, 3])
def test_draw_generation_replays_the_stream_by_hand(runs, n, p):
    # Stream version 6, taken by hand from a fresh generator per run on
    # the same seed: the initial genes from one random_raw call, then per
    # block of up to 16 generations its doubles in one call (per
    # generation 2 * pairs roulette doubles, then a crossover double per
    # pair), its mask words in one call, and the flip positions of the
    # whole block; no other draw is taken. 17 generations end one
    # generation into the second block, and 10 bits per variable take two
    # bytes per gene.
    bits_per_var, dims = 10, 3
    cfg = small_config(pop_size=n, mutation_prob_per_bit=p, bits_per_var=bits_per_var,
                       generations=17)
    pairs, size = -(-n // 2), n * dims * bits_per_var
    seeds = [[11, r] for r in range(runs)]
    rngs = [np.random.Generator(np.random.PCG64(seed)) for seed in seeds]
    initial = [engine._draw_genes(rng, n * dims, bits_per_var) for rng in rngs]
    blocks = [engine._draw_block(rngs, cfg, count) for count in (16, 1)]
    flips = {}  # (block, generation): the expected bit positions of the stacked children
    for r, seed in enumerate(seeds):
        rng = np.random.Generator(np.random.PCG64(seed))
        assert initial[r].dtype == np.uint16
        assert initial[r].tolist() == two_byte_genes(rng, n * dims)
        for b, block in enumerate(blocks):
            count = len(block)
            doubles = rng.random(count * 3 * pairs).reshape(count, 3 * pairs)
            masks = two_byte_genes(rng, count * pairs * dims)
            positions = engine._flip_positions(rng, count * size, p).tolist()
            for k, (roulette, crosses, mask, _) in enumerate(block):
                assert roulette.shape == (runs, 2 * pairs) and crosses.shape == (runs, pairs)
                assert roulette[r].tobytes() == doubles[k, : 2 * pairs].tobytes()
                assert crosses[r].tobytes() == doubles[k, 2 * pairs :].tobytes()
                assert mask.shape == (runs, pairs, dims) and mask.dtype == np.uint16
                assert mask[r].ravel().tolist() == masks[k * pairs * dims : (k + 1) * pairs * dims]
                # bit q of run r's generation: bit r * size + q of the
                # stacked children, gene (r * size + q) // 10
                mine = [pos - k * size for pos in positions if 0 <= pos - k * size < size]
                flips.setdefault((b, k), []).extend(r * size + q for q in mine)
        assert rngs[r].random() == rng.random()  # both streams are at one place
    assert [len(block) for block in blocks] == [16, 1]
    for b, block in enumerate(blocks):
        for k, (_, _, _, mask) in enumerate(block):
            assert mask.shape == (runs, n, dims) and mask.dtype == np.uint16
            assert mask.ravel().tolist() == flip_mask_by_hand(
                flips[b, k], runs * n * dims, bits_per_var)
    assert any(flips.values()) == (p > 0)


@pytest.mark.parametrize("runs", [1, 3])
def test_odd_population_keeps_the_first_child_of_the_last_pair(runs):
    # With n odd the pool holds n + 1 roulette parents, paired (i, 11 + i);
    # the last pair (10, 21) crosses under the last mask and only its
    # first child, row 10, is kept. The realized strength counts the first
    # n parents alone.
    n, pairs = 21, 11
    cfg = small_config(pop_size=n, crossover_prob=1.0, mutation_prob_per_bit=0.0)
    rngs = [np.random.default_rng(173 + r) for r in range(runs)]
    pop = make_population(np.stack([random_genes(rng, n, 3) for rng in rngs]),
                          cfg.objective, 5)
    draws = generation_draws(rngs, cfg)
    nxt, parents = step(pop, cfg, 1, draws)
    roulette, _, masks, _ = draws
    gamma_n = gamma_at(cfg.schedule, 1)
    for r in range(runs):
        chosen = select_parents(pop.fitness[r], gamma_n, roulette[r])
        assert chosen.shape == (n + 1,)
        assert parents[r].tolist() == chosen[:n].tolist()
        a, b = pop.genes[r, chosen[:pairs]], pop.genes[r, chosen[pairs:]]
        diff = (a ^ b) & masks[r]
        assert diff.any()  # some pair swapped bits
        kept = np.concatenate((a ^ diff, (b ^ diff)[:-1]))
        assert nxt.genes[r].tolist() == kept.tolist()


GA_PHASES = ("select_parents", "uniform_crossover", "mutate", "make_population",
             "step_generation")


def test_each_ga_phase_is_called_once_per_generation(monkeypatch):
    # The benchmark times these phases by wrapping them where the engine
    # looks them up, so a phase that step_generation inlines, or a
    # step_generation that the run loop inlines, would vanish from its
    # per-layer spans.
    calls = dict.fromkeys(GA_PHASES, 0)
    for name in GA_PHASES:
        def counted(*args, _name=name, _original=getattr(engine, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(engine, name, counted)
    cfg = small_config(generations=17, runs=3, pop_size=21)  # two blocks
    engine.multi_run(cfg)
    g = cfg.generations
    assert calls == {"select_parents": g, "uniform_crossover": g, "mutate": g,
                     "make_population": g + 1, "step_generation": g}
