"""Decode, variation operators, generation pipeline, and reproducibility."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from scipy.stats import binom, chi2

from cauchyga import engine
from cauchyga.annealing import cauchy_schedule, constant_schedule
from cauchyga.benchmarks import (
    FUNCTION_NAMES,
    evaluate_raw_batch,
    make_objective,
    to_fitness_batch,
)
from cauchyga.engine import (
    SERIES_COLUMNS,
    GaConfig,
    GenerationRecord,
    aggregate,
    decode_batch,
    make_population,
    multi_run,
    mutate,
    population_nfd,
    run,
    select_parents,
    selection_probabilities,
    step_generation,
    uniform_crossover,
)
from cauchyga.nfd import distance
from cauchyga.selection import boltzmann_apply, proportionate_apply

RAST = make_objective("rastrigin", 15)


def decode_one(bits, spec=RAST) -> np.ndarray:
    """Decode a single genome through the batch decoder."""
    return decode_batch(np.asarray([bits], dtype=np.uint8), spec, 5)[0]


def random_bits(rng, rows: int, length: int = 75) -> np.ndarray:
    return rng.integers(0, 2, size=(rows, length), dtype=np.uint8)


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
    with pytest.raises(ValueError, match="genome length"):
        decode_one([0] * 74)


def test_decode_rejects_bits_other_than_0_or_1():
    # the first was read as level 2, the second indexed past the lattice
    spec = make_objective("rastrigin", 1)
    for row in ([0, 0, 0, 0, 2], [2, 0, 0, 0, 0]):
        with pytest.raises(ValueError, match="bits must be 0 or 1"):
            decode_batch(np.array([row], np.uint8), spec, 5)
    # past the table size limit make_population decodes through decode_batch
    wide = make_objective("rastrigin", 17)  # 2**16 levels x 17 dims > 2**20 entries
    bits = np.zeros((2, 17 * 16), np.uint8)
    bits[1, 5] = 2
    with pytest.raises(ValueError, match="bits must be 0 or 1"):
        make_population(bits, wide, 16)


def test_individual_fields_recompute_bit_exactly():
    # each row recomputed on its own matches the batch it was evaluated in
    rng = np.random.default_rng(61)
    pop = make_population(random_bits(rng, 150), RAST, 5)
    assert pop.bits.shape == (150, 75) and len(pop) == 150
    for i in range(len(pop)):
        raw = evaluate_raw_batch(RAST, decode_batch(pop.bits[i : i + 1], RAST, 5))
        assert raw[0] == pop.raw[i]
        assert to_fitness_batch(RAST, raw)[0] == pop.fitness[i]


def test_select_parents_single_individual():
    rng = np.random.default_rng(67)
    pop = make_population(np.zeros((1, 75), dtype=np.uint8), RAST, 5)
    out = select_parents(pop.fitness, 2.0, rng, count=5)
    assert out.tolist() == [0] * 5


def test_gamma_zero_boltzmann_is_uniform():
    rng = np.random.default_rng(71)
    pop = make_population(random_bits(rng, 10), RAST, 5)
    p = selection_probabilities(pop.fitness, 0.0)
    assert np.allclose(p, 0.1, atol=1e-15)


def test_boltzmann_selection_two_individuals_hand_computed():
    # fitness gap of exactly 1 at gamma = ln 3 puts 3/4 on the fitter one
    fitness = np.array([0.0, 1.0])
    p = selection_probabilities(fitness, math.log(3.0))
    assert p[1] == pytest.approx(0.75, abs=1e-12)
    rng = np.random.default_rng(73)
    draws = select_parents(fitness, math.log(3.0), rng, count=100_000)
    frac = np.count_nonzero(fitness[draws] == 1.0) / 100_000
    assert frac == pytest.approx(0.75, abs=0.01)


def test_boltzmann_probabilities_shift_invariant():
    rng = np.random.default_rng(79)
    pop = make_population(random_bits(rng, 30), RAST, 5)
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
        drawn = select_parents(fitness, gamma_n, rng, count=100_000)
        empirical = population_nfd(fitness[drawn])
        assert distance(empirical, operator(phi)) <= 0.02


def test_crossover_identical_parents_fixed():
    rng = np.random.default_rng(89)
    a = random_bits(rng, 50)
    ca, cb = uniform_crossover(a, a.copy(), 1.0, rng)
    assert np.array_equal(ca, a)
    assert np.array_equal(cb, a)


def test_crossover_probability_zero_is_identity():
    rng = np.random.default_rng(97)
    a, b = random_bits(rng, 50), random_bits(rng, 50)
    ca, cb = uniform_crossover(a, b, 0.0, rng)
    assert np.array_equal(ca, a) and np.array_equal(cb, b)


def test_crossover_preserves_positionwise_multiset():
    rng = np.random.default_rng(101)
    a, b = random_bits(rng, 50), random_bits(rng, 50)
    ca, cb = uniform_crossover(a, b, 1.0, rng)
    assert ca.dtype == np.uint8 and cb.dtype == np.uint8
    assert np.array_equal(ca + cb, a + b)
    assert not np.array_equal(ca, a)  # the pairs did cross


def test_crossover_complementary_parents_stay_complementary():
    rng = np.random.default_rng(103)
    a = random_bits(rng, 50)
    ca, cb = uniform_crossover(a, 1 - a, 1.0, rng)
    assert np.array_equal(ca, 1 - cb)


def test_crossover_rejects_length_mismatch():
    rng = np.random.default_rng(107)
    with pytest.raises(ValueError, match="length mismatch"):
        uniform_crossover(
            np.zeros((1, 75), np.uint8), np.zeros((1, 70), np.uint8), 0.5, rng
        )


@pytest.mark.parametrize("crossover_prob", [0.25, 0.8])
def test_crossover_rate_and_fair_swaps(crossover_prob):
    # complementary parents make every swap visible: child a holds a 1
    # exactly where its pair swapped; the bounds are binomial standard
    # deviations (4 for the two fractions, 5 for the worst of 75 loci)
    n, length = 20_000, 75
    a = np.zeros((n, length), np.uint8)
    ca, _ = uniform_crossover(a, 1 - a, crossover_prob, np.random.default_rng(151))
    crossing = ca.any(axis=1)  # a crossing row swaps nothing with chance 2**-75
    m = int(crossing.sum())
    sd = math.sqrt(crossover_prob * (1 - crossover_prob) / n)
    assert abs(m / n - crossover_prob) <= 4 * sd
    swaps = ca[crossing].sum(axis=0)
    assert abs(swaps.sum() / (m * length) - 0.5) <= 4 * math.sqrt(0.25 / (m * length))
    assert np.abs(swaps - m / 2).max() <= 5 * math.sqrt(m / 4)


@pytest.mark.parametrize(
    "bit_generator", [np.random.Philox, np.random.MT19937, np.random.SFC64]
)
def test_crossover_keeps_positionwise_law_on_any_bit_generator(bit_generator):
    rng = np.random.Generator(bit_generator(167))
    a, b = random_bits(rng, 50), random_bits(rng, 50)
    ca, cb = uniform_crossover(a, b, 0.7, rng)
    assert np.array_equal(np.minimum(ca, cb), np.minimum(a, b))
    assert np.array_equal(np.maximum(ca, cb), np.maximum(a, b))
    assert not np.array_equal(ca, a)  # the pairs did cross


def test_mutate_edge_probabilities():
    rng = np.random.default_rng(109)
    g = random_bits(rng, 20)
    assert np.array_equal(mutate(g, 0.0, rng), g)
    assert np.array_equal(mutate(g, 1.0, rng), 1 - g)
    assert mutate(g[:0], 0.5, rng).shape == (0, 75)
    with pytest.raises(ValueError, match="mutation probability"):
        mutate(g, 1.5, rng)


def test_mutate_flip_count_matches_binomial_mean():
    rng = np.random.default_rng(113)
    flips = mutate(np.zeros((100_000, 75), dtype=np.uint8), 0.01, rng).sum(axis=1)
    assert np.mean(flips) == pytest.approx(0.75, abs=0.03)
    assert np.var(flips) == pytest.approx(75 * 0.01 * 0.99, abs=0.03)


def test_mutate_flip_positions_are_uniform():
    # chi-square goodness of fit of the flip counts per locus and per block
    # of 100 rows against the uniform law, each at the 0.1% level
    flips = mutate(np.zeros((20_000, 75), np.uint8), 0.01, np.random.default_rng(157))
    for counts in (flips.sum(axis=0), flips.reshape(200, -1).sum(axis=1)):
        expected = counts.sum() / counts.size
        stat = float(((counts - expected) ** 2).sum() / expected)
        assert chi2.sf(stat, counts.size - 1) > 1e-3


@pytest.mark.parametrize("mutation_prob", [0.05, 1.0])
def test_mutate_leaves_its_input_unchanged(mutation_prob):
    bits = random_bits(np.random.default_rng(161), 30)
    kept = bits.copy()
    out = mutate(bits, mutation_prob, np.random.default_rng(163))
    assert np.array_equal(bits, kept)
    assert not np.array_equal(out, kept)


def test_step_no_variation_point_mass_is_stationary():
    cfg = small_config(crossover_prob=0.0, mutation_prob_per_bit=0.0)
    bits = np.tile(
        np.random.default_rng(127).integers(0, 2, 15, dtype=np.uint8), (20, 1)
    )
    pop = make_population(bits, cfg.objective, 5)
    rng = np.random.default_rng(131)
    nxt, rec = step_generation(pop, cfg, 1, rng)
    assert rec.strength == 0.0
    assert np.array_equal(nxt.bits, pop.bits)


def test_step_huge_gamma_takes_over():
    cfg = small_config(
        crossover_prob=0.0,
        mutation_prob_per_bit=0.0,
        schedule=constant_schedule(1e6),
    )
    rng = np.random.default_rng(137)
    bits = rng.integers(0, 2, size=(20, 15), dtype=np.uint8)
    pop = make_population(bits, cfg.objective, 5)
    nxt, _ = step_generation(pop, cfg, 1, rng)
    assert np.all(nxt.fitness == pop.fitness.max())


def test_step_preserves_population_size():
    for pop_size in (20, 21):  # even and odd pairing paths
        cfg = small_config(pop_size=pop_size)
        rng = np.random.default_rng(139)
        bits = rng.integers(0, 2, size=(pop_size, 15), dtype=np.uint8)
        pop = make_population(bits, cfg.objective, 5)
        nxt, _ = step_generation(pop, cfg, 1, rng)
        assert len(nxt) == pop_size
        assert nxt.bits.shape == pop.bits.shape and nxt.bits.dtype == np.uint8


def test_run_single_generation_series():
    cfg = small_config(generations=1)
    series = run(cfg, 0)
    assert series.shape == (1, 5) and series.dtype == np.float64


def test_run_is_deterministic():
    cfg = small_config()
    assert np.array_equal(run(cfg, 0), run(cfg, 0))
    assert not np.array_equal(run(cfg, 0), run(cfg, 1))


def test_run_rows_are_the_generation_records():
    assert GenerationRecord._fields == (
        "gamma", "best_so_far_raw", "gen_best_raw", "mean_raw", "strength"
    )
    cfg = small_config(generations=4)
    rng = np.random.Generator(np.random.PCG64(engine.run_seed(cfg.master_seed, 2)))
    pop = make_population(random_bits(rng, cfg.pop_size, 15), cfg.objective, 5)
    best, records = float(pop.raw.min()), []
    for gen in range(1, cfg.generations + 1):
        pop, record = step_generation(pop, cfg, gen, rng, best)
        best = record.best_so_far_raw
        records.append(list(record))
    assert run(cfg, 2).tolist() == records


def test_best_so_far_nonincreasing():
    cfg = small_config(generations=40)
    _, best, gen_best, _, _ = run(cfg, 3).T
    assert all(b <= a for a, b in zip(best, best[1:]))
    assert all(b <= g for b, g in zip(best, gen_best))


def column(table: np.ndarray, name: str) -> np.ndarray:
    """The series table's column for a series CSV column name."""
    return table[:, SERIES_COLUMNS.index(name) - 1]


def test_multi_run_single_run_zero_std():
    cfg = small_config(runs=1)
    table = multi_run(cfg)
    assert np.all(column(table, "best_raw_std") == 0.0)
    assert np.all(column(table, "mean_raw_std") == 0.0)


def test_multi_run_reproducible_and_order_independent():
    cfg = small_config(runs=3)
    # a run depends only on its index, not on which runs ran before it
    runs = {i: run(cfg, i) for i in reversed(range(cfg.runs))}
    a = multi_run(cfg)
    b = aggregate(np.stack([runs[i] for i in range(cfg.runs)]))
    assert a.shape == b.shape == (cfg.generations, len(SERIES_COLUMNS) - 1)
    assert a.dtype == b.dtype == np.float64
    assert np.array_equal(a, b)


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
    gen_best = run(cfg, 0)[:, 2]
    assert all(b <= a + 1e-12 for a, b in zip(gen_best, gen_best[1:]))


def test_elitism_carries_best_parent_row():
    cfg = small_config(elitism=True, mutation_prob_per_bit=0.1)
    rng = np.random.default_rng(141)
    pop = make_population(random_bits(rng, 20, 15), cfg.objective, 5)
    best = int(np.argmin(pop.raw))
    nxt, rec = step_generation(pop, cfg, 1, rng)
    row = np.flatnonzero((nxt.bits == pop.bits[best]).all(axis=1))
    assert row.size >= 1
    assert nxt.raw[row[0]] == pop.raw[best]
    assert nxt.fitness[row[0]] == pop.fitness[best]
    assert rec.gen_best_raw <= pop.raw[best]


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
    # one individual has no partner for the odd leftover's crossover
    with pytest.raises(ValueError, match="pop_size must be >= 2"):
        small_config(pop_size=1)
    assert small_config(pop_size=2).pop_size == 2


def test_cauchy_scheme_uses_schedule_gamma():
    cfg = small_config(schedule=cauchy_schedule(1.0, 2.0), generations=3)
    gammas = run(cfg, 0)[:, 0].tolist()
    assert gammas == pytest.approx([1.0, 1.25, 1.0 + 0.25 + 1 / 9], abs=1e-12)


def test_proportionate_records_zero_gamma():
    cfg = small_config(schedule=None, generations=2)
    assert run(cfg, 0)[:, 0].tolist() == [0.0, 0.0]


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
    points = decode_batch(bits, spec, bits_per_var)
    assert points.tobytes() == reference_decode(bits, spec, bits_per_var).tobytes()
    pop = make_population(bits, spec, bits_per_var)
    raw = evaluate_raw_batch(spec, points)
    assert pop.raw.tobytes() == raw.tobytes()
    assert pop.fitness.tobytes() == to_fitness_batch(spec, raw).tobytes()
    if bits_per_var == 16:
        engine._lattice.cache_clear()  # drop the large tables


@pytest.mark.parametrize("name", FUNCTION_NAMES)
def test_population_past_the_table_limit_evaluates_decoded_points(name):
    spec = make_objective(name, 17)  # 2**16 levels x 17 dims > 2**20 entries
    assert engine._lattice(spec, 16)[1] is None
    bits = random_bits(np.random.default_rng(151), 40, 17 * 16)
    pop = make_population(bits, spec, 16)
    raw = evaluate_raw_batch(spec, decode_batch(bits, spec, 16))
    assert pop.raw.tobytes() == raw.tobytes()


def test_lattice_tables_are_read_only():
    points, tables = engine._lattice(RAST, 5)
    for table in (points, *tables):
        with pytest.raises(ValueError):
            table[0] = 0.0
    decoded = decode_batch(np.zeros((1, 75), np.uint8), RAST, 5)
    decoded[0, 0] = 1.0  # a decoded batch is the caller's own array
    assert points[0] == -5.12


@pytest.mark.parametrize("bits_per_var", [0, 17])
def test_config_and_decode_reject_bits_per_var_outside_1_to_16(bits_per_var):
    with pytest.raises(ValueError, match=r"bits_per_var must be in \[1, 16\]"):
        small_config(bits_per_var=bits_per_var)
    with pytest.raises(ValueError, match=r"bits_per_var must be in \[1, 16\]"):
        decode_batch(np.zeros((1, 3 * bits_per_var), np.uint8),
                     make_objective("rastrigin", 3), bits_per_var)
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
    ours, reference = np.random.default_rng(137), np.random.default_rng(137)
    got = select_parents(fitness, gamma_n, ours, count=count)
    want = reference.choice(150, size=150 if count is None else count, replace=True, p=p)
    assert got.tolist() == want.tolist()
    assert ours.random() == reference.random()
    if selection == "proportionate":
        assert not np.isin(got, zero_rows).any()


class FixedDraws:
    """Stands in for a generator whose next doubles are known."""

    def __init__(self, doubles):
        self.doubles = np.asarray(doubles, dtype=np.float64)

    def random(self, size):
        assert size == len(self.doubles)
        return self.doubles


def test_roulette_double_on_a_cumulative_sum_picks_the_next_row():
    # as in Generator.choice, so a zero-probability row is never drawn,
    # not even by the double 0.0
    fitness = np.array([0.0, 0.5, 0.5])
    got = select_parents(fitness, None, FixedDraws([0.0, 0.5, 0.75]))
    assert got.tolist() == [1, 2, 2]


def test_roulette_rejects_nan_or_negative_probabilities():
    rng = np.random.default_rng(139)
    message = "selection probabilities must be nonnegative"
    with pytest.raises(ValueError, match=message):
        select_parents(np.array([0.5, math.nan]), None, rng)
    with pytest.raises(ValueError, match=message):
        select_parents(np.array([1.0, -0.5]), None, rng)
    with pytest.raises(ValueError, match=message):
        select_parents(np.array([0.5, math.nan]), 2.0, rng)
    for gamma in (math.nan, math.inf):
        with pytest.raises(ValueError, match="inverse temperature must be finite"):
            select_parents(np.array([0.5, 0.25]), gamma, rng)


def python_table_index(bits, dims, bits_per_var) -> list[list[int]]:
    """Flat table index level * dims + column of every gene, read bit by bit."""
    rows = []
    for genome in bits.tolist():
        row = []
        for column in range(dims):
            level = 0
            for bit in genome[column * bits_per_var : (column + 1) * bits_per_var]:
                level = 2 * level + bit
            row.append(level * dims + column)
        rows.append(row)
    return rows


@pytest.mark.parametrize("dims", [1, 3, 15])
@pytest.mark.parametrize("bits_per_var", [1, 2, 5, 8, 16])
def test_table_index_equals_a_bitwise_big_endian_read(bits_per_var, dims):
    spec = make_objective("rastrigin", dims)
    bits = random_bits(np.random.default_rng(bits_per_var * 31 + dims), 60,
                       dims * bits_per_var)
    bits[0], bits[1] = 0, 1
    index = engine._table_index(bits, spec, bits_per_var)
    assert index.dtype == np.intp
    assert index.tolist() == python_table_index(bits, dims, bits_per_var)
    assert index[1].tolist() == [
        (2**bits_per_var - 1) * dims + c for c in range(dims)
    ]


def test_table_index_is_exact_at_the_table_size_limit():
    spec = make_objective("rastrigin", 16)  # 2**16 levels x 16 dims = 2**20 entries
    try:
        assert engine._lattice(spec, 16)[1] is not None
        bits = random_bits(np.random.default_rng(157), 40, 16 * 16)
        bits[0], bits[1] = 0, 1
        bits[2] = np.tile([0] + [1] * 15, 16)  # level 2**15 - 1 in every column
        index = engine._table_index(bits, spec, 16)
        assert index.tolist() == python_table_index(bits, 16, 16)
        assert int(index.max()) == 2**20 - 1
        pop = make_population(bits, spec, 16)
        raw = evaluate_raw_batch(spec, reference_decode(bits, spec, 16))
        assert pop.raw.tobytes() == raw.tobytes()
    finally:
        engine._lattice.cache_clear()  # drop the 8 MB table


def test_points_path_past_the_table_size_limit_matches_a_bitwise_read():
    spec = make_objective("rastrigin", 17)  # 2**16 levels x 17 dims > 2**20 entries
    assert engine._lattice(spec, 16)[1] is None
    bits = random_bits(np.random.default_rng(163), 20, 17 * 16)
    bits[0], bits[1] = 0, 1
    levels = np.array(python_table_index(bits, 17, 16)) // 17
    points = spec.lower + levels / float(2**16 - 1) * (spec.upper - spec.lower)
    pop = make_population(bits, spec, 16)
    assert pop.raw.tobytes() == evaluate_raw_batch(spec, points).tobytes()


@pytest.mark.parametrize(
    "fitness,message",
    [
        ([0.5, -1.0, 0.25], "negative fitness: -1.0"),
        ([0.5, -math.inf, 0.25], "negative fitness: -inf"),
        ([0.5, math.inf, 0.25], "non-finite fitness: inf"),
        ([0.5, math.nan, 0.25], "non-finite fitness: nan"),
        # a negative value is reported before any non-finite one
        ([math.nan, math.inf, -2.0, -1.0], "negative fitness: -2.0"),
        # and the first in array order among its kind
        ([0.5, math.inf, math.nan], "non-finite fitness: inf"),
        ([0.5, math.nan, math.inf], "non-finite fitness: nan"),
        ([math.nan], "non-finite fitness: nan"),
    ],
)
def test_realized_strength_names_the_first_bad_fitness(fitness, message):
    with pytest.raises(ValueError) as exc:
        engine.realized_strength(np.array(fitness), np.array([0, 0]))
    assert str(exc.value) == message


def test_realized_strength_counts_negative_zero_as_zero():
    signed = np.array([-0.0, 0.0, 0.5])
    both = engine.realized_strength(signed, np.array([0, 1]))
    assert both == engine.realized_strength(signed, np.array([1, 1]))
    assert both == engine.realized_strength(np.array([0.0, 0.0, 0.5]), np.array([0, 1]))
    assert both == math.fsum([1.0 - 2 / 3, 1 / 3])
    assert engine.realized_strength(np.array([-0.0]), np.array([0])) == 0.0


def test_realized_strength_without_selection_has_its_floor():
    # Uniform draws of 150 from 150 distinct values leave each value drawn
    # Binomial(150, 1/150) times; E|count - 1| = 2 * P(count = 0), so the
    # mean distance to the drawn pool is 2 * (1 - 1/150)**150, not 0.
    fitness = np.random.default_rng(1).random(150)
    rng = np.random.default_rng(2)
    strengths = [
        engine.realized_strength(fitness, select_parents(fitness, 0.0, rng))
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
    cfg = GaConfig(
        objective=make_objective(name, 3), schedule=schedule, pop_size=pop_size,
        generations=6, crossover_prob=crossover_prob,
        mutation_prob_per_bit=mutation_prob, runs=17, master_seed=23, elitism=elitism,
    )
    alone = [run(cfg, i) for i in range(cfg.runs)]
    assert alone[0].shape == (cfg.generations, 5)
    for indices in (range(3), range(17), (16, 4, 9)):
        stack = engine._run_stack(cfg, indices)
        assert stack.shape == (len(indices), cfg.generations, 5)
        for i, records in zip(indices, stack):
            assert records.tobytes() == alone[i].tobytes(), (indices, i)


def test_parents_paired_in_draw_order_have_the_product_law():
    # Without crossover or mutation the children are the pool in draw
    # order, so child rows 2i and 2i + 1 are pair i. On a fixed population
    # of distinct genomes their joint counts must follow p x p, with p the
    # selection probabilities (chi-square at the 0.1% level, 36 cells).
    cfg = small_config(
        objective=make_objective("rastrigin", 1), schedule=constant_schedule(3.0),
        pop_size=6, crossover_prob=0.0, mutation_prob_per_bit=0.0,
    )
    genomes = np.array([[(v >> s) & 1 for s in range(4, -1, -1)]
                        for v in (0, 5, 11, 16, 22, 31)], np.uint8)
    runs, steps = 40, 100
    pop = make_population(np.repeat(genomes[None], runs, axis=0), cfg.objective, 5)
    p = selection_probabilities(pop.fitness[0], 3.0)
    rngs = [np.random.default_rng(1000 + r) for r in range(runs)]
    counts = np.zeros((6, 6))
    for gen in range(1, steps + 1):
        nxt, _ = step_generation(pop, cfg, gen, rngs, np.full(runs, np.inf))
        ids = (nxt.bits[:, :, None, :] == genomes).all(axis=-1).argmax(axis=-1)
        np.add.at(counts, (ids[:, 0::2].ravel(), ids[:, 1::2].ravel()), 1)
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
