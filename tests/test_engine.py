"""Decode, variation operators, generation pipeline, and reproducibility."""

from __future__ import annotations

import math

import numpy as np
import pytest

from cauchyga.annealing import cauchy_schedule, constant_schedule
from cauchyga.benchmarks import evaluate_raw_batch, make_objective, to_fitness_batch
from cauchyga.engine import (
    GaConfig,
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
        selection="boltzmann_const",
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
    out = select_parents(pop.fitness, "boltzmann_const", 2.0, rng, count=5)
    assert out.tolist() == [0] * 5


def test_gamma_zero_boltzmann_is_uniform():
    rng = np.random.default_rng(71)
    pop = make_population(random_bits(rng, 10), RAST, 5)
    p = selection_probabilities(pop.fitness, "boltzmann_const", 0.0)
    assert np.allclose(p, 0.1, atol=1e-15)


def test_boltzmann_selection_two_individuals_hand_computed():
    # fitness gap of exactly 1 at gamma = ln 3 puts 3/4 on the fitter one
    fitness = np.array([0.0, 1.0])
    p = selection_probabilities(fitness, "boltzmann_const", math.log(3.0))
    assert p[1] == pytest.approx(0.75, abs=1e-12)
    rng = np.random.default_rng(73)
    draws = select_parents(fitness, "boltzmann_const", math.log(3.0), rng, count=100_000)
    frac = np.count_nonzero(fitness[draws] == 1.0) / 100_000
    assert frac == pytest.approx(0.75, abs=0.01)


def test_boltzmann_probabilities_shift_invariant():
    rng = np.random.default_rng(79)
    pop = make_population(random_bits(rng, 30), RAST, 5)
    p1 = selection_probabilities(pop.fitness, "cauchy_boltzmann", 12.0)
    p2 = selection_probabilities(pop.fitness + 0.37, "cauchy_boltzmann", 12.0)
    assert np.max(np.abs(p1 - p2)) <= 1e-12


def test_proportionate_rejects_all_zero_fitness():
    with pytest.raises(ValueError, match="degenerate population"):
        selection_probabilities(np.zeros(3), "proportionate", 0.0)
    with pytest.raises(ValueError, match="empty population"):
        selection_probabilities(np.zeros(0), "proportionate", 0.0)


def test_sampling_matches_operator_expectation():
    rng = np.random.default_rng(83)
    fitness = rng.choice(np.round(rng.uniform(0.1, 1.0, size=8), 3), size=150)
    phi = population_nfd(fitness)
    for scheme, gamma, operator in (
        ("cauchy_boltzmann", 3.0, lambda p: boltzmann_apply(p, 3.0)),
        ("proportionate", 0.0, proportionate_apply),
    ):
        drawn = select_parents(fitness, scheme, gamma, rng, count=100_000)
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


def test_crossover_draws_per_pair_in_row_order():
    # one uniform per pair, then the swap mask only for a crossing pair
    rng = np.random.default_rng(104)
    a, b = random_bits(rng, 40), random_bits(rng, 40)
    ca, cb = uniform_crossover(a, b, 0.6, np.random.default_rng(106))
    replay = np.random.default_rng(106)
    for i in range(40):
        swap = replay.random(75) < 0.5 if replay.random() < 0.6 else np.zeros(75, bool)
        assert np.array_equal(ca[i], np.where(swap, b[i], a[i]))
        assert np.array_equal(cb[i], np.where(swap, a[i], b[i]))


@pytest.mark.parametrize("crossover_prob", [0.0, 0.6, 1.0])
def test_crossover_leaves_stream_where_per_pair_draws_do(crossover_prob):
    # permutation() leaves half a uint64 buffered for the next integer draw;
    # the crossover must keep it, and at 1.0 it uses its whole block
    bits = random_bits(np.random.default_rng(116), 40)
    a, b = bits[:20], bits[20:]
    rng, replay = np.random.default_rng(119), np.random.default_rng(119)
    rng.permutation(21)
    replay.permutation(21)
    assert rng.bit_generator.state["has_uint32"] == 1
    ca, cb = uniform_crossover(a, b, crossover_prob, rng)
    for i in range(20):
        swap = np.zeros(75, bool)
        if replay.random() < crossover_prob:
            swap = replay.random(75) < 0.5
        assert np.array_equal(ca[i], np.where(swap, b[i], a[i]))
        assert np.array_equal(cb[i], np.where(swap, a[i], b[i]))
    assert rng.integers(0, 20) == replay.integers(0, 20)
    assert rng.random() == replay.random()


def test_crossover_rejects_length_mismatch():
    rng = np.random.default_rng(107)
    with pytest.raises(ValueError, match="length mismatch"):
        uniform_crossover(
            np.zeros((1, 75), np.uint8), np.zeros((1, 70), np.uint8), 0.5, rng
        )


def test_mutate_edge_probabilities():
    rng = np.random.default_rng(109)
    g = random_bits(rng, 20)
    assert np.array_equal(mutate(g, 0.0, rng), g)
    assert np.array_equal(mutate(g, 1.0, rng), 1 - g)
    with pytest.raises(ValueError, match="mutation probability"):
        mutate(g, 1.5, rng)


def test_mutate_flip_count_matches_binomial_mean():
    rng = np.random.default_rng(113)
    flips = mutate(np.zeros((100_000, 75), dtype=np.uint8), 0.01, rng).sum(axis=1)
    assert np.mean(flips) == pytest.approx(0.75, abs=0.03)
    assert np.var(flips) == pytest.approx(75 * 0.01 * 0.99, abs=0.03)


def test_mutate_matrix_draw_equals_per_row_draws():
    bits = random_bits(np.random.default_rng(114), 30)
    rng, replay = np.random.default_rng(115), np.random.default_rng(115)
    out = mutate(bits, 0.05, rng)
    for i in range(30):
        assert np.array_equal(out[i], bits[i] ^ (replay.random(75) < 0.05))
    assert rng.random() == replay.random()  # same position in the stream


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
    assert len(series.records) == 1


def test_run_is_deterministic():
    cfg = small_config()
    assert run(cfg, 0) == run(cfg, 0)
    assert run(cfg, 0) != run(cfg, 1)


def test_best_so_far_nonincreasing():
    cfg = small_config(generations=40)
    series = run(cfg, 3)
    best = [r.best_so_far_raw for r in series.records]
    assert all(b <= a for a, b in zip(best, best[1:]))
    gen_best = [r.gen_best_raw for r in series.records]
    assert all(b <= g for b, g in zip(best, gen_best))


def test_multi_run_single_run_zero_std():
    cfg = small_config(runs=1)
    agg = multi_run(cfg)
    assert np.all(agg.best_std == 0.0)
    assert np.all(agg.mean_std == 0.0)


def test_multi_run_reproducible_and_order_independent():
    cfg = small_config()
    a = multi_run(cfg)
    b = aggregate([run(cfg, i) for i in reversed(range(cfg.runs))])
    assert np.array_equal(a.best_mean, b.best_mean)
    assert np.array_equal(a.strength_mean, b.strength_mean)


def test_elitism_keeps_best_from_worsening():
    cfg = small_config(elitism=True, generations=30, mutation_prob_per_bit=0.05)
    series = run(cfg, 0)
    gen_best = [r.gen_best_raw for r in series.records]
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
    with pytest.raises(ValueError, match="unknown selection"):
        small_config(selection="rank")
    with pytest.raises(ValueError, match="mutation_prob_per_bit"):
        small_config(mutation_prob_per_bit=0.2)
    with pytest.raises(ValueError, match="crossover_prob"):
        small_config(crossover_prob=1.5)
    with pytest.raises(ValueError, match="pop_size"):
        small_config(pop_size=0)


def test_config_rejects_single_individual():
    # one individual has no partner for the odd leftover's crossover
    with pytest.raises(ValueError, match="pop_size must be >= 2"):
        small_config(pop_size=1)
    assert small_config(pop_size=2).pop_size == 2


def test_cauchy_scheme_uses_schedule_gamma():
    cfg = small_config(
        selection="cauchy_boltzmann", schedule=cauchy_schedule(1.0, 2.0),
        generations=3,
    )
    series = run(cfg, 0)
    gammas = [r.gamma for r in series.records]
    assert gammas == pytest.approx([1.0, 1.25, 1.0 + 0.25 + 1 / 9], abs=1e-12)


def test_proportionate_records_zero_gamma():
    cfg = small_config(selection="proportionate", generations=2)
    series = run(cfg, 0)
    assert all(r.gamma == 0.0 for r in series.records)
