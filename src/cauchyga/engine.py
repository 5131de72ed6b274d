"""Binary-encoded generational GA with proportionate or Boltzmann selection.

A population is three row-aligned arrays: the bit matrix, the raw
objective values and the fitness values. ``GaConfig.schedule`` is the
selection scheme: None is proportionate, a schedule is Boltzmann at its
gamma_n. One generation is: roulette selection with replacement (row
indices) -> pairing in draw order -> uniform crossover -> per-bit mutation
-> evaluation. The realized selection strength of a generation is the L1
distance between the population's NFD before selection and the NFD of the
selected parent pool; both are counted on the fitness array
(:func:`realized_strength`), with no NFD objects built.

A genome decodes onto a fixed lattice of 2**bits_per_var levels per
variable (bits_per_var in [1, 16]). The lattice points and the objective's
elementwise terms at them are computed once per (objective, bits_per_var)
and cached (terms up to 2**20 table entries, levels x dims); a generation
gathers its genomes' terms from those tables and reduces them row by row,
the same values as evaluating the decoded points. Each gene's index in
the flat tables comes from one float32 matrix-vector product, exact
because every partial sum is an integer below the 2**20 table limit and
float32 holds every integer up to 2**24.

Every random decision of a run comes from one numpy PCG64 generator seeded
from (master_seed, run_index), so replays are bit-identical and distinct
runs are independent streams. The draws come in a fixed order, numbered
by ``STREAM_VERSION``: the initial bit matrix, then per generation, all
taken before any of them is used (:func:`_draw_generation`):

1. one call of n + ceil(n / 2) doubles: the roulette doubles (one per
   parent, looked up in the cumulative probabilities as
   ``Generator.choice`` does), then the crossover decisions (one per pair,
   the odd leftover's last);
2. the swap masks, ceil(L / 64) raw 64-bit words of the bit generator
   (``random_raw``) per pair, whose bytes in the machine's order unpack to
   the mask bits, the first L of them used;
3. with an odd n, the leftover's partner, an index into the pool before it;
4. the mutation flip positions, running sums of Geometric(p) gaps
   (:func:`_flip_positions`).

The parent pool is paired in draw order, rows 2i and 2i + 1: the roulette
draws are i.i.d., so no shuffle changes the law of the pairs.

The runs of an experiment step in lockstep: the population of every run
is one stack of arrays with a leading run axis, and each step of a
generation but the draws works on the whole stack at once (only the
roulette lookup and the exactly rounded strength sum go row by row). A
run's draws come from its own generator, and each run's values are
reduced on its own row, so a run's records depend only on (master_seed,
run_index), not on the other runs of the stack.

:func:`aggregate` reduces a stack of runs to one series table, a row per
generation under the columns ``SERIES_COLUMNS`` names.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .annealing import AnnealingSchedule, gamma_at
from .benchmarks import (
    ObjectiveSpec, _check_box, _reduce, _terms, evaluate_raw_batch, to_fitness_batch,
)
# engine.distance stays importable: callers and bench/test_bench.py look it up here
from .nfd import NFD, distance
from .selection import _check_gamma

GENERATOR_NAME = "numpy-PCG64"
STREAM_VERSION = 3  # the draw order of the module docstring; bumped when it changes
SEED_STRIDE = 0x9E3779B97F4A7C15
_U64 = 0xFFFFFFFFFFFFFFFF
MAX_BITS_PER_VAR = 16  # a lattice table has at most 2**16 rows
_MAX_TABLE = 1 << 20  # entries (levels * dims) per cached term table: 8 MB

# a series CSV's columns: the generation number, then aggregate's table
SERIES_COLUMNS = (
    "generation",
    "gamma_n",
    "best_raw_mean",
    "best_raw_std",
    "mean_raw_mean",
    "mean_raw_std",
    "strength_mean",
)


@dataclass(frozen=True, eq=False)
class Population:
    """One generation as row-aligned arrays; row i is individual i.

    A stack of runs stepped in lockstep has a leading run axis on all three
    arrays. ``raw`` and ``fitness`` are exactly what decode / evaluate /
    fitness mapping produce for ``bits``; recomputing them reproduces the
    stored values bit-for-bit.
    """

    bits: np.ndarray  # ([runs,] n, dims * bits_per_var) uint8 values in {0, 1}
    raw: np.ndarray  # ([runs,] n) raw objective values
    fitness: np.ndarray  # ([runs,] n) fitness values in [0, 1]

    def __len__(self) -> int:
        return len(self.raw)


def _check_bits_per_var(bits_per_var: int) -> None:
    """The one bits_per_var rule: a lattice table has at most 2**16 rows."""
    if not 1 <= bits_per_var <= MAX_BITS_PER_VAR:
        raise ValueError(f"bits_per_var must be in [1, {MAX_BITS_PER_VAR}]")


@dataclass(frozen=True)
class GaConfig:
    """Full parameterization of a multi-run GA experiment."""

    objective: ObjectiveSpec
    schedule: AnnealingSchedule | None = None  # None: proportionate selection
    pop_size: int = 150
    generations: int = 100
    crossover_prob: float = 0.8
    mutation_prob_per_bit: float = 0.01
    runs: int = 17
    master_seed: int = 42
    elitism: bool = False
    bits_per_var: int = 5

    def __post_init__(self) -> None:
        if not (self.schedule is None or isinstance(self.schedule, AnnealingSchedule)):
            raise ValueError("schedule must be None or an AnnealingSchedule")
        if self.pop_size < 2:
            raise ValueError("pop_size must be >= 2")
        if self.generations < 1:
            raise ValueError("generations must be >= 1")
        if not 0.0 <= self.crossover_prob <= 1.0:
            raise ValueError("crossover_prob must be in [0, 1]")
        if not 0.0 <= self.mutation_prob_per_bit <= 0.1:
            raise ValueError("mutation_prob_per_bit must be in [0, 0.1]")
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        _check_bits_per_var(self.bits_per_var)

    @property
    def genome_length(self) -> int:
        return self.objective.dims * self.bits_per_var


class GenerationRecord(NamedTuple):
    """One generation of one run; a row of the array :func:`run` returns."""

    gamma: float
    best_so_far_raw: float
    gen_best_raw: float
    mean_raw: float
    strength: float


def _gene_slices(bits: np.ndarray, spec: ObjectiveSpec, bits_per_var: int) -> np.ndarray:
    """The (n * dims, bits_per_var) view of a bit matrix, one gene per row."""
    if bits.shape[1] != spec.dims * bits_per_var:
        raise ValueError(
            f"genome length {bits.shape[1]} != dims*bits_per_var "
            f"{spec.dims * bits_per_var}"
        )
    return bits.reshape(-1, bits_per_var)


@functools.lru_cache(maxsize=8)
def _index_weights(dims: int, bits_per_var: int) -> tuple[np.ndarray, np.ndarray]:
    """Float32 big-endian gene weights times ``dims``, and the column offsets."""
    weights = (dims << np.arange(bits_per_var - 1, -1, -1)).astype(np.float32)
    offsets = np.arange(dims, dtype=np.float32)
    weights.flags.writeable = offsets.flags.writeable = False
    return weights, offsets


def _table_index(bits: np.ndarray, spec: ObjectiveSpec, bits_per_var: int) -> np.ndarray:
    """Index of every gene in the flat (levels, dims) term tables, (n, dims).

    The index is level * dims + column: one float32 matrix-vector product
    of the gene slices against big-endian weights times dims, plus the
    column. It is exact whatever order the product sums in, as long as the
    tables fit ``_MAX_TABLE``: every term and partial sum is then an
    integer below 2**20, and float32 holds every integer up to 2**24.
    """
    weights, offsets = _index_weights(spec.dims, bits_per_var)
    slices = _gene_slices(bits, spec, bits_per_var).astype(np.float32)
    flat = slices.dot(weights).reshape(-1, spec.dims)
    flat += offsets
    return flat.astype(np.intp)


@functools.lru_cache(maxsize=8)
def _lattice(
    spec: ObjectiveSpec, bits_per_var: int
) -> tuple[np.ndarray, tuple[np.ndarray, ...] | None]:
    """The lattice points and the flat (levels, dims) objective-term tables.

    Level v sits at lower + v / (levels - 1) * (upper - lower), so v = 0
    hits the lower bound and v = levels - 1 the upper bound exactly. The
    terms are the objective's elementwise terms on the (levels, dims) grid
    of those points; None when the grid has more than ``_MAX_TABLE``
    entries.
    """
    _check_bits_per_var(bits_per_var)
    levels = 2**bits_per_var
    v = np.arange(levels, dtype=np.float64)
    points = spec.lower + v / float(levels - 1) * (spec.upper - spec.lower)
    _check_box(spec, points)
    points.flags.writeable = False
    if levels * spec.dims > _MAX_TABLE:
        return points, None
    terms = _terms(spec, np.repeat(points[:, None], spec.dims, axis=1))
    for table in terms:
        table.flags.writeable = False
    return points, tuple(t.ravel() for t in terms)


def decode_batch(
    bits: np.ndarray, spec: ObjectiveSpec, bits_per_var: int
) -> np.ndarray:
    """Decode a (n, dims * bits_per_var) bit matrix into (n, dims) points.

    Each gene slice is read big-endian as an unsigned integer v and mapped
    linearly so v = 0 hits the lower bound and v = 2**bits_per_var - 1 hits
    the upper bound exactly (a gather from the cached lattice points).

    Raises:
        ValueError: On a genome length other than dims * bits_per_var,
            bits_per_var outside [1, 16], or a bit other than 0 or 1.
    """
    points, _ = _lattice(spec, bits_per_var)
    bits = np.asarray(bits)
    if ((bits != 0) & (bits != 1)).any():
        raise ValueError("bits must be 0 or 1")
    weights = 1 << np.arange(bits_per_var - 1, -1, -1, dtype=np.intp)
    levels = _gene_slices(bits, spec, bits_per_var) @ weights
    return points[levels.reshape(-1, spec.dims)]


def make_population(
    bits: np.ndarray, spec: ObjectiveSpec, bits_per_var: int
) -> Population:
    """Decode, evaluate and map to fitness every row of a bit matrix or stack.

    The raw values are bit for bit ``evaluate_raw_batch(spec,
    decode_batch(bits, ...))``, and past the table size limit they are
    computed that way. Otherwise the terms of each row are gathered from
    the cached lattice tables, the genes read as float32 table indices
    (:func:`_table_index`), and reduced row by row. The population holds
    ``bits`` itself, not a copy.
    """
    _, tables = _lattice(spec, bits_per_var)
    rows = bits.reshape(-1, bits.shape[-1])  # a stack of runs is evaluated as one matrix
    if tables is None:
        raw = evaluate_raw_batch(spec, decode_batch(rows, spec, bits_per_var))
    else:
        index = _table_index(rows, spec, bits_per_var)
        raw = _reduce(spec, tuple(t[index] for t in tables))
    fitness = to_fitness_batch(spec, raw)
    return Population(bits=bits, raw=raw.reshape(bits.shape[:-1]),
                      fitness=fitness.reshape(bits.shape[:-1]))


def population_nfd(fitness: np.ndarray) -> NFD:
    """NFD of a population's fitness values."""
    return NFD.from_values(np.asarray(fitness).tolist())


def realized_strength(fitness: np.ndarray, chosen: np.ndarray) -> float | np.ndarray:
    """L1 distance between the NFDs of ``fitness`` and of ``fitness[chosen]``.

    That is the distance to the drawn pool, which is positive even with no
    selection: n uniform draws from n distinct values give 2 * (1 - 1/n)**n
    on average, about 0.733 at n = 150. Bit-identical to
    ``distance(population_nfd(fitness), population_nfd(fitness[chosen]))``,
    counted on arrays instead (the distinct values come from one sort and a
    neighbour comparison): every mass is the same correctly rounded count /
    size, and ``fsum`` is exactly rounded, so neither term order nor zero
    terms change the sum. As with the NFDs, 0.0 and -0.0 count as one
    fitness value.

    A (runs, n) stack of populations with (runs, k) picks gives the (runs,)
    array of each row's distance (:func:`_strengths`).

    Raises:
        ValueError: On an empty population or selection, or a negative or
            non-finite fitness value.
    """
    fits = np.asarray(fitness, dtype=np.float64)
    picks = np.asarray(chosen)
    if fits.size == 0 or picks.size == 0:
        raise ValueError("empty population")
    # NaN makes the minimum and the maximum NaN, and fails either test
    if not (fits.min() >= 0.0 and fits.max() < math.inf):
        negative = fits[fits < 0.0]
        if negative.size:
            raise ValueError(f"negative fitness: {float(negative[0])}")
        raise ValueError(f"non-finite fitness: {float(fits[~np.isfinite(fits)][0])}")
    # picks index as in fitness[chosen]: a negative one wraps, one out of range raises
    picks = np.arange(fits.shape[-1])[picks]
    if fits.ndim == 1:
        return _strengths(fits[None], picks[None])[0]
    return np.array(_strengths(fits, picks))


def _strengths(fits: np.ndarray, picks: np.ndarray) -> list[float]:
    """:func:`realized_strength` of each row of a (runs, n) stack, unchecked.

    The fitness values must be finite and nonnegative, as fitness mapping
    leaves them. Each row's distinct values get their own bins of one flat
    count, so one sort and two counts serve every row.
    """
    runs, n = fits.shape
    order = fits.argsort(axis=1, kind="stable")
    if runs > 1:  # row r's entries start at r * n of the flat arrays
        offsets = np.arange(0, runs * n, n)[:, None]
        order, picks = order + offsets, picks + offsets
    order = order.ravel()
    ordered = fits.ravel()[order]
    new_value = np.empty(order.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=new_value[1:])
    new_value[::n] = True  # a row's first entry starts its own values
    # 1-based distinct-value bin of each sorted entry; bin 0 stays empty
    bins = new_value.cumsum()
    drawn = np.bincount(picks.ravel(), minlength=order.size)[order]
    before = np.bincount(bins) / n
    after = np.bincount(bins, weights=drawn) / picks.shape[1]
    gaps = np.abs(before - after).tolist()
    if runs == 1:
        return [math.fsum(gaps)]
    ends = (bins[n - 1 :: n] + 1).tolist()
    return [math.fsum(gaps[lo:hi]) for lo, hi in zip([0, *ends], ends)]


def selection_probabilities(fitness: np.ndarray, gamma_n: float | None) -> np.ndarray:
    """Categorical selection distribution over a population's fitness values.

    With ``gamma_n`` None (proportionate selection) each individual weighs
    its fitness; otherwise (Boltzmann selection) it weighs exp(gamma_n *
    fitness), computed with a max-fitness shift so large gamma_n cannot
    overflow. The shift cancels in the normalization, which also makes the
    Boltzmann probabilities invariant under a common additive fitness
    offset. A (runs, n) stack gives one distribution per row.

    Raises:
        ValueError: On an empty population, a negative or non-finite
            gamma_n, or all-zero fitness under proportionate selection.
    """
    fits = np.asarray(fitness, dtype=np.float64)
    if fits.size == 0:
        raise ValueError("empty population")
    # one row, alone or a stack of one, reduces to scalars: numpy's cheapest path
    per_row = {} if fits.size == fits.shape[-1] else {"axis": -1, "keepdims": True}
    if gamma_n is None:
        total = fits.sum(**per_row)
        if total.min() <= 0.0:
            raise ValueError("degenerate population")
        return fits / total
    _check_gamma(gamma_n)
    w = np.exp(gamma_n * (fits - fits.max(**per_row)))
    return w / w.sum(**per_row)


def select_parents(
    fitness: np.ndarray,
    gamma_n: float | None,
    rng: np.random.Generator | np.ndarray,
    count: int | None = None,
) -> np.ndarray:
    """Indices of parents drawn i.i.d. with replacement by roulette.

    Multinomial roulette: ``count`` draws (population size by default) from
    the categorical distribution of :func:`selection_probabilities`. Each
    draw is one double looked up in the normalized cumulative sums, the
    algorithm of ``rng.choice(len(p), count, p=p)``: the same doubles drawn
    and the same indices. ``rng`` is the generator to draw the doubles
    from, or the doubles already drawn, one row per population of a
    (runs, n) stack.

    Raises:
        ValueError: As :func:`selection_probabilities`, or if a probability
            is negative or their sum is not finite and positive.
    """
    p = selection_probabilities(fitness, gamma_n)
    if isinstance(rng, np.ndarray):
        draws = rng
    else:
        draws = rng.random(p.shape[-1] if count is None else count)
    cdf = p.cumsum(axis=-1)
    totals = cdf[..., -1].ravel().tolist()
    if not all(0.0 < t < math.inf for t in totals) or p.min() < 0.0:
        raise ValueError(
            "selection probabilities must be nonnegative with a finite positive sum"
        )
    if len(totals) == 1:  # one population, alone or a stack of one
        cdf /= totals[0]
        return cdf.ravel().searchsorted(draws, side="right")
    cdf /= cdf[:, -1:]
    return np.array([c.searchsorted(u, side="right") for c, u in zip(cdf, draws)])


def _mask_words(length: int) -> int:
    """Raw 64-bit words of swap mask per pair: one bit per position, rounded up."""
    return (length + 63) // 64


def uniform_crossover(
    a: np.ndarray,
    b: np.ndarray,
    crossover_prob: float,
    rng: np.random.Generator | tuple[np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform crossover of row-aligned integer (bit) matrices, row i with row i.

    Each pair crosses with probability crossover_prob, and then every bit
    position independently swaps between the pair with probability 1/2;
    otherwise both parents pass through unchanged. Per position the
    children's bit pair is always a permutation of the parents' pair.
    The draws are one double per pair (the pair crosses when it is below
    crossover_prob), then a swap mask for every pair, crossing or not:
    ceil(L / 64) raw 64-bit words of the bit generator per row, whose bytes
    (in the machine's order) unpack to exact fair bits, the first L used.
    ``rng`` is the generator to draw them from, or those draws already
    taken: the (..., m) doubles and the (..., m, 8 * ceil(L / 64)) mask
    bytes of (..., m, L) parent stacks.

    Raises:
        ValueError: On parent matrices of different shapes.
    """
    if a.shape != b.shape:
        raise ValueError(f"genome length mismatch: {a.shape} vs {b.shape}")
    length = a.shape[-1]
    if isinstance(rng, tuple):
        decisions, masks = rng
    else:
        decisions = rng.random(a.shape[0])
        words = rng.bit_generator.random_raw(a.shape[0] * _mask_words(length))
        masks = words.view(np.uint8).reshape(a.shape[0], -1)
    swaps = np.unpackbits(masks, axis=-1, count=length)
    swaps &= (decisions < crossover_prob)[..., None]
    diff = (a ^ b) & swaps
    return a ^ diff, b ^ diff


def _flip_positions(rng: np.random.Generator, size: int, p: float) -> np.ndarray:
    """Ascending positions in [0, size) of a Bernoulli(p) process.

    The gaps between successes of i.i.d. Bernoulli(p) trials are i.i.d.
    Geometric(p) on 1, 2, ..., so the running sums of the gaps, less one,
    are exactly the positions of one Bernoulli(p) draw per position. The
    gaps come in chunks of the mean count plus five standard deviations
    (plus 8), topped up chunk by chunk while their sum falls short of
    ``size``. A gap is capped at size + 1, which ends the process just as
    the longer gap would and keeps the sums small.
    """
    if p == 0.0:
        return np.empty(0, dtype=np.int64)
    mean = size * p
    chunk = int(mean + 5.0 * math.sqrt(mean)) + 8
    gaps = np.minimum(rng.geometric(p, chunk), size + 1)
    gaps[0] -= 1  # positions count from 0
    positions = gaps.cumsum()
    while positions[-1] < size:
        more = np.minimum(rng.geometric(p, chunk), size + 1).cumsum()
        positions = np.concatenate((positions, more + positions[-1]))
    return positions[: positions.searchsorted(size)]


def mutate(
    bits: np.ndarray,
    mutation_prob_per_bit: float,
    rng: np.random.Generator | np.ndarray,
) -> np.ndarray:
    """Flip each bit independently with the given probability.

    The flips sit at the positions of a Bernoulli(p) process over the flat
    bits (:func:`_flip_positions`): exactly the law of one Bernoulli(p) draw
    per bit. ``rng`` is the generator to draw them from, or the flat
    positions already drawn. Returns a copy; ``bits`` itself is not
    modified.
    """
    if not 0.0 <= mutation_prob_per_bit <= 1.0:
        raise ValueError("mutation probability must be in [0, 1]")
    if isinstance(rng, np.ndarray):
        flips = rng
    else:
        flips = _flip_positions(rng, bits.size, mutation_prob_per_bit)
    out = bits.copy()
    out.reshape(-1)[flips] ^= 1
    return out


def _draw_generation(
    rngs: Sequence[np.random.Generator], n: int, length: int, mutation_prob: float
) -> tuple[np.ndarray, ...]:
    """Take every draw of one generation, run by run, in stream order.

    A generation's draws do not depend on its data, so each run's come
    from its own generator in one pass: the n + pairs doubles in one call,
    the mask words, the odd leftover's partner, then the flip positions.
    Returns, row r for run r: the (runs, n) roulette doubles, the (runs,
    pairs) crossover doubles, the (runs, pairs, 8 * ceil(L / 64)) mask
    bytes, the (runs,) partners (empty for an even n) and the flat flip
    positions in the (runs, n, L) children.
    """
    runs, pairs, size = len(rngs), (n + 1) // 2, n * length
    doubles = np.empty((runs, n + pairs))
    words = np.empty((runs, pairs * _mask_words(length)), dtype=np.uint64)
    partners, flips = [], []
    for row, rng in enumerate(rngs):
        rng.random(out=doubles[row])
        words[row] = rng.bit_generator.random_raw(words.shape[1])
        if n % 2:
            partners.append(rng.integers(0, n - 1))
        flips.append(_flip_positions(rng, size, mutation_prob))
    if runs > 1:  # run r's bits start at r * n * L of the flat children
        flips = [positions + row * size for row, positions in enumerate(flips)]
    masks = words.view(np.uint8).reshape(runs, pairs, -1)
    partners = np.array(partners, dtype=np.intp)
    return doubles[:, :n], doubles[:, n:], masks, partners, np.concatenate(flips)


def step_generation(
    population: Population,
    config: GaConfig,
    generation_index: int,
    rng: np.random.Generator | Sequence[np.random.Generator],
    best_so_far: float | np.ndarray = np.inf,
) -> tuple[Population, GenerationRecord]:
    """Advance one generation and report its record.

    ``population`` is one run's, stepped with its generator ``rng``, or a
    stack of runs with a leading run axis, stepped in lockstep with one
    generator per run in the sequence ``rng``; then ``best_so_far`` and
    every record field are (runs,) arrays. ``best_so_far`` is the running
    minimum raw objective entering the generation; the returned record
    folds in the new population. The generation's gamma is taken from the
    schedule at ``generation_index`` (a constant schedule is the alpha =
    inf one, whose gamma_n is g0); proportionate selection, which has no
    schedule, records gamma as 0.

    The crossover pairs the selected pool in draw order, rows 2i and
    2i + 1. With an odd pool the leftover is paired against a random
    earlier parent and only the leftover-side child is kept. With elitism
    the best parent (first on ties) replaces the worst child (first on
    ties).
    """
    if population.raw.ndim == 1:
        stack = Population(population.bits[None], population.raw[None],
                           population.fitness[None])
        nxt, record = step_generation(stack, config, generation_index, (rng,), best_so_far)
        return (Population(nxt.bits[0], nxt.raw[0], nxt.fitness[0]),
                GenerationRecord(*(float(field[0]) for field in record)))
    runs, n = population.raw.shape
    if n != config.pop_size:
        raise ValueError("population size does not match config")
    length = population.bits.shape[-1]
    roulette, crosses, masks, partners, flips = _draw_generation(
        rng, n, length, config.mutation_prob_per_bit
    )

    schedule = config.schedule
    gamma_n = None if schedule is None else gamma_at(schedule, generation_index)
    chosen = select_parents(population.fitness, gamma_n, roulette)
    # fitness mapping has checked the values realized_strength would
    strength = np.array(_strengths(population.fitness, chosen))

    if n % 2 == 1:
        partner = chosen[np.arange(runs), partners, None]
        chosen = np.concatenate((chosen, partner), axis=1)
    if runs > 1:  # run r's rows start at r * n of the flat population
        chosen = chosen + np.arange(0, runs * n, n)[:, None]
    pool = population.bits.reshape(runs * n, length)[chosen.reshape(runs, -1, 2)]
    pool[:, :, 0], pool[:, :, 1] = uniform_crossover(
        pool[:, :, 0], pool[:, :, 1], config.crossover_prob, (crosses, masks)
    )
    children = pool.reshape(runs, -1, length)[:, :n]
    bits = mutate(children, config.mutation_prob_per_bit, flips)
    nxt = make_population(bits, config.objective, config.bits_per_var)

    if config.elitism:
        each = np.arange(runs)
        worst, best = nxt.raw.argmax(axis=1), population.raw.argmin(axis=1)
        nxt.bits[each, worst] = population.bits[each, best]
        nxt.raw[each, worst] = population.raw[each, best]
        nxt.fitness[each, worst] = population.fitness[each, best]

    gen_best = nxt.raw.min(axis=1)
    record = GenerationRecord(
        gamma=np.full(runs, 0.0 if gamma_n is None else gamma_n),
        best_so_far_raw=np.minimum(best_so_far, gen_best),
        gen_best_raw=gen_best,
        mean_raw=nxt.raw.sum(axis=1) / n,  # what mean(axis=1) computes
        strength=strength,
    )
    return nxt, record


def run_seed(master_seed: int, run_index: int) -> int:
    """64-bit stream seed for one run."""
    return (master_seed ^ (run_index * SEED_STRIDE)) & _U64


def _run_stack(config: GaConfig, run_indices: Iterable[int]) -> np.ndarray:
    """The (runs, generations, 5) records of the given runs, in lockstep."""
    rngs = [np.random.Generator(np.random.PCG64(run_seed(config.master_seed, i)))
            for i in run_indices]
    shape = (config.pop_size, config.genome_length)
    bits = np.stack([rng.integers(0, 2, size=shape, dtype=np.uint8) for rng in rngs])
    population = make_population(bits, config.objective, config.bits_per_var)
    best = population.raw.min(axis=1)

    records = np.empty((config.generations, len(GenerationRecord._fields), len(rngs)))
    for gen in range(1, config.generations + 1):
        population, record = step_generation(population, config, gen, rngs, best)
        records[gen - 1] = record
        best = record.best_so_far_raw
    return np.ascontiguousarray(records.transpose(2, 0, 1))


def run(config: GaConfig, run_index: int) -> np.ndarray:
    """Execute one full GA run, deterministic in (master_seed, run_index).

    Returns a (generations, 5) float64 array; row g - 1 holds the
    :class:`GenerationRecord` of generation g. The run is the one-run
    stack of :func:`multi_run`'s lockstep path.
    """
    return _run_stack(config, (run_index,))[0]


def aggregate(stack: np.ndarray) -> np.ndarray:
    """The series table of a (runs, generations, 5) stack of runs.

    ``stack[i]`` is :func:`run`'s array for one run. Returns a (generations,
    6) float64 array whose columns are ``SERIES_COLUMNS[1:]``: run 0's gamma
    (a mean of equal doubles need not round back to the same double), then
    the mean and std across runs of the best-so-far raw value and of the
    mean raw value, and the mean strength. Standard deviations are
    population-style (ddof=0), so a single run has zero spread. Each
    quantity is reduced as its own view, so at one generation numpy sums
    the runs pairwise, as for a contiguous column; a reduction of the whole
    stack adds them in order and can round differently.
    """
    gamma, best, _, mean, strength = np.moveaxis(stack, -1, 0)
    return np.column_stack((gamma[0], best.mean(axis=0), best.std(axis=0),
                            mean.mean(axis=0), mean.std(axis=0), strength.mean(axis=0)))


def multi_run(config: GaConfig) -> np.ndarray:
    """Run the configured number of independent runs in lockstep; their series table."""
    return aggregate(_run_stack(config, range(config.runs)))
