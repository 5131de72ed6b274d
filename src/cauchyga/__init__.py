"""Boltzmann selection under a Cauchy annealing schedule.

Library layers, bottom up:

  - :mod:`cauchyga.nfd` finite-support fitness distributions and their
    L1 metric
  - :mod:`cauchyga.selection` Boltzmann / proportionate operators and
    selection strength
  - :mod:`cauchyga.annealing` constant and Cauchy inverse-temperature
    schedules, g0 calibration
  - :mod:`cauchyga.theory` numerical checks of the operator bounds that
    justify the schedule
  - :mod:`cauchyga.benchmarks` rastrigin / griewangk / ackley / schwefel
    plus the raw-to-fitness bridge
  - :mod:`cauchyga.engine` the binary-encoded generational GA
  - :mod:`cauchyga.verify` randomized verification suites
  - :mod:`cauchyga.cli` command-line front end
"""

from .annealing import (
    AnnealingSchedule,
    calibrate_g0,
    cauchy_schedule,
    constant_schedule,
    gamma_at,
    tail_sum,
)
from .benchmarks import (
    FUNCTION_NAMES,
    ObjectiveSpec,
    evaluate_raw_batch,
    make_objective,
    to_fitness_batch,
)
from .engine import (
    GENERATOR_NAME,
    GaConfig,
    GenerationRecord,
    Population,
    aggregate,
    decode_batch,
    multi_run,
    mutate,
    run,
    select_parents,
    selection_probabilities,
    step_generation,
    uniform_crossover,
)
from .nfd import NFD, distance
from .selection import (
    boltzmann_apply,
    proportionate_apply,
    proportionate_strength_closed_form,
    selection_strength,
)
from .theory import (
    BoundCheck,
    cauchy_tail_profile,
    cumulative_operator,
    lemma1_check,
    lemma2_bound_check,
    tail_bound,
)
from .verify import Tolerances, VerifyResult, random_nfd, run_verify

__version__ = "0.1.0"
