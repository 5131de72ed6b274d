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

Import the API from these submodules; the package exports only __version__.
"""

__version__ = "0.1.0"
