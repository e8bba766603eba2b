"""Adversarial planar instances for distance-power seeding, with exact and
Monte Carlo validation of coverage and cost bounds."""

from .bounds import (biased_tail_bound, early_miss_bound, high_coverage_bound,
                     is_vacuous, uniform_tail_bound)
from .core import (BOTTOM, TOP, Instance, WeightedLocation, cost, coverage,
                   dist_pow, write_instance_csv)
from .errors import CapacityError, ConfigError, DegenerateInstanceError
from .extfloat import EXT_ZERO, ExtParseError, ExtRangeError, ExtScalar
from .harness import (ExperimentConfig, SummaryStats, TrialRecord, TrialTable,
                      read_trials_csv, report, run_experiment, summarize,
                      wilson_interval, write_trials_csv)
from .instances import (OptimalCosts, brute_force_opt, gen_kmeans_bad,
                        gen_kmedian_bad, reference_costs)
from .seeding import (CoverageDistribution, SeedingTrace, TrialArrays,
                      early_miss_event, exact_distribution, run_trials, seed)
from .urn import (DistinctColorDistribution, biased_distinct_colors_dp,
                  biased_distinct_colors_mc, distinct_colors_exact,
                  distinct_colors_mc, tail_probability)

__version__ = "0.1.0"
