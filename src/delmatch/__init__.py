"""Database matching under random column deletions.

Generation of random databases and the columnwise deletion channel,
achievable-rate formulas, typicality-based row matching with partial
deletion side information, and exact posterior deletion detection from
batches of correctly-matched seed rows.
"""

__version__ = "0.1.0"

from .model import (Distribution, Database, DeletionPattern, DetectionPattern,
                    Labeling, DeletionExperiment, SeedBatch, derive_seed,
                    sample_database, apply_deletion_channel, extract_seed_batch,
                    database_to_csv, database_from_csv, save_experiment,
                    load_experiment)
from .infotheory import (entropy, binary_entropy, RateParams, achievable_rate,
                         is_typical, supersequence_count_exact,
                         supersequence_count_bound, min_seed_batch_size,
                         detection_probability_bound)
from .matcher import (MatchStatus, MatchOutcome, MatcherConfig, default_epsilon,
                      is_subsequence, match_all, match_counts, count_mismatches)
from .detector import (Verdict, InconsistentBatchError, GuardExceededError,
                       count_embeddings, posterior_deletions,
                       posterior_deletions_naive, detect_f, detect_g,
                       brute_force_embeddings, brute_force_posterior,
                       certain_verdict_masks, detection_trial, detection_trials,
                       verdicts_to_csv)
from .harness import (ExperimentConfig, ConfigError, run_rates,
                      run_simulate_match, run_simulate_detect, run_pipeline,
                      run_oracle_check, parse_distribution, parse_float_grid,
                      parse_int_list, parse_config_file, wilson_interval)
