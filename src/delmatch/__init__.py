"""Database matching under random column deletions.

Generation of random databases and the columnwise deletion channel,
achievable-rate formulas, typicality-based row matching with partial
deletion side information, and exact posterior deletion detection from
batches of correctly-matched seed rows.

The package namespace holds the names that the demos, the README quick
start and perfbench import; everything else is imported from its module
(delmatch.model, .infotheory, .matcher, .detector, .harness).
"""

__version__ = "0.1.0"

import os

# delmatch makes no BLAS call (its one np.dot is on integer keys), so numpy is
# loaded with a one-thread OpenBLAS, whose default worker would only spin.
# OpenBLAS reads the variable once, at load, so it is removed at once: child
# processes never see it, and a value the user set is kept.
if "OPENBLAS_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    import numpy
    del os.environ["OPENBLAS_NUM_THREADS"]

from .model import (Distribution, SeedBatch, sample_database, apply_deletion_channel,
                    extract_seed_batch)
from .infotheory import achievable_rate, regime_ok, min_seed_batch_size
from .matcher import (MatchStatus, MatchOutcome, MatcherConfig, default_epsilon,
                      match_all, match_counts, count_mismatches)
from .detector import (Verdict, count_embeddings, posterior_deletions, detect_f, detect_g,
                       certain_verdict_masks, detection_trial, verdicts_to_csv)
from .harness import run_simulate_match, run_simulate_detect, run_pipeline
