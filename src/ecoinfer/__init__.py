"""Reconstruction of individual-level tabular data from aggregate statistics,
candidate-ensemble random forests, and the evaluation harness around them."""

from .tabular import (BINARY, CONTINUOUS, Dataset, FeatureSpec, Schema,
                      undersample)
from .aggregate import (AggregateSpec, BinaryStat, ContingencyTable,
                        ContinuousStat, UndefinedOddsRatioError,
                        contingency_table, odds_ratio, summarize)
from .reconstruct import (CandidateSet, CellSolution, InfeasibleSpecError,
                          PartialCandidateSetError, generate_candidates,
                          reconstruct, solve_cells)
from .similarity import (EXACT_ASSIGNMENT, GREEDY_RANK, IDENTITY, RowMatching,
                         exact_match_fraction, match_rows, similarity)
from .synth import (GroundTruthConfig, atc_schema, builtin_configs,
                    generate_ground_truth)
from .forest import (ForestParams, Metrics, RandomForest, ensemble_predict,
                     evaluate, train_forest)
from .pipeline import (EvalReport, ExperimentPlan, run_controlled_sweep,
                       run_experiment, run_undersampling_sweep)

__version__ = "0.1.0"
