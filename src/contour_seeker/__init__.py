"""Contour estimation for computer experiments with mixed inputs.

Fits an additive mixed-input Gaussian process surrogate and sequentially
picks new simulator runs with region-based cooperative selection or one
of its competitors; includes a replicated benchmark harness and a
Monte-Carlo verifier for the confidence-band guarantees.
"""

from .acquisition import (AcquisitionContext, RegionPartition, SelectionReport, beta_n, partition, select_arsd,
                          select_global, select_rcc)
from .bench import (BenchConfig, BenchResult, CoverageResult, ReferenceContour, VerifyConfig, coverage_check,
                    m_c0, reference_contour, replicate_benchmark)
from .design_space import CandidateSet, DesignSpace, MixedPoint, candidate_set, initial_design, make_space
from .engine import (CampaignConfig, CampaignTrace, Strategy, derive_seed, run_adaptive,
                     run_one_shot, suggest_next)
from .errors import (CampaignError, ContourSeekerError, EvaluationError, FitFailureError,
                     IllConditionedModelError, IngestionError, MetricUndefinedError, ValidationError)
from .ezgp import (Dataset, EzGpParams, FitConfig, FittedModel, condition, fit, neg_log_likelihood,
                   predict_batch)
from .simulators import (FunctionSimulator, Simulator, TabularSimulator, builtin_simulator,
                         get_transform, tabular_simulator)
from .traceio import load_model, save_model, save_trace

__version__ = "0.1.0"
