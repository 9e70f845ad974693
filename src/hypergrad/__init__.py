"""Exact hypergradients of iterative training dynamics.

Forward-mode, reverse-mode, and real-time computation of the gradient of
a validation error with respect to the hyperparameters of an unrolled
training run, plus projected outer optimization and the desk-scale
experiments built on top.
"""

from .datasets import (Dataset, MinibatchSchedule, SeedStack,
                       full_batch_schedule)
from .driver import (LearningRateDecayedToZero, MaxHyperIters, batch_ho_loop,
                     stream_ho_loop)
from .dynamics import GradientDescent, Momentum, materialize_step_jacobians
from .engines import (HypergradResult, Tape, evaluate_response, forward_hg,
                      record_trajectory, reverse_hg, rtho_stream, train)
from .errors import (ConfigError, DimensionMismatchError, HypergradError,
                     InfeasibleHypersError, IngestError, NonFiniteError,
                     TapeReplayError)
from .layouts import VectorLayout
from .objectives import (DatasetValidation, MultitaskLinear, QuadraticToy,
                         QuadraticValidation, WeightedSoftmax)
from .oracle import (FDPolicy, chain_eval, fd_hypergrad, materialized_chain,
                     quadratic_gd_response, zero_lr_first_emission_check)
from .outer import (AdamState, Box, BoxL1, Constraints, Exponential, MTLCone,
                    NonNeg, ProjectedAdam, SearchSpace, Uniform, UnitInterval,
                    adam_update, random_search)

__version__ = "0.1.0"

__all__ = [
    "AdamState", "Box", "BoxL1", "ConfigError", "Constraints", "Dataset",
    "DatasetValidation", "DimensionMismatchError", "Exponential", "FDPolicy",
    "GradientDescent", "HypergradError", "HypergradResult",
    "InfeasibleHypersError", "IngestError",
    "LearningRateDecayedToZero", "MTLCone", "MaxHyperIters",
    "MinibatchSchedule", "Momentum", "MultitaskLinear", "NonFiniteError",
    "NonNeg", "ProjectedAdam", "QuadraticToy", "QuadraticValidation",
    "SearchSpace", "SeedStack", "Tape", "TapeReplayError", "Uniform",
    "UnitInterval", "VectorLayout", "WeightedSoftmax",
    "adam_update", "batch_ho_loop", "chain_eval", "evaluate_response",
    "fd_hypergrad", "forward_hg", "full_batch_schedule",
    "materialize_step_jacobians", "materialized_chain",
    "quadratic_gd_response", "random_search", "record_trajectory",
    "reverse_hg", "rtho_stream", "stream_ho_loop", "train",
    "zero_lr_first_emission_check",
]
