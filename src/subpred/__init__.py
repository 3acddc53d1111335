"""Behavioral subspace prediction for discrete-time LTI systems, with
representation-free perturbation-robustness bounds."""

from .bounds import gamma, lipschitz_bound, one_step_bound
from .errors import ConvergenceError, HypothesisViolationError, RankDeficientError
from .experiment import (
    ExperimentConfig,
    SummaryRecord,
    TrialBlock,
    default_model,
    load_config,
    run_experiment,
    run_single,
)
from .grassmann import (
    BehaviorBasis,
    chordal_distance,
    load_basis,
    orthonormal_basis,
    perturb_subspace,
    save_basis,
)
from .hankel import (
    PartitionedMatrix,
    is_persistently_exciting,
    persistently_exciting_input,
    stacked_data_matrix,
)
from .lti import (
    NoiseSpec,
    StateSpaceModel,
    Trajectory,
    gain_bound,
    load_model,
    observability_degree,
    parse_model,
    simulate,
    trajectory_generation_matrix,
)
from .predictor import (
    Prediction,
    PredictionContext,
    one_step,
    predict_from_subspace,
    pseudoinverse,
    rolling_one_step,
    subspace_predict,
)

__version__ = "0.1.0"
