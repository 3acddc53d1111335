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
    PrincipalAngles,
    align_basis,
    chordal_distance,
    load_basis,
    orthonormal_basis,
    perturb_subspace,
    principal_angles,
    save_basis,
)
from .hankel import (
    PartitionedMatrix,
    hankel,
    is_persistently_exciting,
    load_trajectory,
    persistently_exciting_input,
    save_trajectory,
    stacked_data_matrix,
)
from .lti import (
    NoiseSpec,
    StateSpaceModel,
    Trajectory,
    format_model,
    gain_bound,
    load_model,
    observability_degree,
    observability_matrix,
    parse_model,
    simulate,
    toeplitz_matrix,
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
