"""Spike-and-slab variational Bayesian neural networks.

Train dense networks under a two-component Gaussian mixture prior with a
closed-form inclusion-probability update, then compress them by weight
pruning and feature selection.
"""

from .checkpoint import load_checkpoint, save_checkpoint
from .compression import (
    ImportanceReport,
    PruneMask,
    SelectionOutcome,
    cv_threshold,
    feature_importance_phi,
    feature_importance_psi,
    importance_report,
    prune,
    rank_score,
    selection_accuracy,
    sparsity,
    variable_selection,
)
from .datasets import (
    Dataset,
    Standardizer,
    SyntheticSpec,
    gen_sparse_regression,
    gen_two_feature,
    load_csv,
    load_manifest,
    nonlinear_link,
    relevance_I,
    split,
    standardize_fit_apply,
)
from .gradcheck import (
    EstimatorReport,
    bbb_grad_m,
    bbb_grad_sigma2,
    variance_comparison,
)
from .network import (
    ForwardTrace,
    NetworkTopology,
    ShapeMismatch,
    StaleTrace,
    backward,
    forward,
    nll,
    nll_grad,
)
from .svi import (
    NoiseDraw,
    SpikeSlabPrior,
    VariationalParams,
    grad_penalty,
    objective_estimate,
    optimal_p,
    penalty_R,
    penalty_total,
    sample_weights,
    sigma_of_rho,
    step_gradients,
)
from .training import (
    NumericalAbort,
    TrainConfig,
    TrainReport,
    init_params,
    minibatch_weights,
    predict,
    train,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
