"""The package's public names, and the parameters of its step and
prediction functions, listed exactly.

Adding or removing a public name or one of those parameters is a
deliberate change: it edits a list here, so it shows in the diff.
"""

import inspect

import pytest

import sparsebnn

PUBLIC = [
    "Dataset", "EstimatorReport", "ForwardTrace", "ImportanceReport",
    "NetworkTopology", "NoiseDraw", "NumericalAbort", "PruneMask",
    "SelectionOutcome", "ShapeMismatch", "SpikeSlabPrior", "StaleTrace",
    "Standardizer", "SyntheticSpec", "TrainConfig", "TrainReport",
    "VariationalParams", "backward", "bbb_grad_m", "bbb_grad_sigma2",
    "checkpoint", "compression", "cv_threshold", "datasets",
    "feature_importance_phi", "feature_importance_psi", "forward",
    "gen_sparse_regression", "gen_two_feature", "grad_penalty", "gradcheck",
    "importance_report", "init_params", "load_checkpoint", "load_csv",
    "load_manifest", "minibatch_weights", "network", "nll", "nll_grad",
    "nonlinear_link", "objective_estimate", "optimal_p", "penalty_R",
    "penalty_total", "predict", "prune", "rank_score", "relevance_I",
    "sample_weights", "save_checkpoint", "selection_accuracy",
    "sigma_of_rho", "sparsity", "split", "standardize_fit_apply",
    "step_gradients", "svi", "train", "training", "variable_selection",
    "variance_comparison",
]


def test_public_names_are_exactly_the_pinned_list():
    assert sorted(sparsebnn.__all__) == PUBLIC


@pytest.mark.parametrize("name, params", [
    ("predict", ["topology", "vp", "x"]),
    ("objective_estimate", ["topology", "vp", "prior", "x", "y", "noise",
                            "kl_weight", "noise_variance"]),
    ("step_gradients", ["topology", "vp", "prior", "x", "y", "eps",
                        "kl_weight", "noise_variance"]),
    ("sample_weights", ["vp", "eps", "sigma", "out"]),
])
def test_step_and_prediction_parameters_are_pinned(name, params):
    signature = inspect.signature(getattr(sparsebnn, name))
    assert list(signature.parameters) == params
