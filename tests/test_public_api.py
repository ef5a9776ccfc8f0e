"""The package's public names, the parameters of its step, prediction,
backward, penalty, noise-draw and CSV-loading functions, the fields of
its result types and ``Dataset``, what a noise draw returns, where the
command line's training defaults come from, and the private names its
modules import from each other, listed exactly.

Adding or removing a public name, one of those parameters or fields, or
a private name imported across modules is a deliberate change: it edits
a list here, so it shows in the diff.
"""

import ast
import dataclasses
import inspect
import operator
from pathlib import Path

import numpy as np
import pytest

import sparsebnn
from sparsebnn.cli import DEFAULTS, _TRAIN_FIELDS

PUBLIC = [
    "Dataset", "EstimatorReport", "ForwardTrace", "ImportanceReport",
    "NetworkTopology", "NoiseDraw", "NumericalAbort", "PruneMask",
    "SelectionOutcome", "ShapeMismatch", "SpikeSlabPrior", "Standardizer",
    "SyntheticSpec", "TrainConfig", "TrainReport", "VariationalParams",
    "backward", "bbb_grad_m", "bbb_grad_sigma2",
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
    ("backward", ["trace", "loss_grad_at_outputs", "work"]),
    ("penalty_R", ["m", "sigma", "p", "prior"]),
    ("penalty_total", ["vp", "prior", "sigma", "work"]),
    ("NoiseDraw.draw", ["size", "seed", "index", "out"]),
])
def test_step_and_prediction_parameters_are_pinned(name, params):
    signature = inspect.signature(operator.attrgetter(name)(sparsebnn))
    assert list(signature.parameters) == params


@pytest.mark.parametrize("name, fields", [
    ("TrainReport", ["objective", "train_loss", "wall_ms", "params"]),
    ("PruneMask", ["keep"]),
    ("SelectionOutcome", ["selected", "refit", "importance", "accuracy"]),
    ("EstimatorReport", ["mean", "std_error", "draws", "reference",
                         "extras"]),
    ("ImportanceReport", ["psi", "phi", "threshold", "selected"]),
])
def test_result_fields_are_pinned(name, fields):
    result_type = getattr(sparsebnn, name)
    assert [f.name for f in dataclasses.fields(result_type)] == fields


def test_dataset_fields_and_load_csv_parameters_are_pinned():
    assert [f.name for f in dataclasses.fields(sparsebnn.Dataset)] == [
        "X", "y", "feature_names", "z", "beta"]
    assert list(inspect.signature(sparsebnn.load_csv).parameters) == [
        "path", "target", "expected_shape"]


@pytest.mark.parametrize("size, seed, index", [
    (1, 0, 0), (651, 3, 17), (8, 2**40 + 7, 0)])
def test_noise_draw_is_the_default_rng_array_of_seed_and_index(size, seed,
                                                               index):
    want = np.random.default_rng([seed, index]).standard_normal(size)
    got = sparsebnn.NoiseDraw.draw(size, seed, index)
    assert type(got) is np.ndarray and got.tobytes() == want.tobytes()
    out = np.empty(size)
    assert sparsebnn.NoiseDraw.draw(size, seed, index, out=out) is out
    assert out.tobytes() == want.tobytes()


def test_cli_training_defaults_are_the_train_config_defaults():
    config = sparsebnn.TrainConfig()
    # every TrainConfig field is set from exactly one option
    assert sorted(_TRAIN_FIELDS.values()) == sorted(
        f.name for f in dataclasses.fields(config))
    for key, field in _TRAIN_FIELDS.items():
        value = getattr(config, field)
        assert (type(DEFAULTS[key]), DEFAULTS[key]) == (type(value), value)


# (importing module, defining module, name) of each private name that one
# module of the package imports from another
CROSS_MODULE_PRIVATE = {
    ("checkpoint", "network", "_check_params"),
    ("compression", "checkpoint", "_check_bounds"),
    ("compression", "network", "_check_params"),
    ("training", "network", "_check_inputs"),
    ("training", "network", "_check_params"),
    ("training", "network", "_forward"),
    ("training", "network", "_layers"),
    ("training", "network", "_nll_and_grad"),
    ("training", "network", "_nll_constant"),
    ("training", "network", "_targets"),
    ("training", "network", "_trace"),
    ("training", "svi", "_noise"),
}


def test_private_names_imported_across_modules_are_pinned():
    found = set()
    for path in Path(sparsebnn.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                found.update((path.stem, node.module, alias.name)
                             for alias in node.names
                             if alias.name.startswith("_"))
    assert found == CROSS_MODULE_PRIVATE
