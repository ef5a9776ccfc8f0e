"""Post-training compression: pruning, feature importance, selection.

Pruning ranks parameters by one of three rules (higher score = keep):

    inclusion_p    the learned inclusion probability p_i
    second_moment  m_i^2 + sigma_i^2
    snr            |m_i| / sigma_i

and structurally zeroes the weakest fraction: pruned parameters have
mean 0, inclusion 0, a frozen scale, and are excluded from sampling.

Feature importance multiplies inclusion probabilities along every
input-to-output path (weight matrices only, biases excluded) and averages
over paths; the scaled variant min-max rescales those scores to [0, 1].
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .datasets import Dataset, kfold_indices
from .network import NetworkTopology, layer_slices
from .svi import SpikeSlabPrior, VariationalParams
from .training import TrainConfig, TrainReport, predict, train

RANK_RULES = ("inclusion_p", "second_moment", "snr")


@dataclass
class PruneMask:
    """Keep/drop indicator per parameter plus the rule that produced it."""

    keep: np.ndarray
    rule: str
    droprate: float


def rank_score(vp: VariationalParams, rule: str) -> np.ndarray:
    """Per-parameter keep score under the chosen rule (higher = keep)."""
    if rule == "inclusion_p":
        return vp.p.copy()
    if rule == "second_moment":
        sigma = vp.sigma
        return vp.m * vp.m + sigma * sigma
    if rule == "snr":
        return np.abs(vp.m) / vp.sigma
    raise ValueError(f"rule must be one of {RANK_RULES}, got {rule!r}")


def prune(vp: VariationalParams, rule: str, droprate: float):
    """Zero out the lowest-scored fraction of parameters.

    Returns (mask, pruned_params): dropped entries get m = 0, p = 0, a
    frozen rho, and are excluded from sampling.  Ties break by canonical
    index order.
    """
    if not 0.0 <= droprate < 1.0:
        raise ValueError(f"droprate must lie in [0, 1), got {droprate}")
    M = len(vp)
    scores = rank_score(vp, rule)
    n_drop = int(np.floor(droprate * M + 0.5))
    order = np.argsort(scores, kind="stable")
    keep = np.ones(M, dtype=bool)
    keep[order[:n_drop]] = False
    mask = PruneMask(keep=keep, rule=rule, droprate=droprate)

    out = vp.copy()
    out.m = np.where(keep, out.m, 0.0)
    out.p = np.where(keep, out.p, 0.0)
    out.active = keep if vp.active is None else keep & vp.active
    return mask, out


def sparsity(mask: PruneMask) -> float:
    """Fraction of parameters forced to zero: 1 - kept / total."""
    return float(1.0 - mask.keep.sum() / mask.keep.size)


def feature_importance_psi(topology: NetworkTopology,
                           vp: VariationalParams) -> np.ndarray:
    """Averaged product of inclusion probabilities over input->output paths.

    Builds the per-layer influence matrices from the weight inclusion
    probabilities (biases excluded) and chains them; only single-output
    networks are supported.
    """
    if topology.n_outputs != 1:
        raise ValueError(
            "feature importance is defined for single-output networks; "
            f"got {topology.n_outputs} outputs"
        )
    if len(vp) != topology.n_params:
        raise ValueError(
            f"variational state of length {len(vp)} does not match the "
            f"topology's {topology.n_params} parameters"
        )
    chain = None
    for w_sl, shape, _ in layer_slices(topology):
        # influence matrix is (fan_out, fan_in): entry ij is the inclusion
        # probability of the weight into node i from node j below
        P = vp.p[w_sl].reshape(shape).T
        chain = P if chain is None else P @ chain
    hidden_sizes = topology.layer_sizes[1:-1]
    return chain[0] / float(np.prod(hidden_sizes))


def feature_importance_phi(psi) -> np.ndarray:
    """Min-max rescaling of the raw importances to [0, 1]."""
    psi = np.asarray(psi, dtype=float)
    if psi.size < 2:
        raise ValueError("phi needs at least two features")
    lo, hi = psi.min(), psi.max()
    if hi == lo:
        warnings.warn(
            "constant feature importances; phi defined as all zeros",
            stacklevel=2,
        )
        return np.zeros_like(psi)
    return (psi - lo) / (hi - lo)


@dataclass
class ImportanceReport:
    """Raw and rescaled feature importances with the selection decision."""

    psi: np.ndarray
    phi: np.ndarray
    threshold: float
    selected: np.ndarray


def importance_report(topology, vp, keep_quantile: float) -> ImportanceReport:
    """Score features and mark those at or above the quantile threshold.

    The threshold is the ``keep_quantile``-th quantile of phi computed with
    linear interpolation between order statistics; a vanishing quantile
    keeps every feature, and a degenerate threshold that would keep
    nothing falls back to the single best feature.
    """
    if not 0.0 <= keep_quantile < 1.0:
        raise ValueError(
            f"keep_quantile must lie in [0, 1), got {keep_quantile}"
        )
    psi = feature_importance_psi(topology, vp)
    phi = feature_importance_phi(psi)
    threshold = float(np.quantile(phi, keep_quantile))
    selected = phi >= threshold
    if not selected.any():
        warnings.warn(
            "threshold keeps no features; falling back to the single best",
            stacklevel=2,
        )
        selected = np.zeros_like(selected)
        selected[int(np.argmax(phi))] = True
    return ImportanceReport(psi=psi, phi=phi, threshold=threshold,
                            selected=selected)


def selection_accuracy(z_true, z_hat) -> float:
    """Fraction of features whose selection decision matches the truth."""
    z_true = np.asarray(z_true, dtype=bool)
    z_hat = np.asarray(z_hat, dtype=bool)
    if z_true.shape != z_hat.shape:
        raise ValueError(
            f"length mismatch: {z_true.shape} vs {z_hat.shape}"
        )
    return float(np.mean(z_true == z_hat))


@dataclass
class SelectionOutcome:
    """Result of select-then-refit: decisions, refit run, and diagnostics."""

    selected: np.ndarray
    threshold: float
    estimated_active_proportion: float
    refit: TrainReport
    importance: ImportanceReport
    accuracy: Optional[float] = None


def variable_selection(
    topology: NetworkTopology,
    vp: VariationalParams,
    dataset: Dataset,
    keep_quantile: float,
    retrain: TrainConfig,
    prior: SpikeSlabPrior,
) -> SelectionOutcome:
    """Select features from a trained state and refit on the masked inputs.

    Dropped input columns are zeroed (X @ diag(z_hat)) rather than removed,
    so the refit network keeps the same topology.  Accuracy against the
    generator's ground truth is reported when the dataset records it.
    The refit trains with ``diagnostics=False``: only its parameters are
    read, so ``refit.objective`` and ``refit.train_loss`` are ``None``.
    """
    report = importance_report(topology, vp, keep_quantile)
    masked = dataset.with_feature_mask(report.selected)
    refit = train(topology, prior, masked, retrain, diagnostics=False)
    accuracy = None
    if dataset.z is not None:
        accuracy = selection_accuracy(dataset.z, report.selected)
    return SelectionOutcome(
        selected=report.selected,
        threshold=report.threshold,
        estimated_active_proportion=float(report.selected.mean()),
        refit=refit,
        importance=report,
        accuracy=accuracy,
    )


def cv_threshold(
    topology: NetworkTopology,
    prior: SpikeSlabPrior,
    dataset: Dataset,
    train_config: TrainConfig,
    folds: int = 10,
    candidate_proportions=None,
    seed: int = 0,
) -> float:
    """Pick the keep-proportion by cross-validated select-then-refit error.

    For each fold a full model is trained once; each candidate proportion
    then thresholds that model's phi, refits on the masked fold-train
    rows, and scores MSE on the held-out rows.

    The CV curve typically falls steeply while true features are still
    missing and then goes flat, because the refit's own sparsity makes
    surplus features nearly free.  The smallest proportion within one
    standard error of the minimum is returned, which reads off that elbow;
    the raw minimizer tends to over-select by drifting across the flat
    valley.  Only the trained parameters are read, so every fold model
    and refit trains with ``diagnostics=False``.
    """
    if folds < 2:
        raise ValueError(f"folds must be >= 2, got {folds}")
    if candidate_proportions is None:
        candidate_proportions = np.round(np.arange(0.05, 1.0001, 0.05), 2)
    grid = np.sort(np.asarray(candidate_proportions, dtype=float))
    # NaN fails both comparisons, so it is rejected too
    if grid.size == 0 or not np.all((grid > 0.0) & (grid <= 1.0)):
        raise ValueError("candidate proportions must lie in (0, 1]")
    fold_err = np.zeros((folds, grid.size))
    for k, (tr_idx, va_idx) in enumerate(
        kfold_indices(dataset.n, folds, seed)
    ):
        fold_train = dataset.subset(tr_idx)
        fold_val = dataset.subset(va_idx)
        fold_config = replace(train_config,
                              seed=train_config.seed + 1000 * (k + 1))
        full = train(topology, prior, fold_train, fold_config,
                     diagnostics=False)
        # one refit seed per fold, shared across candidates: errors are
        # compared within a fold, so common noise cancels
        refit_config = replace(fold_config, seed=fold_config.seed + 17)
        for g, proportion in enumerate(grid):
            # proportion 1.0 is quantile 0, which keeps every feature
            outcome = variable_selection(topology, full.params, fold_train,
                                         1.0 - proportion, refit_config, prior)
            pred = predict(
                topology, outcome.refit.params,
                fold_val.with_feature_mask(outcome.selected).X,
            )[:, 0]
            fold_err[k, g] = float(np.mean((pred - fold_val.y) ** 2))
    mean_err = fold_err.mean(axis=0)
    best = int(np.argmin(mean_err))
    se_best = float(fold_err[:, best].std(ddof=1) / np.sqrt(folds))
    within = np.flatnonzero(mean_err <= mean_err[best] + se_best)
    return float(grid[int(within[0])])
