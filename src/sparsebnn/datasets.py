"""Synthetic regression generators, CSV ingestion, standardization, splits.

The two generator families mirror the benchmark setups used throughout the
test suite: a two-feature linear mix whose ground-truth relevance sweeps
from one input to the other, and a sparse additive model

    y_i = sum_j f(X_ij) * beta_j * Z_j + eps_i,   beta_j = j / alpha,

with f either the identity or  f(x) = e^|x| - 2x + sin(2 pi x)  and
Z_j ~ Bernoulli(pi_active) recorded as ground truth.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np


@dataclass
class Dataset:
    """A design matrix with targets and optional generator ground truth."""

    X: np.ndarray
    y: np.ndarray
    feature_names: list[str]
    z: Optional[np.ndarray] = None      # true feature-inclusion indicators
    beta: Optional[np.ndarray] = None   # true effect sizes

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {self.X.shape}")
        if self.y.shape[0] != self.X.shape[0]:
            raise ValueError(
                f"row counts disagree: X has {self.X.shape[0]}, "
                f"y has {self.y.shape[0]}"
            )
        if len(self.feature_names) != self.X.shape[1]:
            raise ValueError("one feature name per column required")
        if not np.all(np.isfinite(self.X)):
            raise ValueError("X contains non-finite entries")
        if not np.all(np.isfinite(self.y)):
            raise ValueError("y contains non-finite entries")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    def subset(self, idx) -> "Dataset":
        return Dataset(self.X[idx], self.y[idx], list(self.feature_names),
                       z=self.z, beta=self.beta)

    def with_feature_mask(self, keep) -> "Dataset":
        """Zero out dropped input columns (X @ diag(keep))."""
        keep = np.asarray(keep, dtype=bool)
        if keep.shape != (self.n_features,):
            raise ValueError(
                f"feature mask length {keep.shape} != {self.n_features}"
            )
        return Dataset(self.X * keep[None, :], self.y,
                       list(self.feature_names), z=self.z, beta=self.beta)


def gen_two_feature(alpha_mix: float, n: int, seed: int) -> Dataset:
    """y = (1 - alpha) x1 + alpha x2 + eps with iid standard-normal X, eps."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 2))
    eps = rng.standard_normal(n)
    y = (1.0 - alpha_mix) * X[:, 0] + alpha_mix * X[:, 1] + eps
    return Dataset(X, y, ["x1", "x2"])


def relevance_I(y, x2_contrib) -> float:
    """Scale-free relevance of the x2 contribution: 1 - ||y - c||^2 / ||y||^2."""
    y = np.asarray(y, dtype=float)
    c = np.asarray(x2_contrib, dtype=float)
    if y.shape != c.shape:
        raise ValueError(f"length mismatch: {y.shape} vs {c.shape}")
    return float(1.0 - np.sum((y - c) ** 2) / np.sum(y**2))


def nonlinear_link(x):
    """f(x) = e^|x| - 2x + sin(2 pi x)."""
    x = np.asarray(x, dtype=float)
    return np.exp(np.abs(x)) - 2.0 * x + np.sin(2.0 * np.pi * x)


@dataclass(frozen=True)
class SyntheticSpec:
    """Settings for the sparse additive generator (pure function of these)."""

    n: int
    n_features: int
    alpha: float
    pi_active: float
    link: str = "linear"
    seed: int = 0

    def __post_init__(self):
        if self.n < 1 or self.n_features < 1:
            raise ValueError("n and n_features must be positive")
        if self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if not 0.0 <= self.pi_active <= 1.0:
            raise ValueError(
                f"pi_active must lie in [0, 1], got {self.pi_active}"
            )
        if self.link not in ("linear", "nonlinear"):
            raise ValueError(f"link must be linear or nonlinear, got {self.link}")


def gen_sparse_regression(spec: SyntheticSpec) -> Dataset:
    """Draw a dataset from the sparse additive model; Z and beta are recorded."""
    rng = np.random.default_rng(spec.seed)
    X = rng.standard_normal((spec.n, spec.n_features))
    z = rng.random(spec.n_features) < spec.pi_active
    beta = np.arange(1, spec.n_features + 1) / spec.alpha
    f = X if spec.link == "linear" else nonlinear_link(X)
    y = f @ (beta * z) + rng.standard_normal(spec.n)
    names = [f"x{j + 1}" for j in range(spec.n_features)]
    return Dataset(X, y, names, z=z, beta=beta)


class Standardizer:
    """Column-wise location/scale transform fitted on training rows only.

    Zero-variance features keep their values (std clamped to 1, with a
    warning); a zero-variance response is centred only.
    """

    def __init__(self, x_mean, x_std, y_mean, y_std):
        self.x_mean = np.asarray(x_mean, dtype=float)
        self.x_std = np.asarray(x_std, dtype=float)
        self.y_mean = float(y_mean)
        self.y_std = float(y_std)

    @classmethod
    def fit(cls, train: Dataset) -> "Standardizer":
        if train.n == 0:
            raise ValueError("cannot fit a standardizer on an empty split")
        x_mean = train.X.mean(axis=0)
        x_std = train.X.std(axis=0)
        flat = x_std == 0.0
        if flat.any():
            warnings.warn(
                f"{int(flat.sum())} zero-variance feature(s); std clamped to 1",
                stacklevel=2,
            )
            # flat columns pass through untouched (location 0, scale 1)
            x_std = np.where(flat, 1.0, x_std)
            x_mean = np.where(flat, 0.0, x_mean)
        y_mean = float(np.mean(train.y))
        y_std = float(np.std(train.y))
        if y_std == 0.0:
            warnings.warn("zero-variance response; std clamped to 1",
                          stacklevel=2)
            y_std = 1.0
        return cls(x_mean, x_std, y_mean, y_std)

    def transform(self, ds: Dataset) -> Dataset:
        X = (ds.X - self.x_mean) / self.x_std
        y = (ds.y - self.y_mean) / self.y_std
        return Dataset(X, y, list(ds.feature_names), z=ds.z, beta=ds.beta)

    def inverse_y(self, y_std):
        """Map standardized responses/predictions back to original units."""
        return np.asarray(y_std, dtype=float) * self.y_std + self.y_mean


def standardize_fit_apply(train: Dataset, test: Optional[Dataset] = None):
    """Fit on the training split, transform both splits.

    Returns (train_std, test_std, standardizer); test_std is None when no
    test split is given.
    """
    scaler = Standardizer.fit(train)
    train_std = scaler.transform(train)
    test_std = scaler.transform(test) if test is not None else None
    return train_std, test_std, scaler


def split(dataset: Dataset, train_fraction: float = 0.9, seed: int = 0):
    """Seeded shuffle split into disjoint, exhaustive (train, test)."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(
            f"train_fraction must lie in (0, 1), got {train_fraction}"
        )
    if seed < 0:
        raise ValueError(f"split seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(dataset.n)
    n_train = int(round(train_fraction * dataset.n))
    n_train = min(max(n_train, 1), dataset.n - 1)
    return dataset.subset(perm[:n_train]), dataset.subset(perm[n_train:])


def kfold_indices(n: int, folds: int, seed: int = 0):
    """Seeded k-fold partition; yields (train_idx, val_idx) pairs."""
    if folds < 2:
        raise ValueError(f"folds must be >= 2, got {folds}")
    if n < folds:
        raise ValueError(f"dataset of {n} rows is smaller than {folds} folds")
    if seed < 0:
        raise ValueError(f"fold seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    for part in np.array_split(perm, folds):
        yield np.setdiff1d(perm, part, assume_unique=True), part


def load_csv(
    path,
    target,
    expected_shape: Optional[tuple[int, int]] = None,
) -> Dataset:
    """Load a numeric CSV (comma-separated, '.' decimal, first row header).

    ``target`` selects the response column by header name or integer index;
    every other column becomes a feature.  Malformed rows are reported with
    their line numbers; non-numeric and non-finite cells are rejected.
    """
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if isinstance(target, int):
            if not -len(header) <= target < len(header):
                raise ValueError(
                    f"{path}: target column index {target} out of range "
                    f"for {len(header)} columns"
                )
            target_idx = target % len(header)
        else:
            if target not in header:
                raise ValueError(
                    f"{path}: target column {target!r} not found in header "
                    f"{header}"
                )
            target_idx = header.index(target)
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue  # ignore blank lines
            if len(row) != len(header):
                raise ValueError(
                    f"{path}:{lineno}: expected {len(header)} cells, "
                    f"got {len(row)}"
                )
            values = []
            for cell in row:
                try:
                    values.append(float(cell))
                except ValueError:
                    raise ValueError(
                        f"{path}:{lineno}: non-numeric cell {cell!r}"
                    ) from None
                if not math.isfinite(values[-1]):
                    raise ValueError(
                        f"{path}:{lineno}: non-finite cell {cell!r}")
            rows.append(values)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    data = np.asarray(rows, dtype=float)
    feature_idx = [j for j in range(len(header)) if j != target_idx]
    ds = Dataset(data[:, feature_idx], data[:, target_idx],
                 [header[j] for j in feature_idx])
    if expected_shape is not None:
        if (ds.n, ds.n_features) != tuple(expected_shape):
            raise ValueError(
                f"{path}: expected {expected_shape[0]}x{expected_shape[1]}, "
                f"got {ds.n}x{ds.n_features}"
            )
    return ds


def load_manifest(path):
    """Read a benchmark manifest: JSON list of dataset entries.

    Each entry carries name, path (relative to the manifest), target column,
    and optional expected n/p used to validate ingestion.  A manifest with
    no entries, or a malformed entry, raises ValueError naming the manifest
    and the entry index.
    """
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    entries = doc.get("datasets") if isinstance(doc, dict) else doc
    if not isinstance(entries, list) or not entries:
        raise ValueError(f"{path}: lists no datasets")
    out = []
    for i, e in enumerate(entries):
        try:
            expected = ((int(e["n"]), int(e["p"])) if "n" in e and "p" in e
                        else None)
            out.append({"name": e["name"], "target": e["target"],
                        "path": (path.parent / e["path"]).resolve(),
                        "expected_shape": expected})
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: dataset entry {i}: {exc!r}") from None
    return out
