"""Command-line surface for reproducible train/compress/select/benchmark runs.

Subcommands: train, prune, importance, select, benchmark, gradcheck.
Option precedence is CLI > config file > built-in defaults; the config
file is flat ``key = value`` text using the long option names with
underscores.  ``train`` leaves three artifacts in the output directory:

    model.ckpt     binary checkpoint (see sparsebnn.checkpoint)
    metrics.jsonl  one JSON object per epoch
    run.json       the fully resolved run configuration

The other subcommands locate ``run.json`` next to a checkpoint to rebuild
the exact dataset, split, and standardization of the original run, so a
saved configuration re-executes to identical outputs.

Exit codes: 0 success, 2 any bad file, path or option value (``main`` maps
every OSError and ValueError to it), 3 numerical abort.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .compression import (
    cv_threshold,
    feature_importance_phi,
    feature_importance_psi,
    prune,
    sparsity,
    variable_selection,
)
from .datasets import (
    Dataset,
    SyntheticSpec,
    gen_sparse_regression,
    gen_two_feature,
    load_csv,
    load_manifest,
    split,
    standardize_fit_apply,
)
from .gradcheck import variance_comparison
from .network import NetworkTopology
from .svi import SpikeSlabPrior
from .training import NumericalAbort, TrainConfig, predict, train

SCHEMA_VERSION = 1

RULE_ALIASES = {
    "p": "inclusion_p",
    "m2": "second_moment",
    "snr": "snr",
    "inclusion_p": "inclusion_p",
    "second_moment": "second_moment",
}

DEFAULTS = {
    "hidden": "20,10",
    "activation": "relu",
    "head": "identity",
    "epochs": 100,
    "batch": 128,
    "lr": 0.01,
    "optimizer": "adam",
    "mc_samples": 1,
    "kl_schedule": "uniform",
    "seed": 0,
    "prior_pi": 0.5,
    "log_tau1": 0.0,
    "log_tau0": -2.302585092994046,  # tau0 = 0.1
    "noise_variance": 1.0,
    "train_frac": 0.9,
    "split_seed": None,  # falls back to seed
    "standardize": True,
}


class ConfigError(ValueError):
    pass


def _parse_kv(text: str) -> dict:
    out = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ConfigError(f"expected key=value, got {part!r}")
        k, v = part.split("=", 1)
        out[k.strip()] = v.strip()
    return out


def build_dataset(spec: str) -> Dataset:
    """Materialize a dataset from a data spec string.

    Forms:
        two_feature:alpha=0.5,n=2000,seed=0
        sparse:n=2000,d=100,alpha=2,pi=0.2,link=nonlinear,seed=0
        csv:path=FILE,target=COLUMN
    """
    if ":" not in spec:
        raise ConfigError(f"data spec needs a kind prefix, got {spec!r}")
    kind, rest = spec.split(":", 1)
    kv = _parse_kv(rest)
    if kind == "two_feature":
        return gen_two_feature(
            float(kv.get("alpha", 0.5)), int(kv.get("n", 2000)),
            int(kv.get("seed", 0)),
        )
    if kind == "sparse":
        return gen_sparse_regression(
            SyntheticSpec(
                n=int(kv.get("n", 2000)),
                n_features=int(kv.get("d", 100)),
                alpha=float(kv.get("alpha", 2.0)),
                pi_active=float(kv.get("pi", 0.2)),
                link=kv.get("link", "linear"),
                seed=int(kv.get("seed", 0)),
            )
        )
    if kind == "csv":
        if "path" not in kv or "target" not in kv:
            raise ConfigError("csv spec needs path= and target=")
        target = kv["target"]
        if target.lstrip("-").isdigit():
            target = int(target)
        return load_csv(kv["path"], target)
    raise ConfigError(f"unknown data kind {kind!r}")


def _read_config_file(path) -> dict:
    out = {}
    for lineno, line in enumerate(
        Path(path).read_text(encoding="utf-8").splitlines(), start=1
    ):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        k, v = line.split("=", 1)
        out[k.strip()] = v.strip()
    return out


def _coerce(key, value):
    if key in ("seed", "split_seed", "epochs", "batch", "mc_samples"):
        return int(value)
    if key == "standardize":
        if isinstance(value, bool):
            return value
        return str(value).lower() in ("1", "true", "yes")
    if isinstance(DEFAULTS.get(key), float):
        return float(value)
    return str(value)


def resolve_options(args, keys) -> dict:
    """Merge defaults, config file, and explicit CLI values for ``keys``."""
    merged = {k: DEFAULTS[k] for k in keys}
    config_path = getattr(args, "config", None)
    if config_path:
        file_conf = _read_config_file(config_path)
        for k, v in file_conf.items():
            if k in ("data", "out", "rule", "droprates", "quantile"):
                if getattr(args, k, None) is None:
                    setattr(args, k, v)
                continue
            if k not in merged:
                raise ConfigError(f"unknown config key {k!r}")
            merged[k] = _coerce(k, v)
    for k in keys:
        cli_val = getattr(args, k, None)
        if cli_val is not None:
            merged[k] = _coerce(k, cli_val)
    if merged.get("split_seed") is None:
        merged["split_seed"] = merged.get("seed", 0)
    return merged


def _prior_from(opts) -> SpikeSlabPrior:
    return SpikeSlabPrior(
        pi=opts["prior_pi"],
        tau1=float(np.exp(opts["log_tau1"])),
        tau0=float(np.exp(opts["log_tau0"])),
    )


def _topology_from(opts, n_features) -> NetworkTopology:
    hidden = tuple(int(h) for h in str(opts["hidden"]).split(",") if h.strip())
    return NetworkTopology(
        (n_features, *hidden, 1 if opts["head"] == "identity" else
         int(opts.get("n_classes", 2))),
        hidden_activation=opts["activation"],
        output_head=opts["head"],
    )


def _train_config_from(opts) -> TrainConfig:
    return TrainConfig(
        epochs=opts["epochs"],
        batch_size=opts["batch"],
        learning_rate=opts["lr"],
        optimizer=opts["optimizer"],
        mc_samples=opts["mc_samples"],
        kl_schedule=opts["kl_schedule"],
        seed=opts["seed"],
        noise_variance=opts["noise_variance"],
    )


def _prepare_run(opts, data_spec):
    """Dataset -> split -> (optional) standardization, as one bundle."""
    full = build_dataset(data_spec)
    train_ds, test_ds = split(
        full, opts["train_frac"], seed=opts["split_seed"]
    )
    scaler = None
    if opts["standardize"]:
        train_ds, test_ds, scaler = standardize_fit_apply(train_ds, test_ds)
    return full, train_ds, test_ds, scaler


def _test_metric(topology, vp, test_ds, scaler):
    """(column_name, value): RMSE in original units, or error rate."""
    outputs = predict(topology, vp, test_ds.X)
    if topology.output_head == "identity":
        pred = outputs[:, 0]
        truth = np.asarray(test_ds.y, dtype=float)
        if scaler is not None:
            pred = scaler.inverse_y(pred)
            truth = scaler.inverse_y(truth)
        return "test_rmse", float(np.sqrt(np.mean((pred - truth) ** 2)))
    return "test_error", float(np.mean(outputs.argmax(axis=1) != test_ds.y))


def cmd_train(args) -> int:
    opts = resolve_options(args, DEFAULTS.keys())
    if args.data is None:
        raise ConfigError("train requires --data")
    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    _, train_ds, _, _ = _prepare_run(opts, args.data)
    topology = _topology_from(opts, train_ds.n_features)
    prior = _prior_from(opts)
    config = _train_config_from(opts)
    report = train(topology, prior, train_ds, config)

    save_checkpoint(out_dir / "model.ckpt", topology, prior, report.params)
    with open(out_dir / "metrics.jsonl", "w", encoding="utf-8") as fh:
        for epoch in range(config.epochs):
            fh.write(json.dumps({
                "schema_version": SCHEMA_VERSION,
                "epoch": epoch,
                "objective": report.objective[epoch],
                "train_loss": report.train_loss[epoch],
                "wall_ms": report.wall_ms[epoch],
            }) + "\n")
    run = {"schema_version": SCHEMA_VERSION, "command": "train",
           "data": args.data, **opts}
    with open(out_dir / "run.json", "w", encoding="utf-8") as fh:
        json.dump(run, fh, indent=2, sort_keys=True)
    print(f"trained {config.epochs} epochs; artifacts in {out_dir}")
    return 0


def _load_run(checkpoint_path):
    """The run.json next to a checkpoint, with every option key checked."""
    run_path = Path(checkpoint_path).parent / "run.json"
    try:
        run = json.loads(run_path.read_text(encoding="utf-8"))
        return {**run, **{k: _coerce(k, run[k]) for k in ("data", *DEFAULTS)}}
    except KeyError as exc:
        raise ConfigError(f"{run_path}: lacks key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{run_path}: {exc}") from None


def _reload(args):
    topology, prior, vp = load_checkpoint(args.checkpoint)
    run = _load_run(args.checkpoint)
    data_spec = args.data or run["data"]
    _, train_ds, test_ds, scaler = _prepare_run(run, data_spec)
    if train_ds.n_features != topology.n_inputs:
        raise ConfigError(f"data {data_spec!r} has {train_ds.n_features} "
                          f"features; {args.checkpoint} takes "
                          f"{topology.n_inputs}")
    return topology, prior, vp, run, train_ds, test_ds, scaler


def _parse_droprates(text) -> list[float]:
    """Percentages (values > 1) or fractions, returned as sorted fractions."""
    rates = []
    for tok in str(text).split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            val = float(tok)
        except ValueError as exc:
            raise ConfigError(f"droprate {tok!r} is not a number") from exc
        rates.append(val / 100.0 if val > 1.0 else val)
    if not rates:
        raise ConfigError("droprates must name at least one rate")
    if any(not 0.0 <= r < 1.0 for r in rates):
        raise ConfigError(f"droprates must map into [0, 1): {text!r}")
    return sorted(rates)


def cmd_prune(args) -> int:
    rule = RULE_ALIASES.get(args.rule)
    if rule is None:
        raise ConfigError(
            f"unknown rule {args.rule!r}; choose from {sorted(RULE_ALIASES)}"
        )
    topology, _, vp, _, _, test_ds, scaler = _reload(args)
    rates = _parse_droprates(args.droprates)
    out_path = Path(args.out or Path(args.checkpoint).parent / "prune.csv")
    rows = []
    for rate in rates:
        mask, pruned = prune(vp, rule, rate)
        col, value = _test_metric(topology, pruned, test_ds, scaler)
        rows.append({"droprate": rate, "sparsity": sparsity(mask), col: value})
    metric_col = [c for c in rows[0] if c.startswith("test_")][0]
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["droprate", "sparsity", metric_col, "schema_version"])
        for row in rows:
            writer.writerow([row["droprate"], row["sparsity"],
                             row[metric_col], SCHEMA_VERSION])
    print(f"wrote {out_path}")
    return 0


def cmd_importance(args) -> int:
    topology, _, vp = load_checkpoint(args.checkpoint)
    psi = feature_importance_psi(topology, vp)
    phi = feature_importance_phi(psi)
    out_path = Path(args.out or Path(args.checkpoint).parent / "importance.csv")
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["feature", "psi", "phi", "schema_version"])
        for j in range(psi.size):
            writer.writerow([j, repr(float(psi[j])), repr(float(phi[j])),
                             SCHEMA_VERSION])
    print(f"wrote {out_path}")
    return 0


def cmd_select(args) -> int:
    topology, prior, vp, run, train_ds, test_ds, scaler = _reload(args)
    retrain = _train_config_from({**run, "seed": run["seed"] + 1})
    report = {"schema_version": SCHEMA_VERSION}
    if args.cv:
        proportion = cv_threshold(
            topology, prior, train_ds, retrain,
            folds=args.folds,
            candidate_proportions=(
                [float(t) for t in args.grid.split(",")]
                if args.grid else None
            ),
            seed=run["seed"],
        )
        # a full-keep proportion (quantile 0) means no thresholding
        quantile = 1.0 - proportion
        report["cv_keep_proportion"] = proportion
    else:
        quantile = args.quantile
    outcome = variable_selection(
        topology, vp, train_ds, quantile, retrain, prior
    )
    _, unrestricted_mse = _test_metric(topology, vp, test_ds, scaler)
    masked_test = test_ds.with_feature_mask(outcome.selected)
    _, refit_mse = _test_metric(topology, outcome.refit.params,
                                masked_test, scaler)
    report.update({
        "quantile": quantile,
        "threshold_phi": outcome.threshold,
        "n_selected": int(outcome.selected.sum()),
        "estimated_active_proportion": outcome.estimated_active_proportion,
        "selected": [int(v) for v in outcome.selected],
        "refit_test_rmse": refit_mse,
        "unrestricted_test_rmse": unrestricted_mse,
    })
    if outcome.accuracy is not None:
        report["selection_accuracy"] = outcome.accuracy
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def cmd_benchmark(args) -> int:
    opts = resolve_options(args, DEFAULTS.keys())
    entries = load_manifest(args.manifest)
    rates = _parse_droprates(args.droprates)
    rule = RULE_ALIASES.get(args.rule)
    if rule is None:
        raise ConfigError(f"unknown rule {args.rule!r}")
    repeats = int(args.repeats)
    if repeats < 1:
        raise ConfigError("--repeats must be >= 1")
    prior = _prior_from(opts)
    rows = []
    for entry in entries:
        full = load_csv(entry["path"], entry["target"],
                        expected_shape=entry["expected_shape"],
                        name=entry["name"])
        topology = _topology_from(opts, full.n_features)
        per_rate = {rate: [] for rate in rates}
        for r in range(repeats):
            seed = opts["seed"] + r
            train_ds, test_ds = split(full, opts["train_frac"], seed=seed)
            train_std, test_std, scaler = standardize_fit_apply(
                train_ds, test_ds
            )
            config = _train_config_from({**opts, "seed": seed})
            report = train(topology, prior, train_std, config)
            for rate in rates:
                mask, pruned = prune(report.params, rule, rate)
                _, rmse = _test_metric(topology, pruned, test_std, scaler)
                per_rate[rate].append((rmse, sparsity(mask)))
        for rate in rates:
            vals = np.array([v for v, _ in per_rate[rate]])
            se = (vals.std(ddof=1) / np.sqrt(repeats)) if repeats > 1 else 0.0
            rows.append({
                "dataset": entry["name"],
                "droprate": rate,
                "sparsity": per_rate[rate][0][1],
                "rmse_mean": float(vals.mean()),
                "rmse_se": float(se),
                "repeats": repeats,
                "seed": opts["seed"],
                "schema_version": SCHEMA_VERSION,
            })
    out_path = Path(args.out or "benchmark.csv")
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {out_path}")
    return 0


def cmd_gradcheck(args) -> int:
    if args.settings:
        settings = []
        for block in args.settings.split(";"):
            vals = [float(t) for t in block.split(",")]
            if len(vals) != 5:
                raise ConfigError(
                    "each gradcheck setting needs m,sigma,pi,tau1,tau0"
                )
            settings.append(tuple(vals))
    else:
        settings = [
            (m, s, 0.5, 1.0, 0.1)
            for m in (-1.0, 0.0, 0.5, 2.0)
            for s in (0.3, 1.0)
        ]
    out_path = Path(args.out or "gradcheck.csv")
    variance_comparison(settings, draws=int(args.draws),
                        seed=int(args.seed or 0), out_csv=out_path)
    print(f"wrote {out_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsebnn",
        description="Spike-and-slab Bayesian neural networks: train, "
                    "prune, select, benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="flat key=value option file")
        p.add_argument("--seed", type=int)
        p.add_argument("--prior-pi", dest="prior_pi", type=float)
        p.add_argument("--log-tau1", dest="log_tau1", type=float)
        p.add_argument("--log-tau0", dest="log_tau0", type=float)
        p.add_argument("--lr", type=float)
        p.add_argument("--epochs", type=int)
        p.add_argument("--batch", type=int)
        p.add_argument("--mc-samples", dest="mc_samples", type=int)
        p.add_argument("--optimizer", choices=("sgd", "adam"))
        p.add_argument("--kl-schedule", dest="kl_schedule",
                       choices=("uniform", "blundell"))
        p.add_argument("--hidden", help="comma-separated hidden sizes")
        p.add_argument("--activation", choices=("relu", "tanh", "identity"))
        p.add_argument("--head", choices=("identity", "softmax"))
        p.add_argument("--noise-variance", dest="noise_variance", type=float)
        p.add_argument("--train-frac", dest="train_frac", type=float)
        p.add_argument("--split-seed", dest="split_seed", type=int)
        p.add_argument("--out")

    p_train = sub.add_parser("train", help="fit a model and save artifacts")
    add_common(p_train)
    p_train.add_argument("--data", help="dataset spec (see build_dataset)")
    p_train.set_defaults(func=cmd_train)

    p_prune = sub.add_parser("prune", help="droprate-vs-error sweep")
    p_prune.add_argument("--checkpoint", required=True)
    p_prune.add_argument("--rule", default="p")
    p_prune.add_argument("--droprates", default="0,10,20,25,50,75,80,90,95")
    p_prune.add_argument("--data")
    p_prune.add_argument("--out")
    p_prune.set_defaults(func=cmd_prune)

    p_imp = sub.add_parser("importance", help="per-feature psi/phi table")
    p_imp.add_argument("--checkpoint", required=True)
    p_imp.add_argument("--out")
    p_imp.set_defaults(func=cmd_importance)

    p_sel = sub.add_parser("select", help="variable selection and refit")
    p_sel.add_argument("--checkpoint", required=True)
    p_sel.add_argument("--quantile", type=float, default=0.8)
    p_sel.add_argument("--cv", action="store_true",
                       help="pick the keep proportion by cross-validation")
    p_sel.add_argument("--folds", type=int, default=10)
    p_sel.add_argument("--grid", help="comma-separated keep proportions")
    p_sel.add_argument("--data")
    p_sel.add_argument("--out")
    p_sel.set_defaults(func=cmd_select)

    p_bench = sub.add_parser("benchmark", help="manifest-driven RMSE table")
    add_common(p_bench)
    p_bench.add_argument("--manifest", required=True)
    p_bench.add_argument("--rule", default="p")
    p_bench.add_argument("--droprates", default="0,10,20,25,50,75,80,90,95")
    p_bench.add_argument("--repeats", type=int, default=5)
    p_bench.set_defaults(func=cmd_benchmark)

    p_grad = sub.add_parser("gradcheck",
                            help="closed-form vs sampled gradient table")
    p_grad.add_argument("--draws", type=int, default=100_000)
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.add_argument("--settings",
                        help="semicolon-separated m,sigma,pi,tau1,tau0 tuples")
    p_grad.add_argument("--out")
    p_grad.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalAbort as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
