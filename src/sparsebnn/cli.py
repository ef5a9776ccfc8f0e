"""Command-line surface for reproducible train/compress/select/benchmark runs.

Subcommands: train, prune, importance, select, benchmark, gradcheck.
Option precedence is CLI > config file > built-in defaults; the config
file is flat ``key = value`` text using the long option names with
underscores.  ``DEFAULTS`` is the one table of the shared options, and
:func:`_coerce` converts each of their values, from any source, to the
type of its default.  ``train`` leaves three artifacts in the output
directory:

    model.ckpt     binary checkpoint (see sparsebnn.checkpoint)
    metrics.jsonl  one JSON object per epoch
    run.json       the fully resolved run configuration

The other subcommands locate ``run.json`` next to a checkpoint to rebuild
the exact dataset, split, and standardization of the original run, so a
saved configuration re-executes to identical outputs.  ``benchmark``
repeat r uses seed ``seed + r`` and split seed ``split_seed + r``.
Every CSV table goes through one writer, :func:`_write_table`.

Every model is a regression network scored by test RMSE.  A checkpoint
whose header names an ``output_head`` other than ``"identity"`` is
rejected by its loader, so the command exits 2.

Exit codes: 0 success, 2 any bad file, path or option value (``main`` maps
every OSError and ValueError to it), 3 numerical abort.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .compression import (
    RANK_RULES,
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
from .network import HIDDEN_ACTIVATIONS, NetworkTopology
from .svi import SpikeSlabPrior
from .training import (
    KL_SCHEDULES, OPTIMIZERS, NumericalAbort, TrainConfig, predict, train,
)

SCHEMA_VERSION = 1

RULE_ALIASES = {"p": "inclusion_p", "m2": "second_moment",
                **{rule: rule for rule in RANK_RULES}}
DEFAULT_RULE = "p"
DEFAULT_DROPRATES = "0,10,20,25,50,75,80,90,95"

# each training option and the TrainConfig field it sets, whose default
# is the option's
_TRAIN_FIELDS = {"epochs": "epochs", "batch": "batch_size",
                 "lr": "learning_rate", "optimizer": "optimizer",
                 "mc_samples": "mc_samples", "kl_schedule": "kl_schedule",
                 "seed": "seed", "noise_variance": "noise_variance"}

DEFAULTS = {
    "hidden": "20,10",
    "activation": "relu",
    **{key: getattr(TrainConfig(), field)
       for key, field in _TRAIN_FIELDS.items()},
    "prior_pi": 0.5,
    "log_tau1": 0.0,
    "log_tau0": -2.302585092994046,  # tau0 = 0.1
    "train_frac": 0.9,
    "split_seed": None,  # falls back to seed
    "standardize": True,
}


@contextmanager
def _naming(values, prefix="", errors=ValueError):
    """Raise an ``errors`` error of the block again as a ValueError of one
    line, ``prefix: name = value!r, ...: <error text>``, that names each
    name and value of the dict ``values``; an empty part is left out."""
    try:
        yield
    except errors as exc:
        named = ", ".join(f"{name} = {value!r}"
                          for name, value in values.items())
        head = [part for part in (str(prefix), named) if part]
        raise ValueError(": ".join([*head, str(exc)])) from None


def _flag(key: str) -> str:
    """The command-line spelling of option ``key``."""
    return "--" + key.replace("_", "-")


def _parse_kv(text: str) -> dict:
    out = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"expected key=value, got {part!r}")
        k, v = part.split("=", 1)
        out[k.strip()] = v.strip()
    return out


# the keys each data kind takes, with their defaults; a value converts to
# the type of its key's default, and a default of None marks a required str
_DATA_KEYS = {
    "two_feature": {"alpha": 0.5, "n": 2000, "seed": 0},
    "sparse": {"n": 2000, "d": 100, "alpha": 2.0, "pi": 0.2,
               "link": "linear", "seed": 0},
    "csv": {"path": None, "target": None},
}


def build_dataset(spec: str) -> Dataset:
    """Materialize a dataset from a data spec string.

    Forms, with every generator key at its default:
        two_feature:alpha=0.5,n=2000,seed=0
        sparse:n=2000,d=100,alpha=2,pi=0.2,link=linear,seed=0
        csv:path=FILE,target=COLUMN

    A spec without a known kind, or with a part that is not key=value,
    raises ValueError naming ``--data``; a key the kind does not take, a
    value that does not convert to the type of the key's default, or an
    empty or missing csv path or target, one naming the key.  Any other
    error of a generated dataset (one that cannot be allocated, or of
    fewer than the 2 rows a train/test split needs, included) names the
    kind and the keys the spec gave; of a csv, the file.
    """
    with _naming({}, "--data"):
        if ":" not in spec:
            raise ValueError(f"data spec needs a kind prefix, got {spec!r}")
        kind, rest = spec.split(":", 1)
        if kind not in _DATA_KEYS:
            raise ValueError(f"unknown data kind {kind!r}")
        pairs = _parse_kv(rest)
    defaults = _DATA_KEYS[kind]
    given = {}
    for key, value in pairs.items():
        if key not in defaults:
            raise ValueError(f"{kind} data spec: unknown key {key!r}; it "
                             f"takes {', '.join(defaults)}")
        convert = str if defaults[key] is None else type(defaults[key])
        with _naming({key: value}, f"{kind} data spec"):
            given[key] = convert(value)
    kv = {**defaults, **given}
    if kind == "csv":
        missing = [key for key, value in kv.items() if not value]
        if missing:
            raise ValueError("csv spec needs path= and target=; empty or "
                             f"missing: {', '.join(missing)}")
        target = kv["target"]
        if target.lstrip("-").isdigit():
            target = int(target)
        return _splittable(load_csv(kv["path"], target), kv["path"])
    # numpy raises ValueError, not MemoryError, past its size limit
    with _naming(given, f"{kind} data spec", (MemoryError, ValueError)):
        if kind == "two_feature":
            data = gen_two_feature(kv["alpha"], kv["n"], kv["seed"])
        else:
            data = gen_sparse_regression(SyntheticSpec(
                n=kv["n"], n_features=kv["d"], alpha=kv["alpha"],
                pi_active=kv["pi"], link=kv["link"], seed=kv["seed"]))
        return _splittable(data)


def _splittable(data, source="") -> Dataset:
    """``data``, if it has the 2 rows a train/test split needs; else a
    ValueError naming ``source``, if given."""
    with _naming({}, source):
        if data.n < 2:
            raise ValueError("needs at least 2 rows for a train/test split, "
                             f"got {data.n}")
    return data


def _read_config_file(path) -> dict:
    out = {}
    for lineno, line in enumerate(
        Path(path).read_text(encoding="utf-8").splitlines(), start=1
    ):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key = value")
        k, v = line.split("=", 1)
        out[k.strip()] = v.strip()
    return out


def _coerce(key, value, source):
    """``value`` as the type of option ``key``'s default; ``split_seed``
    is an int and a key without a default (run.json's ``data``) a str.

    A value that does not convert raises ValueError naming the key and
    ``source``, where the value came from.
    """
    if key == "standardize":
        if isinstance(value, bool):
            return value
        return str(value).lower() in ("1", "true", "yes")
    kind = int if key == "split_seed" else type(DEFAULTS.get(key, ""))
    with _naming({key: value}, source, (TypeError, ValueError)):
        return kind(value)


def resolve_options(args) -> dict:
    """Merge defaults, config file, and explicit CLI values."""
    merged = dict(DEFAULTS)
    config_path = getattr(args, "config", None)
    if config_path:
        file_conf = _read_config_file(config_path)
        for k, v in file_conf.items():
            if k in ("data", "out", "rule", "droprates"):
                if getattr(args, k, None) is None:
                    setattr(args, k, v)
                continue
            if k not in merged:
                raise ValueError(f"unknown config key {k!r}")
            merged[k] = _coerce(k, v, config_path)
    for k in DEFAULTS:
        cli_val = getattr(args, k, None)
        if cli_val is not None:
            merged[k] = _coerce(k, cli_val, _flag(k))
    if merged["split_seed"] is None:
        merged["split_seed"] = merged["seed"]
    return merged


def _prior_from(opts) -> SpikeSlabPrior:
    """The prior of the options; an invalid one raises ValueError naming
    the three options before the prior's own text.  An overflow gives an
    infinite scale, which SpikeSlabPrior names."""
    keys = ("prior_pi", "log_tau0", "log_tau1")
    with _naming({key: opts[key] for key in keys}):
        return SpikeSlabPrior(pi=opts["prior_pi"],
                              tau1=float(np.exp(opts["log_tau1"])),
                              tau0=float(np.exp(opts["log_tau0"])))


def _topology_from(opts, n_features) -> NetworkTopology:
    """The network of the options; a hidden list or activation it rejects
    raises ValueError naming both options before the error's own text."""
    with _naming({_flag(key): opts[key] for key in ("activation", "hidden")}):
        hidden = tuple(int(h) for h in str(opts["hidden"]).split(",")
                       if h.strip())
        return NetworkTopology((n_features, *hidden, 1),
                               hidden_activation=opts["activation"])


def _train_config_from(opts) -> TrainConfig:
    """The options' TrainConfig; a value it rejects raises ValueError
    naming the option, found through ``_TRAIN_FIELDS``: each option is
    checked alone first, as TrainConfig checks each field alone."""
    fields = {field: opts[key] for key, field in _TRAIN_FIELDS.items()}
    for key, field in _TRAIN_FIELDS.items():
        with _naming({_flag(key): opts[key]}):
            TrainConfig(**{field: fields[field]})
    return TrainConfig(**fields)


def _split(full, opts, repeat=0):
    """Split with seed ``split_seed + repeat``; standardize if opts say so.
    A fraction or seed the split rejects raises ValueError naming both."""
    seed = opts["split_seed"] + repeat
    with _naming({"--train-frac": opts["train_frac"], "--split-seed": seed}):
        train_ds, test_ds = split(full, opts["train_frac"], seed=seed)
    if not opts["standardize"]:
        return train_ds, test_ds, None
    return standardize_fit_apply(train_ds, test_ds)


def _test_rmse(topology, vp, test_ds, scaler) -> float:
    """Test RMSE in the target's original units."""
    pred = predict(topology, vp, test_ds.X)[:, 0]
    truth = np.asarray(test_ds.y, dtype=float)
    if scaler is not None:
        pred, truth = scaler.inverse_y(pred), scaler.inverse_y(truth)
    return float(np.sqrt(np.mean((pred - truth) ** 2)))


def _write_table(path, header, rows) -> None:
    """Write ``rows`` under ``header`` as CSV, each with a trailing
    ``schema_version`` column, and say where."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([*header, "schema_version"])
        writer.writerows([*row, SCHEMA_VERSION] for row in rows)
    print(f"wrote {path}")


def cmd_train(args) -> int:
    opts = resolve_options(args)
    if args.data is None:
        raise ValueError("train requires --data")
    prior = _prior_from(opts)
    config = _train_config_from(opts)
    train_ds, _, _ = _split(build_dataset(args.data), opts)
    topology = _topology_from(opts, train_ds.n_features)
    report = train(topology, prior, train_ds, config)
    # only once training returns, so a rejected or diverged run leaves no dir
    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
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
        options = {k: run[k] for k in ("data", *DEFAULTS)}
    except KeyError as exc:
        raise ValueError(f"{run_path}: lacks key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{run_path}: {exc}") from None
    return {**run, **{k: _coerce(k, v, run_path) for k, v in options.items()}}


def _reload(args):
    topology, prior, vp = load_checkpoint(args.checkpoint)
    run = _load_run(args.checkpoint)
    data_spec = args.data or run["data"]
    train_ds, test_ds, scaler = _split(build_dataset(data_spec), run)
    if train_ds.n_features != topology.n_inputs:
        raise ValueError(f"data {data_spec!r} has {train_ds.n_features} "
                          f"features; {args.checkpoint} takes "
                          f"{topology.n_inputs}")
    return topology, prior, vp, run, train_ds, test_ds, scaler


def _parse_numbers(text, what) -> list[float]:
    """The comma-separated numbers in ``text``, empty tokens skipped; a
    token that is not a number raises ValueError naming ``what``."""
    values = []
    for tok in str(text).split(","):
        tok = tok.strip()
        if tok:
            try:
                values.append(float(tok))
            except ValueError:
                raise ValueError(f"{what} {tok!r} is not a number") from None
    return values


def _parse_droprates(text) -> list[float]:
    """Percentages (values > 1) or fractions, returned as sorted fractions;
    an error names ``--droprates``."""
    with _naming({}, "--droprates"):
        rates = [val / 100.0 if val > 1.0 else val
                 for val in _parse_numbers(text, "droprate")]
        if not rates:
            raise ValueError("droprates must name at least one rate")
        if any(not 0.0 <= r < 1.0 for r in rates):
            raise ValueError(f"droprates must map into [0, 1): {text!r}")
    return sorted(rates)


def _rule(name) -> str:
    """The pruning rule a command-line rule name or alias stands for."""
    if name not in RULE_ALIASES:
        raise ValueError(
            f"unknown rule {name!r}; choose from {sorted(RULE_ALIASES)}"
        )
    return RULE_ALIASES[name]


def _sweep(topology, vp, rule, rates, test_ds, scaler):
    """One (droprate, sparsity, test RMSE) row per rate, pruning ``vp``."""
    rows = []
    for rate in rates:
        mask, pruned = prune(vp, rule, rate)
        rows.append((rate, sparsity(mask),
                     _test_rmse(topology, pruned, test_ds, scaler)))
    return rows


def cmd_prune(args) -> int:
    rule = _rule(args.rule)
    topology, _, vp, _, _, test_ds, scaler = _reload(args)
    rates = _parse_droprates(args.droprates)
    out_path = Path(args.out or Path(args.checkpoint).parent / "prune.csv")
    _write_table(out_path, ("droprate", "sparsity", "test_rmse"),
                 _sweep(topology, vp, rule, rates, test_ds, scaler))
    return 0


def cmd_importance(args) -> int:
    topology, _, vp = load_checkpoint(args.checkpoint)
    psi = feature_importance_psi(topology, vp)
    phi = feature_importance_phi(psi)
    out_path = Path(args.out or Path(args.checkpoint).parent / "importance.csv")
    _write_table(out_path, ("feature", "psi", "phi"),
                 zip(range(psi.size), psi.tolist(), phi.tolist()))
    return 0


def cmd_select(args) -> int:
    topology, prior, vp, run, train_ds, test_ds, scaler = _reload(args)
    retrain = _train_config_from({**run, "seed": run["seed"] + 1})
    report = {"schema_version": SCHEMA_VERSION}
    if args.cv:
        with _naming({"--folds": args.folds, "--grid": args.grid}):
            grid = (_parse_numbers(args.grid, "--grid value") if args.grid
                    else None)
            proportion = cv_threshold(topology, prior, train_ds, retrain,
                                      folds=args.folds,
                                      candidate_proportions=grid,
                                      seed=run["seed"])
        # a full-keep proportion (quantile 0) means no thresholding
        quantile = 1.0 - proportion
        report["cv_keep_proportion"] = proportion
    else:
        quantile = args.quantile
    with _naming({} if args.cv else {"--quantile": quantile}):
        outcome = variable_selection(topology, vp, train_ds, quantile,
                                     retrain, prior)
    unrestricted_rmse = _test_rmse(topology, vp, test_ds, scaler)
    refit_rmse = _test_rmse(topology, outcome.refit.params,
                            test_ds.with_feature_mask(outcome.selected),
                            scaler)
    report.update({
        "quantile": quantile,
        "threshold_phi": outcome.importance.threshold,
        "n_selected": int(outcome.selected.sum()),
        "estimated_active_proportion": float(outcome.selected.mean()),
        "selected": [int(v) for v in outcome.selected],
        "refit_test_rmse": refit_rmse,
        "unrestricted_test_rmse": unrestricted_rmse,
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
    opts = resolve_options(args)
    entries = load_manifest(args.manifest)
    # None unless the command line or the config file names them
    rates = _parse_droprates(
        DEFAULT_DROPRATES if args.droprates is None else args.droprates)
    rule = _rule(DEFAULT_RULE if args.rule is None else args.rule)
    repeats = int(args.repeats)
    if repeats < 1:
        raise ValueError("--repeats must be >= 1")
    prior = _prior_from(opts)
    rows = []
    for entry in entries:
        full = _splittable(load_csv(entry["path"], entry["target"],
                                    expected_shape=entry["expected_shape"]),
                           entry["path"])
        topology = _topology_from(opts, full.n_features)
        sweeps = []
        for r in range(repeats):
            config = _train_config_from({**opts, "seed": opts["seed"] + r})
            train_ds, test_ds, scaler = _split(full, opts, r)
            report = train(topology, prior, train_ds, config,
                           diagnostics=False)
            sweeps.append(_sweep(topology, report.params, rule, rates,
                                 test_ds, scaler))
        for i, (rate, sparse, _) in enumerate(sweeps[0]):
            vals = np.array([sweep[i][2] for sweep in sweeps])
            se = (vals.std(ddof=1) / np.sqrt(repeats)) if repeats > 1 else 0.0
            rows.append((entry["name"], rate, sparse, float(vals.mean()),
                         float(se), repeats, opts["seed"]))
    _write_table(Path(args.out or "benchmark.csv"),
                 ("dataset", "droprate", "sparsity", "rmse_mean", "rmse_se",
                  "repeats", "seed"), rows)
    return 0


def cmd_gradcheck(args) -> int:
    settings = [(m, s, 0.5, 1.0, 0.1)
                for m in (-1.0, 0.0, 0.5, 2.0) for s in (0.3, 1.0)]
    with _naming({_flag(key): getattr(args, key)
                  for key in ("draws", "seed", "settings")}):
        if args.settings:
            settings = [_parse_numbers(block, "gradcheck setting")
                        for block in args.settings.split(";")]
            if any(len(vals) != 5 for vals in settings):
                raise ValueError(
                    "each gradcheck setting needs m,sigma,pi,tau1,tau0")
        rows = variance_comparison(settings, draws=args.draws,
                                   seed=args.seed)
    _write_table(Path(args.out or "gradcheck.csv"), rows[0],
                 [row.values() for row in rows])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsebnn",
        description="Spike-and-slab Bayesian neural networks: train, "
                    "prune, select, benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    choices = {"activation": HIDDEN_ACTIVATIONS, "optimizer": OPTIMIZERS,
               "kl_schedule": KL_SCHEDULES}
    helps = {"hidden": "comma-separated hidden sizes"}

    def add_common(p):
        # untyped: resolve_options converts each value with _coerce
        p.add_argument("--config", help="flat key=value option file")
        for key in DEFAULTS:
            if key != "standardize":  # set only from a config file
                p.add_argument(_flag(key), dest=key,
                               choices=choices.get(key), help=helps.get(key))
        p.add_argument("--out")

    p_train = sub.add_parser("train", help="fit a model and save artifacts")
    add_common(p_train)
    p_train.add_argument("--data", help="dataset spec (see build_dataset)")
    p_train.set_defaults(func=cmd_train)

    p_prune = sub.add_parser("prune", help="droprate-vs-error sweep")
    p_prune.add_argument("--checkpoint", required=True)
    p_prune.add_argument("--rule", default=DEFAULT_RULE)
    p_prune.add_argument("--droprates", default=DEFAULT_DROPRATES)
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
    p_bench.add_argument("--rule")
    p_bench.add_argument("--droprates")
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
    args = build_parser().parse_args(argv)
    try:
        # the one line below reports a failure, without numpy's warnings
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except (OSError, ValueError, MemoryError) as exc:
        # MemoryError: an option sized an array that cannot be allocated
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalAbort as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
