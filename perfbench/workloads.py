"""The benchmark's four workloads, each a setup plus a repeatable round.

A round runs the workload's timed phase once against the public API (or
the ``sparsebnn`` command), then checks its outputs with :mod:`checks`.
Every round of a run uses the same inputs, so every round must produce the
same parameter digest.  Seeds: the data generator and split use ``seed``,
training uses ``seed + 1``, the CV fold split ``seed + 2`` and the
initial state of ``wide-masked`` ``seed + 3``.

Why these four: ``train-single`` is one long small-network training, where
per-step call overhead dominates; ``cv-select`` runs dozens of short
independent trainings of one topology, the only place where training many
runs at once could act; ``wide-masked`` is one large-batch training of a
wide pruned network, where BLAS and O(M) array work dominate and the mask,
multi-draw, sgd and blundell paths run; ``cli-pipeline`` runs the command
line as users do, paying interpreter start-up and file I/O per command.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import subprocess
import sys
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import sparsebnn as sb

import checks as ck
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PRIOR = (0.5, 1.0, 0.1)  # (pi, tau1, tau0); the CLI's default prior
SB_PRIOR = sb.SpikeSlabPrior(*PRIOR)
DROPRATES = (0.0, 0.1, 0.2, 0.25, 0.5, 0.75, 0.8, 0.9, 0.95)  # CLI default sweep
CHILD_TIMEOUT_S = 150


@dataclass
class Round:
    """What one round did, measured and checked."""

    wall_s: float = 0.0          # timed phase, end to end
    train_s: float = 0.0         # calls that perform optimizer steps
    steps: int = 0               # optimizer steps those calls were asked for
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    digest: str = ""
    checks: list = field(default_factory=list)
    child_rss_mib: float = 0.0   # peak over child processes (cli-pipeline)
    command_ms: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)   # one span set per traced process
    import_ms: list = field(default_factory=list)


class Ops:
    """Counts operations; a raising operation fails it and every later one."""

    def __init__(self, rnd: Round, planned: int):
        self.rnd = rnd
        self.rnd.attempted += planned
        self.left = planned

    def __call__(self, fn, *args, count=1, **kwargs):
        out = fn(*args, **kwargs)
        self.left -= count
        return out

    @contextmanager
    def training(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.rnd.train_s += time.perf_counter() - t0


def steps_of(n_rows, epochs, batch) -> int:
    return epochs * -(-n_rows // batch)


def _checkpoint_fields(topology, pr, vp):
    return {"layer_sizes": np.array(topology.layer_sizes),
            "prior": np.array([pr.pi, pr.tau1, pr.tau0]),
            "m": vp.m, "rho": vp.rho, "p": vp.p, "active": vp.active}


# ------------------------------------------------------------ train-single


class TrainSingle:
    name = "train-single"
    in_process = True
    SIZES = {"full": {"n": 2000, "epochs": 1000}, "smoke": {"n": 300, "epochs": 5}}
    LAYERS = (20, 20, 10, 1)

    def setup(self, seed, size):
        s = self.SIZES[size]
        spec = sb.SyntheticSpec(n=s["n"], n_features=20, alpha=2.0,
                                pi_active=0.2, link="linear", seed=seed)
        train, test = sb.split(sb.gen_sparse_regression(spec), 0.9, seed=seed)
        train, test, _ = sb.standardize_fit_apply(train, test)
        config = sb.TrainConfig(epochs=s["epochs"], batch_size=256,
                                learning_rate=0.01, seed=seed + 1)
        return {"train": train, "test": test, "config": config,
                "topology": sb.NetworkTopology(self.LAYERS)}

    def inputs_digest(self, inp):
        return ck.param_digest(inp["train"].X, inp["train"].y,
                              inp["test"].X, inp["test"].y)

    def planned_ops(self, inp):
        # train, then per droprate two prunes and a predict, importance,
        # checkpoint save and load
        return 1 + 3 * len(DROPRATES) + 3

    def timed(self, inp, ops, workdir, traced):
        topo, train, test = inp["topology"], inp["train"], inp["test"]
        with ops.training():
            report = ops(sb.train, topo, SB_PRIOR, train, inp["config"])
        vp = report.params
        sweep = []
        for rate in DROPRATES:
            mask_p, pruned = ops(sb.prune, vp, "inclusion_p", rate)
            mask_m2, _ = ops(sb.prune, vp, "second_moment", rate)
            pred = ops(sb.predict, topo, pruned, test.X)
            sweep.append((rate, mask_p.keep, mask_m2.keep, pruned, pred))
        importance = ops(sb.importance_report, topo, vp, 0.8)
        path = workdir / "model.ckpt"
        ops(sb.save_checkpoint, path, topo, SB_PRIOR, vp)
        loaded = ops(sb.load_checkpoint, path)
        return {"vp": vp, "sweep": sweep, "importance": importance,
                "loaded": loaded}

    def steps(self, inp):
        c = inp["config"]
        return steps_of(inp["train"].n, c.epochs, c.batch_size)

    def verify(self, inp, out):
        vp, test = out["vp"], inp["test"]
        got = [ck.check_inclusion_p("p_closed_form", vp.m, vp.rho, vp.p,
                                    vp.active, PRIOR),
               ck.check_psi("psi_path_product", self.LAYERS, vp.p,
                            out["importance"].psi)]
        for rate, keep_p, keep_m2, pruned, pred in out["sweep"]:
            got.append(ck.check_predict(f"predict@{rate}", self.LAYERS, "relu",
                                        pruned.m, pruned.active, test.X, pred))
            got.append(ck.check_prune(f"prune@{rate}", rate, keep_p, keep_m2,
                                      vp.p))
        got.append(ck.check_roundtrip(
            "checkpoint_roundtrip",
            _checkpoint_fields(inp["topology"], SB_PRIOR, vp),
            _checkpoint_fields(*out["loaded"])))
        got.append(ck.check_beats_mean("beats_mean", out["sweep"][0][4][:, 0],
                                       test.y, inp["train"].y))
        return got

    def digest(self, out):
        vp = out["vp"]
        return ck.param_digest(vp.m, vp.rho, vp.p)


# --------------------------------------------------------------- cv-select


class CvSelect:
    name = "cv-select"
    in_process = True
    SIZES = {
        "full": {"n": 2000, "epochs": 300, "folds": 3,
                 "grid": (0.1, 0.2, 0.3, 0.4, 0.5)},
        "smoke": {"n": 200, "epochs": 2, "folds": 2, "grid": (0.2, 0.5)},
    }
    LAYERS = (50, 20, 10, 1)

    def setup(self, seed, size):
        s = self.SIZES[size]
        spec = sb.SyntheticSpec(n=s["n"], n_features=50, alpha=2.0,
                                pi_active=0.2, link="nonlinear", seed=seed)
        data, _, _ = sb.standardize_fit_apply(sb.gen_sparse_regression(spec))
        config = sb.TrainConfig(epochs=s["epochs"], batch_size=256,
                                learning_rate=0.01, seed=seed + 1)
        return {"data": data, "config": config, "seed": seed, **s,
                "topology": sb.NetworkTopology(self.LAYERS)}

    def inputs_digest(self, inp):
        d = inp["data"]
        return ck.param_digest(d.X, d.y, d.z)

    def planned_ops(self, inp):
        folds, grid = inp["folds"], len(inp["grid"])
        # cv_threshold: per fold one full training, then per candidate a
        # refit and a predict; then the full-data training and
        # variable_selection's importance call and refit
        return folds * (1 + 2 * grid) + 1 + 2

    def timed(self, inp, ops, workdir, traced):
        topo, data, config = inp["topology"], inp["data"], inp["config"]
        with ops.training():
            proportion = ops(sb.cv_threshold, topo, SB_PRIOR, data, config,
                             folds=inp["folds"],
                             candidate_proportions=inp["grid"],
                             seed=inp["seed"] + 2,
                             count=inp["folds"] * (1 + 2 * len(inp["grid"])))
            base = ops(sb.train, topo, SB_PRIOR, data, config)
            outcome = ops(sb.variable_selection, topo, base.params, data,
                          1.0 - proportion, config, SB_PRIOR, count=2)
        return {"proportion": proportion, "base": base.params,
                "outcome": outcome}

    def steps(self, inp):
        n, folds, c = inp["data"].n, inp["folds"], inp["config"]
        fold_rows = [n - (n // folds + (k < n % folds)) for k in range(folds)]
        cv = sum((1 + len(inp["grid"])) * steps_of(r, c.epochs, c.batch_size)
                 for r in fold_rows)
        return cv + 2 * steps_of(n, c.epochs, c.batch_size)

    def verify(self, inp, out):
        z, base, outcome = inp["data"].z, out["base"], out["outcome"]
        own_accuracy = float(np.mean(z == outcome.selected))
        refit = outcome.refit.params
        return [
            ck.check_cv_recovery("cv_recovery", out["proportion"], z),
            ck.check_selection_accuracy("selection_accuracy", z,
                                        outcome.selected),
            ck.check_same("reported_accuracy", [outcome.accuracy, own_accuracy]),
            ck.check_psi("psi_path_product", self.LAYERS, base.p,
                         outcome.importance.psi),
            ck.check_inclusion_p("p_closed_form", base.m, base.rho, base.p,
                                 None, PRIOR),
            ck.check_inclusion_p("refit_p_closed_form", refit.m, refit.rho,
                                 refit.p, None, PRIOR),
        ]

    def digest(self, out):
        b, r = out["base"], out["outcome"].refit.params
        return ck.param_digest(b.m, b.rho, b.p, r.m, r.rho, r.p)


# ------------------------------------------------------------- wide-masked


class WideMasked:
    name = "wide-masked"
    in_process = True
    SIZES = {"full": {"n": 4096, "epochs": 20, "batch": 1024},
             "smoke": {"n": 256, "epochs": 2, "batch": 64}}
    LAYERS = (100, 200, 100, 1)

    def setup(self, seed, size):
        s = self.SIZES[size]
        spec = sb.SyntheticSpec(n=s["n"], n_features=100, alpha=2.0,
                                pi_active=0.2, link="linear", seed=seed)
        train, test = sb.split(sb.gen_sparse_regression(spec), 0.9, seed=seed)
        train, test, _ = sb.standardize_fit_apply(train, test)
        topo = sb.NetworkTopology(self.LAYERS, hidden_activation="tanh")
        config = sb.TrainConfig(epochs=s["epochs"], batch_size=s["batch"],
                                learning_rate=1e-4, optimizer="sgd",
                                mc_samples=4, kl_schedule="blundell",
                                seed=seed + 1)
        fresh = sb.init_params(topo, SB_PRIOR, config,
                               np.random.default_rng(seed + 3))
        _, init = sb.prune(fresh, "inclusion_p", 0.5)
        return {"train": train, "test": test, "config": config,
                "topology": topo, "init": init, "rho_init": init.rho.copy()}

    def inputs_digest(self, inp):
        i = inp["init"]
        return ck.param_digest(inp["train"].X, inp["train"].y, inp["test"].X,
                              i.m, i.rho, i.p, i.active)

    def planned_ops(self, inp):
        return 2  # train, predict

    def timed(self, inp, ops, workdir, traced):
        topo = inp["topology"]
        with ops.training():
            report = ops(sb.train, topo, SB_PRIOR, inp["train"], inp["config"],
                         init=inp["init"])
        pred = ops(sb.predict, topo, report.params, inp["test"].X)
        return {"report": report, "pred": pred}

    def steps(self, inp):
        c = inp["config"]
        return steps_of(inp["train"].n, c.epochs, c.batch_size)

    def verify(self, inp, out):
        report, pred = out["report"], out["pred"]
        vp = report.params
        return [
            ck.check_pruned_frozen("pruned_frozen", inp["init"].active, vp.m,
                                   vp.p, vp.rho, inp["rho_init"]),
            ck.check_finite("finite", m=vp.m, rho=vp.rho, p=vp.p, pred=pred,
                            objective=report.objective,
                            train_loss=report.train_loss),
            ck.check_loss_decreased("loss_decreased", report.train_loss),
            ck.check_predict("predict_masked", self.LAYERS, "tanh", vp.m,
                             vp.active, inp["test"].X, pred),
            ck.check_inclusion_p("p_closed_form", vp.m, vp.rho, vp.p,
                                 vp.active, PRIOR),
        ]

    def digest(self, out):
        vp = out["report"].params
        return ck.param_digest(vp.m, vp.rho, vp.p)


# ------------------------------------------------------------ cli-pipeline


def child_env():
    path = [str(ROOT / "src")]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path)}


def run_child(cmd, log_path):
    """Run one child process to its end; returns (exit code, wall s, peak RSS MiB)."""
    t0 = time.perf_counter()
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


class CliPipeline:
    name = "cli-pipeline"
    in_process = False  # traced through perfbench/cli_child.py instead
    SIZES = {"full": {"n": 600, "epochs": 100}, "smoke": {"n": 200, "epochs": 2}}
    LAYERS = (10, 20, 10, 1)
    BATCH = 128
    QUANTILE = 0.7

    def setup(self, seed, size):
        s = self.SIZES[size]
        data = f"sparse:n={s['n']},d=10,alpha=2,pi=0.3,link=linear,seed={seed}"
        return {"data": data, "epochs": s["epochs"], "n": s["n"], "seed": seed}

    def inputs_digest(self, inp):
        return hashlib.sha256(json.dumps(inp, sort_keys=True).encode()).hexdigest()

    def commands(self, inp, out_dir):
        ckpt = str(out_dir / "model.ckpt")
        return [
            ("train", ["train", "--data", inp["data"], "--hidden", "20,10",
                       "--epochs", str(inp["epochs"]), "--batch", str(self.BATCH),
                       "--lr", "0.01", "--seed", str(inp["seed"] + 1),
                       "--split-seed", str(inp["seed"]), "--out", str(out_dir)]),
            ("prune", ["prune", "--checkpoint", ckpt]),
            ("importance", ["importance", "--checkpoint", ckpt]),
            ("select", ["select", "--checkpoint", ckpt, "--quantile",
                        str(self.QUANTILE), "--out", str(out_dir / "select.json")]),
        ]

    def planned_ops(self, inp):
        return 4

    def timed(self, inp, ops, workdir, traced):
        rnd = ops.rnd
        for name, argv in self.commands(inp, workdir):
            if traced:
                cmd = [sys.executable, str(HERE / "cli_child.py"),
                       str(workdir / f"{name}.trace.npz"), *argv]
            else:
                cmd = [sys.executable, "-m", "sparsebnn.cli", *argv]
            code, wall, rss = run_child(cmd, workdir / f"{name}.log")
            rnd.command_ms[name] = wall * 1e3
            rnd.child_rss_mib = max(rnd.child_rss_mib, rss)
            if name in ("train", "select"):
                rnd.train_s += wall
            if code != 0:
                tail = (workdir / f"{name}.log").read_text(errors="replace")[-300:]
                raise RuntimeError(f"sparsebnn {name} exited {code}: {tail}")
            ops.left -= 1
            if traced:
                with np.load(workdir / f"{name}.trace.npz") as f:
                    spans = {k: f[k] for k in f.files}
                rnd.spans.append(spans)
                rnd.import_ms.append(float(spans["import_ms"]))
        return {"dir": workdir}

    def steps(self, inp):
        n_train = int(round(0.9 * inp["n"]))
        # train, and select's refit on the same split and settings
        return 2 * steps_of(n_train, inp["epochs"], self.BATCH)

    def verify(self, inp, out):
        d = out["dir"]
        header, m, rho, p, active = ck.read_checkpoint(d / "model.ckpt")
        M = ck.n_params(self.LAYERS)
        with open(d / "prune.csv", newline="") as fh:
            prune_rows = list(csv.DictReader(fh))
        with open(d / "importance.csv", newline="") as fh:
            psi = [float(r["psi"]) for r in csv.DictReader(fh)]
        select = json.loads((d / "select.json").read_text())
        n_epochs = len((d / "metrics.jsonl").read_text().splitlines())
        return [
            ck.check_same("checkpoint_layout",
                          [(tuple(header["layer_sizes"]), active is None),
                           (self.LAYERS, True)]),
            ck.check_inclusion_p("p_closed_form", m, rho, p, active, PRIOR),
            ck.check_prune_table("prune_csv_sparsity", prune_rows, DROPRATES, M),
            ck.check_psi("importance_csv_psi", self.LAYERS, p, psi),
            ck.check_select_report("select_n_selected", select, self.LAYERS[0]),
            ck.check_same("metrics_rows_per_epoch", [n_epochs, inp["epochs"]]),
        ]

    def digest(self, out):
        _, m, rho, p, _ = ck.read_checkpoint(out["dir"] / "model.ckpt")
        return ck.param_digest(m, rho, p)


WORKLOADS = {w.name: w for w in (TrainSingle(), CvSelect(), WideMasked(),
                                 CliPipeline())}


def run_round(wl, inp, workdir: Path, traced: bool) -> Round:
    """One timed phase of ``wl`` followed by its checks."""
    workdir.mkdir(parents=True)
    rnd = Round(steps=wl.steps(inp))
    ops = Ops(rnd, wl.planned_ops(inp))
    tracer = tracing.Tracer() if traced and wl.in_process else None
    out = None
    t0 = time.perf_counter()
    try:
        with tracer or nullcontext():
            out = wl.timed(inp, ops, workdir, traced)
    except Exception as exc:  # an operation failed; count it and the rest
        rnd.failed += ops.left
        rnd.errors.append(f"{type(exc).__name__}: {exc}")
    rnd.wall_s = time.perf_counter() - t0
    if tracer is not None:
        rnd.spans.append(tracer.spans())
    if out is None:
        return rnd
    rnd.checks = wl.verify(inp, out)
    rnd.digest = wl.digest(out)
    if traced:
        traced_steps = sum(int(s["steps"]) for s in rnd.spans)
        rnd.checks.append(ck.check_same("trace_counts_steps",
                                        [traced_steps, rnd.steps]))
    return rnd
