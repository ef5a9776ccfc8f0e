"""Benchmark of sparsebnn: training throughput, CV selection, wide masked
training and the command line, with a traced per-module breakdown.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run sets up the workload's inputs from the seed, then repeats whole
rounds of the workload until the next round would end after ``--seconds``
(at least one round; with ``--trace 1`` at least one untraced and one traced
round, alternating).  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0`` and the per-layer metrics with ``--trace 1``.
See perfbench/README.md.
"""

import os
import sys
from pathlib import Path

# One thread of load: BLAS runs single-threaded (at most nproc) so that
# figures do not depend on what else the machine is running.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 5

if not (SRC / "sparsebnn" / "__init__.py").is_file():
    sys.exit(f"perfbench: no sparsebnn sources at {SRC}; run from a checkout")
sys.path.insert(0, str(SRC))

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import sparsebnn  # noqa: E402

if Path(sparsebnn.__file__).resolve().parent != SRC / "sparsebnn":
    sys.exit(f"perfbench: imported sparsebnn from {sparsebnn.__file__}, not {SRC}")

import checks as ck  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

PER_STEP_CALLS = ("network.forward", "network.backward", "svi.NoiseDraw.draw",
                  "svi.sigma_of_rho", "svi.penalty_total", "svi.optimal_p")
PER_STEP_SELF_US = ("network.forward", "network.backward", "network.nll",
                    "network.nll_grad", "svi.NoiseDraw.draw",
                    "svi.sample_weights", "svi.sigma_of_rho",
                    "svi.penalty_total", "svi.grad_penalty", "svi.optimal_p",
                    "svi.dsigma_drho", "training.train")
SELF_MS = ("training.predict", "compression.prune",
           "compression.feature_importance_psi", "compression.importance_report",
           "compression.variable_selection", "compression.cv_threshold",
           "datasets.gen_sparse_regression", "datasets.split",
           "datasets.standardize_fit_apply", "datasets.kfold_indices",
           "datasets.Dataset.subset", "datasets.Dataset.with_feature_mask",
           "checkpoint.save_checkpoint", "checkpoint.load_checkpoint")
CALLS = ("training.train", "training.predict")
CLI_COMMANDS = ("train", "prune", "importance", "select")


def blas_threads():
    """Threads OpenBLAS will use, asked of the library numpy loaded."""
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                return int(fn())
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def measure_setup(wl, seed, size, workdir, want_digest):
    """Median set-up seconds over fresh interpreters, and whether every one
    built the same inputs as this process."""
    times, digests = [], []
    for k in range(SETUP_REPEATS):
        log = workdir / f"setup-{k}.log"
        code, _, _ = workloads.run_child(
            [sys.executable, str(HERE / "setup_child.py"), wl.name, str(seed), size],
            log)
        lines = log.read_text().splitlines()
        if code != 0 or not lines:
            raise RuntimeError(f"setup child exited {code}: {lines[-3:]}")
        doc = json.loads(lines[-1])
        times.append(doc["setup_s"])
        digests.append(doc["inputs_digest"])
    check = ck.check_same("setup_reproducible", digests + [want_digest])
    return statistics.median(times), check


def layer_metrics(summary, untraced, traced_round, overhead_s):
    steps = max(summary["steps"], 1)
    calls, self_s = summary["calls"], summary["self_s"]
    out = {}
    for name in PER_STEP_CALLS:
        out[f"{name}.calls_per_step"] = (calls[name] / steps, "calls/step")
    for name in PER_STEP_SELF_US:
        out[f"{name}.self_us_per_step"] = (self_s[name] / steps * 1e6, "us/step")
    for name in CALLS:
        out[f"{name}.calls"] = (calls[name], "count")
    out["training.train.optimizer_steps"] = (summary["steps"], "count")
    for name in SELF_MS:
        out[f"{name}.self_ms"] = (self_s[name] * 1e3, "ms")
    imports = traced_round.import_ms
    out["cli.import_ms"] = (statistics.median(imports) if imports else 0.0, "ms")
    for cmd in CLI_COMMANDS:
        walls = [r.command_ms[cmd] for r in untraced if cmd in r.command_ms]
        out[f"cli.{cmd}.ms"] = (statistics.median(walls) if walls else 0.0, "ms")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out


def run(args):
    wl = workloads.WORKLOADS[args.workload]
    workdir = HERE / "_work" / f"{wl.name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setup_tracer = tracing.Tracer() if args.trace else None
        with setup_tracer or contextlib.nullcontext():
            inputs = wl.setup(args.seed, args.size)
        checks = []
        setup_s = None
        if not args.trace:
            setup_s, check = measure_setup(wl, args.seed, args.size, workdir,
                                           wl.inputs_digest(inputs))
            checks.append(check)
        rounds, traced_flags, totals = [], [], []
        start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(rounds) % 2 == 1
            t0 = time.perf_counter()
            rounds.append(workloads.run_round(wl, inputs, workdir / f"round-{len(rounds)}",
                                              traced))
            traced_flags.append(traced)
            totals.append(time.perf_counter() - t0)
            enough = len(rounds) >= (2 if args.trace else 1)
            next_end = time.perf_counter() - start + statistics.median(totals)
            if enough and next_end > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for r in rounds:
        checks.extend(r.checks)
    digests = [r.digest for r in rounds if r.digest]
    if digests:
        checks.append(ck.check_same("params_identical_across_rounds", digests))
    required = [c for c in checks if not (c.statistical and args.size == "smoke")]
    untraced = [r for r, t in zip(rounds, traced_flags) if not t]
    traced_rounds = [r for r, t in zip(rounds, traced_flags) if t]

    report = {
        "workload": wl.name, "seed": args.seed, "size": args.size,
        "rounds": len(rounds), "traced_rounds": len(traced_rounds),
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "errors": sorted({e for r in rounds for e in r.errors}),
        "params_sha256": digests[0] if digests else None,
        "checks_passed": sum(c.ok for c in checks), "checks": len(checks),
        "failed_checks": sorted({f"{c.name}: {c.detail}" for c in checks if not c.ok}),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "blas_threads": blas_threads(),
        "round_wall_s": {"min": min(r.wall_s for r in rounds),
                         "median": statistics.median(r.wall_s for r in rounds),
                         "max": max(r.wall_s for r in rounds)},
    }

    if args.trace:
        summaries = [tracing.merge(tracing.summarize(s) for s in r.spans)
                     for r in traced_rounds]
        setup_summary = tracing.summarize(setup_tracer.spans())
        overhead_s = (statistics.median(r.wall_s for r in traced_rounds)
                      - statistics.median(r.wall_s for r in untraced))
        per_round = [layer_metrics(tracing.merge([s, setup_summary]), untraced,
                                   r, overhead_s)
                     for s, r in zip(summaries, traced_rounds)]
        metrics = {k: {"value": statistics.median(m[k][0] for m in per_round),
                       "unit": unit} for k, (_, unit) in per_round[0].items()}
        out_dir = HERE / "_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"trace-{wl.name}.npz"
        tracing.save_spans(spans_path, [setup_tracer.spans(), *traced_rounds[0].spans])
        report["trace_overhead_s"] = overhead_s
        report["spans_file"] = str(spans_path.relative_to(HERE.parent))
    else:
        if not wl.in_process:
            peak = max(r.child_rss_mib for r in rounds)
        else:
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median(r.wall_s for r in rounds), "unit": "s"},
            "train_steps_per_s": {
                "value": statistics.median(r.steps / max(r.train_s, 1e-9)
                                           for r in rounds),
                "unit": "steps/s"},
            "peak_rss_mib": {"value": peak, "unit": "MiB"},
        }

    print("report " + json.dumps(report))
    result = {"correct": all(c.ok for c in required),
              "attempted": report["attempted"], "failed": report["failed"],
              "metrics": metrics}
    print(json.dumps(result))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs for the benchmark's own tests")
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
