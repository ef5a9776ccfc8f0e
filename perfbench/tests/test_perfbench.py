"""Tests of the benchmark itself: a smoke run of every workload, a refusal
to run without the package sources, and for every output check a case
showing that it rejects a wrong output."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import sparsebnn as sb  # noqa: E402

import checks as ck  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PRIOR = workloads.PRIOR


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                     "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout.splitlines()[-2]
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    proc = run_bench("--workload", "train-single", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# ------------------------------------------------------------------ tracing


def small_problem():
    spec = sb.SyntheticSpec(n=120, n_features=4, alpha=2.0, pi_active=0.5, seed=1)
    data, _, _ = sb.standardize_fit_apply(sb.gen_sparse_regression(spec))
    topo = sb.NetworkTopology((4, 5, 3, 1))
    config = sb.TrainConfig(epochs=3, batch_size=50, mc_samples=2, seed=2)
    return topo, data, config


def test_tracing_is_off_the_numeric_path_and_counts_calls():
    topo, data, config = small_problem()
    plain = sb.train(topo, sb.SpikeSlabPrior(*PRIOR), data, config).params
    original = sb.svi.forward
    tracer = tracing.Tracer()
    with tracer:
        traced = sb.train(topo, sb.SpikeSlabPrior(*PRIOR), data, config).params
    assert sb.svi.forward is original and sb.forward is original
    assert ck.param_digest(plain.m, plain.rho, plain.p) == ck.param_digest(
        traced.m, traced.rho, traced.p)
    summary = tracing.summarize(tracer.spans())
    steps = 3 * 3
    assert summary["steps"] == steps
    assert summary["calls"]["svi.NoiseDraw.draw"] == 2 * steps
    assert summary["calls"]["svi.penalty_total"] == 2 * steps
    assert summary["calls"]["network.backward"] == 2 * steps
    assert all(v >= 0.0 for v in summary["self_s"].values())


# ------------------------------------------------- each check rejects a wrong output


@pytest.fixture(scope="module")
def trained():
    topo, data, config = small_problem()
    report = sb.train(topo, sb.SpikeSlabPrior(*PRIOR), data, config)
    return topo, data, report.params


def bump(a, i=0, by=1e-6):
    a = np.array(a, dtype=float)
    a[i] += by
    return a


def test_check_predict(trained):
    topo, data, vp = trained
    _, pruned = sb.prune(vp, "inclusion_p", 0.5)
    pred = sb.predict(topo, pruned, data.X)
    args = ("predict", topo.layer_sizes, "relu", pruned.m, pruned.active, data.X)
    assert ck.check_predict(*args, pred).ok
    assert not ck.check_predict(*args, bump(pred)).ok
    # a prediction that ignores the mask is wrong too
    assert not ck.check_predict(*args, sb.predict(topo, vp, data.X)).ok


def test_check_inclusion_p(trained):
    _, _, vp = trained
    assert ck.check_inclusion_p("p", vp.m, vp.rho, vp.p, None, PRIOR).ok
    assert not ck.check_inclusion_p("p", vp.m, vp.rho, bump(vp.p, 3), None, PRIOR).ok


def test_check_psi(trained):
    topo, _, vp = trained
    psi = sb.feature_importance_psi(topo, vp)
    assert ck.check_psi("psi", topo.layer_sizes, vp.p, psi).ok
    assert not ck.check_psi("psi", topo.layer_sizes, vp.p, bump(psi, 1)).ok


def test_check_prune(trained):
    _, _, vp = trained
    keep_p = sb.prune(vp, "inclusion_p", 0.25)[0].keep
    keep_m2 = sb.prune(vp, "second_moment", 0.25)[0].keep
    assert ck.check_prune("prune", 0.25, keep_p, keep_m2, vp.p).ok
    flipped = keep_p.copy()
    flipped[np.flatnonzero(flipped)[0]] = False
    assert not ck.check_prune("prune", 0.25, flipped, keep_m2, vp.p).ok
    swapped = keep_p.copy()
    swapped[np.flatnonzero(keep_p)[0]] = False
    swapped[np.flatnonzero(~keep_p)[0]] = True
    assert not ck.check_prune("prune", 0.25, swapped, keep_m2, vp.p).ok


def test_check_roundtrip(trained, tmp_path):
    topo, _, vp = trained
    prior = sb.SpikeSlabPrior(*PRIOR)
    sb.save_checkpoint(tmp_path / "m.ckpt", topo, prior, vp)
    saved = workloads._checkpoint_fields(topo, prior, vp)
    loaded = workloads._checkpoint_fields(*sb.load_checkpoint(tmp_path / "m.ckpt"))
    assert ck.check_roundtrip("rt", saved, loaded).ok
    assert not ck.check_roundtrip("rt", saved, {**loaded, "rho": np.nextafter(
        loaded["rho"], np.inf)}).ok
    assert not ck.check_roundtrip("rt", saved, {**loaded, "active": np.ones(len(vp), bool)}).ok


def test_read_checkpoint_matches_layout_and_rejects_extra_bytes(trained, tmp_path):
    topo, _, vp = trained
    path = tmp_path / "m.ckpt"
    sb.save_checkpoint(path, topo, sb.SpikeSlabPrior(*PRIOR), vp)
    header, m, rho, p, active = ck.read_checkpoint(path)
    assert header["layer_sizes"] == list(topo.layer_sizes) and active is None
    assert ck.param_digest(m, rho, p) == ck.param_digest(vp.m, vp.rho, vp.p)
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(ValueError):
        ck.read_checkpoint(path)


def test_check_beats_mean():
    y = np.array([1.0, -1.0, 2.0, -2.0])
    assert ck.check_beats_mean("m", y + 0.1, y, y).ok
    assert not ck.check_beats_mean("m", -y, y, y).ok


def test_check_cv_recovery_and_selection_accuracy():
    z = np.array([1, 0, 0, 0, 0, 1, 0, 0, 0, 0], bool)
    assert ck.check_cv_recovery("cv", 0.2, z).ok
    assert not ck.check_cv_recovery("cv", 0.4, z).ok
    assert ck.check_selection_accuracy("acc", z, z).ok
    assert not ck.check_selection_accuracy("acc", z, ~z).ok


def test_check_pruned_frozen(trained):
    _, _, vp = trained
    _, pruned = sb.prune(vp, "inclusion_p", 0.5)
    keep = pruned.active
    args = ("frozen", keep, pruned.m, pruned.p)
    assert ck.check_pruned_frozen(*args, pruned.rho, vp.rho).ok
    moved = pruned.rho.copy()
    i = np.flatnonzero(~keep)[0]
    moved[i] = np.nextafter(moved[i], 0.0)
    assert not ck.check_pruned_frozen(*args, moved, vp.rho).ok
    assert not ck.check_pruned_frozen("frozen", keep, bump(pruned.m, i), pruned.p,
                                      pruned.rho, vp.rho).ok
    assert not ck.check_pruned_frozen("frozen", keep, pruned.m, bump(pruned.p, i),
                                      pruned.rho, vp.rho).ok


def test_check_finite_and_loss_decreased():
    assert ck.check_finite("f", a=np.ones(3)).ok
    assert not ck.check_finite("f", a=np.array([1.0, np.nan])).ok
    assert ck.check_loss_decreased("l", [2.0, 1.0]).ok
    assert not ck.check_loss_decreased("l", [1.0, 1.0]).ok


def test_check_prune_table():
    rates = workloads.DROPRATES
    rows = [{"droprate": str(r), "sparsity": repr(ck.n_dropped(r, 331) / 331)}
            for r in rates]
    assert ck.check_prune_table("t", rows, rates, 331).ok
    assert not ck.check_prune_table("t", rows[1:], rates, 331).ok
    wrong = [dict(r) for r in rows]
    wrong[4]["sparsity"] = repr(float(wrong[4]["sparsity"]) + 1 / 331)
    assert not ck.check_prune_table("t", wrong, rates, 331).ok


def test_check_select_report():
    good = {"selected": [1, 0, 1], "n_selected": 2}
    assert ck.check_select_report("s", good, 3).ok
    assert not ck.check_select_report("s", {**good, "n_selected": 3}, 3).ok
    assert not ck.check_select_report("s", good, 4).ok


def test_check_same():
    assert ck.check_same("d", ["a", "a", "a"]).ok
    assert not ck.check_same("d", ["a", "b", "a"]).ok
