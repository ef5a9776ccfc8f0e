"""End-to-end command-line runs on small synthetic configurations."""

import csv
import hashlib
import json
import shutil
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reframe
from sparsebnn import (
    NetworkTopology,
    SpikeSlabPrior,
    TrainConfig,
    VariationalParams,
    load_checkpoint,
    load_csv,
    predict,
    prune,
    save_checkpoint,
    split,
    standardize_fit_apply,
    train,
)
from sparsebnn.cli import (
    DEFAULTS, _load_run, build_dataset, build_parser, main, resolve_options,
)

FAST = [
    "--epochs", "15", "--batch", "64", "--hidden", "6",
]


def _train(tmp_path, name="run", data="sparse:n=240,d=8,alpha=2,pi=0.5,"
           "link=linear,seed=3", extra=()):
    out = tmp_path / name
    code = main(
        ["train", "--data", data, "--out", str(out), "--seed", "1", *FAST,
         *extra]
    )
    assert code == 0
    return out


class TestTrainCommand:
    def test_writes_checkpoint_metrics_and_run_config(self, tmp_path):
        out = _train(tmp_path)
        assert (out / "model.ckpt").exists()
        assert (out / "run.json").exists()
        lines = (out / "metrics.jsonl").read_text().strip().splitlines()
        assert len(lines) == 15  # one object per epoch
        record = json.loads(lines[0])
        assert set(record) == {
            "schema_version", "epoch", "objective", "train_loss", "wall_ms"
        }
        run = json.loads((out / "run.json").read_text())
        assert run["schema_version"] == 1
        assert run["epochs"] == 15

    def test_rerun_same_config_same_checkpoint_bytes(self, tmp_path):
        a = _train(tmp_path, "a")
        b = _train(tmp_path, "b")
        assert (a / "model.ckpt").read_bytes() == (b / "model.ckpt").read_bytes()

    def test_bad_prior_exits_2_naming_the_invariant(self, tmp_path, capsys):
        code = main(
            ["train", "--data", "two_feature:alpha=0.5,n=60,seed=1",
             "--out", str(tmp_path / "x"), "--log-tau1", "-6",
             "--log-tau0", "1", *FAST]
        )
        assert code == 2
        assert "0 < tau0 < tau1" in capsys.readouterr().err

    def test_divergence_exits_3(self, tmp_path, capsys):
        with np.errstate(all="ignore"):
            code = main(["train", "--data", "sparse:n=64,d=2,seed=1",
                         "--out", str(tmp_path / "x"), "--optimizer", "sgd",
                         "--lr", "1e200", "--epochs", "3"])
        assert code == 3
        assert capsys.readouterr().err.startswith("numerical abort:")
        assert not (tmp_path / "x").exists()

    def test_missing_data_exits_2(self, tmp_path, capsys):
        code = main(["train", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "--data" in capsys.readouterr().err

    def test_config_file_with_cli_override(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("epochs = 5\nlr = 0.02\nhidden = 4\n")
        out = tmp_path / "conf_run"
        code = main(
            ["train", "--data", "two_feature:alpha=0.3,n=80,seed=2",
             "--config", str(conf), "--epochs", "3", "--out", str(out)]
        )
        assert code == 0
        run = json.loads((out / "run.json").read_text())
        assert run["epochs"] == 3      # CLI beats the file
        assert run["lr"] == 0.02       # file beats the default
        assert run["hidden"] == "4"

    @pytest.mark.parametrize("argv, conf", [
        ([], "optimizer = rmsprop\n"),
        (["--hidden", "a"], ""),
        (["--lr", "nan"], ""),
        (["--lr", "1e400"], ""),
        (["--noise-variance", "inf"], ""),
        (["--log-tau1", "inf"], ""),
        (["--seed", "-1"], ""),
    ], ids=["config-optimizer-rmsprop", "hidden-a", "lr-nan", "lr-1e400",
            "noise-variance-inf", "log-tau1-inf", "seed-minus-1"])
    def test_rejected_option_leaves_no_output_dir(self, tmp_path, argv,
                                                  conf):
        out = tmp_path / "never"
        code = main(["train", "--data", "two_feature:alpha=0.3,n=60,seed=2",
                     "--config", _write(tmp_path / "r.conf", conf),
                     "--out", str(out), *argv])
        assert code == 2
        assert not out.exists()

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        conf = tmp_path / "bad.conf"
        conf.write_text("learning = 0.5\n")
        code = main(
            ["train", "--data", "two_feature:alpha=0.3,n=60,seed=2",
             "--config", str(conf), "--out", str(tmp_path / "y")]
        )
        assert code == 2
        assert "learning" in capsys.readouterr().err


class TestPruneCommand:
    def test_rate_zero_row_matches_unpruned_model(self, tmp_path):
        out = _train(tmp_path)
        code = main(
            ["prune", "--checkpoint", str(out / "model.ckpt"),
             "--rule", "p", "--droprates", "50,0,25"]
        )
        assert code == 0
        with open(out / "prune.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        rates = [float(r["droprate"]) for r in rows]
        assert rates == sorted(rates)
        assert rates[0] == 0.0

        # independent evaluation of the unpruned checkpoint
        topo, _, vp = load_checkpoint(out / "model.ckpt")
        run = json.loads((out / "run.json").read_text())
        full = build_dataset(run["data"])
        tr, te = split(full, run["train_frac"], seed=run["split_seed"])
        tr_s, te_s, scaler = standardize_fit_apply(tr, te)
        pred = scaler.inverse_y(predict(topo, vp, te_s.X)[:, 0])
        truth = scaler.inverse_y(te_s.y)
        rmse = float(np.sqrt(np.mean((pred - truth) ** 2)))
        assert float(rows[0]["test_rmse"]) == pytest.approx(rmse, rel=1e-12)

    def test_unknown_rule_exits_2(self, tmp_path, capsys):
        out = _train(tmp_path)
        code = main(
            ["prune", "--checkpoint", str(out / "model.ckpt"),
             "--rule", "magnitude", "--droprates", "0"]
        )
        assert code == 2
        assert "rule" in capsys.readouterr().err

    def test_sparsity_column_tracks_droprate(self, tmp_path):
        out = _train(tmp_path)
        main(["prune", "--checkpoint", str(out / "model.ckpt"),
              "--rule", "m2", "--droprates", "0,50,90"])
        with open(out / "prune.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            assert abs(float(row["sparsity"]) - float(row["droprate"])) < 0.02

    @pytest.mark.parametrize("droprates, message", [
        ("", "at least one rate"), (" , ", "at least one rate"),
        ("10,ten", "not a number"),
    ])
    def test_bad_droprates_exit_2(self, tmp_path, capsys, droprates,
                                  message):
        out = _train(tmp_path)
        code = main(["prune", "--checkpoint", str(out / "model.ckpt"),
                     "--droprates", droprates])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (out / "prune.csv").exists()

    def test_default_droprate_grid(self):
        args = build_parser().parse_args(["prune", "--checkpoint", "x"])
        assert args.droprates == "0,10,20,25,50,75,80,90,95"

    def test_rerun_produces_identical_csv_bytes(self, tmp_path):
        out = _train(tmp_path)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path in (a, b):
            code = main(["prune", "--checkpoint", str(out / "model.ckpt"),
                         "--rule", "p", "--droprates", "0,50",
                         "--out", str(path)])
            assert code == 0
        assert a.read_bytes() == b.read_bytes()


class TestImportanceCommand:
    def test_row_count_matches_feature_count(self, tmp_path):
        out = _train(tmp_path)
        code = main(["importance", "--checkpoint", str(out / "model.ckpt")])
        assert code == 0
        with open(out / "importance.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8
        assert set(rows[0]) == {"feature", "psi", "phi", "schema_version"}
        phis = np.array([float(r["phi"]) for r in rows])
        assert phis.min() == 0.0 and phis.max() == 1.0

    def test_uniform_p_model_reports_flat_phi(self, tmp_path):
        # an untouched state has constant rho and near-constant p, so phi
        # degenerates; the CSV must still be written (with a warning)
        topo = NetworkTopology((5, 3, 1))
        vp = VariationalParams(
            np.zeros(topo.n_params), np.zeros(topo.n_params),
            np.full(topo.n_params, 0.4),
        )
        ckpt = tmp_path / "flat" / "model.ckpt"
        ckpt.parent.mkdir()
        save_checkpoint(ckpt, topo, SpikeSlabPrior(0.5, 1.0, 0.1), vp)
        with pytest.warns(UserWarning, match="constant"):
            code = main(["importance", "--checkpoint", str(ckpt)])
        assert code == 0
        with open(ckpt.parent / "importance.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert all(float(r["phi"]) == 0.0 for r in rows)


class TestSelectCommand:
    def test_fixed_quantile_report(self, tmp_path):
        out = _train(tmp_path)
        report_path = tmp_path / "select.json"
        code = main(
            ["select", "--checkpoint", str(out / "model.ckpt"),
             "--quantile", "0.5", "--out", str(report_path)]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["schema_version"] == 1
        assert "refit_test_rmse" in report
        assert "unrestricted_test_rmse" in report
        assert "selection_accuracy" in report  # generator records z
        assert report["n_selected"] == sum(report["selected"])
        assert report["estimated_active_proportion"] == pytest.approx(
            report["n_selected"] / 8
        )

    def test_cv_flag_reports_chosen_proportion(self, tmp_path):
        out = _train(tmp_path)
        report_path = tmp_path / "cv.json"
        code = main(
            ["select", "--checkpoint", str(out / "model.ckpt"), "--cv",
             "--folds", "2", "--grid", "0.25,1.0",
             "--out", str(report_path)]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["cv_keep_proportion"] in (0.25, 1.0)
        assert report["quantile"] == pytest.approx(
            1.0 - report["cv_keep_proportion"]
        )

    def test_cv_report_bytes_are_pinned(self, tmp_path):
        out = _train(tmp_path)
        report_path = tmp_path / "cv.json"
        code = main(
            ["select", "--checkpoint", str(out / "model.ckpt"), "--cv",
             "--folds", "2", "--grid", "0.25,0.5,1.0",
             "--out", str(report_path)]
        )
        assert code == 0
        assert _sha256(report_path) == SELECT_CV_SHA256

    def test_single_fold_cv_exits_2(self, tmp_path, capsys):
        out = _train(tmp_path)
        code = main(["select", "--checkpoint", str(out / "model.ckpt"),
                     "--cv", "--folds", "1"])
        assert code == 2
        assert "folds must be >= 2" in capsys.readouterr().err

    def test_quantile_one_exits_2(self, tmp_path, capsys):
        out = _train(tmp_path)
        code = main(["select", "--checkpoint", str(out / "model.ckpt"),
                     "--quantile", "1.0"])
        assert code == 2
        assert "keep_quantile" in capsys.readouterr().err


# SHA-256 of four fixed-seed CLI outputs: a `select --cv` JSON report, a
# `benchmark --repeats 2` CSV, the run.json of `_train`'s run and a
# `gradcheck --draws 2000` CSV.  Like the golden runs in test_golden.py they
# were recorded with numpy 2.4.6 on x86-64 and may round differently on
# another numpy, BLAS or CPU.
SELECT_CV_SHA256 = (
    "4601c1448986670a5970325b426f24f846dfd55824540bf8cde2b6f9f91a3b80")
BENCHMARK_SHA256 = (
    "e083ffb39b5e543e50f1920269a0a665ba8b49b1e38d97b54f47b32a7cabe7d7")
RUN_JSON_SHA256 = (
    "5455a6036db6d11d6f5b43434646361ba76e9b7feb95041eec110a7542cf95e2")
GRADCHECK_SHA256 = (
    "10548f5f623daca2004e509411ef723911108d3d80e4ce44b488bde8356c341f")
# SHA-256 of the artifacts of `_train`'s run, then `prune` (default rule and
# droprates) and `importance` on its checkpoint; same provenance as above.
PIPELINE_SHA256 = {
    "model.ckpt":
        "5b3fffcffb2da1a633dac7b962d96afa89f6a5df91490bc7879a3ebf1ca0b853",
    "prune.csv":
        "f21a8a5e68c47b691152974655f77aa2c932fb87537da888ee33e85ba834c9f9",
    "importance.csv":
        "7122b73ad16b739654c3f6c05b760f9392821ed7fca8637caa2e26169f866cdd",
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_train_prune_importance_bytes_are_pinned(tmp_path):
    out = _train(tmp_path)
    assert _sha256(out / "run.json") == RUN_JSON_SHA256
    ckpt = str(out / "model.ckpt")
    assert main(["prune", "--checkpoint", ckpt]) == 0
    assert main(["importance", "--checkpoint", ckpt]) == 0
    assert {name: _sha256(out / name)
            for name in PIPELINE_SHA256} == PIPELINE_SHA256


def _write_benchmark_fixtures(tmp_path):
    rng = np.random.default_rng(7)
    manifest = {"datasets": []}
    for name, n in (("alpha", 120), ("beta", 150)):
        X = rng.standard_normal((n, 3))
        y = X @ np.array([1.0, -2.0, 0.5]) + 0.3 * rng.standard_normal(n)
        path = tmp_path / f"{name}.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["f1", "f2", "f3", "target"])
            writer.writerows(np.c_[X, y].tolist())
        manifest["datasets"].append(
            {"name": name, "path": f"{name}.csv", "target": "target",
             "n": n, "p": 3}
        )
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps(manifest))
    return mpath


class TestBenchmarkCommand:
    def test_two_datasets_times_nine_droprates(self, tmp_path):
        mpath = _write_benchmark_fixtures(tmp_path)
        out = tmp_path / "bench.csv"
        code = main(
            ["benchmark", "--manifest", str(mpath), "--repeats", "2",
             "--epochs", "10", "--batch", "64", "--hidden", "4",
             "--out", str(out)]
        )
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * 9
        assert {r["dataset"] for r in rows} == {"alpha", "beta"}
        assert all("seed" in r for r in rows)
        assert all(float(r["rmse_se"]) >= 0.0 for r in rows)

    def test_two_repeat_csv_bytes_are_pinned(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = main(
            ["benchmark", "--manifest", str(_write_benchmark_fixtures(tmp_path)),
             "--repeats", "2", "--epochs", "6", "--batch", "64",
             "--hidden", "4", "--out", str(out)]
        )
        assert code == 0
        assert _sha256(out) == BENCHMARK_SHA256

    @pytest.mark.parametrize("extra, conf, split_seed, standardize", [
        (["--split-seed", "5"], "", 5, True),
        ([], "standardize = false\n", 0, False),
    ], ids=["split-seed-5", "standardize-false"])
    def test_one_repeat_row_matches_library_calls(
            self, tmp_path, extra, conf, split_seed, standardize):
        mpath = _write_benchmark_fixtures(tmp_path)
        out = tmp_path / "bench.csv"
        code = main(
            ["benchmark", "--manifest", str(mpath), "--repeats", "1",
             "--epochs", "4", "--batch", "64", "--hidden", "4",
             "--droprates", "50", "--config", _write(tmp_path / "b.conf", conf),
             "--out", str(out), *extra]
        )
        assert code == 0
        with open(out, newline="") as fh:
            row = next(csv.DictReader(fh))
        assert row["dataset"] == "alpha"

        tr, te = split(load_csv(tmp_path / "alpha.csv", "target"), 0.9,
                       seed=split_seed)
        if standardize:
            tr, te, scaler = standardize_fit_apply(tr, te)
        topo = NetworkTopology((3, 4, 1))
        prior = SpikeSlabPrior(0.5, 1.0, float(np.exp(-2.302585092994046)))
        report = train(topo, prior, tr,
                       TrainConfig(epochs=4, batch_size=64, seed=0))
        _, pruned = prune(report.params, "inclusion_p", 0.5)
        pred = predict(topo, pruned, te.X)[:, 0]
        truth = te.y
        if standardize:
            pred, truth = scaler.inverse_y(pred), scaler.inverse_y(truth)
        rmse = float(np.sqrt(np.mean((pred - truth) ** 2)))
        assert float(row["rmse_mean"]) == rmse

    def test_manifest_shape_mismatch_exits_2(self, tmp_path, capsys):
        mpath = _write_benchmark_fixtures(tmp_path)
        doc = json.loads(mpath.read_text())
        doc["datasets"][0]["n"] = 9999
        mpath.write_text(json.dumps(doc))
        code = main(
            ["benchmark", "--manifest", str(mpath), "--repeats", "1",
             "--epochs", "2", "--out", str(tmp_path / "x.csv")]
        )
        assert code == 2
        assert "9999" in capsys.readouterr().err

    def test_empty_droprates_exit_2(self, tmp_path, capsys):
        mpath = _write_benchmark_fixtures(tmp_path)
        out = tmp_path / "bench.csv"
        code = main(
            ["benchmark", "--manifest", str(mpath), "--repeats", "1",
             "--epochs", "2", "--droprates", "", "--out", str(out)]
        )
        assert code == 2
        assert "droprates" in capsys.readouterr().err
        assert not out.exists()

    def _bench_rows(self, tmp_path, name, *args):
        out = tmp_path / f"{name}.csv"
        code = main(["benchmark", "--manifest",
                     str(_write_benchmark_fixtures(tmp_path)), "--repeats",
                     "1", "--epochs", "3", "--batch", "64", "--hidden", "4",
                     "--out", str(out), *args])
        assert code == 0
        return out.read_bytes()

    def test_config_rule_and_droprates_are_read(self, tmp_path):
        conf = _write(tmp_path / "b.conf", "rule = m2\ndroprates = 5\n")
        from_file = self._bench_rows(tmp_path, "file", "--config", conf)
        rows = list(csv.DictReader(from_file.decode().splitlines()))
        assert [(r["dataset"], r["droprate"]) for r in rows] == [
            ("alpha", "0.05"), ("beta", "0.05")]
        assert from_file == self._bench_rows(
            tmp_path, "cli", "--rule", "m2", "--droprates", "5")

    def test_command_line_overrides_config_rule_and_droprates(self, tmp_path):
        conf = _write(tmp_path / "b.conf", "rule = magnitude\ndroprates = 5\n")
        rows = list(csv.DictReader(self._bench_rows(
            tmp_path, "over", "--config", conf, "--rule", "p",
            "--droprates", "50,90").decode().splitlines()))
        assert [r["droprate"] for r in rows] == ["0.5", "0.9"] * 2

    def test_config_unknown_rule_exits_2(self, tmp_path, capsys):
        # the file's rule is looked up, not replaced by a default
        conf = _write(tmp_path / "b.conf", "rule = magnitude\n")
        code = main(["benchmark", "--manifest",
                     str(_write_benchmark_fixtures(tmp_path)), "--repeats",
                     "1", "--epochs", "2", "--config", conf,
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "unknown rule 'magnitude'" in capsys.readouterr().err

    def test_empty_manifest_exits_2(self, tmp_path, capsys):
        mpath = tmp_path / "manifest.json"
        mpath.write_text(json.dumps({"datasets": []}))
        code = main(["benchmark", "--manifest", str(mpath),
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "no datasets" in capsys.readouterr().err


class TestGradcheckCommand:
    def test_default_grid_csv(self, tmp_path):
        out = tmp_path / "grad.csv"
        code = main(["gradcheck", "--draws", "2000", "--out", str(out)])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8
        assert all(float(r["closed_form_variance_m"]) == 0.0 for r in rows)
        assert _sha256(out) == GRADCHECK_SHA256

    def test_explicit_settings(self, tmp_path):
        out = tmp_path / "grad2.csv"
        code = main(
            ["gradcheck", "--draws", "1000",
             "--settings", "0.5,0.4,0.5,1.0,0.2;1.0,0.3,0.4,1.5,0.1",
             "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 2  # one header, one line per setting
        assert "schema_version" in lines[0]
        assert "mc_variance_sigma2" in lines[0]

    def test_malformed_settings_exit_2(self, tmp_path, capsys):
        code = main(["gradcheck", "--settings", "1,2,3",
                     "--out", str(tmp_path / "g.csv")])
        assert code == 2
        assert "m,sigma,pi,tau1,tau0" in capsys.readouterr().err


BAD_DATA = "sparse:n=200,d=5,seed=0"


@pytest.fixture(scope="module")
def bad_input_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("bad_input") / "run"
    assert main(["train", "--data", BAD_DATA, "--epochs", "2",
                 "--out", str(out)]) == 0
    return out


def _damaged_run(run, tmp, damage):
    """A copy of ``run`` whose run.json or model.ckpt ``damage`` rewrites."""
    copy = tmp / "damaged"
    shutil.copytree(run, copy)
    damage(copy)
    return ["prune", "--checkpoint", str(copy / "model.ckpt")]


def _edit_run_json(edit):
    def damage(copy):
        run = json.loads((copy / "run.json").read_text())
        edit(run)
        (copy / "run.json").write_text(json.dumps(run))
    return damage


def _rewrite_checkpoint(rewrite):
    def damage(copy):
        path = copy / "model.ckpt"
        path.write_bytes(rewrite(path.read_bytes()))
    return damage


def _write(path, text):
    path.write_text(text)
    return str(path)


def _one_row_manifest(tmp):
    """A benchmark manifest whose one CSV has a single data row."""
    _write(tmp / "one.csv", "a,y\n1,2\n")
    return _write(tmp / "manifest.json", json.dumps(
        {"datasets": [{"name": "one", "path": "one.csv", "target": "y"}]}))


# the run's checkpoint with a header that names a softmax head
_softmax_checkpoint = _rewrite_checkpoint(lambda raw: reframe(
    raw, lambda header: header.update(output_head="softmax")))


# each case: (run, tmp) -> argv, plus the text stderr must name
BAD_INPUTS = [
    pytest.param(lambda run, tmp: [
        "prune", "--checkpoint", str(run / "model.ckpt"),
        "--data", "sparse:n=200,d=7,seed=0"], "d=7", id="prune-data-width"),
    pytest.param(lambda run, tmp: [
        "prune", "--checkpoint", str(run / "model.ckpt"),
        "--out", str(tmp / "nodir" / "p.csv")], "nodir", id="prune-out-dir"),
    pytest.param(lambda run, tmp: [
        "importance", "--checkpoint", str(run / "model.ckpt"),
        "--out", str(tmp / "nodir" / "i.csv")], "nodir",
        id="importance-out-dir"),
    pytest.param(lambda run, tmp: [
        "gradcheck", "--draws", "100", "--out", str(tmp / "nodir" / "g.csv")],
        "nodir", id="gradcheck-out-dir"),
    pytest.param(lambda run, tmp: [
        "train", "--data", BAD_DATA, "--out", _write(tmp / "taken", "")],
        "taken", id="train-out-is-file"),
    pytest.param(lambda run, tmp: [
        "train", "--data", BAD_DATA, "--config", str(tmp / "nofile.conf")],
        "nofile.conf", id="train-config-missing"),
    pytest.param(lambda run, tmp: [
        "train", "--data", BAD_DATA, "--out", str(tmp / "x"),
        "--config", _write(tmp / "run.conf", "epochs = two\n")],
        "run.conf: epochs = 'two'", id="config-epochs-two"),
    pytest.param(lambda run, tmp: [
        "train", "--data", BAD_DATA, "--epochs", "two", "--out", str(tmp / "x")],
        "--epochs: epochs = 'two'", id="cli-epochs-two"),
    pytest.param(lambda run, tmp: [
        "train", "--data", BAD_DATA, "--seed", "x", "--out", str(tmp / "x")],
        "--seed: seed = 'x'", id="cli-seed-x"),
    pytest.param(lambda run, tmp: [
        "train", "--data", BAD_DATA, "--seed", "-1", "--out", str(tmp / "x")],
        "seed must be >= 0, got -1", id="cli-seed-minus-1"),
    pytest.param(lambda run, tmp: [
        "train", "--data", BAD_DATA, "--split-seed", "-1",
        "--out", str(tmp / "x")],
        "split seed must be >= 0, got -1", id="train-split-seed-minus-1"),
    pytest.param(lambda run, tmp: [
        "benchmark", "--manifest", str(_write_benchmark_fixtures(tmp)),
        "--repeats", "1", "--epochs", "1", "--seed", "-1",
        "--out", str(tmp / "b.csv")],
        "seed must be >= 0, got -1", id="benchmark-seed-minus-1"),
    pytest.param(lambda run, tmp: [
        "benchmark", "--manifest", str(_write_benchmark_fixtures(tmp)),
        "--repeats", "1", "--epochs", "1", "--split-seed", "-1",
        "--out", str(tmp / "b.csv")],
        "split seed must be >= 0, got -1", id="benchmark-split-seed-minus-1"),
    pytest.param(lambda run, tmp: [
        "train", "--data", BAD_DATA, "--lr", "nan", "--out", str(tmp / "x")],
        "learning_rate must be finite and positive, got nan", id="cli-lr-nan"),
    # a library field's error names the option that set it
    pytest.param(lambda run, tmp: [
        "train", "--data", BAD_DATA, "--lr", "nan", "--out", str(tmp / "x")],
        "--lr = nan: learning_rate must be finite", id="cli-lr-nan-named"),
    pytest.param(lambda run, tmp: [
        "train", "--data", BAD_DATA, "--train-frac", "0",
        "--out", str(tmp / "x")],
        "--train-frac = 0.0, --split-seed = 0: train_fraction must lie in "
        "(0, 1), got 0.0", id="cli-train-frac-0"),
    pytest.param(lambda run, tmp: [
        "train", "--data", BAD_DATA, "--hidden", "a", "--out", str(tmp / "x")],
        "'a'", id="train-hidden-a"),
    pytest.param(lambda run, tmp: [
        "gradcheck", "--settings", "a,b,c,d,e", "--out", str(tmp / "g.csv")],
        "gradcheck setting 'a' is not a number", id="gradcheck-settings-a"),
    pytest.param(lambda run, tmp: [
        "train", "--data", BAD_DATA, "--hidden", "10,x",
        "--out", str(tmp / "x")],
        "hidden = '10,x': invalid literal for int() with base 10: 'x'",
        id="train-hidden-10-x"),
    pytest.param(lambda run, tmp: [
        "train", "--data", "sparse:n=100,d=4,bogus=1", "--epochs", "1",
        "--out", str(tmp / "x")],
        "sparse data spec: unknown key 'bogus'", id="data-unknown-key"),
    pytest.param(lambda run, tmp: [
        "train", "--data", "sparse:n=abc", "--out", str(tmp / "x")],
        "sparse data spec: n = 'abc'", id="data-n-abc"),
    pytest.param(lambda run, tmp: [
        "train", "--data", BAD_DATA, "--epochs", "1", "--out", str(tmp / "x"),
        "--config", _write(tmp / "head.conf", "head = softmax\n")],
        "unknown config key 'head'", id="train-head-softmax"),
    pytest.param(lambda run, tmp: _damaged_run(run, tmp, _softmax_checkpoint),
        "model.ckpt: output_head 'softmax'", id="prune-softmax-checkpoint"),
    pytest.param(lambda run, tmp: [
        "importance", "--checkpoint", _damaged_run(
            run, tmp, _softmax_checkpoint)[-1]],
        "model.ckpt: output_head 'softmax'", id="importance-softmax-checkpoint"),
    pytest.param(lambda run, tmp: _damaged_run(
        run, tmp, lambda copy: (copy / "run.json").write_text("{not json")),
        "run.json", id="run-json-malformed"),
    pytest.param(lambda run, tmp: _damaged_run(
        run, tmp, _edit_run_json(lambda doc: doc.pop("data"))),
        "run.json: lacks key 'data'", id="run-json-without-data"),
    pytest.param(lambda run, tmp: _damaged_run(
        run, tmp, _edit_run_json(lambda doc: doc.update(seed=None))),
        "run.json: seed = None", id="run-json-null-seed"),
    pytest.param(lambda run, tmp: [
        "benchmark", "--manifest", _write(tmp / "manifest.json", json.dumps(
            {"datasets": [{"path": "a.csv", "target": "y"}]}))],
        "manifest.json: dataset entry 0: KeyError('name')",
        id="manifest-entry-without-name"),
    pytest.param(lambda run, tmp: _damaged_run(
        run, tmp, _rewrite_checkpoint(
            lambda raw: reframe(raw, lambda header: header.pop("has_mask")))),
        "has_mask", id="checkpoint-without-has-mask"),
    pytest.param(lambda run, tmp: _damaged_run(
        run, tmp, _rewrite_checkpoint(lambda raw: raw[:11])),
        "model.ckpt", id="checkpoint-under-12-bytes"),
    pytest.param(lambda run, tmp: [
        "gradcheck", "--draws", "1", "--out", str(tmp / "g.csv")],
        "draws must be >= 2, got 1", id="gradcheck-draws-1"),
    *(pytest.param(lambda run, tmp, bad=bad: [
        "gradcheck", "--draws", "100", "--out", str(tmp / "g.csv"),
        "--settings", "0.5,0.3,0.5,1,0.1;" + bad], named, id=case)
      for case, bad, named in (
          ("gradcheck-sigma-0", "0.5,0,0.5,1,0.1",
           "setting 1: sigma = 0.0"),
          ("gradcheck-sigma-1e-300", "0.5,1e-300,0.5,1,0.1",
           "setting 1: sigma = 1e-300"),
          ("gradcheck-sigma-negative", "0.5,-1,0.5,1,0.1",
           "setting 1: sigma = -1.0"),
          ("gradcheck-sigma-inf", "0.5,inf,0.5,1,0.1",
           "setting 1: sigma = inf"),
          ("gradcheck-m-nan", "nan,0.3,0.5,1,0.1",
           "setting 1: m = nan"),
          ("gradcheck-sigma-1e-14", "0.5,1e-14,0.5,1,0.1",
           "setting 1: sigma = 1e-14 is too small for m = 0.5"),
          # sigma^2 is a normal float, but the estimators' 1 / sigma^2
          # terms overflow
          ("gradcheck-sigma-1e-150", "0.0,1e-150,0.5,1,0.1",
           "setting 1: at m = 0.0, sigma = 1e-150, the estimators fail"))),
    pytest.param(lambda run, tmp: [
        "select", "--checkpoint", str(run / "model.ckpt"), "--cv",
        "--grid", "0.5,x"], "--grid value 'x'", id="select-grid-x"),
    pytest.param(lambda run, tmp: [
        "select", "--checkpoint", str(run / "model.ckpt"), "--cv",
        "--grid", "0.5,nan"], "candidate proportions must lie in (0, 1]",
        id="select-grid-nan"),
    # 2**59 float64 values are 4 EiB, more than any 64-bit address space,
    # so the allocation fails at once on every host
    pytest.param(lambda run, tmp: [
        "train", "--data", "sparse:n=50,d=3", "--epochs", str(2**59),
        "--out", str(tmp / "x")], f"epochs = {2**59}: ",
        id="train-epochs-2e59"),
    # past numpy's size limit numpy raises ValueError, not MemoryError
    pytest.param(lambda run, tmp: [
        "train", "--data", "sparse:n=50,d=3", "--epochs", str(2**62),
        "--out", str(tmp / "x")], f"epochs = {2**62}: ",
        id="train-epochs-2e62"),
    pytest.param(lambda run, tmp: [
        "gradcheck", "--draws", str(2**59), "--out", str(tmp / "g.csv")],
        f"draws = {2**59}: ", id="gradcheck-draws-2e59"),
    # 2**59 rows of float64 pass numpy's size limit, 2**48 parameters a
    # 48-bit address space, so these fail at once too
    pytest.param(lambda run, tmp: [
        "train", "--data", f"sparse:n={2**59},d=3", "--epochs", "1",
        "--out", str(tmp / "x")], f"sparse data spec: n = {2**59}, d = 3: ",
        id="train-data-sparse-n-2e59"),
    pytest.param(lambda run, tmp: [
        "train", "--data", f"two_feature:n={2**59}", "--epochs", "1",
        "--out", str(tmp / "x")], f"two_feature data spec: n = {2**59}: ",
        id="train-data-two-feature-n-2e59"),
    pytest.param(lambda run, tmp: [
        "train", "--data", BAD_DATA, "--hidden", "16777216,16777216",
        "--epochs", "1", "--out", str(tmp / "x")],
        "layer_sizes = (5, 16777216, 16777216, 1): ",
        id="train-hidden-2e24-squared"),
    pytest.param(lambda run, tmp: [
        "train", "--out", str(tmp / "x"), "--data",
        "csv:path=" + _write(tmp / "wild.csv", "a,y\n1,2\n3,1e999\n")
        + ",target=y"], "wild.csv:3: non-finite cell '1e999'",
        id="train-csv-non-finite-cell"),
    # a generator's range error names the keys the spec gave
    pytest.param(lambda run, tmp: [
        "train", "--data", "sparse:n=50,d=3,pi=1.5", "--out", str(tmp / "x")],
        "sparse data spec: n = 50, d = 3, pi = 1.5: pi_active must lie in "
        "[0, 1], got 1.5", id="train-data-sparse-pi-1.5"),
    pytest.param(lambda run, tmp: [
        "train", "--data", BAD_DATA, "--out", str(tmp / "x"),
        "--config", _write(tmp / "run.conf", "# epochs\nepochs 5\n")],
        "run.conf:2: expected key = value", id="config-line-without-equals"),
    pytest.param(lambda run, tmp: [
        "prune", "--checkpoint", str(run / "model.ckpt"),
        "--droprates", "150"], "droprates must map into [0, 1): '150'",
        id="prune-droprates-150"),
    pytest.param(lambda run, tmp: [
        "benchmark", "--manifest", str(_write_benchmark_fixtures(tmp)),
        "--repeats", "0", "--out", str(tmp / "b.csv")],
        "--repeats must be >= 1", id="benchmark-repeats-0"),
    pytest.param(lambda run, tmp: [
        "train", "--out", str(tmp / "x"), "--data",
        "csv:path=" + _write(tmp / "empty.csv", "") + ",target=y"],
        "empty.csv: empty file", id="train-csv-empty-file"),
    pytest.param(lambda run, tmp: [
        "train", "--out", str(tmp / "x"), "--data",
        "csv:path=" + _write(tmp / "head.csv", "a,y\n") + ",target=y"],
        "head.csv: no data rows", id="train-csv-header-only"),
    pytest.param(lambda run, tmp: [
        "train", "--out", str(tmp / "x"), "--data",
        "csv:path=" + _write(tmp / "two.csv", "a,y\n1,2\n3,4\n")
        + ",target=2"],
        "two.csv: target column index 2 out of range for 2 columns",
        id="train-csv-target-2-of-2"),
    *(pytest.param(lambda run, tmp, spec=spec: [
        "train", "--data", spec, "--out", str(tmp / "x")], named, id=case)
      for case, spec, named in (
          ("data-without-kind", "sparse",
           "data spec needs a kind prefix, got 'sparse'"),
          ("data-unknown-kind", "gauss:n=50", "unknown data kind 'gauss'"),
          ("data-csv-without-target", "csv:path=a.csv",
           "csv spec needs path= and target="),
          ("data-key-without-value", "sparse:n=50,d",
           "expected key=value, got 'd'"),
          ("data-csv-empty-path", "csv:path=,target=y",
           "csv spec needs path= and target=; empty or missing: path"),
          # a train/test split needs 2 rows
          ("data-sparse-n-1", "sparse:n=1,d=3",
           "sparse data spec: n = 1, d = 3: needs at least 2 rows"),
          ("data-two-feature-n-0", "two_feature:n=0",
           "two_feature data spec: n = 0: needs at least 2 rows"))),
    pytest.param(lambda run, tmp: [
        "train", "--out", str(tmp / "x"), "--data",
        "csv:path=" + _write(tmp / "one.csv", "a,y\n1,2\n") + ",target=y"],
        "one.csv: needs at least 2 rows for a train/test split, got 1",
        id="train-csv-one-row"),
    pytest.param(lambda run, tmp: [
        "benchmark", "--manifest", _one_row_manifest(tmp), "--repeats", "1",
        "--epochs", "1", "--out", str(tmp / "b.csv")],
        "one.csv: needs at least 2 rows for a train/test split, got 1",
        id="benchmark-csv-one-row"),
    *(pytest.param(lambda run, tmp, option=option: [
        "train", "--data", BAD_DATA, option, "0", "--out", str(tmp / "x")],
        named, id=f"cli{option[1:]}-0")
      for option, named in (
          ("--epochs", "epochs must be >= 1, got 0"),
          ("--batch", "batch_size must be >= 1, got 0"),
          ("--mc-samples", "mc_samples must be >= 1, got 0"))),
    pytest.param(lambda run, tmp: [
        "train", "--data", BAD_DATA, "--log-tau0", "5",
        "--out", str(tmp / "x")],
        "log_tau0 = 5.0, log_tau1 = 0.0: prior scales must satisfy",
        id="cli-log-tau0-5"),
]


def test_csv_spec_takes_a_negative_integer_target(tmp_path):
    path = _write(tmp_path / "t.csv", "a,b,y\n1,2,3\n4,5,6\n")
    ds = build_dataset(f"csv:path={path},target=-1")
    assert ds.feature_names == ["a", "b"]
    np.testing.assert_array_equal(ds.y, [3.0, 6.0])
    np.testing.assert_array_equal(ds.X, [[1.0, 2.0], [4.0, 5.0]])


@pytest.mark.parametrize("argv, named", BAD_INPUTS)
def test_bad_file_path_or_option_exits_2(bad_input_run, tmp_path, capsys,
                                         argv, named):
    code = main(argv(bad_input_run, tmp_path))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:") and len(err.splitlines()) == 1
    assert named in err
    # a rejected train run leaves no --out directory behind
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("option, named", [
    ("--log-tau1", "tau1 must be finite, got inf"),
    ("--log-tau0", "tau0=inf"),
], ids=["log-tau1", "log-tau0"])
def test_overflowing_log_scale_gives_only_the_config_error(tmp_path, capsys,
                                                           option, named):
    # exp(1000) overflows; the prior's check names the infinite scale, with
    # no numpy warning before it
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["train", "--data", BAD_DATA, option, "1000",
                     "--out", str(tmp_path / "x")])
    err = capsys.readouterr().err
    assert code == 2
    assert [str(w.message) for w in caught] == []
    assert len(err.splitlines()) == 1
    assert err.startswith("config error:") and named in err


def test_head_option_is_gone(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--data", BAD_DATA, "--head", "identity",
              "--out", str(tmp_path / "x")])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", [
    "train", "prune", "importance", "select", "benchmark", "gradcheck"])
def test_help_exits_0_and_lists_the_shared_options(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    if command in ("train", "benchmark"):
        text = capsys.readouterr().out
        for key in DEFAULTS:
            assert (f"--{key.replace('_', '-')} " in text) == (
                key != "standardize"), key


def test_run_json_with_head_key_still_loads(bad_input_run, tmp_path):
    argv = _damaged_run(bad_input_run, tmp_path, _edit_run_json(
        lambda doc: doc.update(head="identity")))
    assert main(argv) == 0
    assert (tmp_path / "damaged" / "prune.csv").exists()


# a value of each DEFAULTS key's type; the keys with choices draw from them
_OPTION_VALUES = {
    bool: st.booleans(),
    int: st.integers(-2**40, 2**40),
    float: st.floats(allow_nan=False, allow_infinity=False),
    "hidden": st.lists(st.integers(1, 99), min_size=1, max_size=3).map(
        lambda sizes: ",".join(map(str, sizes))),
    "activation": st.sampled_from(["relu", "tanh", "identity"]),
    "optimizer": st.sampled_from(["sgd", "adam"]),
    "kl_schedule": st.sampled_from(["uniform", "blundell"]),
}


@pytest.fixture(scope="module")
def option_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("options")


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_each_option_resolves_alike_from_every_source(option_dir, data):
    """Every DEFAULTS key, given one value on the command line, in a
    --config file or in a run.json, resolves to that value."""
    parser = build_parser()
    for key, default in DEFAULTS.items():
        kind = int if key == "split_seed" else type(default)
        value = data.draw(_OPTION_VALUES[key] if key in _OPTION_VALUES
                          else _OPTION_VALUES[kind], label=key)
        text = str(value)
        sources = {}
        if key != "standardize":  # set only from a config file
            args = parser.parse_args(
                ["train", f"--{key.replace('_', '-')}={text}"])
            sources["command line"] = resolve_options(args)[key]
        conf = option_dir / "options.conf"
        conf.write_text(f"{key} = {text}\n")
        args = parser.parse_args(["train", "--config", str(conf)])
        sources["config file"] = resolve_options(args)[key]
        run = {**DEFAULTS, "split_seed": 0, "data": BAD_DATA, key: value}
        (option_dir / "run.json").write_text(json.dumps(run))
        sources["run.json"] = _load_run(option_dir / "model.ckpt")[key]
        for source, resolved in sources.items():
            assert (type(resolved), resolved) == (kind, value), (key, source)
