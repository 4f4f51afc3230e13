import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ctgformer
from ctgformer.cli import main
from ctgformer.data import GenSpec, generate_cohort, write_cohort, write_raw_traces
from ctgformer.model import load_checkpoint
from ctgformer.signal import MISSING, RawTrace


@pytest.fixture()
def cohort_file(tmp_path):
    path = tmp_path / "cohort.csv"
    write_cohort(generate_cohort(GenSpec(n_per_class=12, seed=3)), path)
    return path


@pytest.fixture()
def preds_file(tmp_path):
    from ctgformer.evaluation import Prediction, write_predictions

    path = tmp_path / "preds.csv"
    write_predictions([Prediction("a", 0.2, 0, 1.0), Prediction("b", 0.7, 1, 3.0)], path)
    return path


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SMALL_MODEL = ["--patch-len", "32", "--stride", "32", "--n-layers", "1",
               "--n-heads", "2", "--d-model", "16", "--d-ff", "16",
               "--dropout", "0.0", "--fc-dropout", "0.0", "--attn-dropout", "0.0"]


class TestGenerate:
    def test_writes_file_and_digest_stable(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        code, stdout, _ = run(["generate", "--n-per-class", "5", "--seed", "7",
                               "--out", str(out)], capsys)
        assert code == 0
        assert out.exists()
        digest1 = [l for l in stdout.splitlines() if l.startswith("digest")][0]
        code, stdout2, _ = run(["generate", "--n-per-class", "5", "--seed", "7",
                                "--out", str(out)], capsys)
        digest2 = [l for l in stdout2.splitlines() if l.startswith("digest")][0]
        assert digest1 == digest2

    def test_zero_per_class_fails(self, tmp_path, capsys):
        code, _, stderr = run(["generate", "--n-per-class", "0",
                               "--out", str(tmp_path / "c.csv")], capsys)
        assert code != 0
        assert "error[data]" in stderr

    def test_generated_file_reusable_by_eval_pipeline(self, tmp_path, capsys):
        from ctgformer.data import read_cohort

        out = tmp_path / "c.csv"
        code, _, _ = run(["generate", "--n-per-class", "4", "--seed", "1",
                          "--out", str(out)], capsys)
        assert code == 0
        cohort = read_cohort(out)
        assert len(cohort.traces) == 8


@pytest.mark.parametrize("argv,module", [
    (["generate", "--n-per-class", "2", "--missing-rate", "nan"], "data"),
    (["generate", "--n-per-class", "2", "--contraction-rate", "inf"], "data"),
    (["train", "--learning-rate", "nan", "--max-epochs", "1"] + SMALL_MODEL, "train"),
], ids=["missing_rate_nan", "contraction_rate_inf", "learning_rate_nan"])
def test_non_finite_rate_fails_cleanly(tmp_path, cohort_file, capsys, argv, module):
    argv = argv + (["--out", str(tmp_path / "c.csv")] if argv[0] == "generate" else
                   ["--data", str(cohort_file), "--out-dir", str(tmp_path / "run")])
    code, _, stderr = run(argv, capsys)
    assert code == 1
    assert stderr.startswith(f"error[{module}]: ") and "must be finite" in stderr


@pytest.mark.parametrize("argv,message", [
    (["generate", "--n-per-class", "0", "--out", "newdir/c.csv"], "error[data]: "),
    (["train", "--data", "cohort.csv", "--learning-rate", "nan", "--out-dir", "run"]
     + SMALL_MODEL, "error[train]: learning_rate must be finite"),
    (["train", "--data", "nope.csv", "--out-dir", "run"],
     "error[cli]: cohort file not found"),
    (["train", "--data", "cohort.csv", "--preset", "nope", "--out-dir", "run"],
     "error[hpo]: unknown preset 'nope'; available: ['paper-best']"),
    (["finetune", "--from", "nope.ckpt", "--data", "cohort.csv", "--out-dir", "run"],
     "error[cli]: checkpoint not found"),
    (["eval", "--preds", "nope.csv", "--out-dir", "run"],
     "error[cli]: predictions file not found"),
    (["eval", "--preds", "preds.csv", "--dtd-max", "-1", "--out-dir", "run"],
     "error[eval]: no positive predictions within -1.0 days of delivery"),
    (["hpo", "--data", "nope.csv", "--out-dir", "run"], "error[cli]: cohort file not found"),
    (["hpo", "--data", "cohort.csv", "--trials", "0", "--out-dir", "run"],
     "error[hpo]: n_trials must be at least 1"),
    (["hpo", "--data", "cohort.csv", "--trials", "1", "--patience", "0", "--out-dir", "run"],
     "error[train]: patience must be at least 1"),
    (["hpo", "--data", "cohort.csv", "--trials", "1", "--max-epochs", "-1",
      "--out-dir", "run"], "error[train]: max_epochs must be non-negative"),
    (["generate", "--n-per-class", "2", "--seed", "-1", "--out", "newdir/c.csv"],
     "error[data]: seed must be non-negative, got -1"),
    (["train", "--data", "cohort.csv", "--seed", "-1", "--out-dir", "run"] + SMALL_MODEL,
     "error[train]: seed must be non-negative, got -1"),
    (["hpo", "--data", "cohort.csv", "--trials", "1", "--seed", "-1", "--out-dir", "run"],
     "error[data]: seed must be non-negative, got -1"),
    (["train", "--data", "cohort.csv", "--d-ff", "0", "--out-dir", "run"],
     "error[model]: d_ff must be at least 1, got 0"),
    (["train", "--data", "cohort.csv", "--d-model", "0", "--out-dir", "run"],
     "error[model]: d_model must be at least 1, got 0"),
], ids=["generate_zero_per_class", "train_learning_rate_nan", "train_missing_data",
        "train_unknown_preset", "finetune_missing_from", "eval_missing_preds",
        "eval_negative_dtd_max", "hpo_missing_data", "hpo_zero_trials", "hpo_zero_patience",
        "hpo_negative_max_epochs", "generate_negative_seed", "train_negative_seed",
        "hpo_negative_seed", "train_zero_d_ff", "train_zero_d_model"])
def test_rejected_run_writes_nothing(tmp_path, cohort_file, preds_file, capsys, monkeypatch,
                                     argv, message):
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    code, _, stderr = run(argv, capsys)
    assert code == 1
    assert stderr.startswith(message)
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("overrides,message", [
    ({"patch_len": 16.5}, "error[model]: patch_len must be an integer, got 16.5"),
    ({"batch_size": 4.0}, "error[train]: batch_size must be an integer, got 4.0"),
    ({"share_backbone": "false"},
     "error[model]: share_backbone must be true or false, got 'false'"),
], ids=["float_patch_len", "float_batch_size", "string_share_backbone"])
def test_mistyped_config_file_writes_nothing(tmp_path, cohort_file, capsys, monkeypatch,
                                             overrides, message):
    monkeypatch.chdir(tmp_path)
    Path("cfg.json").write_text(json.dumps(overrides))
    before = sorted(tmp_path.rglob("*"))
    code, _, stderr = run(["train", "--data", "cohort.csv", "--config", "cfg.json",
                           "--out-dir", "run"], capsys)
    assert code == 1
    assert stderr.startswith(message)
    assert sorted(tmp_path.rglob("*")) == before


class TestPreprocess:
    def test_windows_raw_traces(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        n = 2400
        fhr = rng.uniform(60, 240, n)
        fhr[rng.random(n) < 0.05] = MISSING
        raws = [RawTrace("long", fhr, rng.uniform(0, 100, n), 1, 2.0)]
        raw_path = tmp_path / "raw.csv"
        write_raw_traces(raws, raw_path)
        out = tmp_path / "cohort.csv"
        code, stdout, _ = run(["preprocess", "--raw", str(raw_path),
                               "--out", str(out)], capsys)
        assert code == 0
        from ctgformer.data import read_cohort

        cohort = read_cohort(out)
        assert len(cohort.traces) == 3
        assert [t.window_index for t in cohort.traces] == [0, 1, 2]

    def test_reports_windows_dropped_by_the_thirty_percent_rule(self, tmp_path, capsys):
        fhr = np.full(2400, 140.0)
        fhr[960:1300] = MISSING   # the middle window misses 340 of 960 samples
        raw_path, out = tmp_path / "raw.csv", tmp_path / "cohort.csv"
        write_raw_traces([RawTrace("r", fhr, np.full(2400, 20.0), 0, 1.0)], raw_path)
        code, stdout, _ = run(["preprocess", "--raw", str(raw_path), "--out", str(out)], capsys)
        assert code == 0
        assert f"wrote 2 windows to {out} (1 dropped by the 30% rule)" in stdout


class TestTrain:
    def test_artifacts_and_rerun_determinism(self, tmp_path, cohort_file, capsys):
        out_dir = tmp_path / "run"
        argv = ["train", "--data", str(cohort_file), "--seed", "1",
                "--max-epochs", "2", "--batch-size", "8", "--learning-rate", "1e-3",
                "--out-dir", str(out_dir)] + SMALL_MODEL
        code, stdout, _ = run(argv, capsys)
        assert code == 0
        assert (out_dir / "best.ckpt").exists()
        assert (out_dir / "train_log.csv").exists()
        assert (out_dir / "effective_config.json").exists()
        final1 = [l for l in stdout.splitlines() if l.startswith("stop=")][0]
        ckpt1 = (out_dir / "best.ckpt").read_bytes()

        code, stdout2, _ = run(argv, capsys)
        final2 = [l for l in stdout2.splitlines() if l.startswith("stop=")][0]
        assert final1 == final2
        assert (out_dir / "best.ckpt").read_bytes() == ckpt1

    def test_single_epoch_single_log_line(self, tmp_path, cohort_file, capsys):
        out_dir = tmp_path / "run1"
        code, _, _ = run(["train", "--data", str(cohort_file), "--max-epochs", "1",
                          "--batch-size", "8", "--out-dir", str(out_dir)] + SMALL_MODEL,
                         capsys)
        assert code == 0
        lines = (out_dir / "train_log.csv").read_text().strip().splitlines()
        assert len(lines) == 2  # header + one epoch
        int(lines[1].split(",")[0])

    def test_separate_backbones_flag(self, tmp_path, cohort_file, capsys):
        out_dir = tmp_path / "sep"
        code, _, _ = run(["train", "--data", str(cohort_file), "--max-epochs", "1",
                          "--batch-size", "8", "--separate-backbones",
                          "--out-dir", str(out_dir)] + SMALL_MODEL, capsys)
        assert code == 0
        cfg = json.loads((out_dir / "effective_config.json").read_text())
        assert cfg["model"]["share_backbone"] is False
        params, ckpt_cfg = load_checkpoint(out_dir / "best.ckpt")
        assert ckpt_cfg.share_backbone is False
        assert len(params.backbones) == 2

    def test_missing_data_file(self, tmp_path, capsys):
        code, _, stderr = run(["train", "--data", str(tmp_path / "nope.csv"),
                               "--out-dir", str(tmp_path / "r")], capsys)
        assert code == 1
        assert "error[cli]" in stderr

    def test_preset_paper_best_loads(self, tmp_path, cohort_file, capsys):
        # preset then explicit overrides shrink it for test runtime
        out_dir = tmp_path / "run2"
        code, _, _ = run(["train", "--data", str(cohort_file), "--preset", "paper-best",
                          "--max-epochs", "1", "--n-layers", "1", "--d-model", "32",
                          "--n-heads", "2", "--d-ff", "16", "--batch-size", "8",
                          "--out-dir", str(out_dir)], capsys)
        assert code == 0
        cfg = json.loads((out_dir / "effective_config.json").read_text())
        assert cfg["model"]["patch_len"] == 16      # from preset
        assert cfg["model"]["d_model"] == 32        # flag overrides preset
        assert cfg["train"]["learning_rate"] == 1e-4

    def test_config_file_precedence(self, tmp_path, cohort_file, capsys):
        cfg_file = tmp_path / "overrides.json"
        cfg_file.write_text(json.dumps({"d_model": 16, "n_heads": 2, "n_layers": 1,
                                        "d_ff": 16, "patch_len": 32, "stride": 32,
                                        "dropout": 0.0, "fc_dropout": 0.0,
                                        "attn_dropout": 0.0, "batch_size": 8,
                                        "max_epochs": 1}))
        out_dir = tmp_path / "run3"
        code, _, _ = run(["train", "--data", str(cohort_file), "--config", str(cfg_file),
                          "--d-ff", "24", "--out-dir", str(out_dir)], capsys)
        assert code == 0
        cfg = json.loads((out_dir / "effective_config.json").read_text())
        assert cfg["model"]["d_ff"] == 24           # flag beats config file
        assert cfg["model"]["d_model"] == 16        # config file beats default

    def test_config_seq_len_mismatch_rejected(self, tmp_path, cohort_file, capsys):
        cfg_file = tmp_path / "short.json"
        cfg_file.write_text(json.dumps({"seq_len": 480}))
        code, _, stderr = run(["train", "--data", str(cohort_file), "--config", str(cfg_file),
                               "--max-epochs", "1", "--out-dir", str(tmp_path / "r")]
                              + SMALL_MODEL, capsys)
        assert code == 1
        assert stderr.startswith("error[train]: config seq_len 480 does not match "
                                 "the 960-sample traces")

    @pytest.mark.parametrize("payload", [{"d_modle": 16}, {"seed": 5}],
                             ids=["misspelt", "seed"])
    def test_unknown_config_key_rejected(self, tmp_path, cohort_file, capsys, payload):
        cfg_file = tmp_path / "bad.json"
        cfg_file.write_text(json.dumps(payload))
        code, _, stderr = run(["train", "--data", str(cohort_file),
                               "--config", str(cfg_file), "--max-epochs", "1",
                               "--out-dir", str(tmp_path / "r")] + SMALL_MODEL, capsys)
        assert code == 1
        assert "unknown" in stderr


class TestFinetuneCli:
    @pytest.fixture()
    def pretrained(self, tmp_path, cohort_file, capsys):
        code, _, _ = run(["train", "--data", str(cohort_file), "--max-epochs", "1",
                          "--batch-size", "8", "--out-dir", str(tmp_path / "pre")]
                         + SMALL_MODEL, capsys)
        assert code == 0
        return tmp_path / "pre" / "best.ckpt"

    def finetune_argv(self, tmp_path, cohort_file, pretrained):
        return ["finetune", "--from", str(pretrained), "--data", str(cohort_file),
                "--max-epochs", "1", "--batch-size", "8", "--out-dir", str(tmp_path / "ft")]

    def test_matching_model_flags_train(self, tmp_path, cohort_file, pretrained, capsys):
        code, stdout, _ = run(self.finetune_argv(tmp_path, cohort_file, pretrained)
                              + SMALL_MODEL, capsys)
        assert code == 0
        assert f"checkpoint {tmp_path / 'ft' / 'best.ckpt'}" in stdout.splitlines()
        assert (tmp_path / "ft" / "best.ckpt").exists()

    def test_differing_model_flag_rejected(self, tmp_path, cohort_file, pretrained, capsys):
        code, _, stderr = run(self.finetune_argv(tmp_path, cohort_file, pretrained)
                              + SMALL_MODEL + ["--d-model", "32"], capsys)
        assert code == 1
        assert stderr.startswith("error[train]: ") and "does not match" in stderr

    def test_matching_subset_of_settings_trains(self, tmp_path, cohort_file, pretrained,
                                                capsys):
        code, _, stderr = run(self.finetune_argv(tmp_path, cohort_file, pretrained)
                              + ["--d-model", "16"], capsys)
        assert code == 0, stderr
        assert (tmp_path / "ft" / "best.ckpt").exists()

    def test_mismatch_names_keys_and_writes_nothing(self, tmp_path, cohort_file, pretrained,
                                                    capsys):
        before = sorted(tmp_path.rglob("*"))
        code, _, stderr = run(self.finetune_argv(tmp_path, cohort_file, pretrained)
                              + ["--d-model", "32", "--n-layers", "2"], capsys)
        assert code == 1
        assert stderr == ("error[train]: checkpoint config does not match: n_layers 1 in "
                          "the checkpoint, 2 given; d_model 16 in the checkpoint, 32 given\n")
        assert sorted(tmp_path.rglob("*")) == before

    def test_effective_config_records_checkpoint_model(self, tmp_path, cohort_file,
                                                       pretrained, capsys):
        code, _, _ = run(self.finetune_argv(tmp_path, cohort_file, pretrained), capsys)
        assert code == 0
        echoed = json.loads((tmp_path / "ft" / "effective_config.json").read_text())
        assert echoed["model"] == load_checkpoint(pretrained)[1].as_dict()
        assert echoed["from"] == str(pretrained)

    def test_finetune_from_checkpoint(self, tmp_path, cohort_file, capsys):
        train_dir = tmp_path / "pre"
        code, _, _ = run(["train", "--data", str(cohort_file), "--seed", "1",
                          "--max-epochs", "1", "--batch-size", "8",
                          "--out-dir", str(train_dir)] + SMALL_MODEL, capsys)
        assert code == 0
        ft_dir = tmp_path / "ft"
        code, stdout, _ = run(["finetune", "--from", str(train_dir / "best.ckpt"),
                               "--data", str(cohort_file), "--dtd-band", "0:7",
                               "--max-epochs", "1", "--batch-size", "8",
                               "--out-dir", str(ft_dir)], capsys)
        assert code == 0
        assert (ft_dir / "best.ckpt").exists()
        threads = json.loads((ft_dir / "effective_config.json").read_text())["threads"]
        assert threads["usable_cpus"] == len(os.sched_getaffinity(0))

    def test_empty_band_errors(self, tmp_path, capsys):
        cohort = generate_cohort(GenSpec(n_per_class=6, seed=5, dtd_days=(3, 7)))
        path = tmp_path / "far.csv"
        write_cohort(cohort, path)
        train_dir = tmp_path / "pre"
        code, _, _ = run(["train", "--data", str(path), "--max-epochs", "1",
                          "--batch-size", "8", "--out-dir", str(train_dir)]
                         + SMALL_MODEL, capsys)
        assert code == 0
        code, _, stderr = run(["finetune", "--from", str(train_dir / "best.ckpt"),
                               "--data", str(path), "--dtd-band", "0:2",
                               "--max-epochs", "1",
                               "--out-dir", str(tmp_path / "ft")], capsys)
        assert code == 1
        assert "error[data]" in stderr and "band" in stderr


class TestEvalCli:
    def test_eval_from_predictions(self, tmp_path, capsys):
        from ctgformer.evaluation import Prediction, write_predictions

        rng = np.random.default_rng(2)
        preds = [Prediction(f"t{i}", float(s), int(l), float(d))
                 for i, (s, l, d) in enumerate(zip(rng.random(60),
                                                   rng.integers(0, 2, 60),
                                                   rng.integers(0, 8, 60)))]
        path = tmp_path / "preds.csv"
        write_predictions(preds, path)
        out_dir = tmp_path / "evalout"
        code, stdout, _ = run(["eval", "--preds", str(path), "--threshold", "youden",
                               "--out-dir", str(out_dir)], capsys)
        assert code == 0
        assert (out_dir / "report.json").exists()
        assert (out_dir / "roc_points.csv").exists()
        line = [l for l in stdout.splitlines() if l.startswith("youden")][0]
        for key in ("sens=", "spec=", "ppv=", "npv=", "f1=", "acc="):
            assert key in line

    def test_eval_requires_inputs(self, tmp_path, capsys):
        code, _, stderr = run(["eval", "--out-dir", str(tmp_path / "e")], capsys)
        assert code == 1
        assert "error[cli]" in stderr

    def test_eval_checkpoint_on_cohort(self, tmp_path, cohort_file, capsys):
        train_dir = tmp_path / "m"
        code, _, _ = run(["train", "--data", str(cohort_file), "--max-epochs", "1",
                          "--batch-size", "8", "--out-dir", str(train_dir)]
                         + SMALL_MODEL, capsys)
        assert code == 0
        out_dir = tmp_path / "e2"
        code, stdout, _ = run(["eval", "--ckpt", str(train_dir / "best.ckpt"),
                               "--data", str(cohort_file), "--out-dir", str(out_dir)],
                              capsys)
        assert code == 0
        assert (out_dir / "preds.csv").exists()
        assert "auc=" in stdout

    def test_eval_scores_are_float64_predict_scores(self, tmp_path, cohort_file, capsys):
        import csv

        from ctgformer.data import read_cohort
        from ctgformer.model import (ModelConfig, cast_params, init_params, predict_scores,
                                     save_checkpoint)

        cfg = ModelConfig(patch_len=32, stride=32, n_layers=1, n_heads=2, d_model=16, d_ff=16)
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(init_params(cfg, 4), cfg, ckpt)
        out_dir = tmp_path / "e"
        code, _, _ = run(["eval", "--ckpt", str(ckpt), "--data", str(cohort_file),
                          "--out-dir", str(out_dir)], capsys)
        assert code == 0
        params, cfg = load_checkpoint(ckpt)
        traces = read_cohort(cohort_file).traces
        with open(out_dir / "preds.csv", newline="") as fh:
            written = [row["score"] for row in csv.DictReader(fh)]
        assert written == [repr(float(s)) for s in predict_scores(traces, cfg, params)]
        float32 = predict_scores(traces, cfg, cast_params(params, np.float32))
        assert written != [repr(float(s)) for s in float32]

    def test_eval_empty_cohort_reports_error(self, tmp_path, capsys):
        from ctgformer.data import Cohort
        from ctgformer.model import ModelConfig, init_params, save_checkpoint

        cfg = ModelConfig(patch_len=32, stride=32, n_layers=1, n_heads=2, d_model=16, d_ff=16)
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(init_params(cfg, 0), cfg, ckpt)
        empty = tmp_path / "empty.csv"
        write_cohort(Cohort(traces=[]), empty)
        code, _, stderr = run(["eval", "--ckpt", str(ckpt), "--data", str(empty),
                               "--out-dir", str(tmp_path / "e")], capsys)
        assert code == 1
        assert "error[eval]" in stderr


class TestHpoCli:
    def test_leaderboard_written(self, tmp_path, cohort_file, capsys):
        out_dir = tmp_path / "hpo"
        # config-file route cannot shrink the search space; use a tiny trial
        # budget on the small cohort instead
        code, stdout, _ = run(["hpo", "--data", str(cohort_file), "--trials", "2",
                               "--max-epochs", "1", "--seed", "2",
                               "--out-dir", str(out_dir)], capsys)
        assert code == 0
        lines = (out_dir / "leaderboard.csv").read_text().strip().splitlines()
        assert len(lines) == 3
        assert "best trial" in stdout
        threads = json.loads((out_dir / "effective_config.json").read_text())["threads"]
        assert threads["usable_cpus"] == len(os.sched_getaffinity(0))


@pytest.mark.parametrize("argv", [
    ["generate", "--n-per-class", "0", "--out", "nope.csv", "--out-dir", "d"],
    ["preprocess", "--raw", "nope.csv", "--out", "nope.csv", "--seed", "1"],
    ["eval", "--preds", "nope.csv", "--config", "c.json"],
    ["hpo", "--data", "nope.csv", "--preset", "paper-best"],
], ids=["generate", "preprocess", "eval", "hpo"])
def test_flags_a_subcommand_does_not_read_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_module_entrypoint_smoke(tmp_path):
    out = tmp_path / "c.csv"
    proc = subprocess.run([sys.executable, "-m", "ctgformer.cli", "generate",
                           "--n-per-class", "2", "--seed", "1", "--out", str(out)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


@pytest.mark.parametrize("activation,loaded", [("relu", False), ("gelu", True)])
def test_scipy_special_loads_only_for_gelu(tmp_path, cohort_file, activation, loaded):
    argv = ["train", "--data", str(cohort_file), "--max-epochs", "1", "--batch-size", "8",
            "--out-dir", str(tmp_path / "run"), *SMALL_MODEL, "--activation", activation]
    script = ("import sys\nfrom ctgformer.cli import main\n"
              f"code = main({argv!r})\nprint(code, 'scipy.special' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(ctgformer.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-2:] == ["0", str(loaded)]


@pytest.mark.parametrize("openblas", [None, "3"])
def test_thread_settings_recorded(tmp_path, cohort_file, openblas):
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = str(Path(ctgformer.__file__).resolve().parents[1])
    if openblas is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas
    out_dir = tmp_path / "run"
    proc = subprocess.run([sys.executable, "-m", "ctgformer.cli", "train",
                           "--data", str(cohort_file), "--max-epochs", "1",
                           "--batch-size", "8", "--out-dir", str(out_dir)] + SMALL_MODEL,
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    threads = json.loads((out_dir / "effective_config.json").read_text())["threads"]
    cpus = len(os.sched_getaffinity(0))
    half = str(max(1, cpus // 2))
    assert threads == {"OPENBLAS_NUM_THREADS": openblas or half, "OMP_NUM_THREADS": half,
                       "MKL_NUM_THREADS": half, "usable_cpus": cpus}


def test_results_env_var_default(tmp_path, cohort_file, capsys, monkeypatch):
    monkeypatch.setenv("CTG_RESULTS_DIR", str(tmp_path / "envroot"))
    code, _, _ = run(["train", "--data", str(cohort_file), "--max-epochs", "1",
                      "--batch-size", "8"] + SMALL_MODEL, capsys)
    assert code == 0
    assert (tmp_path / "envroot" / "train" / "best.ckpt").exists()
