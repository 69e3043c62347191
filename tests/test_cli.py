"""CLI surface: subcommands, exit codes, reproducible outputs."""

import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from riskclr.cli import main
from riskclr.data import SyntheticConfig, generate_synthetic, save
from riskclr.encoder import STANDARD_CONFIGS, build, save_checkpoint


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def small_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    cfg = SyntheticConfig(n_subjects=24, n_downstream=40, duration=4.0, seed=9)
    pre, down = generate_synthetic(cfg)
    save(pre, root / "pre.rds")
    save(down, root / "down.rds")
    return root


class TestScore2Command:
    def test_known_rows(self, runner, tmp_path):
        src = tmp_path / "meta.csv"
        with open(src, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=["age", "gender", "smoking", "sbp",
                                                    "diabetes", "tchol", "hdl"])
            writer.writeheader()
            writer.writerow({"age": "60", "gender": "male", "smoking": "0", "sbp": "120",
                             "diabetes": "0", "tchol": "6", "hdl": "1.3"})
            writer.writerow({"age": "60", "gender": "female", "smoking": "0", "sbp": "120",
                             "diabetes": "0", "tchol": "6", "hdl": "1.3"})
            writer.writerow({"age": "60", "gender": "male", "smoking": "", "sbp": "120",
                             "diabetes": "", "tchol": "", "hdl": ""})
        result = runner.invoke(main, ["score2", "--input", str(src)])
        assert result.exit_code == 0, result.output
        rows = list(csv.DictReader(result.output.splitlines()))
        assert abs(float(rows[0]["r"]) - 0.0395) < 1e-12
        assert abs(float(rows[1]["r"]) - 0.0224) < 1e-12
        assert rows[0]["m"] == "0"
        assert rows[2]["m"] == "4"

    def test_missing_input_exit_3(self, runner):
        result = runner.invoke(main, ["score2", "--input", "/nonexistent.csv"])
        assert result.exit_code == 3

    def test_bad_row_exit_2(self, runner, tmp_path):
        src = tmp_path / "meta.csv"
        src.write_text("age,gender,smoking,sbp,diabetes,tchol,hdl\n-5,male,,,,,\n")
        result = runner.invoke(main, ["score2", "--input", str(src)])
        assert result.exit_code == 2

    @pytest.mark.parametrize("smoking,diabetes,column,value", [
        ("0.5", "0", "smoking", "0.5"),
        ("1", "1.9", "diabetes", "1.9"),
        ("2", "0", "smoking", "2"),
        ("0", "-1", "diabetes", "-1"),
        ("yes", "0", "smoking", "yes"),
        ("nan", "0", "smoking", "nan"),
    ])
    def test_non_binary_cell_exit_2(self, runner, tmp_path, smoking, diabetes, column, value):
        src = tmp_path / "meta.csv"
        src.write_text("age,gender,smoking,sbp,diabetes,tchol,hdl\n"
                       "60,male,1.0,120,0.0,6,1.3\n"
                       f"60,male,{smoking},120,{diabetes},6,1.3\n")
        result = runner.invoke(main, ["score2", "--input", str(src)])
        assert result.exit_code == 2, result.output
        assert f"row 1: column {column!r}: {value!r} is not 0 or 1" in result.output
        assert isinstance(result.exception, SystemExit)


class TestGenData:
    def test_generates_and_echoes_config(self, runner, tmp_path):
        out = tmp_path / "run"
        result = runner.invoke(main, ["gen-data", "--out-dir", str(out),
                                      "--n-subjects", "6", "--n-downstream", "4",
                                      "--seed", "3"])
        assert result.exit_code == 0, result.output
        assert (out / "pretrain.rds").exists()
        assert (out / "downstream.rds").exists()
        echoed = json.loads((out / "config.json").read_text())
        assert echoed["synthetic"]["n_subjects"] == 6

    def test_byte_reproducible(self, runner, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            result = runner.invoke(main, ["gen-data", "--out-dir", str(out),
                                          "--n-subjects", "5", "--n-downstream", "3",
                                          "--seed", "7"])
            assert result.exit_code == 0
        assert (a / "pretrain.rds").read_bytes() == (b / "pretrain.rds").read_bytes()
        assert (a / "downstream.rds").read_bytes() == (b / "downstream.rds").read_bytes()

    def test_unknown_config_key_exit_2(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"synthetic": {"bogus_key": 1}}))
        result = runner.invoke(main, ["gen-data", "--config", str(cfg),
                                      "--out-dir", str(tmp_path / "x")])
        assert result.exit_code == 2

    @pytest.mark.parametrize("args,field", [
        (["--n-downstream", "-1"], "n_downstream"), (["--n-subjects", "-2"], "n_subjects"),
        (["--seed", "-1"], "seed"),
    ])
    def test_bad_synthetic_flag_exit_2(self, runner, tmp_path, args, field):
        result = runner.invoke(main, ["gen-data", "--out-dir", str(tmp_path / "x"), *args])
        assert result.exit_code == 2, result.output
        assert f"{field} must be" in result.output
        assert isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize("section,field", [
        ({"fs": math.nan}, "fs"), ({"duration": math.inf}, "duration"),
        ({"optional_presence": 1.5}, "optional_presence"),
        ({"binary_quantile": -0.5}, "binary_quantile"),
    ])
    def test_bad_synthetic_config_exit_2(self, runner, tmp_path, section, field):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"synthetic": section}))  # NaN and Infinity as Python writes them
        result = runner.invoke(main, ["gen-data", "--config", str(cfg),
                                      "--out-dir", str(tmp_path / "x")])
        assert result.exit_code == 2, result.output
        assert f"{field} must be" in result.output
        assert not (tmp_path / "x" / "pretrain.rds").exists()

    def test_under_one_sample_duration_exit_2(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"synthetic": {"duration": 0.001}}))
        result = runner.invoke(main, ["gen-data", "--config", str(cfg), "--n-subjects", "2",
                                      "--n-downstream", "2", "--out-dir", str(tmp_path / "x")])
        assert result.exit_code == 2, result.output
        assert "duration * fs must give at least one sample" in result.output
        assert not (tmp_path / "x" / "pretrain.rds").exists()

    def test_config_parse_error_exit_2(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        result = runner.invoke(main, ["gen-data", "--config", str(cfg),
                                      "--out-dir", str(tmp_path / "x")])
        assert result.exit_code == 2


    @pytest.mark.parametrize("command,text,key", [
        ("gen-data", "[1, 2]", "JSON object"),
        ("gen-data", '{"synthetic": [1]}', "'synthetic'"),
        ("pretrain", '{"pretrain": 5}', "'pretrain'"),
        ("ablate", '{"downstream": "x"}', "'downstream'"),
        ("probe", '{"downstream": null}', "'downstream'"),
    ])
    def test_config_shape_error_exit_2(self, runner, tmp_path, command, text, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        args = {"gen-data": ["--out-dir", "x"],
                "pretrain": ["--data", "none.rds", "--run-dir", "x"],
                "ablate": ["--pretrain-data", "a", "--downstream-data", "b", "--run-dir", "x"],
                "probe": ["--checkpoint", str(cfg), "--data", "none", "--run-dir", "x"]}[command]
        result = runner.invoke(main, [command, "--config", str(cfg), *args])
        assert result.exit_code == 2, result.output
        assert str(cfg) in result.output and key in result.output
        assert isinstance(result.exception, SystemExit)


class TestPipelineCommands:
    def test_pretrain_probe_finetune_ablate(self, runner, small_data, tmp_path):
        run = tmp_path / "run"
        result = runner.invoke(main, [
            "pretrain", "--data", str(small_data / "pre.rds"), "--run-dir", str(run),
            "--encoder", "tiny", "--epochs", "2", "--batch-size", "12", "--seed", "3",
        ])
        assert result.exit_code == 0, result.output
        ckpt = run / "best.ckpt"
        assert ckpt.exists()
        assert (run / "metrics.csv").exists()

        probe_dir = tmp_path / "probe"
        result = runner.invoke(main, [
            "probe", "--checkpoint", str(ckpt), "--data", str(small_data / "down.rds"),
            "--run-dir", str(probe_dir), "--task", "binary",
        ])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output.strip().splitlines()[-1])
        assert "test" in payload and "auroc" in payload["test"]

        ft_dir = tmp_path / "ft"
        cfg = tmp_path / "ft.json"
        cfg.write_text(json.dumps({"downstream": {"epochs": 1}}))
        result = runner.invoke(main, [
            "finetune", "--config", str(cfg), "--checkpoint", str(ckpt),
            "--data", str(small_data / "down.rds"), "--run-dir", str(ft_dir),
            "--task", "binary",
        ])
        assert result.exit_code == 0, result.output

        ab_dir = tmp_path / "ab"
        abcfg = tmp_path / "ab.json"
        abcfg.write_text(json.dumps({"pretrain": {"epochs": 1, "batch_size": 12, "seed": 3},
                                     "downstream": {"epochs": 2}}))
        result = runner.invoke(main, [
            "ablate", "--config", str(abcfg), "--pretrain-data", str(small_data / "pre.rds"),
            "--downstream-data", str(small_data / "down.rds"), "--run-dir", str(ab_dir),
        ])
        assert result.exit_code == 0, result.output
        rows = list(csv.DictReader(open(ab_dir / "ablation.csv")))
        assert [r["variant"] for r in rows] == ["nce", "w", "d", "nce+d", "w+d"]

    def test_data_root_env_resolution(self, runner, small_data, tmp_path, monkeypatch):
        monkeypatch.setenv("RISKCLR_DATA_ROOT", str(small_data))
        run = tmp_path / "rootrun"
        result = runner.invoke(main, [
            "pretrain", "--data", "pre.rds", "--run-dir", str(run),
            "--encoder", "tiny", "--epochs", "1", "--batch-size", "12", "--seed", "3",
        ])
        assert result.exit_code == 0, result.output

    @pytest.mark.parametrize("command", ["probe", "finetune"])
    @pytest.mark.parametrize("split_name", ["train", "val"])
    def test_one_class_split_exit_2(self, runner, tmp_path, command, split_name):
        import dataclasses

        from riskclr.encoder import STANDARD_CONFIGS, build, save_checkpoint

        _, down = generate_synthetic(SyntheticConfig(n_subjects=4, n_downstream=8,
                                                     duration=4.0, seed=9))
        if split_name == "train":  # one class everywhere; otherwise val holds one sample
            down = dataclasses.replace(down, label_binary=np.zeros_like(down.label_binary))
        save(down, tmp_path / "down8.rds")
        save_checkpoint(tmp_path / "enc.ckpt", build(STANDARD_CONFIGS["tiny"], seed=0))
        result = runner.invoke(main, [
            command, "--checkpoint", str(tmp_path / "enc.ckpt"),
            "--data", str(tmp_path / "down8.rds"), "--run-dir", str(tmp_path / "run"),
            "--task", "binary",
        ])
        assert result.exit_code == 2, result.output
        assert f"Error: {split_name} split of" in result.output
        assert "both classes" in result.output
        assert "Traceback" not in result.output
        assert isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize("fractions", [[0.5, 0.6, 0.2], [0.5, 0.5], "abc", 5])
    def test_bad_downstream_split_exit_2(self, runner, small_data, tmp_path, fractions):
        from riskclr.encoder import STANDARD_CONFIGS, build, save_checkpoint

        save_checkpoint(tmp_path / "enc.ckpt", build(STANDARD_CONFIGS["tiny"], seed=0))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"downstream_split": fractions}))
        result = runner.invoke(main, [
            "probe", "--config", str(cfg), "--checkpoint", str(tmp_path / "enc.ckpt"),
            "--data", str(small_data / "down.rds"), "--run-dir", str(tmp_path / "run"),
        ])
        assert result.exit_code == 2, result.output
        assert str(cfg) in result.output and "'downstream_split'" in result.output
        assert isinstance(result.exception, SystemExit)

    def test_ablate_bad_downstream_split_exit_2(self, runner, small_data, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"pretrain": {"epochs": 1, "batch_size": 12},
                                   "downstream_split": [0.5, 0.6, 0.2]}))
        result = runner.invoke(main, [
            "ablate", "--config", str(cfg), "--pretrain-data", str(small_data / "pre.rds"),
            "--downstream-data", str(small_data / "down.rds"), "--run-dir", str(tmp_path / "ab"),
        ])
        assert result.exit_code == 2, result.output
        assert str(cfg) in result.output and "'downstream_split'" in result.output
        assert isinstance(result.exception, SystemExit)
        assert not (tmp_path / "ab" / "ablation.csv").exists()

    def test_resume_with_another_config_exit_2(self, runner, small_data, tmp_path):
        run = tmp_path / "run"
        base = ["pretrain", "--data", str(small_data / "pre.rds"), "--run-dir", str(run),
                "--epochs", "2", "--batch-size", "12", "--seed", "3"]
        assert runner.invoke(main, base).exit_code == 0
        before = (run / "last.ckpt").read_bytes()
        result = runner.invoke(main, base + ["--lr", "0.5", "--batch-size", "6",
                                             "--resume", str(run / "last.ckpt")])
        assert result.exit_code == 2, result.output
        assert "batch_size=12" in result.output and "batch_size=6" in result.output
        assert isinstance(result.exception, SystemExit)
        assert (run / "last.ckpt").read_bytes() == before

    @pytest.mark.parametrize("pretrain,message", [
        ({"mask_mode": "contiguous"}, "unknown PretrainConfig keys: ['mask_mode']"),
        ({"loss": {"lam": -1, "normalize": True}}, "lam must be non-negative and finite"),
        ({"loss": {"lam": 1.0, "normalize": "yes"}}, "normalize must be a bool"),
    ])
    def test_bad_pretrain_config_exit_2(self, runner, small_data, tmp_path, pretrain, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"pretrain": pretrain}))
        result = runner.invoke(main, ["pretrain", "--config", str(cfg), "--epochs", "1",
                                      "--data", str(small_data / "pre.rds"),
                                      "--run-dir", str(tmp_path / "run")])
        assert result.exit_code == 2, result.output
        assert message in result.output
        assert isinstance(result.exception, SystemExit)
        assert not (tmp_path / "run" / "last.ckpt").exists()

    @pytest.mark.parametrize("command", ["pretrain", "probe", "ablate"])
    def test_inexact_sample_rate_exit_2(self, runner, small_data, tmp_path, command):
        pre, down = generate_synthetic(SyntheticConfig(n_subjects=4, n_downstream=8, fs=333.3,
                                                       duration=2.0, seed=1))
        save(pre, tmp_path / "pre.rds")
        save(down, tmp_path / "down.rds")
        save_checkpoint(tmp_path / "enc.ckpt", build(STANDARD_CONFIGS["tiny"], seed=0))
        args = {"pretrain": ["--data", str(tmp_path / "pre.rds")],
                "probe": ["--checkpoint", str(tmp_path / "enc.ckpt"),
                          "--data", str(tmp_path / "down.rds")],
                "ablate": ["--pretrain-data", str(tmp_path / "pre.rds"),
                           "--downstream-data", str(small_data / "down.rds")]}[command]
        result = runner.invoke(main, [command, *args, "--run-dir", str(tmp_path / "run")])
        assert result.exit_code == 2, result.output
        bad = "down.rds" if command == "probe" else "pre.rds"
        assert f"{tmp_path / bad}: cannot resample 333.3 Hz to 500.0 Hz" in result.output
        assert isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize("command", ["pretrain", "probe"])
    def test_signal_shorter_than_stem_kernel_exit_2(self, runner, tmp_path, command):
        # 0.02 s at 250 Hz: 5 samples, 10 at 500 Hz, under the 16-sample stem kernel
        pre, down = generate_synthetic(SyntheticConfig(n_subjects=2, n_downstream=4,
                                                       duration=0.02, seed=1))
        save(pre, tmp_path / "pre.rds")
        save(down, tmp_path / "down.rds")
        save_checkpoint(tmp_path / "enc.ckpt", build(STANDARD_CONFIGS["tiny"], seed=0))
        args = {"pretrain": ["--data", str(tmp_path / "pre.rds"), "--epochs", "1"],
                "probe": ["--checkpoint", str(tmp_path / "enc.ckpt"),
                          "--data", str(tmp_path / "down.rds")]}[command]
        result = runner.invoke(main, [command, *args, "--run-dir", str(tmp_path / "run")])
        assert result.exit_code == 2, result.output
        bad = "down.rds" if command == "probe" else "pre.rds"
        assert (f"{tmp_path / bad}: signals of 5 samples at 250 Hz are shorter than the "
                "encoder's 16-sample stem kernel") in result.output
        assert isinstance(result.exception, SystemExit)

    def test_probe_missing_checkpoint_exit_3(self, runner, small_data, tmp_path):
        result = runner.invoke(main, [
            "probe", "--checkpoint", str(tmp_path / "none.ckpt"),
            "--data", str(small_data / "down.rds"), "--run-dir", str(tmp_path / "p"),
        ])
        assert result.exit_code == 3


class TestGradcheckCommand:
    def test_passes_and_dumps_weights(self, runner, tmp_path):
        dump = tmp_path / "w.csv"
        result = runner.invoke(main, ["gradcheck", "--dump-weights", str(dump)])
        assert result.exit_code == 0, result.output
        assert "nt_xent" in result.output
        W = np.loadtxt(dump, delimiter=",")
        assert W.shape == (16, 16)
        assert np.all(W >= 0) and np.all(W <= 1)

    def test_fails_on_unreachable_tolerance(self, runner):
        result = runner.invoke(main, ["gradcheck", "--tolerance", "1e-30"])
        assert result.exit_code == 1


class TestEvalCommand:
    def test_binary(self, runner, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text("score,label\n0.9,1\n0.1,0\n0.8,1\n0.2,0\n")
        result = runner.invoke(main, ["eval", "--pred", str(path), "--task", "binary"])
        assert result.exit_code == 0
        assert json.loads(result.output)["value"] == 1.0

    def test_regression(self, runner, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text("pred,truth\n1.0,2.0\n3.0,3.0\n")
        result = runner.invoke(main, ["eval", "--pred", str(path), "--task", "regression"])
        assert json.loads(result.output)["value"] == 0.5

    def test_float_labels_parse(self, runner, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text("score,label\n0.9,1.0\n0.1,0.0\n0.8,1\n0.2,0\n")
        result = runner.invoke(main, ["eval", "--pred", str(path)])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["value"] == 1.0

    @pytest.mark.parametrize("text,message", [
        ("score,lab\n0.9,1\n0.1,0\n", "no 'label' column"),
        ("score,label\n0.9,1\n0.1,2\n", "line 3, column 'label': '2' is not 0 or 1"),
        ("score,label\n0.9,1\n0.1,0.5\n", "line 3, column 'label': '0.5' is not 0 or 1"),
        ("score,label\n0.9,yes\n0.1,0\n", "line 2, column 'label': 'yes'"),
        ("score,label\nhigh,1\n0.1,0\n", "line 2, column 'score': 'high' is not a finite"),
        ("score,label\nnan,1\n0.1,0\n", "line 2, column 'score': 'nan'"),
        ("score,label\n0.9,1\n0.1\n", "line 3, column 'label': None"),
        ("score,label\n0.9,0\n0.1,0\n", "no row with label 1"),
        ("score,label\n", "no prediction rows"),
    ])
    def test_bad_predictions_exit_2(self, runner, tmp_path, text, message):
        path = tmp_path / "preds.csv"
        path.write_text(text)
        result = runner.invoke(main, ["eval", "--pred", str(path), "--task", "binary"])
        assert result.exit_code == 2, result.output
        assert message in result.output and str(path) in result.output
        assert isinstance(result.exception, SystemExit)

    def test_bad_regression_cell_exit_2(self, runner, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text("pred,truth\n1.0,2.0\n3.0,\n")
        result = runner.invoke(main, ["eval", "--pred", str(path), "--task", "regression"])
        assert result.exit_code == 2, result.output
        assert "line 3, column 'truth': '' is not a finite number" in result.output

    def test_unknown_task_exit_2(self, runner, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text("score,label\n0.9,1\n")
        result = runner.invoke(main, ["eval", "--pred", str(path), "--task", "bogus"])
        assert result.exit_code == 2


class TestInspect:
    def test_config_breakdown(self, runner):
        result = runner.invoke(main, ["inspect", "--encoder", "s"])
        assert result.exit_code == 0
        assert "total: 423312" in result.output

    def test_requires_exactly_one_source(self, runner):
        assert runner.invoke(main, ["inspect"]).exit_code == 2

    def test_help_lists_flags(self, runner):
        result = runner.invoke(main, ["--help"])
        assert result.exit_code == 0
        for sub in ("score2", "gen-data", "pretrain", "probe", "finetune",
                    "ablate", "gradcheck", "eval", "inspect"):
            assert sub in result.output
