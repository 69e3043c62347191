"""Optimizer laws, schedules, loop mechanics, resume, and probe contracts."""

import math

import numpy as np
import pytest

from riskclr import autodiff as ad
from riskclr.data import SyntheticConfig, generate_synthetic, split
from riskclr.encoder import STANDARD_CONFIGS, build, load_checkpoint
from riskclr.losses import LossSpec
from riskclr.train import (
    ABLATION_VARIANTS,
    Adam,
    DownstreamConfig,
    PreparedPretrain,
    PretrainConfig,
    Schedule,
    ablate,
    evaluate_head,
    finetune,
    lambda_mix_variants,
    linear_probe,
    pretrain,
)

TINY = STANDARD_CONFIGS["tiny"]


@pytest.fixture(scope="module")
def tiny_world():
    """Small synthetic world shared by the loop tests."""
    cfg = SyntheticConfig(n_subjects=40, n_downstream=64, duration=4.0, seed=5)
    pre_ds, down_ds = generate_synthetic(cfg)
    prep = PreparedPretrain.from_dataset(pre_ds, seed=5)
    splits = split(down_ds, (0.5, 0.25, 0.25), mode="by-subject", seed=0)
    return prep, splits


def fast_cfg(**kw):
    base = dict(batch_size=10, epochs=2, seed=5, lr=1e-3, dtype="float32")
    base.update(kw)
    return PretrainConfig(**base)


class TestAdam:
    def test_decoupled_decay_exact_shrink(self):
        p = ad.parameter(np.full(4, 2.0))
        p.grad = np.zeros(4)
        opt = Adam({"p": p}, lr=0.1, weight_decay=0.01, decoupled=True)
        opt.step()
        np.testing.assert_allclose(p.data, 2.0 * (1 - 0.1 * 0.01), atol=1e-15)

    def test_coupled_decay_enters_moments(self):
        p = ad.parameter(np.full(4, 2.0))
        p.grad = np.zeros(4)
        opt = Adam({"p": p}, lr=0.1, weight_decay=0.01, decoupled=False)
        opt.step()
        # L2 term acts like a gradient, so the update is not an exact shrink
        assert not np.allclose(p.data, 2.0 * (1 - 0.1 * 0.01))
        assert np.all(p.data < 2.0)

    def test_state_roundtrip(self):
        rng = np.random.default_rng(0)
        p = ad.parameter(rng.normal(size=3))
        opt = Adam({"p": p}, lr=0.01)
        for _ in range(3):
            p.grad = rng.normal(size=3)
            opt.step()
        state = {k: v.copy() for k, v in opt.state_arrays().items()}
        p2 = ad.parameter(p.data.copy())
        opt2 = Adam({"p": p2}, lr=0.01)
        opt2.load_state_arrays(state)
        g = rng.normal(size=3)
        p.grad = g.copy()
        p2.grad = g.copy()
        opt.step()
        opt2.step()
        np.testing.assert_array_equal(p.data, p2.data)


class TestSchedule:
    def test_cosine_anneal_endpoints(self):
        s = Schedule(mode="cosine-anneal", base_lr=1.0, period=10)
        assert s.lr(0) == 1.0
        assert s.lr(10) == pytest.approx(0.0, abs=1e-12)
        assert 0.0 < s.lr(9) < s.lr(1) <= 1.0

    def test_warm_restarts_reset(self):
        s = Schedule(mode="cosine-warm-restarts", base_lr=1.0, period=10)
        assert s.lr(0) == 1.0
        assert s.lr(10) == 1.0
        assert s.lr(15) == pytest.approx(0.5 * (1 + math.cos(math.pi * 0.5)))

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            Schedule(mode="step", base_lr=1.0, period=5).lr(0)


class TestPretrainLoop:
    def test_loss_descends(self, tiny_world):
        prep, _ = tiny_world
        enc = build(TINY, seed=5, dtype=np.float32)
        res = pretrain(prep, enc, fast_cfg(epochs=3))
        assert res.history[-1]["train_loss"] < res.history[0]["train_loss"]

    def test_two_view_batch_structure(self, tiny_world):
        from riskclr.weighting import pairs_involution

        pos = pairs_involution(6)
        # each anchor has exactly one positive and 2B-2 negatives
        assert all(pos[pos[i]] == i and pos[i] != i for i in range(12))

    def test_determinism_same_seed(self, tiny_world):
        prep, _ = tiny_world
        enc1 = build(TINY, seed=5, dtype=np.float32)
        res1 = pretrain(prep, enc1, fast_cfg())
        enc2 = build(TINY, seed=5, dtype=np.float32)
        res2 = pretrain(prep, enc2, fast_cfg())
        assert res1.history == res2.history
        for n in enc1.params:
            np.testing.assert_array_equal(enc1.params[n].data, enc2.params[n].data)

    def test_resume_matches_uninterrupted(self, tiny_world, tmp_path):
        prep, _ = tiny_world
        full_dir = tmp_path / "full"
        enc_full = build(TINY, seed=5, dtype=np.float32)
        res_full = pretrain(prep, enc_full, fast_cfg(epochs=4), run_dir=full_dir)

        part_dir = tmp_path / "part"
        enc_part = build(TINY, seed=5, dtype=np.float32)
        pretrain(prep, enc_part, fast_cfg(epochs=4), run_dir=part_dir, session_epochs=2)
        enc_resume = build(TINY, seed=5, dtype=np.float32)
        res_resume = pretrain(prep, enc_resume, fast_cfg(epochs=4), run_dir=part_dir,
                              resume_from=part_dir / "last.ckpt")
        assert [h["train_loss"] for h in res_resume.history] == \
               [h["train_loss"] for h in res_full.history[2:]]
        for n in enc_full.params:
            np.testing.assert_array_equal(enc_full.params[n].data, enc_resume.params[n].data)
        # the resumed run's metrics.csv keeps the epochs before the interruption
        assert (part_dir / "metrics.csv").read_bytes() == (full_dir / "metrics.csv").read_bytes()
        assert load_checkpoint(part_dir / "best.ckpt")[2]["epochs_run"] == 4

    @pytest.mark.parametrize("change,field", [
        ({"lr": 0.5, "batch_size": 6}, "batch_size"),  # the first differing field
        ({"dtype": "float64"}, "dtype"),
        ({"loss": LossSpec("nce")}, "loss"),
    ])
    def test_resume_refuses_another_config(self, tiny_world, tmp_path, change, field):
        from riskclr.train import ResumeError

        prep, _ = tiny_world
        pretrain(prep, build(TINY, seed=5, dtype=np.float32), fast_cfg(epochs=3),
                 run_dir=tmp_path, session_epochs=1)
        cfg = fast_cfg(epochs=3, **change)
        with pytest.raises(ResumeError, match=f"trained with {field}=.*this run has {field}="):
            pretrain(prep, build(TINY, seed=5, dtype=np.dtype(cfg.dtype)), cfg,
                     resume_from=tmp_path / "last.ckpt")
        assert issubclass(ResumeError, ValueError)

    @pytest.mark.parametrize("field,value", [("mask_mode", "scattered"), ("warmup", 5)])
    def test_resume_refuses_a_field_this_version_lacks(self, tiny_world, tmp_path, field, value):
        from riskclr.encoder import save_checkpoint
        from riskclr.train import ResumeError

        prep, _ = tiny_world
        pretrain(prep, build(TINY, seed=5, dtype=np.float32), fast_cfg(epochs=3),
                 run_dir=tmp_path, session_epochs=1)
        enc, extra, meta = load_checkpoint(tmp_path / "last.ckpt")
        meta["config"][field] = value  # as an older version that had the field stored it
        save_checkpoint(tmp_path / "old.ckpt", enc, extra=extra, meta=meta)
        with pytest.raises(ResumeError, match=f"{field}={value!r}, a field this version does not"):
            pretrain(prep, build(TINY, seed=5, dtype=np.float32), fast_cfg(epochs=3),
                     resume_from=tmp_path / "old.ckpt")

    def test_resume_refuses_a_checkpoint_without_config(self, tiny_world, tmp_path):
        from riskclr.train import ResumeError

        prep, _ = tiny_world
        pretrain(prep, build(TINY, seed=5, dtype=np.float32), fast_cfg(epochs=1), run_dir=tmp_path)
        with pytest.raises(ResumeError, match="no pretraining config"):
            pretrain(prep, build(TINY, seed=5, dtype=np.float32), fast_cfg(epochs=1),
                     resume_from=tmp_path / "best.ckpt")

    def test_torn_last_checkpoint_write_keeps_resume_point(self, tiny_world, tmp_path,
                                                           monkeypatch):
        import os

        prep, _ = tiny_world
        cfg = fast_cfg(epochs=4)
        full = pretrain(prep, build(TINY, seed=5, dtype=np.float32), cfg)
        part_dir = tmp_path / "part"
        pretrain(prep, build(TINY, seed=5, dtype=np.float32), cfg, run_dir=part_dir,
                 session_epochs=2)

        def torn_replace(src, dst):
            with open(src, "r+b") as fh:
                fh.truncate(os.path.getsize(src) // 2)
            raise OSError("simulated crash before the rename")

        with monkeypatch.context() as m:
            m.setattr(os, "replace", torn_replace)
            with pytest.raises(OSError, match="simulated crash"):
                pretrain(prep, build(TINY, seed=5, dtype=np.float32), cfg, run_dir=part_dir,
                         resume_from=part_dir / "last.ckpt", session_epochs=1)
        assert sorted(p.name for p in part_dir.iterdir()) == \
               ["best.ckpt", "last.ckpt", "metrics.csv"]
        assert load_checkpoint(part_dir / "last.ckpt")[2]["next_epoch"] == 2
        enc = build(TINY, seed=5, dtype=np.float32)
        resumed = pretrain(prep, enc, cfg, resume_from=part_dir / "last.ckpt")
        assert [h["train_loss"] for h in resumed.history] == \
               [h["train_loss"] for h in full.history[2:]]
        for n in enc.params:
            np.testing.assert_array_equal(full.encoder.params[n].data, enc.params[n].data)

    def test_interrupted_history_write_keeps_previous_metrics(self, tiny_world, tmp_path,
                                                              monkeypatch):
        import os

        prep, _ = tiny_world
        cfg = fast_cfg(epochs=3)
        pretrain(prep, build(TINY, seed=5, dtype=np.float32), cfg, run_dir=tmp_path,
                 session_epochs=1)
        before = (tmp_path / "metrics.csv").read_bytes()
        real_replace = os.replace

        def crash_on_metrics(src, dst):
            if os.fspath(dst).endswith("metrics.csv"):
                raise OSError("simulated crash before the rename")
            real_replace(src, dst)

        with monkeypatch.context() as m:
            m.setattr(os, "replace", crash_on_metrics)
            with pytest.raises(OSError, match="simulated crash"):
                pretrain(prep, build(TINY, seed=5, dtype=np.float32), cfg, run_dir=tmp_path,
                         resume_from=tmp_path / "last.ckpt", session_epochs=1)
        assert (tmp_path / "metrics.csv").read_bytes() == before
        assert before.decode().splitlines()[0] == "epoch,lr,train_loss,val_loss"
        assert len(before.decode().splitlines()) == 2
        assert not any(p.name.endswith(".tmp") for p in tmp_path.iterdir())

    def test_patience_zero_stops_after_first_non_improvement(self, tiny_world):
        prep, _ = tiny_world
        enc = build(TINY, seed=5, dtype=np.float32)
        res = pretrain(prep, enc, fast_cfg(epochs=30, patience=0, lr=1e-30))
        # lr 0 freezes the loss, so epoch 1 cannot improve on epoch 0
        assert len(res.history) == 2

    def test_checkpoint_written(self, tiny_world, tmp_path):
        prep, _ = tiny_world
        enc = build(TINY, seed=5, dtype=np.float32)
        res = pretrain(prep, enc, fast_cfg(), run_dir=tmp_path)
        assert (tmp_path / "best.ckpt").exists()
        assert (tmp_path / "last.ckpt").exists()
        assert (tmp_path / "metrics.csv").read_text().startswith("epoch,")
        assert res.checkpoint_path is not None

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_nan_loss_aborts_with_diagnostics(self, tiny_world):
        from riskclr.train import NanLossError

        prep, _ = tiny_world
        enc = build(TINY, seed=5, dtype=np.float32)
        with pytest.raises(NanLossError, match="W stats"):
            pretrain(prep, enc, fast_cfg(epochs=3, lr=1e28))

    def test_fixed_lead_mode(self, tiny_world):
        prep, _ = tiny_world
        enc = build(TINY, seed=5, dtype=np.float32)
        res = pretrain(prep, enc, fast_cfg(epochs=1, lead_mode="fixed-lead", fixed_lead=1))
        assert len(res.history) == 1


class TestProbe:
    def test_probe_freezes_encoder(self, tiny_world):
        prep, (tr, va, te) = tiny_world
        enc = build(TINY, seed=5, dtype=np.float32)
        before = {n: p.data.copy() for n, p in enc.params.items()}
        head, metrics = linear_probe(enc, tr, va, DownstreamConfig(task="binary", epochs=5))
        for n, arr in before.items():
            np.testing.assert_array_equal(enc.params[n].data, arr)
        assert "val_auroc" in metrics

    def test_probe_regression_denormalizes(self, tiny_world):
        prep, (tr, va, te) = tiny_world
        enc = build(TINY, seed=5, dtype=np.float32)
        head, metrics = linear_probe(enc, tr, va, DownstreamConfig(task="regression", epochs=5))
        test = evaluate_head(enc, head, te)
        truths = te.labels("regression")
        # predictions live on the original target scale
        assert metrics["val_mae"] < 10 * (truths.max() - truths.min() + 1e-9)
        assert test["mae"] >= 0.0

    def test_probe_deterministic_given_seed(self, tiny_world):
        prep, (tr, va, te) = tiny_world
        enc = build(TINY, seed=5, dtype=np.float32)
        cfg = DownstreamConfig(task="binary", epochs=5, seed=11)
        h1, m1 = linear_probe(enc, tr, va, cfg)
        h2, m2 = linear_probe(enc, tr, va, cfg)
        np.testing.assert_array_equal(h1.w, h2.w)
        assert m1 == m2

    def test_finetune_changes_encoder(self, tiny_world):
        prep, (tr, va, te) = tiny_world
        enc = build(TINY, seed=5, dtype=np.float32)
        before = {n: p.data.copy() for n, p in enc.params.items()}
        finetune(enc, tr, va, DownstreamConfig(task="binary", epochs=1))
        changed = any(not np.array_equal(enc.params[n].data, before[n]) for n in before)
        assert changed

    def test_finetune_needs_both_classes(self, tiny_world):
        from dataclasses import replace

        prep, (tr, va, te) = tiny_world
        one_class = replace(tr, label_binary=np.zeros(len(tr), dtype=np.int64))
        enc = build(TINY, seed=5, dtype=np.float32)
        with pytest.raises(ValueError, match="both classes"):
            finetune(enc, one_class, va, DownstreamConfig(task="binary", epochs=1))

    def test_finetune_deterministic(self, tiny_world):
        prep, (tr, va, te) = tiny_world
        cfg = DownstreamConfig(task="binary", epochs=1, seed=3)
        enc1 = build(TINY, seed=5, dtype=np.float32)
        _, m1 = finetune(enc1, tr, va, cfg)
        enc2 = build(TINY, seed=5, dtype=np.float32)
        _, m2 = finetune(enc2, tr, va, cfg)
        assert m1 == m2


class TestConfigValidation:
    @pytest.mark.parametrize("field,value", [
        ("lr", -1.0), ("epochs", -3), ("val_fraction", 2.0), ("fixed_lead", 40),
        ("lead_mode", "bogus"), ("dtype", "int8"),
        ("batch_size", 1), ("tau", 0.0), ("alpha", 1.5), ("lr", math.nan),
        ("weight_decay", -1e-5), ("patience", -1), ("mask_prob", 2.0),
        ("loss", "w+d"), ("seed", 1.5),
    ])
    def test_pretrain_config_names_bad_field(self, field, value):
        kw = {"weight_decay": 0.0} if field == "lr" else {}
        with pytest.raises(ValueError, match=f"^{field} must be"):
            PretrainConfig(**{**kw, field: value})

    @pytest.mark.parametrize("field,value", [
        ("task", "bogus"), ("epochs", -1), ("lr", -1.0), ("restart_period", 0),
        ("batch_size", 0), ("weight_decay", math.inf),
    ])
    def test_downstream_config_names_bad_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            DownstreamConfig(**{field: value})

    def test_defaults_and_zero_decay_accepted(self):
        PretrainConfig(weight_decay=0.0, val_fraction=0.0, lead_mode="fixed-lead",
                       fixed_lead=12, dtype="float64")
        DownstreamConfig(task="regression")


class TestAblate:
    def test_five_variants_present(self):
        labels = [v.label() for v in ABLATION_VARIANTS]
        assert labels == ["nce", "w", "d", "nce+d", "w+d"]

    def test_lambda_mixes(self):
        mixes = lambda_mix_variants()
        assert [m.lam for m in mixes] == [5.0, 2.0, 1.0, 0.5, 0.2]
        assert all(m.normalize for m in mixes)

    def test_harness_runs_and_controls_variables(self, tiny_world):
        prep, (tr, va, te) = tiny_world
        cfg = fast_cfg(epochs=1)
        probe_cfg = DownstreamConfig(task="binary", epochs=3, seed=1)
        variants = (LossSpec("nce"), LossSpec("w+d", lam=1.0, normalize=True))
        rows = ablate(prep, TINY, tr, va, te, cfg, probe_cfg, variants=variants)
        assert [r["variant"] for r in rows] == ["nce", "w+d"]
        assert all("test_auroc" in r for r in rows)
        with pytest.raises(ValueError):
            ablate(prep, TINY, tr, va, te, cfg, probe_cfg, variants=())

    def test_shared_work_runs_once(self, tiny_world, monkeypatch):
        from riskclr import signal, train

        prep, (tr, va, te) = tiny_world
        calls = {"bank": 0, "downstream": 0}
        real_bank, real_prep = signal.NoiseBank.synthetic, train.preprocess_downstream

        def counted_bank(*args, **kwargs):
            calls["bank"] += 1
            return real_bank(*args, **kwargs)

        def counted_prep(ds):
            calls["downstream"] += 1
            return real_prep(ds)

        monkeypatch.setattr(signal.NoiseBank, "synthetic", counted_bank)
        monkeypatch.setattr(train, "preprocess_downstream", counted_prep)
        variants = (LossSpec("nce"), LossSpec("w"), LossSpec("d"))
        ablate(prep, TINY, tr, va, te, fast_cfg(epochs=1),
               DownstreamConfig(task="binary", epochs=1, seed=1), variants=variants)
        assert calls == {"bank": 1, "downstream": 3}
