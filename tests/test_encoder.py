"""Encoder shape contracts, determinism, gradients, and checkpointing."""

import numpy as np
import pytest

from riskclr import autodiff as ad
from riskclr import container
from riskclr import encoder as encoder_mod
from riskclr.autodiff import Tape, Tensor
from riskclr.encoder import (
    STANDARD_CONFIGS,
    EncoderConfig,
    build,
    load_checkpoint,
    param_count,
    parameter_breakdown,
    save_checkpoint,
)
from riskclr.losses import EmbeddingBatch, LossSpec
from riskclr.weighting import BatchRiskInfo, batch_weights, pairs_involution

TINY = STANDARD_CONFIGS["tiny"]


class TestConfig:
    def test_tiny_builds_and_has_shape_contract(self):
        enc = build(TINY, seed=0)
        out = enc.forward(np.random.default_rng(0).normal(size=(2, 2500)))
        assert out.data.shape == (2, 32)

    def test_s_parameter_count_near_448k(self):
        count = param_count(STANDARD_CONFIGS["s"])
        assert abs(count - 448_000) / 448_000 < 0.20

    def test_breakdown_sums_to_total(self):
        for name in ("tiny", "s", "m", "l"):
            cfg = STANDARD_CONFIGS[name]
            assert sum(parameter_breakdown(cfg).values()) == param_count(cfg)

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            EncoderConfig(hidden_dim=16, ratio=0.5, group_width=3, stages=((16, 1),))

    def test_nonempty_stages(self):
        with pytest.raises(ValueError):
            EncoderConfig(hidden_dim=16, ratio=0.5, group_width=4, stages=())


class TestBuildDeterminism:
    def test_same_seed_identical_parameters(self):
        a = build(TINY, seed=7)
        b = build(TINY, seed=7)
        for name in a.params:
            np.testing.assert_array_equal(a.params[name].data, b.params[name].data)

    def test_different_seed_differs(self):
        a = build(TINY, seed=7)
        b = build(TINY, seed=8)
        assert any(
            not np.array_equal(a.params[n].data, b.params[n].data) for n in a.params
        )

    def test_actual_count_matches_pure_function(self):
        for name in ("tiny", "s"):
            cfg = STANDARD_CONFIGS[name]
            encoder = build(cfg, seed=0)
            assert sum(t.data.size for t in encoder.params.values()) == param_count(cfg)


class TestForward:
    def test_zero_input_finite(self):
        enc = build(TINY, seed=1)
        out = enc.forward(np.zeros((3, 640)))
        assert np.all(np.isfinite(out.data))

    def test_batch_composition_independence(self):
        enc = build(TINY, seed=2)
        rng = np.random.default_rng(0)
        a = rng.normal(size=(2, 512))
        b = rng.normal(size=(3, 512))
        joint = enc.forward(np.concatenate([a, b])).data
        np.testing.assert_array_equal(joint[:2], enc.forward(a).data)
        np.testing.assert_array_equal(joint[2:], enc.forward(b).data)

    def test_identical_rows_identical_outputs(self):
        enc = build(TINY, seed=3)
        row = np.random.default_rng(1).normal(size=512)
        out = enc.forward(np.stack([row, row])).data
        np.testing.assert_allclose(out[0], out[1], atol=1e-12)

    def test_too_short_input_rejected(self):
        enc = build(TINY, seed=0)
        with pytest.raises(ValueError):
            enc.forward(np.zeros((1, 8)))

    @pytest.mark.parametrize("name", ["s", "m"])
    def test_larger_configs_shape_contract(self, name):
        cfg = STANDARD_CONFIGS[name]
        enc = build(cfg, seed=0, dtype=np.float32)
        out = enc.forward(np.zeros((1, 256), dtype=np.float32))
        assert out.data.shape == (1, cfg.output_dim)

    @pytest.mark.slow
    def test_l_config_shape_contract(self):
        cfg = STANDARD_CONFIGS["l"]
        enc = build(cfg, seed=0, dtype=np.float32)
        out = enc.forward(np.zeros((1, 64), dtype=np.float32))
        assert out.data.shape == (1, cfg.output_dim)

    def test_float32_mode_tracks_float64(self):
        e64 = build(TINY, seed=4, dtype=np.float64)
        e32 = build(TINY, seed=4, dtype=np.float32)
        x = np.random.default_rng(2).normal(size=(2, 600))
        a = e64.forward(x).data
        b = e32.forward(x.astype(np.float32)).data
        np.testing.assert_allclose(a, b, rtol=5e-3, atol=5e-4)

    def test_float32_gradients_track_float64_at_pretrain_length(self):
        """Training runs in float32: through the encoder and the w+d loss, on 32
        views of 2,500 steps, every parameter's float32 gradient is within
        3e-5 of float64's, relative by norm (measured worst: 1.8e-5)."""
        rng = np.random.default_rng([0, 32])
        views = rng.normal(size=(32, 2500)).astype(np.float32)
        pos = pairs_involution(16)
        wm = batch_weights(BatchRiskInfo(r=np.repeat(rng.uniform(0, 1, 16), 2),
                                         m=np.repeat(rng.integers(0, 8, 16), 2),
                                         positive_of=pos), alpha=0.2)
        e32 = build(TINY, seed=0, dtype=np.float32)
        e64 = build(TINY, seed=0, dtype=np.float64)
        for name, p in e32.params.items():  # the same starting point
            e64.params[name] = Tensor(p.data.astype(np.float64), requires_grad=True)
        for enc in (e32, e64):
            with Tape() as tape:
                z = enc.forward(views.astype(enc.dtype))
                loss = LossSpec("w+d").evaluate(EmbeddingBatch(z, pos, tau=0.07), wm)
            tape.backward(loss)
        errors = {name: np.linalg.norm(e32.params[name].grad - p.grad) / np.linalg.norm(p.grad)
                  for name, p in e64.params.items()}
        assert max(errors.values()) < 3e-5, max(errors, key=errors.get)


class TestChunks:
    """forward runs ``CHUNK`` samples at a time and joins the embeddings."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_embeddings_equal_per_chunk_and_per_sample(self, dtype):
        chunk = encoder_mod.CHUNK
        enc = build(TINY, seed=2, dtype=dtype)
        x = np.random.default_rng(0).normal(size=(2 * chunk + 3, 400)).astype(dtype)
        z = enc.forward(x).data
        assert z.shape == (len(x), TINY.output_dim)
        np.testing.assert_array_equal(
            z, np.concatenate([enc.forward(x[lo : lo + chunk]).data for lo in range(0, len(x), chunk)]))
        np.testing.assert_array_equal(enc.embed(x), z)
        if dtype == np.float32:  # numpy runs a one-row float64 dense layer as a
            # matrix-vector product, which may round differently
            np.testing.assert_array_equal(z, np.concatenate([enc.forward(row[None]).data for row in x]))

    def test_parameter_gradients_match_one_unchunked_pass(self, monkeypatch):
        enc = build(TINY, seed=3)
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2 * encoder_mod.CHUNK + 3, 300))
        weights = rng.normal(size=(len(x), TINY.output_dim))
        chunked = TestComposedReference._run(enc.forward, enc, x, weights)[1]
        monkeypatch.setattr(encoder_mod, "CHUNK", len(x))
        whole = TestComposedReference._run(enc.forward, enc, x, weights)[1]
        for name in whole:
            np.testing.assert_allclose(chunked[name], whole[name], rtol=1e-10, err_msg=name)

    def test_tensor_input_refused(self):
        enc = build(TINY, seed=0)
        with pytest.raises(TypeError, match="not a Tensor"):
            enc.forward(Tensor(np.zeros((2, 300)), requires_grad=True))

    def test_empty_batch(self):
        assert build(TINY, seed=0).embed(np.zeros((0, 300))).shape == (0, TINY.output_dim)


def _over_time(gate, length):
    """The (B, C) ``gate`` repeated over ``length`` time steps as (B, C,
    length): a product with a row of ones, since the elementwise ops do not
    broadcast."""
    batch, c = gate.data.shape
    return ad.reshape(ad.matmul(ad.reshape(gate, (batch * c, 1)), np.ones((1, length))),
                      (batch, c, length))


def _composed_forward(enc, signals):
    """Encoder.forward written with the plain ops: each stage gated by
    repeating the gate over time, mul and add, and the embedding a time mean
    of the last stage."""
    p, cfg = enc.params, enc.config
    x = Tensor(signals)
    h = ad.reshape(x, (x.data.shape[0], 1, x.data.shape[1]))
    h = ad.swish(ad.conv1d(h, p["stem.w"], p["stem.b"], stride=encoder_mod.STEM_STRIDE))
    in_ch = cfg.hidden_dim
    for si, (ch, blocks) in enumerate(cfg.stages):
        groups = cfg.stage_width(ch) // cfg.group_width
        for bi in range(blocks):
            pre = f"stage{si}.block{bi}"
            y = ad.swish(ad.conv1d(h, p[f"{pre}.conv1.w"], p[f"{pre}.conv1.b"]))
            y = ad.swish(ad.conv1d(y, p[f"{pre}.conv2.w"], p[f"{pre}.conv2.b"], groups=groups))
            y = ad.conv1d(y, p[f"{pre}.conv3.w"], p[f"{pre}.conv3.b"])
            if in_ch != ch:
                h = ad.conv1d(h, p[f"{pre}.proj.w"], p[f"{pre}.proj.b"])
            h = ad.add(y, h)
            in_ch = ch
        g = f"stage{si}.gate"
        gate = ad.swish(ad.dense(ad.mean(h, axis=2), p[f"{g}.fc1.w"], p[f"{g}.fc1.b"]))
        gate = ad.sigmoid(ad.dense(gate, p[f"{g}.fc2.w"], p[f"{g}.fc2.b"]))
        h = ad.add(h, ad.mul(h, _over_time(gate, h.data.shape[2])))
    return ad.mean(h, axis=2)


class TestComposedReference:
    """The fused gate and the pooled last stage compute what the plain
    composition computes, forward and backward, up to float64 rounding."""

    @staticmethod
    def _run(forward, enc, signals, weights):
        for t in enc.params.values():
            t.grad = None
        with Tape() as tape:
            z = forward(signals)
            loss = ad.sum_(ad.mul(z, weights))
        tape.backward(loss)
        return z.data, {n: t.grad for n, t in enc.params.items()}

    @pytest.mark.parametrize("name", ["tiny", "s"])
    def test_forward_and_gradients_match(self, name):
        enc = build(STANDARD_CONFIGS[name], seed=11)
        rng = np.random.default_rng(5)
        for si, (ch, _) in enumerate(enc.config.stages):
            # gates spread around 0.5, not all near it as at initialization
            enc.params[f"stage{si}.gate.fc2.b"].data = rng.normal(size=ch)
        signals = rng.normal(size=(3, 300))
        weights = rng.normal(size=(3, enc.config.output_dim))
        z, grads = self._run(enc.forward, enc, signals, weights)
        z_ref, grads_ref = self._run(lambda s: _composed_forward(enc, s), enc, signals, weights)
        np.testing.assert_allclose(z, z_ref, rtol=1e-12, atol=0.0)
        for n in grads:
            scale = np.abs(grads_ref[n]).max()
            np.testing.assert_allclose(grads[n], grads_ref[n], rtol=0.0, atol=1e-11 * scale,
                                       err_msg=n)


class TestGradients:
    def test_all_parameters_receive_gradient(self):
        enc = build(TINY, seed=5)
        rng = np.random.default_rng(3)
        views = rng.normal(size=(4, 256))
        info = BatchRiskInfo(r=np.repeat(rng.uniform(0, 1, 2), 2),
                             m=np.repeat(rng.integers(0, 8, 2), 2),
                             positive_of=pairs_involution(2))
        wm = batch_weights(info, 0.2)
        with Tape() as tape:
            z = enc.forward(views)
            loss = LossSpec("w+d").evaluate(EmbeddingBatch(z, info.positive_of, tau=0.07), wm)
        tape.backward(loss)
        dead = [n for n, p in enc.params.items()
                if p.grad is None or not np.any(p.grad != 0.0)]
        assert not dead, f"dead parameters: {dead}"


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        enc = build(TINY, seed=6)
        path = tmp_path / "enc.ckpt"
        save_checkpoint(path, enc, extra={"note": np.arange(4.0)},
                        meta={"epoch": 3})
        back, extra, meta = load_checkpoint(path)
        assert back.config == enc.config
        assert meta == {"epoch": 3}
        np.testing.assert_array_equal(extra["note"], np.arange(4.0))
        for name in enc.params:
            np.testing.assert_array_equal(back.params[name].data, enc.params[name].data)
        x = np.random.default_rng(4).normal(size=(2, 300))
        np.testing.assert_array_equal(back.forward(x).data, enc.forward(x).data)

    def test_float32_roundtrip_lossless(self, tmp_path):
        enc = build(TINY, seed=6, dtype=np.float32)
        path = tmp_path / "enc32.ckpt"
        save_checkpoint(path, enc)
        back, _, _ = load_checkpoint(path)
        assert back.dtype == np.float32
        for name in enc.params:
            np.testing.assert_array_equal(back.params[name].data, enc.params[name].data)

    def test_float32_stores_four_bytes_per_parameter(self, tmp_path):
        enc = build(TINY, seed=6, dtype=np.float32)
        path = tmp_path / "enc32.ckpt"
        save_checkpoint(path, enc)
        _, _, arrays = container.unpack(path.read_bytes(), "checkpoint")
        assert all(a.dtype == np.dtype("<f4") for a in arrays.values())
        assert sum(a.nbytes for a in arrays.values()) == 4 * param_count(TINY)
        assert path.stat().st_size < 8 * param_count(TINY)

    def test_load_draws_no_initial_values(self, tmp_path, monkeypatch):
        enc = build(TINY, seed=6, dtype=np.float32)
        path = tmp_path / "enc.ckpt"
        save_checkpoint(path, enc)

        def no_draw(*args, **kwargs):
            raise AssertionError("load_checkpoint drew initial values")

        monkeypatch.setattr(encoder_mod, "_he_normal", no_draw)
        back, _, _ = load_checkpoint(path)
        for name in enc.params:
            np.testing.assert_array_equal(back.params[name].data, enc.params[name].data)

    def test_corruption_detected(self, tmp_path):
        enc = build(TINY, seed=0)
        path = tmp_path / "enc.ckpt"
        save_checkpoint(path, enc)
        blob = bytearray(path.read_bytes())
        blob[100] ^= 0x55
        path.write_bytes(bytes(blob))
        with pytest.raises(container.DataFormatError):
            load_checkpoint(path)

    @pytest.mark.parametrize("drop,message", [
        ("config", "no 'config' field"), ("seed", "no 'seed' field"),
        ("dtype", "no 'dtype' field"), ("meta", "no 'meta' field"),
        ("param/stem.w", "missing parameter stem.w"),
    ], ids=["config", "seed", "dtype", "meta", "param"])
    def test_missing_field_or_parameter_rejected(self, tmp_path, drop, message):
        """A whole checkpoint container that lacks what a checkpoint holds
        fails as DataFormatError."""
        enc = build(TINY, seed=0)
        fields = {"config": encoder_mod.asdict(TINY), "seed": 0, "dtype": "float64", "meta": {}}
        arrays = {f"param/{k}": t.data for k, t in enc.params.items()}
        fields.pop(drop, None)
        arrays.pop(drop, None)
        path = tmp_path / "part.ckpt"
        path.write_bytes(container.pack("checkpoint", fields, arrays))
        with pytest.raises(container.DataFormatError, match=message):
            load_checkpoint(path)

    def test_wrong_magic_detected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint at all, definitely " + b"\x00" * 64)
        with pytest.raises(container.DataFormatError):
            load_checkpoint(path)
