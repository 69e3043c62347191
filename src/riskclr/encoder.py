"""Stage-configurable grouped-convolution residual encoder for 1-D signals.

Structure: a stride-2 stem convolution (kernel 16, one input channel)
followed by stages of residual blocks. Each block runs 1x1 conv -> grouped
16-tap conv -> 1x1 conv with swish between the convolutions, plus an
identity shortcut (1x1 projection when the channel count changes). After
the last block of each stage, channel gating: mean-pool over time, a
2-layer swish MLP (hidden h/2) and a sigmoid give a per-channel gate, and
the stage output is ``h + h * gate``, computed as ``h * (1 + gate)`` by one
op. The embedding is the final stage's output mean-pooled over time. The
gate is constant over time, so the last stage computes it as ``pooled * (1
+ gate)`` from the mean it already took for its gate, and never builds its
full-size gated output.

Activations are channels-first (batch, channels, time), the engine's layout
(see ``autodiff``), so the time means reduce the last axis. No
normalization layers anywhere; temporal downsampling happens only at the
stem. The per-stage bottleneck width is round(stage_channels * ratio) and
must be divisible by the group width.

A batch runs through the encoder in chunks of ``CHUNK`` samples on one tape,
joined by ``autodiff.concat``, so the memory of a pass beyond the arrays its
VJPs read is set by the chunk, not the batch (as GradCache separates the loss
batch from the encoder's sub-batch, Gao et al., arXiv 2101.06983). The
chunk bounds depend only on the batch size, so results are bit-identical
for any CPU count. Each op splits at most ``CHUNK`` samples over the CPUs,
so hosts with more than about 16 CPUs lose parallelism.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from . import container
from .autodiff import Tensor
from .container import DataFormatError

STEM_KERNEL = 16
STEM_STRIDE = 2
BLOCK_KERNEL = 16
CHUNK = 32  # samples per pass of the encoder (see forward)


@dataclass(frozen=True)
class EncoderConfig:
    hidden_dim: int  # stem output channels
    ratio: float  # bottleneck width multiplier per stage
    group_width: int
    stages: tuple[tuple[int, int], ...]  # (channels, blocks) per stage
    name: str = "custom"

    def __post_init__(self):
        if not self.stages:
            raise ValueError("stage list must be non-empty")
        for h, blocks in self.stages:
            if h <= 0 or blocks <= 0:
                raise ValueError("stage channels and block counts must be positive")
            d1 = self.stage_width(h)
            if d1 % self.group_width != 0:
                raise ValueError(
                    f"stage width {d1} (= round({h} * {self.ratio})) "
                    f"not divisible by group width {self.group_width}"
                )
            if h % 2 != 0:
                raise ValueError("stage channels must be even (gating MLP uses h/2)")

    def stage_width(self, channels: int) -> int:
        return int(round(channels * self.ratio))

    @property
    def output_dim(self) -> int:
        return self.stages[-1][0]


# Size ladder parsed as data, plus a desk-scale Tiny variant.
STANDARD_CONFIGS: dict[str, EncoderConfig] = {
    "tiny": EncoderConfig(hidden_dim=16, ratio=0.5, group_width=4,
                          stages=((16, 1), (32, 1)), name="tiny"),
    "s": EncoderConfig(hidden_dim=32, ratio=0.5, group_width=8,
                       stages=((32, 1), (64, 1), (64, 2), (128, 2), (128, 2), (256, 2)),
                       name="s"),
    "m": EncoderConfig(hidden_dim=64, ratio=1.0, group_width=16,
                       stages=((64, 2), (160, 2), (160, 2), (400, 3), (400, 3),
                               (1024, 4), (1024, 4)),
                       name="m"),
    "l": EncoderConfig(hidden_dim=128, ratio=1.5, group_width=32,
                       stages=((128, 2), (256, 3), (256, 3), (512, 4), (512, 4),
                               (1024, 5), (1024, 5), (2048, 6), (2048, 6)),
                       name="l"),
}


def _he_normal(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int,
               scale: float = 1.0) -> np.ndarray:
    return rng.normal(0.0, scale * np.sqrt(2.0 / fan_in), size=shape)


def _layer(name: str, w_shape: tuple[int, ...], fan_in: int, scale: float = 1.0):
    yield f"{name}.w", w_shape, fan_in, scale
    yield f"{name}.b", w_shape[-1:], None, 0.0  # zero bias, no draw


def parameter_shapes(config: EncoderConfig):
    """(name, shape, fan_in, scale) of every parameter, in initialization order.

    ``fan_in`` is None for zero-initialized biases; the rest are drawn He-normal
    with that fan-in, in exactly this order.
    """
    yield from _layer("stem", (STEM_KERNEL, 1, config.hidden_dim), STEM_KERNEL)
    in_ch = config.hidden_dim
    gw = config.group_width  # input channels per group of the grouped conv
    for si, (h, blocks) in enumerate(config.stages):
        d1 = config.stage_width(h)
        for bi in range(blocks):
            p = f"stage{si}.block{bi}"
            yield from _layer(f"{p}.conv1", (1, in_ch, d1), in_ch)
            yield from _layer(f"{p}.conv2", (BLOCK_KERNEL, gw, d1), BLOCK_KERNEL * gw)
            yield from _layer(f"{p}.conv3", (1, d1, h), d1)
            if in_ch != h:
                yield from _layer(f"{p}.proj", (1, in_ch, h), in_ch)
            in_ch = h
        g = f"stage{si}.gate"
        yield from _layer(f"{g}.fc1", (h, h // 2), h)
        # near-zero final layer so gates start around sigmoid(0) = 0.5
        yield from _layer(f"{g}.fc2", (h // 2, h), h // 2, scale=0.01)


def _checked(arrays: dict[str, np.ndarray], name: str, shape: tuple[int, ...]) -> np.ndarray:
    if name not in arrays:
        raise ValueError(f"checkpoint missing parameter {name}")
    arr = np.asarray(arrays[name])
    if arr.shape != shape:
        raise ValueError(f"shape mismatch for {name}: {arr.shape} != {shape}")
    return arr


class Encoder:
    """Instantiated parameters for one EncoderConfig.

    ``dtype`` selects the storage mode: float64 (default; used by gradient
    checks) or float32 (training throughput on bandwidth-starved hosts).
    Initial values are always drawn in float64 and cast, so both modes start
    from the same numbers. Passing ``arrays`` takes the parameters from them
    instead of drawing any.
    """

    def __init__(self, config: EncoderConfig, seed: int, dtype=np.float64,
                 arrays: dict[str, np.ndarray] | None = None):
        self.config = config
        self.seed = seed
        self.dtype = np.dtype(dtype)
        self.params: dict[str, Tensor] = {}
        rng = np.random.default_rng(np.random.SeedSequence([seed])) if arrays is None else None
        for name, shape, fan_in, scale in parameter_shapes(config):
            if arrays is not None:
                arr = _checked(arrays, name, shape)
            elif fan_in is None:
                arr = np.zeros(shape)
            else:
                arr = _he_normal(rng, shape, fan_in, scale)
            self.params[name] = ad.parameter(arr.astype(self.dtype))

    # -- forward -----------------------------------------------------------

    def forward(self, signals: np.ndarray) -> Tensor:
        """(batch, t) signal array -> (batch, output_dim) embeddings.

        The batch runs through the encoder ``CHUNK`` samples at a time, and
        ``ad.concat`` joins the chunks' embeddings, so every forward
        transient and, under a tape, every VJP gradient is chunk-sized; only
        the arrays the VJPs read grow with the batch. Every op is per-sample
        or row-independent, so an embedding has the bits it has in a chunk
        of its own (in float64, numpy runs a one-row dense layer as a
        matrix-vector product, which may round differently). Parameter
        gradients are summed per chunk, then across chunks in tape order. A
        ``Tensor`` is refused: the chunks would drop its gradient.
        """
        if isinstance(signals, Tensor):
            raise TypeError("Encoder.forward takes a (batch, t) array, not a Tensor: "
                            "it runs the batch in chunks, which would drop the input's gradient")
        signals = np.asarray(signals)
        if signals.ndim != 2:
            raise ValueError("expected a (batch, t) signal array")
        t = signals.shape[1]
        if t < STEM_KERNEL:
            raise ValueError(f"signal length {t} shorter than the stem kernel {STEM_KERNEL}")
        # an empty batch runs one empty chunk, so its output is (0, output_dim)
        return ad.concat([self._chunk(np.asarray(signals[lo : lo + CHUNK], dtype=self.dtype))
                          for lo in range(0, max(len(signals), 1), CHUNK)])

    def _chunk(self, x: np.ndarray) -> Tensor:
        """The encoder on one chunk of (batch, t) signals."""
        p = self.params
        h = ad.swish(ad.conv1d(x[:, None, :], p["stem.w"], p["stem.b"], stride=STEM_STRIDE))
        in_ch = self.config.hidden_dim
        for si, (ch, blocks) in enumerate(self.config.stages):
            d1 = self.config.stage_width(ch)
            groups = d1 // self.config.group_width
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
            pooled = ad.mean(h, axis=2)
            gate = ad.swish(ad.dense(pooled, p[f"{g}.fc1.w"], p[f"{g}.fc1.b"]))
            gate = ad.sigmoid(ad.dense(gate, p[f"{g}.fc2.w"], p[f"{g}.fc2.b"]))
            if si < len(self.config.stages) - 1:
                h = ad.gate(h, gate)
        # the gate is constant over time, so the time mean of the last
        # stage's gated output is its gated time mean
        return ad.mul(pooled, ad.add(gate, 1.0))

    def embed(self, signals: np.ndarray) -> np.ndarray:
        """Inference-only embeddings: ``forward`` without a tape, whose chunks
        bound the memory."""
        return self.forward(signals).data

    # -- bookkeeping ---------------------------------------------------------

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.params.items()}

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        new = {name: _checked(arrays, name, t.data.shape).astype(self.dtype)
               for name, t in self.params.items()}
        for name, arr in new.items():
            self.params[name].data = arr


def build(config: EncoderConfig, seed: int = 0, dtype=np.float64) -> Encoder:
    """Deterministically initialize an encoder from its config and seed."""
    return Encoder(config, seed, dtype=dtype)


def param_count(config: EncoderConfig) -> int:
    """Parameter count as a pure function of the config."""
    return sum(math.prod(shape) for _, shape, _, _ in parameter_shapes(config))


def parameter_breakdown(config: EncoderConfig) -> dict[str, int]:
    """Per-module parameter counts (stem, each stage) for inspection."""
    out: dict[str, int] = {}
    for name, shape, _, _ in parameter_shapes(config):
        module = name.split(".")[0]
        if module != "stem":
            h, blocks = config.stages[int(module[len("stage"):])]
            module = f"{module}(h={h},blocks={blocks})"
        out[module] = out.get(module, 0) + math.prod(shape)
    return out


# ---------------------------------------------------------------------------
# checkpoints: config, seed, dtype and meta in the container header; the
# parameters ("param/...") and caller extras ("extra/...") as arrays in their
# own dtype


def save_checkpoint(path, encoder: Encoder, extra: dict[str, np.ndarray] | None = None,
                    meta: dict | None = None) -> None:
    fields = {"config": asdict(encoder.config), "seed": encoder.seed,
              "dtype": encoder.dtype.name, "meta": meta or {}}
    arrays = {f"param/{k}": t.data for k, t in encoder.params.items()}
    arrays.update({f"extra/{k}": v for k, v in (extra or {}).items()})
    container.write_atomic(path, container.pack("checkpoint", fields, arrays))


def load_checkpoint(path) -> tuple[Encoder, dict[str, np.ndarray], dict]:
    """(encoder, extras, meta) of a checkpoint file; a corrupt or malformed
    one, including a missing field or parameter, raises DataFormatError."""
    with open(path, "rb") as fh:
        _, fields, arrays = container.unpack(fh.read(), "checkpoint")
    params = {k[len("param/") :]: v for k, v in arrays.items() if k.startswith("param/")}
    try:
        cfg = dict(fields["config"], stages=tuple(tuple(s) for s in fields["config"]["stages"]))
        encoder = Encoder(EncoderConfig(**cfg), fields["seed"], dtype=fields["dtype"],
                          arrays=params)
        meta = fields["meta"]
    except KeyError as exc:
        raise DataFormatError(f"malformed checkpoint: no {exc} field") from None
    except (TypeError, ValueError) as exc:
        raise DataFormatError(f"malformed checkpoint: {exc}") from None
    extra = {k[len("extra/") :]: v.copy() for k, v in arrays.items() if k.startswith("extra/")}
    return encoder, extra, meta
