"""Outside-in spans around the calls the workloads make into riskclr.

A span is recorded by replacing a public function with a timing wrapper at
the attribute through which its callers look it up. A name that one module
imports from another (``riskclr.train.augment``) is a separate binding from
its definition (``riskclr.signal.augment``), so each wrapper is installed
where the call resolves; methods are wrapped on their class. ``install`` and
``restore`` bracket every traced region, so no wrapper outlives it.

Spans are kept in memory as ``[name, start, end, parent]`` lists. Every span
belongs to the root span that was open when it started (one set-up or one
timed unit), and ``instance`` aggregates calls, total time, self time and
the exact counters of one root.
"""

from __future__ import annotations

import functools
import json
import math
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


def _conv_flops(result, x, w, b=None, stride=1, groups=1):
    """Forward FLOPs of one conv1d call, from its argument shapes.

    ``useful`` is what a grouped kernel needs; ``run`` is what the dense
    block-diagonal GEMM that implements it computes.
    """
    batch, length, c_in = x.shape
    kernel, _, c_out = w.shape
    out_len = -(-length // stride)
    useful = 2 * batch * out_len * kernel * (c_in // groups) * c_out
    return {"conv1d.useful_flops": useful, "conv1d.run_flops": useful * groups}


def _bandpass_rows(result, signal, *args, **kwargs):
    return {"bandpass.rows": math.prod(signal.shape[:-1])}


def _container_bytes(result, dataset):
    return {"container.bytes": len(result)}


def _pretrain_views(result, prep, encoder, cfg, *args, **kwargs):
    return {"pretrain.views": train_views(len(prep), cfg, len(result.history))}


def _embed_rows(result, encoder, signals, *args, **kwargs):
    return {"embed.signals": signals.shape[0]}


def train_batches(n_subjects: int, cfg) -> list[int]:
    """Subjects per training batch in one epoch of ``train.pretrain``: the
    trainer's own batching of what its validation split leaves for training."""
    from riskclr import train

    n_train = n_subjects - int(round(cfg.val_fraction * n_subjects))
    return [len(c) for c in train._iter_batches(range(n_train), cfg.batch_size)]


def train_views(n_subjects: int, cfg, epochs: int) -> int:
    """Augmented views one ``pretrain`` call pushes through a training step."""
    return 2 * sum(train_batches(n_subjects, cfg)) * epochs


def layer_targets() -> list[tuple[object, str, str, object]]:
    """(owner, attribute, span name, counter) for every traced call site."""
    from riskclr import autodiff, data, encoder, losses, signal, train

    return [
        (autodiff, "conv1d", "autodiff.conv1d", _conv_flops),
        (autodiff, "swish", "autodiff.swish", None),
        (autodiff, "dense", "autodiff.dense", None),
        (autodiff.Tape, "backward", "autodiff.backward", None),
        (encoder.Encoder, "forward", "encoder.forward", None),
        (encoder.Encoder, "embed", "encoder.embed", _embed_rows),
        (train, "save_checkpoint", "encoder.save_checkpoint", None),
        (train, "load_checkpoint", "encoder.load_checkpoint", None),
        (signal.NoiseBank, "synthetic", "signal.noise_bank", None),
        (train, "preprocess", "signal.preprocess", None),
        (signal, "resample", "signal.resample", None),
        (signal, "bandpass", "signal.bandpass", _bandpass_rows),
        (signal, "zscore", "signal.zscore", None),
        (train, "augment", "signal.augment", None),
        (train, "random_mask", "signal.random_mask", None),
        (train, "batch_weights", "weighting.batch_weights", None),
        (losses.LossSpec, "evaluate", "losses.evaluate", None),
        (losses, "cosine_matrix", "losses.cosine_matrix", None),
        (train.Adam, "step", "train.optimizer_step", None),
        (data, "generate_synthetic", "data.generate_synthetic", None),
        (data, "save_bytes", "data.save_bytes", _container_bytes),
        (data, "load_bytes", "data.load_bytes", None),
        (train, "risk_from_record", "risk_score.risk_from_record", None),
        (train, "pretrain", "train.pretrain", _pretrain_views),
        (train, "linear_probe", "train.linear_probe", None),
        (train, "auroc_binary", "metrics.auroc_binary", None),
    ]


class Tracer:
    """Wraps the given call sites while installed and records their spans."""

    def __init__(self, targets):
        self.targets = list(targets)
        self.spans: list[list] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.last_root: int | None = None

    def _wrap(self, fn, name, counter):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                root = stack[0] if stack else idx
                for key, value in counter(result, *args, **kwargs).items():
                    counts[root][key] += value
            return result

        return wrapper

    def install(self) -> None:
        for owner, attr, name, counter in self.targets:
            raw = vars(owner)[attr]
            if isinstance(raw, (classmethod, staticmethod)):
                patched = type(raw)(self._wrap(raw.__func__, name, counter))
            else:
                patched = self._wrap(raw, name, counter)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, patched)

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    @contextmanager
    def root(self, name: str):
        """Install the wrappers and open one root span (``last_root``)."""
        idx = self.last_root = len(self.spans)
        span = [name, 0.0, 0.0, -1]
        self.spans.append(span)
        self._stack.append(idx)
        self.install()
        span[1] = perf_counter()
        try:
            yield
        finally:
            span[2] = perf_counter()
            self.restore()
            self._stack.pop()

    def instance(self, root: int) -> dict:
        """Calls, total and self seconds per span name under one root span."""
        covered = defaultdict(float)
        layers: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        members = {root}
        for idx in range(root + 1, len(self.spans)):
            name, start, end, parent = self.spans[idx]
            if parent not in members:
                break  # the next root begins
            members.add(idx)
            covered[parent] += end - start
        for idx in members:
            name, start, end, _ = self.spans[idx]
            entry = layers[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - covered[idx]
        _, start, end, _ = self.spans[root]
        return {"wall": end - start, "untraced": end - start - covered[root],
                "layers": {k: tuple(v) for k, v in layers.items()},
                "counts": dict(self.counts.get(root, {}))}

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)
