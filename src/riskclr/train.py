"""Pretraining loop, downstream heads, optimizers, and the ablation harness.

Reproducibility scheme: every random stream is derived statelessly from
(seed, purpose, indices) via SeedSequence, so augmentation draws do not
depend on scheduling order and a resumed run continues the exact stream of
an uninterrupted one. Checkpoints carry encoder parameters, optimizer
moments, the epoch cursor and the pretraining config.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import container
from .autodiff import Tape, Tensor
from .checks import BOOL, NON_NEGATIVE, POSITIVE, UNIT, check_fields, integer, one_of
from .data import Dataset, DownstreamDataset
from .encoder import Encoder, build, load_checkpoint, save_checkpoint
from .losses import DEFAULT_ALPHA, DEFAULT_TAU, EmbeddingBatch, LossSpec
from .metrics import TargetScaler, auroc_binary, mae
from .risk_score import risk_from_record
from .signal import NoiseBank, augment, preprocess, random_mask
from .weighting import BatchRiskInfo, batch_weights, pairs_involution


class NanLossError(RuntimeError):
    """Loss became non-finite; message carries the diagnostic dump."""


class ResumeError(ValueError):
    """The resume checkpoint was written under another configuration."""


# ---------------------------------------------------------------------------
# optimizers and schedules


class Adam:
    """Adam (betas 0.9 and 0.999, eps 1e-8) with either decoupled (AdamW) or
    L2-coupled weight decay. ``step`` refuses a parameter without a gradient
    (ValueError naming it) before it changes anything."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: dict[str, Tensor], lr: float, weight_decay: float = 0.0,
                 decoupled: bool = True):
        self.params = params
        self.lr = lr
        self.weight_decay = weight_decay
        self.decoupled = decoupled
        self.step_count = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self, lr: float | None = None) -> None:
        for name, p in self.params.items():
            if p.grad is None:
                raise ValueError(f"parameter {name!r} has no gradient to step on")
        lr = self.lr if lr is None else lr
        self.step_count += 1
        b1c = 1.0 - self.beta1 ** self.step_count
        b2c = 1.0 - self.beta2 ** self.step_count
        for name, p in self.params.items():
            g = p.grad
            if self.weight_decay and not self.decoupled:
                g = g + self.weight_decay * p.data
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            if self.weight_decay and self.decoupled:
                p.data *= 1.0 - lr * self.weight_decay
            p.data -= (lr / b1c) * m / (np.sqrt(v / b2c) + self.eps)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def state_arrays(self) -> dict[str, np.ndarray]:
        out = {f"m/{k}": v for k, v in self.m.items()}
        out.update({f"v/{k}": v for k, v in self.v.items()})
        out["step_count"] = np.array([float(self.step_count)])
        return out

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        self.step_count = int(arrays["step_count"][0])
        for k in self.m:
            self.m[k] = np.asarray(arrays[f"m/{k}"], dtype=self.m[k].dtype).reshape(self.m[k].shape).copy()
            self.v[k] = np.asarray(arrays[f"v/{k}"], dtype=self.v[k].dtype).reshape(self.v[k].shape).copy()


def cosine_anneal(base_lr: float, period: int, epoch: int) -> float:
    """Cosine learning rate from ``base_lr`` down to 0 at epoch ``period``."""
    frac = min(epoch, period) / period
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * frac))


def cosine_warm_restarts(base_lr: float, period: int, epoch: int) -> float:
    """Cosine learning rate from ``base_lr``, restarted every ``period`` epochs."""
    frac = (epoch % period) / period
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * frac))


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class PretrainConfig:
    batch_size: int = 64
    epochs: int = 100  # desk-scale runs set 20
    lr: float = 1e-4
    weight_decay: float = 5e-5
    tau: float = DEFAULT_TAU
    alpha: float = DEFAULT_ALPHA
    patience: int = 20
    seed: int = 42
    lead_mode: str = "all-12"  # or "fixed-lead"
    fixed_lead: int = 1
    val_fraction: float = 0.1
    loss: LossSpec = field(default_factory=LossSpec)
    noise_intensity: float = 0.02
    mask_prob: float = 0.2
    mask_fraction: float = 0.10
    deterministic_impute: bool = False
    dtype: str = "float32"  # storage mode for training tensors

    def __post_init__(self):
        check_fields(
            self, batch_size=integer(2), epochs=integer(1), lr=POSITIVE,
            weight_decay=NON_NEGATIVE, tau=POSITIVE, alpha=UNIT, patience=integer(0),
            seed=integer(0), lead_mode=one_of("all-12", "fixed-lead"),
            fixed_lead=integer(1, 12), val_fraction=(lambda v: 0 <= v < 1, "in [0, 1)"),
            loss=(lambda v: isinstance(v, LossSpec), "a LossSpec"),
            noise_intensity=NON_NEGATIVE, mask_prob=UNIT, mask_fraction=UNIT,
            deterministic_impute=BOOL, dtype=one_of("float32", "float64"))


@dataclass(frozen=True)
class DownstreamConfig:
    task: str = "binary"  # or "regression"
    batch_size: int = 64
    epochs: int = 100
    lr: float = 1e-3
    weight_decay: float = 1e-5
    patience: int = 5
    restart_period: int = 10
    seed: int = 42

    def __post_init__(self):
        check_fields(
            self, task=one_of("binary", "regression"), batch_size=integer(1),
            epochs=integer(1), lr=POSITIVE, weight_decay=NON_NEGATIVE,
            patience=integer(0), restart_period=integer(1), seed=integer(0))


# ---------------------------------------------------------------------------
# derived RNG streams


def _rng(*key) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(k) & 0x7FFFFFFF for k in key]))


_PURPOSE = {"impute": 1, "order": 2, "lead": 3, "aug": 4, "mask": 5, "val": 6, "head": 7}


def _stream(seed: int, purpose: str, *idx) -> np.random.Generator:
    return _rng(seed, _PURPOSE[purpose], *idx)


# ---------------------------------------------------------------------------
# prepared pretraining data (preprocess once, reuse across runs)


@dataclass
class PreparedPretrain:
    """Preprocessed leads plus per-subject risk info for the trainer."""

    signals: np.ndarray  # (N, 12, T) float32, resample->bandpass->zscore applied
    risks: np.ndarray  # (N,)
    missing: np.ndarray  # (N,)
    subject_ids: list[str]

    @classmethod
    def from_dataset(cls, ds: Dataset, seed: int = 42,
                     deterministic_impute: bool = False) -> "PreparedPretrain":
        if len(ds) == 0:
            raise ValueError("empty pretraining dataset")
        n, n_leads, t = ds.leads.shape
        flat = preprocess(ds.leads.reshape(n * n_leads, t).astype(np.float64), fs_in=ds.fs)
        signals = flat.reshape(n, n_leads, -1).astype(np.float32)
        risks = np.empty(n)
        missing = np.empty(n, dtype=np.int64)
        for i, meta in enumerate(ds.metadata):
            rs = risk_from_record(meta, rng=_stream(seed, "impute", i),
                                  deterministic=deterministic_impute)
            risks[i] = rs.r
            missing[i] = rs.missing_count
        return cls(signals=signals, risks=risks, missing=missing,
                   subject_ids=list(ds.subject_ids))

    def __len__(self) -> int:
        return self.signals.shape[0]

    def subset(self, n: int) -> "PreparedPretrain":
        """First-n-subjects slice (reuses the preprocessing work)."""
        return PreparedPretrain(signals=self.signals[:n], risks=self.risks[:n],
                                missing=self.missing[:n],
                                subject_ids=self.subject_ids[:n])


@dataclass
class PretrainResult:
    encoder: Encoder
    history: list[dict]
    best_epoch: int
    best_val: float
    checkpoint_path: str | None


def _make_batch(prep: PreparedPretrain, subjects: np.ndarray, cfg: PretrainConfig,
                bank: NoiseBank, epoch: int,
                validation: bool = False) -> tuple[np.ndarray, BatchRiskInfo]:
    """Two augmented views per subject, interleaved (2i, 2i+1 are positives),
    and the risk info of those views.

    Streams are keyed by (seed, purpose, phase, epoch, subject, view) so the
    result is independent of batch composition and scheduling; validation
    views are epoch-independent to keep the early-stopping signal stable.
    """
    t = prep.signals.shape[2]
    views = np.empty((2 * len(subjects), t), dtype=np.float32)
    phase = 1 if validation else 0
    ep = 0 if validation else epoch
    for j, s in enumerate(subjects):
        s = int(s)
        if cfg.lead_mode == "fixed-lead":
            lead = cfg.fixed_lead
        else:
            lead = int(_stream(cfg.seed, "lead", phase, ep, s).integers(12)) + 1
        for v in (0, 1):
            x = augment(prep.signals[s, lead - 1], lead, bank,
                        _stream(cfg.seed, "aug", phase, ep, s, v), phi=cfg.noise_intensity)
            views[2 * j + v] = random_mask(x, _stream(cfg.seed, "mask", phase, ep, s, v),
                                           p=cfg.mask_prob, frac=cfg.mask_fraction)
    info = BatchRiskInfo(r=np.repeat(prep.risks[subjects], 2),
                         m=np.repeat(prep.missing[subjects], 2),
                         positive_of=pairs_involution(len(subjects)))
    return views, info


def _batch_loss(encoder: Encoder, views: np.ndarray, info: BatchRiskInfo,
                cfg: PretrainConfig):
    wm = batch_weights(info, cfg.alpha)
    z = encoder.forward(views)
    batch = EmbeddingBatch(z, info.positive_of, tau=cfg.tau)
    return cfg.loss.evaluate(batch, wm)


def _iter_batches(order: np.ndarray, batch_size: int):
    for lo in range(0, len(order) - 1, batch_size):
        chunk = order[lo : lo + batch_size]
        if len(chunk) >= 2:
            yield chunk


def host_conditions() -> dict:
    """What a run's bits depend on beyond its config and seed: the BLAS
    thread variables and count, the BLAS build numpy reports, numpy's
    version and the CPUs the encoder splits its batches over (see
    riskclr.autodiff)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 reports no dict
        blas = {}
    return {"blas_threads": {var: os.environ.get(var) for var in ad.BLAS_THREAD_VARS},
            "blas_thread_count": ad.blas_thread_count(),
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
            "numpy": np.__version__, "cpus": ad._WORKERS}


def _stored_config(cfg: PretrainConfig) -> dict:
    """``cfg`` as a checkpoint's meta stores it."""
    return json.loads(json.dumps(asdict(cfg), default=lambda v: v.item()))


def check_resume(path: str | os.PathLike, encoder: Encoder,
                 cfg: PretrainConfig) -> tuple[Encoder, dict[str, np.ndarray], dict]:
    """Load the checkpoint at ``path`` (``load_checkpoint``'s triple) for
    ``pretrain`` to resume under ``cfg`` into ``encoder``, or raise
    ``ResumeError`` naming the first thing that differs: a ``cfg`` field, a
    field this version lacks, the encoder config or dtype, or the
    ``blas_thread_count`` or ``blas`` build in the meta's ``host`` (the bits
    depend on both; a checkpoint that predates a field passes it)."""
    enc2, extra, meta = load_checkpoint(path)
    config, host = _stored_config(cfg), host_conditions()
    saved = meta.get("config")
    if saved is None:
        raise ResumeError("resume checkpoint records no pretraining config to check against")
    for name in dict.fromkeys([*config, *saved]):
        if name not in config:
            raise ResumeError(f"resume checkpoint was trained with {name}={saved[name]!r}, "
                              f"a field this version does not have")
        if saved.get(name) != config[name]:
            raise ResumeError(f"resume checkpoint was trained with {name}={saved.get(name)!r}, "
                              f"this run has {name}={config[name]!r}")
    if enc2.config != encoder.config or enc2.dtype != encoder.dtype:
        raise ResumeError("resume checkpoint was built for a different encoder config or dtype")
    for name in ("blas_thread_count", "blas"):
        was = meta.get("host", {}).get(name, host[name])
        if was != host[name]:
            raise ResumeError(f"resume checkpoint was trained with {name}={was!r}, "
                              f"this run has {name}={host[name]!r}")
    return enc2, extra, meta


def pretrain(
    prep: PreparedPretrain,
    encoder: Encoder,
    cfg: PretrainConfig,
    bank: NoiseBank | None = None,
    run_dir: str | os.PathLike | None = None,
    resume_from: str | os.PathLike | None = None,
    session_epochs: int | None = None,
) -> PretrainResult:
    """Contrastive pretraining with early stopping on held-out total loss.

    Per batch: lead selection, two augmented views per sample, encode,
    build the pairwise weights from risks and missingness, evaluate the
    configured loss, backpropagate, AdamW step; cosine-annealed learning
    rate per epoch. The best-validation parameter set is retained.

    ``session_epochs`` caps how many epochs this call runs (simulating an
    interruption); the schedule and stopping logic always follow
    ``cfg.epochs``, so resuming from the written checkpoint continues the
    exact trajectory of an uninterrupted run. The checkpoint carries the
    loss history, so a resumed run's ``metrics.csv`` lists every epoch, while
    ``PretrainResult.history`` holds only this call's epochs. It also carries
    ``cfg``, and resuming under another ``cfg`` or encoder, or from a config
    with a field this version lacks, raises ``ResumeError`` naming the first
    field that differs (``check_resume``). Its meta also records
    ``host_conditions()`` under ``host``, outside ``config``; of those, only
    another ``blas_thread_count`` or ``blas`` build refuses a resume
    (``ResumeError``), since the bits depend on them.
    """
    if bank is None:
        bank = NoiseBank.synthetic(seed=cfg.seed)
    n = len(prep)
    idx = np.arange(n)
    n_val = int(round(cfg.val_fraction * n))
    val_idx = idx[n - n_val :] if n_val else idx[:0]
    train_idx = idx[: n - n_val]
    if len(train_idx) < 2:
        raise ValueError("not enough subjects to form a training batch")

    optimizer = Adam(encoder.params, lr=cfg.lr, weight_decay=cfg.weight_decay, decoupled=True)
    start_epoch = 0
    best_val = math.inf
    best_epoch = -1
    best_params = encoder.state_arrays()
    bad_epochs = 0
    history: list[dict] = []
    earlier: list[dict] = []  # epochs of the sessions this one resumes
    config = _stored_config(cfg)
    host = host_conditions()

    if resume_from is not None:
        enc2, extra, meta = check_resume(resume_from, encoder, cfg)
        encoder.load_state_arrays(enc2.state_arrays())
        optimizer.load_state_arrays({k[len("opt/") :]: v for k, v in extra.items()
                                     if k.startswith("opt/")})
        start_epoch = int(meta["next_epoch"])
        best_val = float(meta["best_val"])
        best_epoch = int(meta["best_epoch"])
        bad_epochs = int(meta["bad_epochs"])
        earlier = meta.get("history", [])
        best_params = {k[len("best/") :]: v for k, v in extra.items() if k.startswith("best/")}

    run_path = Path(run_dir) if run_dir is not None else None
    if run_path is not None:
        run_path.mkdir(parents=True, exist_ok=True)

    def _validation_loss(epoch_tag: int) -> float:
        if len(val_idx) < 2:
            return math.nan
        total, count = 0.0, 0
        for chunk in _iter_batches(val_idx, cfg.batch_size):
            views, info = _make_batch(prep, chunk, cfg, bank, epoch_tag, validation=True)
            loss = _batch_loss(encoder, views, info, cfg)
            total += loss.item() * len(chunk)
            count += len(chunk)
        return total / count

    end_epoch = cfg.epochs if session_epochs is None else min(cfg.epochs,
                                                              start_epoch + session_epochs)
    for epoch in range(start_epoch, end_epoch):
        lr = cosine_anneal(cfg.lr, cfg.epochs, epoch)
        order = train_idx[_stream(cfg.seed, "order", epoch).permutation(len(train_idx))]
        epoch_loss, seen = 0.0, 0
        for bi, chunk in enumerate(_iter_batches(order, cfg.batch_size)):
            views, info = _make_batch(prep, chunk, cfg, bank, epoch)
            with Tape() as tape:
                loss = _batch_loss(encoder, views, info, cfg)
            value = loss.item()
            if not math.isfinite(value):
                wm = batch_weights(info, cfg.alpha)
                raise NanLossError(
                    f"non-finite loss at epoch {epoch} batch {bi} (seed {cfg.seed}); "
                    f"W stats: min={wm.W.min():.3g} max={wm.W.max():.3g} "
                    f"mean={wm.W.mean():.3g}; risks [{info.r.min():.3g}, {info.r.max():.3g}]"
                )
            tape.backward(loss)
            optimizer.step(lr=lr)
            optimizer.zero_grad()
            epoch_loss += value * len(chunk)
            seen += len(chunk)

        val_loss = _validation_loss(epoch)
        history.append({"epoch": epoch, "lr": lr, "train_loss": epoch_loss / max(seen, 1),
                        "val_loss": val_loss})
        monitored = val_loss if not math.isnan(val_loss) else epoch_loss / max(seen, 1)
        if monitored < best_val:
            best_val = monitored
            best_epoch = epoch
            best_params = encoder.state_arrays()
            bad_epochs = 0
        else:
            bad_epochs += 1

        if run_path is not None:
            extra = {f"opt/{k}": v for k, v in optimizer.state_arrays().items()}
            extra.update({f"best/{k}": v for k, v in best_params.items()})
            save_checkpoint(run_path / "last.ckpt", encoder, extra=extra,
                            meta={"next_epoch": epoch + 1, "best_val": best_val,
                                  "best_epoch": best_epoch, "bad_epochs": bad_epochs,
                                  "history": earlier + history, "config": config,
                                  "host": host})
            container.write_csv(run_path / "metrics.csv",
                                ("epoch", "lr", "train_loss", "val_loss"), earlier + history)

        if bad_epochs > cfg.patience:
            break

    encoder.load_state_arrays(best_params)
    ckpt_path = None
    if run_path is not None:
        ckpt_path = str(run_path / "best.ckpt")
        save_checkpoint(ckpt_path, encoder,
                        meta={"best_epoch": best_epoch, "best_val": best_val,
                              "epochs_run": len(earlier) + len(history)})
    return PretrainResult(encoder=encoder, history=history, best_epoch=best_epoch,
                          best_val=best_val, checkpoint_path=ckpt_path)


# ---------------------------------------------------------------------------
# downstream heads


@dataclass
class LinearHead:
    """Affine readout over raw embeddings."""

    w: np.ndarray  # (h,)
    b: float
    task: str
    scaler: TargetScaler | None = None

    def predict(self, embeddings: np.ndarray) -> np.ndarray:
        raw = embeddings @ self.w + self.b
        if self.task == "regression" and self.scaler is not None:
            return self.scaler.denormalize(raw)
        return raw


def preprocess_downstream(ds: DownstreamDataset) -> np.ndarray:
    """Pipeline-preprocessed signals for a downstream dataset (N, T)."""
    return preprocess(ds.signals.astype(np.float64), fs_in=ds.fs).astype(np.float32)


def _head_loss(z: Tensor, w: Tensor, b: Tensor, targets: np.ndarray, task: str) -> Tensor:
    logits = ad.reshape(ad.dense(z, w, b), (z.data.shape[0],))
    y = targets.astype(logits.data.dtype)
    if task == "binary":
        # mean BCE-with-logits: softplus(s) - y * s
        return ad.mean(ad.sub(ad.softplus(logits), ad.mul(logits, y)))
    return ad.mean(ad.abs_(ad.sub(logits, y)))  # L1 on z-scored targets


@dataclass
class _Targets:
    """Downstream labels as the head fits them (z-scored for regression) and
    the validation metrics on their original scale."""

    task: str
    train: np.ndarray
    val: np.ndarray
    val_raw: np.ndarray
    scaler: TargetScaler | None

    @classmethod
    def of(cls, train_ds: DownstreamDataset, val_ds: DownstreamDataset, task: str) -> "_Targets":
        y_tr = train_ds.labels(task).astype(np.float64)
        y_va = val_ds.labels(task).astype(np.float64)
        if task == "binary" and len(set(y_tr.tolist())) < 2:
            raise ValueError("binary training needs both classes in the training labels")
        if task != "regression":
            return cls(task, y_tr, y_va, y_va, None)
        scaler = TargetScaler.fit(y_tr)
        return cls(task, scaler.normalize(y_tr), scaler.normalize(y_va), y_va, scaler)

    def head(self, fitted: dict[str, np.ndarray]) -> LinearHead:
        return LinearHead(w=fitted["head.w"].reshape(-1).astype(np.float64),
                          b=float(fitted["head.b"][0]), task=self.task, scaler=self.scaler)

    def metrics(self, head: LinearHead, emb_va: np.ndarray, val_loss: float) -> dict:
        preds = head.predict(emb_va)
        if self.task == "binary":
            return {"val_auroc": auroc_binary(preds, self.val_raw.astype(int)),
                    "val_loss": val_loss}
        return {"val_mae": mae(preds, self.val_raw), "val_loss": val_loss}


def _new_head(h: int, cfg: DownstreamConfig, dtype) -> tuple[Tensor, Tensor]:
    w = _stream(cfg.seed, "head").normal(0.0, 1.0 / math.sqrt(h), size=(h, 1))
    return ad.parameter(w.astype(dtype)), ad.parameter(np.zeros(1, dtype=dtype))


def _fit(params: dict[str, Tensor], forward_loss, x_tr: np.ndarray, x_va: np.ndarray,
         targets: _Targets, cfg: DownstreamConfig, salt: int) -> tuple[float, dict]:
    """Minibatch Adam (L2 decay) under warm-restart cosine lr, early-stopped
    on the validation loss; returns the best loss and the parameters there.

    ``salt`` keys the per-epoch shuffle stream of this kind of fit.
    """
    optimizer = Adam(params, lr=cfg.lr, weight_decay=cfg.weight_decay, decoupled=False)
    best_loss, best = math.inf, {k: p.data.copy() for k, p in params.items()}
    bad = 0
    n = x_tr.shape[0]
    for epoch in range(cfg.epochs):
        lr = cosine_warm_restarts(cfg.lr, cfg.restart_period, epoch)
        order = _stream(cfg.seed, "order", epoch, salt).permutation(n)
        for lo in range(0, n, cfg.batch_size):
            sel = order[lo : lo + cfg.batch_size]
            with Tape() as tape:
                loss = forward_loss(x_tr[sel], targets.train[sel])
            tape.backward(loss)
            optimizer.step(lr=lr)
            optimizer.zero_grad()
        vl = forward_loss(x_va, targets.val).item()
        if vl < best_loss:
            best_loss, best = vl, {k: p.data.copy() for k, p in params.items()}
            bad = 0
        else:
            bad += 1
            if bad > cfg.patience:
                break
    return best_loss, best


def linear_probe(encoder: Encoder, train_ds: DownstreamDataset, val_ds: DownstreamDataset,
                 cfg: DownstreamConfig, signals_train: np.ndarray | None = None,
                 signals_val: np.ndarray | None = None) -> tuple[LinearHead, dict]:
    """Train an affine head on frozen embeddings; returns head and val metrics.

    ``signals_*`` short-circuit preprocessing when the caller already ran it.
    """
    if signals_train is None:
        signals_train = preprocess_downstream(train_ds)
    if signals_val is None:
        signals_val = preprocess_downstream(val_ds)
    emb_tr = encoder.embed(signals_train).astype(np.float64)
    emb_va = encoder.embed(signals_val).astype(np.float64)
    targets = _Targets.of(train_ds, val_ds, cfg.task)
    w, b = _new_head(emb_tr.shape[1], cfg, np.float64)

    def forward_loss(x: np.ndarray, y: np.ndarray) -> Tensor:
        return _head_loss(Tensor(x), w, b, y, cfg.task)

    best_loss, best = _fit({"head.w": w, "head.b": b}, forward_loss, emb_tr, emb_va,
                           targets, cfg, salt=77)
    head = targets.head(best)
    return head, targets.metrics(head, emb_va, best_loss)


def evaluate_head(encoder: Encoder, head: LinearHead, ds: DownstreamDataset,
                  signals: np.ndarray | None = None) -> dict:
    if signals is None:
        signals = preprocess_downstream(ds)
    emb = encoder.embed(signals).astype(np.float64)
    preds = head.predict(emb)
    if head.task == "binary":
        return {"auroc": auroc_binary(preds, ds.labels("binary")), "n": len(ds)}
    return {"mae": mae(preds, ds.labels("regression")), "n": len(ds)}


def finetune(encoder: Encoder, train_ds: DownstreamDataset, val_ds: DownstreamDataset,
             cfg: DownstreamConfig) -> tuple[LinearHead, dict]:
    """Joint training of encoder and head on the downstream task."""
    x_tr = preprocess_downstream(train_ds)
    x_va = preprocess_downstream(val_ds)
    targets = _Targets.of(train_ds, val_ds, cfg.task)
    w, b = _new_head(encoder.config.output_dim, cfg, encoder.dtype)
    params = dict(encoder.params)
    params.update({"head.w": w, "head.b": b})

    def forward_loss(x: np.ndarray, y: np.ndarray) -> Tensor:
        return _head_loss(encoder.forward(x), w, b, y, cfg.task)

    best_loss, best = _fit(params, forward_loss, x_tr, x_va, targets, cfg, salt=99)
    encoder.load_state_arrays(best)
    head = targets.head(best)
    return head, targets.metrics(head, encoder.embed(x_va).astype(np.float64), best_loss)


# ---------------------------------------------------------------------------
# ablation harness


ABLATION_VARIANTS: tuple[LossSpec, ...] = (
    LossSpec("nce"),
    LossSpec("w"),
    LossSpec("d"),
    LossSpec("nce+d", lam=1.0, normalize=True),
    LossSpec("w+d", lam=1.0, normalize=True),
)


# w+d mixtures at lambda 5, 2, 1, 0.5 and 0.2, normalized by the sum of their
# coefficients
LAMBDA_MIX_VARIANTS: tuple[LossSpec, ...] = tuple(
    LossSpec("w+d", lam=l, normalize=True) for l in (5.0, 2.0, 1.0, 0.5, 0.2))


def ablate(prep: PreparedPretrain, encoder_config, down_train: DownstreamDataset,
           down_val: DownstreamDataset, down_test: DownstreamDataset,
           cfg: PretrainConfig, probe_cfg: DownstreamConfig,
           variants: tuple[LossSpec, ...] = ABLATION_VARIANTS,
           encoder_seed: int = 0) -> list[dict]:
    """One pretrain+probe per loss variant under identical seeds and data order.

    The noise bank and the preprocessed downstream signals depend on no
    variant, so they are built once and shared.
    """
    if not variants:
        raise ValueError("variants must be non-empty")
    bank = NoiseBank.synthetic(seed=cfg.seed)
    sig_train, sig_val, sig_test = (preprocess_downstream(d)
                                    for d in (down_train, down_val, down_test))
    rows = []
    for spec in variants:
        enc = build(encoder_config, seed=encoder_seed, dtype=np.dtype(cfg.dtype))
        run_cfg = replace(cfg, loss=spec)
        t0 = time.perf_counter()
        result = pretrain(prep, enc, run_cfg, bank=bank)
        head, _ = linear_probe(enc, down_train, down_val, probe_cfg,
                               signals_train=sig_train, signals_val=sig_val)
        test = evaluate_head(enc, head, down_test, signals=sig_test)
        rows.append({
            "variant": spec.label(),
            "lam": spec.lam if spec.kind in ("nce+d", "w+d") else "",
            "normalized": spec.normalize,
            "final_train_loss": result.history[-1]["train_loss"],
            "test_auroc" if probe_cfg.task == "binary" else "test_mae":
                test.get("auroc", test.get("mae")),
            "seconds": round(time.perf_counter() - t0, 2),
        })
    return rows

