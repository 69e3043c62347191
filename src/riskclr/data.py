"""Columnar datasets, deterministic splits, file I/O, and the synthetic
risk-structured ECG generator.

A dataset is a set of equal-length columns, one row per subject record, at
one sample rate ``fs``: 12-lead ``(n, 12, t)`` or single-lead ``(n, t)``
float32 signals plus subject IDs and metadata or labels. The arrays pass as
they are from the generator to the container and the trainer.

The synthetic generator gives every subject a full latent covariate set, a
true risk from it, and an ECG whose heart rate, T-wave amplitude, and
baseline noise are monotone in that risk (scaled by configurable coupling
strengths). The observed metadata then hides some covariates, so the
training-side risk estimate sees realistic missingness while downstream
labels derive from the clean latent.

Datasets persist in the shared container (see ``container``): ``fs``,
subject IDs and metadata in the JSON header (``null`` for a missing
covariate), each array in its own dtype. Metadata is also exportable to the
CSV schema shared with the scoring CLI.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import container
from .container import DataFormatError
from .risk_score import CSV_COLUMNS, MetadataRecord, impute, record_to_csv_row, score2

DATA_ROOT_ENV = "RISKCLR_DATA_ROOT"


class _Columns:
    """What both datasets share: one sample rate and equal-length columns."""

    def _check_columns(self, n: int, **dtypes) -> None:
        """Check ``fs``; make each named column a list (dtype None) or a 1-D array."""
        self.fs = float(self.fs)
        if not (math.isfinite(self.fs) and self.fs > 0):
            raise ValueError(f"fs must be a positive sample rate in Hz, got {self.fs!r}")
        for name, dtype in dtypes.items():
            values = getattr(self, name)
            col = list(values) if dtype is None else np.asarray(values, dtype=dtype)
            if getattr(col, "ndim", 1) != 1 or len(col) != n:
                raise ValueError(f"column {name!r} needs {n} rows, got shape {np.shape(col)}")
            setattr(self, name, col)

    def __len__(self) -> int:
        return len(self.subject_ids)

    def take(self, idx):
        """The rows at integer positions ``idx``, in that order, as a new dataset."""
        idx = np.asarray(idx, dtype=np.int64)
        rows = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "fs"}
        return replace(self, **{k: v[idx] if isinstance(v, np.ndarray) else [v[i] for i in idx]
                                for k, v in rows.items()})

    def content_hash(self) -> str:
        return hashlib.sha256(save_bytes(self)).hexdigest()


@dataclass
class Dataset(_Columns):
    """Pretraining cohort; one row per subject."""

    leads: np.ndarray  # (n, 12, t) float32
    fs: float
    subject_ids: list[str]
    metadata: list[MetadataRecord]

    def __post_init__(self):
        self.leads = np.asarray(self.leads, dtype=np.float32)
        if self.leads.ndim != 3 or self.leads.shape[1] != 12:
            raise ValueError(f"leads must be (n, 12, t), got shape {self.leads.shape}")
        self._check_columns(len(self.leads), subject_ids=None, metadata=None)


@dataclass
class DownstreamDataset(_Columns):
    """Labelled single-lead evaluation data; the lead is fixed across rows."""

    signals: np.ndarray  # (n, t) float32
    fs: float
    subject_ids: list[str]
    lead_id: np.ndarray  # (n,) int64, 1-based
    label_real: np.ndarray  # (n,) float64
    label_binary: np.ndarray  # (n,) int64

    def __post_init__(self):
        self.signals = np.asarray(self.signals, dtype=np.float32)
        if self.signals.ndim != 2:
            raise ValueError(f"signals must be (n, t), got shape {self.signals.shape}")
        self._check_columns(len(self.signals), subject_ids=None, lead_id=np.int64,
                            label_real=np.float64, label_binary=np.int64)

    def labels(self, task: str) -> np.ndarray:
        if task not in ("binary", "regression"):
            raise ValueError(f"unknown task {task!r}")
        return (self.label_binary if task == "binary" else self.label_real).copy()


# ---------------------------------------------------------------------------
# synthetic generation


@dataclass(frozen=True)
class SyntheticConfig:
    n_subjects: int = 512
    n_downstream: int = 256
    fs: float = 250.0
    duration: float = 10.0
    optional_presence: float = 0.35  # observation probability for the 4 optional covariates
    hr_coupling: float = 1.0
    t_amp_coupling: float = 1.0
    noise_coupling: float = 1.0
    qt_coupling: float = 1.0  # risk lengthens the R->T interval
    binary_quantile: float = 0.5  # label rule: risk above this quantile
    seed: int = 42

    def __post_init__(self):
        if min(self.hr_coupling, self.t_amp_coupling, self.noise_coupling,
               self.qt_coupling) < 0:
            raise ValueError("coupling strengths must be non-negative")
        if self.n_subjects <= 0 or self.fs <= 0 or self.duration <= 0:
            raise ValueError("n_subjects, fs, duration must be positive")

    def null_variant(self) -> "SyntheticConfig":
        """Same sizes, all risk-to-morphology couplings switched off."""
        return replace(self, hr_coupling=0.0, t_amp_coupling=0.0,
                       noise_coupling=0.0, qt_coupling=0.0)


# fixed spatial projection of the beat template onto the 12 leads
_LEAD_SCALES = np.array([1.0, 1.1, 0.55, -0.5, 0.7, 0.9,
                         0.35, 0.6, 0.85, 1.0, 0.95, 0.8])

_T_WIDTH = 0.055


def _risk_to_unit(r: float) -> float:
    # spread the heavily right-skewed risk distribution over (0, 1)
    return min(1.0, math.sqrt(r / 0.6))


def _subject_beat_bumps(rng: np.random.Generator, t_amp: float, t_offset: float):
    """Per-subject beat template: P/QRS/T Gaussian bumps plus a U-wave.

    The QRS complex carries a wide per-subject gain while P/T/U do not, so
    global standardization cannot divide it out; the risk-coupled quantity
    is the T amplitude relative to that gain. Remaining shape parameters are
    risk-independent distractors that dominate pooled summary statistics.
    """
    qrs_gain = rng.uniform(0.35, 2.5)
    return (
        (rng.uniform(0.05, 0.40), rng.uniform(0.016, 0.030), -rng.uniform(0.10, 0.24)),  # P
        (-qrs_gain * rng.uniform(0.05, 0.30), rng.uniform(0.006, 0.011), -0.028),  # Q
        (qrs_gain, rng.uniform(0.008, 0.014), 0.0),  # R
        (-qrs_gain * rng.uniform(0.10, 0.45), rng.uniform(0.008, 0.013), rng.uniform(0.02, 0.045)),  # S
        (qrs_gain * t_amp, _T_WIDTH * rng.uniform(0.8, 1.25), t_offset),  # T: ratio to the gain
        (rng.uniform(0.0, 0.15), rng.uniform(0.03, 0.05), t_offset + rng.uniform(0.07, 0.13)),  # U
    )


def _subject_latents(rng: np.random.Generator) -> dict:
    gender = "male" if rng.random() < 0.5 else "female"
    return dict(
        age=float(rng.uniform(40.0, 80.0)),
        gender=gender,
        smoking=int(rng.random() < 0.3),
        sbp=float(rng.uniform(100.0, 175.0)),
        diabetes=int(rng.random() < 0.15),
        total_cholesterol=float(max(2.5, rng.normal(5.5, 1.0))),
        hdl_cholesterol=float(max(0.5, rng.normal(1.3, 0.3))),
    )


def _beat_train(rng: np.random.Generator, cfg: SyntheticConfig, hr_bpm: float,
                t_amp: float, t_offset: float, noise_sd: float) -> np.ndarray:
    n = int(cfg.duration * cfg.fs)
    t = np.arange(n) / cfg.fs
    signal = np.zeros(n)
    bumps = _subject_beat_bumps(rng, t_amp, t_offset)
    rr_jitter = rng.uniform(0.01, 0.05)  # per-subject HRV, independent of risk
    alternans = rng.uniform(0.0, 0.15)  # every-other-beat amplitude distractor
    beat_at = -0.2
    parity = 0
    while beat_at < cfg.duration + 0.5:
        scale = 1.0 + (alternans if parity else -alternans)
        parity ^= 1
        for amp, width, offset in bumps:
            mu = beat_at + offset
            lo = max(0, int((mu - 4 * width) * cfg.fs))
            hi = min(n, int((mu + 4 * width) * cfg.fs) + 1)
            if hi > lo:
                signal[lo:hi] += scale * amp * np.exp(-0.5 * ((t[lo:hi] - mu) / width) ** 2)
        rr = 60.0 / hr_bpm
        beat_at += rr * (1.0 + rng.normal(0.0, rr_jitter))
    leads = _LEAD_SCALES[:, None] * signal[None, :]
    leads *= rng.uniform(0.92, 1.08, size=(12, 1))
    # slow wander partially inside the high-pass edge (distractor)
    wander_amp = rng.uniform(0.0, 0.30, size=(12, 1))
    wander_f = rng.uniform(0.15, 0.5)
    wander_phase = rng.uniform(0.0, 2.0 * math.pi, size=(12, 1))
    leads += wander_amp * np.sin(2.0 * math.pi * wander_f * t[None, :] + wander_phase)
    # per-lead noise multiplier masks the risk-coupled noise floor
    lead_noise = noise_sd * rng.uniform(0.5, 1.5, size=(12, 1))
    leads += rng.normal(0.0, 1.0, size=leads.shape) * lead_noise
    return leads


def _generate_subject(cfg: SyntheticConfig, index: int):
    """(leads (12, t) float64, observed metadata, true risk, heart rate)."""
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, index]))
    latent = _subject_latents(rng)
    full = MetadataRecord(**latent)
    r_true = score2(impute(full, deterministic=True)).r
    rn = _risk_to_unit(r_true)

    # couplings put risk into morphology with enough subject noise that the
    # downstream task rewards representation quality instead of saturating:
    # heart rate is a moderate linear cue, T amplitude and noise floor are
    # weak ones, and the R->T interval carries the clean headroom (timing is
    # hard to read from pooled statistics but learnable by the encoder)
    hr = 72.0 + 7.0 * cfg.hr_coupling * (2.0 * rn - 1.0) + rng.normal(0.0, 4.5)
    hr = float(np.clip(hr, 35.0, 180.0))
    t_amp = 0.30 - 0.16 * cfg.t_amp_coupling * (2.0 * rn - 1.0) + rng.normal(0.0, 0.02)
    t_amp = float(max(0.03, t_amp))
    t_offset = 0.17 + 0.10 * cfg.qt_coupling * (2.0 * rn - 1.0) + rng.normal(0.0, 0.02)
    t_offset = float(np.clip(t_offset, 0.055, 0.30))
    noise_sd = 0.035 + 0.02 * cfg.noise_coupling * rn + abs(rng.normal(0.0, 0.012))
    leads = _beat_train(rng, cfg, hr, t_amp, t_offset, noise_sd)

    observed = dict(latent)
    for key in ("smoking", "diabetes", "total_cholesterol", "hdl_cholesterol"):
        if rng.random() >= cfg.optional_presence:
            observed[key] = None
    return leads, MetadataRecord(**observed), r_true, hr


def generate_synthetic(cfg: SyntheticConfig) -> tuple[Dataset, DownstreamDataset]:
    """Build the pretraining and downstream datasets from one seeded config."""
    n_pre, n_down = cfg.n_subjects, cfg.n_downstream
    t = int(cfg.duration * cfg.fs)
    leads = np.empty((n_pre, 12, t), dtype=np.float32)
    signals = np.empty((n_down, t), dtype=np.float32)
    risks, metadata = np.empty(n_down), []
    for i in range(n_pre + n_down):
        subject_leads, meta, r, _ = _generate_subject(cfg, i)
        if i < n_pre:
            leads[i] = subject_leads
            metadata.append(meta)
        else:
            signals[i - n_pre] = subject_leads[0]  # lead I, fixed across the dataset
            risks[i - n_pre] = r
    ids = [f"synth-{cfg.seed}-{i:05d}" for i in range(n_pre + n_down)]
    threshold = float(np.quantile(risks, cfg.binary_quantile)) if n_down else 0.0
    return (Dataset(leads, cfg.fs, ids[:n_pre], metadata),
            DownstreamDataset(signals, cfg.fs, ids[n_pre:], lead_id=np.ones(n_down),
                              label_real=risks, label_binary=risks > threshold))


# ---------------------------------------------------------------------------
# splits


def _boundaries(n: int, fractions) -> list[int]:
    fr = np.asarray(fractions, dtype=np.float64)
    if fr.ndim != 1 or len(fr) != 3 or np.any(fr < 0) or abs(fr.sum() - 1.0) > 1e-9:
        raise ValueError("fractions must be three non-negative values summing to 1")
    cum = np.cumsum(fr)
    return [int(round(c * n)) for c in cum[:2]] + [n]


def split(dataset, fractions, mode: str = "sequential", seed: int = 0):
    """Partition into (train, val, test) covering the dataset disjointly.

    "sequential" slices in stored order; "by-subject" shuffles subjects with
    the seed and never splits one subject across partitions.
    """
    if mode == "sequential":
        rank, n_ranks = np.arange(len(dataset)), len(dataset)
    elif mode == "by-subject":
        subjects = list(dict.fromkeys(dataset.subject_ids))
        order = np.random.default_rng(seed).permutation(len(subjects))
        position = {subjects[i]: p for p, i in enumerate(order)}
        rank = np.array([position[s] for s in dataset.subject_ids], dtype=np.int64)
        n_ranks = len(subjects)
    else:
        raise ValueError(f"unknown split mode {mode!r}")
    b1, b2, _ = _boundaries(n_ranks, fractions)
    bucket = (rank >= b1).astype(np.int64) + (rank >= b2)
    return tuple(dataset.take(np.flatnonzero(bucket == k)) for k in range(3))


# ---------------------------------------------------------------------------
# container I/O


def save_bytes(dataset) -> bytes:
    header = {"fs": dataset.fs, "subject_ids": dataset.subject_ids}
    if isinstance(dataset, Dataset):
        header["metadata"] = [asdict(m) for m in dataset.metadata]
        return container.pack("pretrain", header, {"leads": dataset.leads})
    names = ("signals", "lead_id", "label_real", "label_binary")
    return container.pack("downstream", header, {k: getattr(dataset, k) for k in names})


def load_bytes(blob: bytes):
    kind, header, arrays = container.unpack(blob, "pretrain", "downstream")
    columns = {name: arr.copy() for name, arr in arrays.items()}
    try:
        if kind == "pretrain":
            metadata = [MetadataRecord(**meta) for meta in header["metadata"]]
            return Dataset(fs=header["fs"], subject_ids=header["subject_ids"],
                           metadata=metadata, **columns)
        return DownstreamDataset(fs=header["fs"], subject_ids=header["subject_ids"], **columns)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"malformed {kind} container: {exc}") from None


def save(dataset, path: str | os.PathLike) -> None:
    container.write_atomic(path, save_bytes(dataset))


def load(path: str | os.PathLike):
    with open(path, "rb") as fh:
        return load_bytes(fh.read())


def export_metadata_csv(dataset: Dataset, path: str | os.PathLike) -> None:
    """Write the metadata sidecar in the schema the scoring CLI reads."""
    rows = [{"subject_id": sid, **record_to_csv_row(meta)}
            for sid, meta in zip(dataset.subject_ids, dataset.metadata)]
    container.write_csv(path, ("subject_id",) + CSV_COLUMNS, rows)


def data_root() -> str:
    return os.environ.get(DATA_ROOT_ENV, os.getcwd())
