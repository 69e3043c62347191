"""Dataset containers, deterministic splits, file I/O, and the synthetic
risk-structured ECG generator.

The synthetic generator gives every subject a full latent covariate set, a
true risk from it, and an ECG whose heart rate, T-wave amplitude, and
baseline noise are monotone in that risk (scaled by configurable coupling
strengths). The observed metadata then hides some covariates, so the
training-side risk estimate sees realistic missingness while downstream
labels derive from the clean latent.

Datasets persist in the shared container (see ``container``): subject IDs
and metadata in the JSON header (``null`` for a missing covariate), leads as
one float32 array. Metadata is also exportable to the CSV schema shared
with the scoring CLI.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import container
from .container import DataFormatError
from .risk_score import MetadataRecord, impute, score2

DATA_ROOT_ENV = "RISKCLR_DATA_ROOT"

@dataclass
class ECGRecord:
    subject_id: str
    leads: np.ndarray  # (n_leads, t) float32, all leads same length and rate
    fs: float
    metadata: MetadataRecord

    def __post_init__(self):
        self.leads = np.asarray(self.leads, dtype=np.float32)
        if self.leads.ndim != 2:
            raise ValueError("leads must be (n_leads, t)")


@dataclass
class Dataset:
    """Pretraining container; one record per subject."""

    records: list[ECGRecord]

    def __len__(self) -> int:
        return len(self.records)

    @property
    def fs(self) -> float:
        return self.records[0].fs if self.records else 0.0

    def content_hash(self) -> str:
        return hashlib.sha256(save_bytes(self)).hexdigest()


@dataclass
class DownstreamSample:
    subject_id: str
    signal: np.ndarray  # (t,) float32, single lead
    fs: float
    lead_id: int
    label_real: float
    label_binary: int


@dataclass
class DownstreamDataset:
    """Labeled single-lead evaluation data; the lead is fixed across samples."""

    samples: list[DownstreamSample]

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def fs(self) -> float:
        return self.samples[0].fs if self.samples else 0.0

    def labels(self, task: str) -> np.ndarray:
        if task == "binary":
            return np.array([s.label_binary for s in self.samples], dtype=np.int64)
        if task == "regression":
            return np.array([s.label_real for s in self.samples], dtype=np.float64)
        raise ValueError(f"unknown task {task!r}")

    def content_hash(self) -> str:
        return hashlib.sha256(save_bytes(self)).hexdigest()


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
    record = ECGRecord(
        subject_id=f"synth-{cfg.seed}-{index:05d}",
        leads=leads.astype(np.float32),
        fs=cfg.fs,
        metadata=MetadataRecord(**observed),
    )
    return record, r_true, hr


def generate_synthetic(cfg: SyntheticConfig) -> tuple[Dataset, DownstreamDataset]:
    """Build the pretraining and downstream datasets from one seeded config."""
    total = cfg.n_subjects + cfg.n_downstream
    records, risks, rates = [], [], []
    for i in range(total):
        rec, r, hr = _generate_subject(cfg, i)
        records.append(rec)
        risks.append(r)
        rates.append(hr)

    pretrain = Dataset(records=records[: cfg.n_subjects])

    down_records = records[cfg.n_subjects :]
    down_risks = np.array(risks[cfg.n_subjects :])
    threshold = float(np.quantile(down_risks, cfg.binary_quantile)) if len(down_risks) else 0.0
    samples = [
        DownstreamSample(
            subject_id=rec.subject_id,
            signal=rec.leads[0].copy(),  # lead I, fixed across the dataset
            fs=rec.fs,
            lead_id=1,
            label_real=float(r),
            label_binary=int(r > threshold),
        )
        for rec, r in zip(down_records, down_risks)
    ]
    return pretrain, DownstreamDataset(samples=samples)


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
    items = dataset.records if isinstance(dataset, Dataset) else dataset.samples
    n = len(items)
    if mode == "sequential":
        b1, b2, _ = _boundaries(n, fractions)
        parts = [items[:b1], items[b1:b2], items[b2:]]
    elif mode == "by-subject":
        subjects = list(dict.fromkeys(it.subject_id for it in items))
        order = np.random.default_rng(seed).permutation(len(subjects))
        shuffled = [subjects[i] for i in order]
        b1, b2, _ = _boundaries(len(shuffled), fractions)
        bucket = {s: 0 for s in shuffled[:b1]}
        bucket.update({s: 1 for s in shuffled[b1:b2]})
        bucket.update({s: 2 for s in shuffled[b2:]})
        parts = [[], [], []]
        for it in items:
            parts[bucket[it.subject_id]].append(it)
    else:
        raise ValueError(f"unknown split mode {mode!r}")
    wrap = Dataset if isinstance(dataset, Dataset) else DownstreamDataset
    return tuple(wrap(p) for p in parts)


# ---------------------------------------------------------------------------
# container I/O


def _stacked(rows: list[np.ndarray], ndim: int) -> np.ndarray:
    if not rows:
        return np.zeros((0,) * ndim, dtype=np.float32)
    return np.stack(rows).astype(np.float32, copy=False)


def save_bytes(dataset) -> bytes:
    fields = {"fs": float(dataset.fs)}
    if isinstance(dataset, Dataset):
        fields["subject_ids"] = [r.subject_id for r in dataset.records]
        fields["metadata"] = [asdict(r.metadata) for r in dataset.records]
        leads = _stacked([r.leads for r in dataset.records], 3)
        return container.pack("pretrain", fields, {"leads": leads})
    samples = dataset.samples
    fields["subject_ids"] = [s.subject_id for s in samples]
    return container.pack("downstream", fields, {
        "signals": _stacked([s.signal for s in samples], 2),
        "lead_id": np.array([s.lead_id for s in samples], dtype=np.int64),
        "label_real": np.array([s.label_real for s in samples], dtype=np.float64),
        "label_binary": np.array([s.label_binary for s in samples], dtype=np.int64),
    })


def load_bytes(blob: bytes):
    kind, fields, arrays = container.unpack(blob, "pretrain", "downstream")
    fs, ids = fields["fs"], fields["subject_ids"]
    if kind == "pretrain":
        leads = arrays["leads"].copy()
        return Dataset(records=[
            ECGRecord(subject_id=sid, leads=lead, fs=fs, metadata=MetadataRecord(**meta))
            for sid, lead, meta in zip(ids, leads, fields["metadata"])])
    columns = zip(ids, arrays["signals"].copy(), arrays["lead_id"].tolist(),
                  arrays["label_real"].tolist(), arrays["label_binary"].tolist())
    return DownstreamDataset(samples=[
        DownstreamSample(subject_id=sid, signal=sig, fs=fs, lead_id=lead_id,
                         label_real=label_real, label_binary=label_binary)
        for sid, sig, lead_id, label_real, label_binary in columns])


def save(dataset, path: str | os.PathLike) -> None:
    container.write_atomic(path, save_bytes(dataset))


def load(path: str | os.PathLike):
    with open(path, "rb") as fh:
        return load_bytes(fh.read())


def save_noise_bank(path: str | os.PathLike, bank) -> None:
    container.write_atomic(path, container.pack("arrays", {"fs": float(bank.fs)}, bank.recordings))


def load_noise_bank(path: str | os.PathLike):
    from .signal import NoiseBank

    with open(path, "rb") as fh:
        _, fields, arrays = container.unpack(fh.read(), "arrays")
    return NoiseBank(fs=fields["fs"], recordings={k: v.copy() for k, v in arrays.items()})


def export_metadata_csv(dataset: Dataset, path: str | os.PathLike) -> None:
    """Write the metadata sidecar in the schema the scoring CLI reads."""
    import csv

    from .risk_score import CSV_COLUMNS, record_to_csv_row

    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=("subject_id",) + CSV_COLUMNS)
        writer.writeheader()
        for rec in dataset.records:
            row = {"subject_id": rec.subject_id}
            row.update(record_to_csv_row(rec.metadata))
            writer.writerow(row)


def data_root() -> str:
    return os.environ.get(DATA_ROOT_ENV, os.getcwd())
