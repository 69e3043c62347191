"""ECG preprocessing and the stochastic augmentation pipeline.

Preprocessing order is fixed: resample -> bandpass -> z-score. The bandpass
is a causal Butterworth IIR designed from the analog prototype via the
bilinear transform and run as cascaded second-order sections; no zero-phase
pass. Resampling is polyphase windowed-sinc (Kaiser window).

Augmentation draws one of five choices with equal probability: four noise
categories injected as x + phi * n, or no perturbation. Random masking is an
independent, toggleable post-step rather than a sixth choice. Augmentation
never touches metadata.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

TARGET_FS = 500.0
BAND_LOW_HZ = 0.67
BAND_HIGH_HZ = 40.0
FILTER_ORDER = 5
NOISE_INTENSITY = 0.02
MASK_PROB = 0.2
MASK_FRACTION = 0.10

NOISE_CATEGORIES = ("muscle", "movement", "baseline_wander", "white")
AUGMENT_CHOICES = NOISE_CATEGORIES + ("none",)


@dataclass
class SignalView:
    """One single-lead signal plus enough provenance to replay it."""

    samples: np.ndarray
    fs: float
    lead_id: int  # 1..12
    source_id: str = ""
    augmentation: tuple[str, ...] = ()

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.fs <= 0 or self.samples.size == 0:
            raise ValueError("view needs fs > 0 and at least one sample")
        if not 1 <= self.lead_id <= 12:
            raise ValueError(f"lead_id must be in 1..12, got {self.lead_id}")


# ---------------------------------------------------------------------------
# Butterworth bandpass design (bilinear transform, second-order sections)


def butter_bandpass_sos(
    low: float = BAND_LOW_HZ,
    high: float = BAND_HIGH_HZ,
    fs: float = TARGET_FS,
    order: int = FILTER_ORDER,
) -> np.ndarray:
    """Design an order-N Butterworth bandpass as (N, 6) biquad sections.

    The analog lowpass prototype is frequency-prewarped, transformed to a
    bandpass, and bilinear-mapped. Each section keeps zeros at z = +1 and
    z = -1; overall gain is normalized to unity at the warped center
    frequency (the analog prototype's exact passband peak).
    """
    if not 0.0 < low < high < fs / 2.0:
        raise ValueError(f"band edges must satisfy 0 < low < high < fs/2, got {low}, {high}, {fs}")
    fs2 = 2.0 * fs
    w_low = fs2 * math.tan(math.pi * low / fs)
    w_high = fs2 * math.tan(math.pi * high / fs)
    bw = w_high - w_low
    w0_sq = w_low * w_high

    # Analog prototype poles on the unit circle (left half-plane).
    proto = [cmath.exp(1j * math.pi * (2 * k + order - 1) / (2 * order)) for k in range(1, order + 1)]

    # Lowpass -> bandpass: each prototype pole spawns two poles.
    analog_poles: list[complex] = []
    for p in proto:
        pb = p * bw
        root = cmath.sqrt(pb * pb - 4.0 * w0_sq)
        analog_poles.append(0.5 * (pb + root))
        analog_poles.append(0.5 * (pb - root))

    z_poles = [(fs2 + s) / (fs2 - s) for s in analog_poles]

    # Pair into conjugate (or real-real) sections.
    tol = 1e-10
    complex_poles = sorted(
        (p for p in z_poles if p.imag > tol), key=lambda p: (p.real, p.imag)
    )
    real_poles = sorted(p.real for p in z_poles if abs(p.imag) <= tol)
    sections = []
    for p in complex_poles:
        sections.append((-2.0 * p.real, abs(p) ** 2))
    for r1, r2 in zip(real_poles[0::2], real_poles[1::2]):
        sections.append((-(r1 + r2), r1 * r2))
    if len(sections) != order:
        raise AssertionError("pole pairing failed; expected one section per prototype pole")

    sos = np.zeros((order, 6))
    for i, (a1, a2) in enumerate(sections):
        sos[i] = [1.0, 0.0, -1.0, 1.0, a1, a2]  # zeros at +1 and -1

    # Normalize to unit gain at the warped center frequency.
    theta0 = 2.0 * math.atan(math.sqrt(w0_sq) / fs2)
    gain = abs(_sos_response(sos, theta0))
    sos[0, :3] /= gain
    return sos


def _sos_response(sos: np.ndarray, theta: float) -> complex:
    z = cmath.exp(1j * theta)
    h = 1.0 + 0.0j
    for b0, b1, b2, _, a1, a2 in sos:
        h *= (b0 + b1 / z + b2 / z**2) / (1.0 + a1 / z + a2 / z**2)
    return h


def sos_is_stable(sos: np.ndarray) -> bool:
    """True when every section's poles lie strictly inside the unit circle."""
    for _, _, _, _, a1, a2 in sos:
        roots = np.roots([1.0, a1, a2])
        if np.any(np.abs(roots) >= 1.0):
            return False
    return True


def sosfilt(sos: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Causal single-pass filtering through cascaded biquads.

    Accepts (..., T); the time loop is vectorized over leading dimensions
    (and runs on Python floats for a single signal, which is faster there).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        y = x.tolist()
        for row in sos:
            b0, b1, b2, _, a1, a2 = (float(v) for v in row)
            z1 = z2 = 0.0
            for n, xn in enumerate(y):
                yn = b0 * xn + z1
                z1 = b1 * xn - a1 * yn + z2
                z2 = b2 * xn - a2 * yn
                y[n] = yn
        return np.asarray(y)
    lead_shape = x.shape[:-1]
    t = x.shape[-1]
    y = x.reshape(-1, t).copy()
    for b0, b1, b2, _, a1, a2 in sos:
        z1 = np.zeros(y.shape[0])
        z2 = np.zeros(y.shape[0])
        for n in range(t):
            xn = y[:, n].copy()
            yn = b0 * xn + z1
            z1 = b1 * xn - a1 * yn + z2
            z2 = b2 * xn - a2 * yn
            y[:, n] = yn
    return y.reshape(*lead_shape, t)


def bandpass(
    signal: np.ndarray,
    fs: float,
    low: float = BAND_LOW_HZ,
    high: float = BAND_HIGH_HZ,
    order: int = FILTER_ORDER,
) -> np.ndarray:
    """Causal Butterworth bandpass; output length equals input length."""
    sos = butter_bandpass_sos(low, high, fs, order)
    return sosfilt(sos, signal)


# ---------------------------------------------------------------------------
# resampling


def _kaiser_window(n: int, beta: float) -> np.ndarray:
    # I0-based Kaiser window; i0 via series expansion (converges fast).
    def i0(v: float) -> float:
        total, term, k = 1.0, 1.0, 1
        while term > 1e-16 * total:
            term *= (v / (2 * k)) ** 2
            total += term
            k += 1
        return total

    m = (n - 1) / 2.0
    return np.array([i0(beta * math.sqrt(max(0.0, 1 - ((i - m) / m) ** 2))) / i0(beta) for i in range(n)])


def _resample_filter(up: int, down: int, half_zeros: int = 10, beta: float = 8.6) -> np.ndarray:
    """Windowed-sinc lowpass at the tighter of the two Nyquist edges.

    DC gain is exactly `up`, compensating the 1/up power loss of
    zero-stuffing so amplitudes survive the rate change.
    """
    m = max(up, down)
    half = half_zeros * m
    n = np.arange(-half, half + 1)
    h = np.sinc(n / m) / m
    h *= _kaiser_window(len(n), beta)
    return h * (up / h.sum())


def resample(signal: np.ndarray, fs_in: float, fs_out: float = TARGET_FS) -> np.ndarray:
    """Band-limited rate conversion; output length is round(n * fs_out/fs_in)."""
    if fs_in <= 0 or fs_out <= 0:
        raise ValueError("sample rates must be positive")
    x = np.asarray(signal, dtype=np.float64)
    if fs_in == fs_out:
        return x.copy()
    frac = Fraction(fs_out / fs_in).limit_denominator(1000)
    up, down = frac.numerator, frac.denominator
    t = x.shape[-1]
    out_len = int(round(t * fs_out / fs_in))
    h = _resample_filter(up, down)
    half = (len(h) - 1) // 2

    def one(sig: np.ndarray) -> np.ndarray:
        stuffed = np.zeros(t * up)
        stuffed[::up] = sig
        full = np.convolve(stuffed, h)
        aligned = full[half : half + t * up]
        return aligned[::down][:out_len]

    if x.ndim == 1:
        out = one(x)
    else:
        flat = x.reshape(-1, t)
        out = np.stack([one(row) for row in flat]).reshape(*x.shape[:-1], -1)
    if out.shape[-1] < out_len:  # guard: pad the causal tail if rounding ran short
        pad = out_len - out.shape[-1]
        out = np.concatenate([out, np.repeat(out[..., -1:], pad, axis=-1)], axis=-1)
    return out


def zscore(signal: np.ndarray) -> tuple[np.ndarray, bool]:
    """Zero-mean unit-std (population); constant input -> zeros + flag."""
    x = np.asarray(signal, dtype=np.float64)
    mu = x.mean(axis=-1, keepdims=True)
    sd = x.std(axis=-1, keepdims=True)
    degenerate = bool(np.any(sd == 0.0))
    safe = np.where(sd == 0.0, 1.0, sd)
    out = (x - mu) / safe
    if degenerate:
        out = np.where(sd == 0.0, 0.0, out)
    return out, degenerate


def preprocess(
    signal: np.ndarray,
    fs_in: float,
    fs_out: float = TARGET_FS,
    low: float = BAND_LOW_HZ,
    high: float = BAND_HIGH_HZ,
    order: int = FILTER_ORDER,
) -> tuple[np.ndarray, bool]:
    """resample -> bandpass -> zscore, returning the degenerate flag."""
    x = resample(signal, fs_in, fs_out)
    x = bandpass(x, fs_out, low, high, order)
    return zscore(x)


# ---------------------------------------------------------------------------
# noise bank and augmentation


@dataclass
class NoiseBank:
    """Per-category noise recordings, one row per lead, unit standard deviation.

    Recordings can be loaded from files (see data container helpers) or
    synthesized; draws crop a random window of the requested length.
    """

    fs: float
    recordings: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        for cat, arr in self.recordings.items():
            if cat not in NOISE_CATEGORIES:
                raise ValueError(f"unknown noise category {cat!r}")
            if arr.ndim != 2:
                raise ValueError("noise recordings must be (n_leads, length)")

    @classmethod
    def synthetic(cls, fs: float = TARGET_FS, n_leads: int = 12,
                  duration: float = 60.0, seed: int = 0) -> "NoiseBank":
        """Generators standing in for recorded noise, one flavor per category.

        white: Gaussian; baseline_wander: 0.1-0.4 Hz sinusoids with random
        phase; muscle: 20-100 Hz band-limited Gaussian; movement: sparse
        steps and spikes. Each recording is normalized to unit std.
        """
        rng = np.random.default_rng(seed)
        n = int(duration * fs)
        t = np.arange(n) / fs
        recs: dict[str, np.ndarray] = {}

        recs["white"] = rng.normal(size=(n_leads, n))

        wander = np.zeros((n_leads, n))
        for lead in range(n_leads):
            for _ in range(4):
                f = rng.uniform(0.1, 0.4)
                phase = rng.uniform(0, 2 * math.pi)
                wander[lead] += rng.uniform(0.5, 1.0) * np.sin(2 * math.pi * f * t + phase)
        recs["baseline_wander"] = wander

        muscle_sos = butter_bandpass_sos(20.0, min(100.0, 0.45 * fs), fs, order=4)
        recs["muscle"] = sosfilt(muscle_sos, rng.normal(size=(n_leads, n)))

        movement = np.zeros((n_leads, n))
        for lead in range(n_leads):
            n_events = max(1, rng.poisson(duration * 1.5))
            for _ in range(n_events):
                start = rng.integers(0, n)
                width = int(rng.uniform(0.05, 0.6) * fs)
                movement[lead, start : start + width] += rng.normal() * rng.uniform(0.5, 2.0)
        recs["movement"] = movement

        for cat, arr in recs.items():
            sd = arr.std(axis=1, keepdims=True)
            recs[cat] = arr / np.where(sd == 0, 1.0, sd)
        return cls(fs=fs, recordings=recs)

    def draw(self, category: str, lead_id: int, length: int, rng: np.random.Generator) -> np.ndarray:
        if category not in self.recordings:
            raise KeyError(f"noise category {category!r} not available in bank")
        rec = self.recordings[category][lead_id - 1]
        if rec.shape[0] < length:
            reps = -(-length // rec.shape[0])
            rec = np.tile(rec, reps)
        offset = int(rng.integers(0, rec.shape[0] - length + 1))
        return rec[offset : offset + length]


def augment(view: SignalView, bank: NoiseBank, rng: np.random.Generator,
            phi: float = NOISE_INTENSITY) -> SignalView:
    """Apply one of the five equally likely choices; record it in provenance."""
    choice = AUGMENT_CHOICES[int(rng.integers(len(AUGMENT_CHOICES)))]
    if choice == "none":
        return replace(view, samples=view.samples.copy(),
                       augmentation=view.augmentation + ("none",))
    noise = bank.draw(choice, view.lead_id, view.samples.shape[0], rng)
    return replace(
        view,
        samples=view.samples + phi * noise,
        augmentation=view.augmentation + (f"{choice}(phi={phi:g})",),
    )


def random_mask(view: SignalView, rng: np.random.Generator, p: float = MASK_PROB,
                frac: float = MASK_FRACTION, mode: str = "contiguous") -> SignalView:
    """With probability p, zero out a `frac` portion of the samples.

    Default is a single contiguous segment at a uniform offset; "scattered"
    zeroes the same number of positions drawn without replacement.
    """
    if not (0.0 <= p <= 1.0 and 0.0 <= frac <= 1.0):
        raise ValueError("p and frac must lie in [0, 1]")
    if rng.random() >= p:
        return view
    t = view.samples.shape[0]
    n_mask = int(round(frac * t))
    samples = view.samples.copy()
    if n_mask > 0:
        if mode == "contiguous":
            start = int(rng.integers(0, t - n_mask + 1))
            samples[start : start + n_mask] = 0.0
        elif mode == "scattered":
            idx = rng.choice(t, size=n_mask, replace=False)
            samples[idx] = 0.0
        else:
            raise ValueError(f"unknown mask mode {mode!r}")
    return replace(view, samples=samples,
                   augmentation=view.augmentation + (f"mask({mode},{n_mask})",))

