"""ECG preprocessing and the stochastic augmentation pipeline.

Preprocessing order is fixed: resample -> bandpass -> z-score. The bandpass
is a causal Butterworth IIR designed from the analog prototype via the
bilinear transform and run as cascaded second-order sections, a block of
samples per matrix product (see `sosfilt`); no zero-phase pass. Resampling is
polyphase windowed-sinc (Kaiser window) and computes only the kept outputs.

Augmentation draws one of five choices with equal probability: four noise
categories injected as x + phi * n, or no perturbation. Random masking is an
independent, toggleable post-step rather than a sixth choice. Both work on
plain sample arrays and never write into their input.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

TARGET_FS = 500.0
BAND_LOW_HZ = 0.67
BAND_HIGH_HZ = 40.0
FILTER_ORDER = 5
SOSFILT_BLOCK = 64  # samples per GEMM in sosfilt's block recursion
RESAMPLE_CHUNK_ROWS = 64  # rows per GEMM in resample
NOISE_INTENSITY = 0.02
MASK_PROB = 0.2
MASK_FRACTION = 0.10

NOISE_CATEGORIES = ("muscle", "movement", "baseline_wander", "white")
AUGMENT_CHOICES = NOISE_CATEGORIES + ("none",)


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


def _block_matrix(sos: np.ndarray, block: int) -> np.ndarray:
    """One-block transfer matrix of the biquad cascade.

    The cascade is a linear system with state s (two delays per section):
    s' = A s + B x, y = C s + D x. Over ``block`` samples, with the row vector
    [x_0 .. x_{block-1}, s_0] on the left, the returned matrix gives
    [y_0 .. y_{block-1}, s_block]: the lower-triangular Toeplitz of the
    impulse response (x -> y), C A^n (s_0 -> y_n), A^(block-1-n) B
    (x_n -> s_block) and A^block (s_0 -> s_block).
    """
    n_state = 2 * len(sos)
    a = np.zeros((n_state, n_state))
    b = np.zeros(n_state)
    c = np.zeros(n_state)
    d = 1.0
    for i, (b0, b1, b2, _, a1, a2) in enumerate(sos):
        # transposed direct form II; this section's input is the cascade so far
        k = 2 * i
        b_in = np.array([b1 - a1 * b0, b2 - a2 * b0])
        a[k:k + 2, :k] = np.outer(b_in, c[:k])
        a[k:k + 2, k:k + 2] = [[-a1, 1.0], [-a2, 0.0]]
        b[k:k + 2] = b_in * d
        c[:k] *= b0
        c[k] = 1.0
        d *= b0
    obs = np.empty((block, n_state))  # C A^n
    ctrl = np.empty((n_state, block))  # A^n B
    power = np.eye(n_state)
    for n in range(block):
        obs[n] = c @ power
        ctrl[:, n] = power @ b
        power = a @ power
    impulse = np.concatenate(([d], obs[:-1] @ b))
    lag = np.arange(block)[None, :] - np.arange(block)[:, None]
    m = np.empty((block + n_state, block + n_state))
    m[:block, :block] = np.where(lag >= 0, impulse[np.maximum(lag, 0)], 0.0)
    m[block:, :block] = obs.T
    m[:block, block:] = ctrl[:, ::-1].T
    m[block:, block:] = power.T
    return m


def sosfilt(sos: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Causal single-pass filtering through cascaded biquads.

    Accepts (..., T). Block recursion: the cascade's state-space form gives
    one matrix per call that maps SOSFILT_BLOCK input samples plus the state
    entering the block to the block's outputs plus the state leaving it, so
    each block is one GEMM over all rows and the time loop runs T / block
    times. In a short last block the stale inputs past its end reach only
    later outputs and the leaving state, which are dropped.
    """
    x = np.asarray(x, dtype=np.float64)
    t = x.shape[-1]
    flat = x.reshape(-1, t)
    m = _block_matrix(np.asarray(sos, dtype=np.float64), SOSFILT_BLOCK)
    y = np.empty_like(flat)
    carry = np.zeros((flat.shape[0], m.shape[0]))  # [block of x | state]
    for lo in range(0, t, SOSFILT_BLOCK):
        n = min(SOSFILT_BLOCK, t - lo)
        carry[:, :n] = flat[:, lo : lo + n]
        out = carry @ m
        y[:, lo : lo + n] = out[:, :n]
        carry[:, SOSFILT_BLOCK:] = out[:, SOSFILT_BLOCK:]
    return y.reshape(x.shape)


def bandpass(signal: np.ndarray, fs: float) -> np.ndarray:
    """Causal Butterworth bandpass of order FILTER_ORDER over BAND_LOW_HZ to
    BAND_HIGH_HZ; output length equals input length."""
    return sosfilt(butter_bandpass_sos(BAND_LOW_HZ, BAND_HIGH_HZ, fs, FILTER_ORDER), signal)


# ---------------------------------------------------------------------------
# resampling


def _resample_filter(up: int, down: int) -> np.ndarray:
    """Windowed-sinc lowpass at the tighter of the two Nyquist edges: 10 zero
    crossings each side, Kaiser window with beta 8.6.

    DC gain is exactly `up`, compensating the 1/up power loss of
    zero-stuffing so amplitudes survive the rate change.
    """
    m = max(up, down)
    half = 10 * m
    n = np.arange(-half, half + 1)
    h = np.sinc(n / m) / m
    h *= np.kaiser(len(n), 8.6)
    return h * (up / h.sum())


def rate_ratio(fs_in: float, fs_out: float) -> tuple[int, int]:
    """(up, down), the reduced fraction fs_out/fs_in with down <= 1000.

    Raises ValueError naming both rates when no such fraction is within
    1e-12 relative of the ratio, so no rate is ever approximated.
    """
    if not (0 < fs_in < math.inf and 0 < fs_out < math.inf):
        raise ValueError(f"sample rates must be positive and finite, got {fs_in!r} and {fs_out!r}")
    ratio = fs_out / fs_in
    frac = Fraction(ratio).limit_denominator(1000)
    if abs(frac.numerator / frac.denominator - ratio) > 1e-12 * ratio:
        raise ValueError(f"cannot resample {fs_in!r} Hz to {fs_out!r} Hz: the rate ratio "
                         f"{ratio!r} is no fraction with a denominator up to 1000")
    return frac.numerator, frac.denominator


def resample(signal: np.ndarray, fs_in: float, fs_out: float = TARGET_FS) -> np.ndarray:
    """Band-limited rate conversion; output length is round(n * fs_out/fs_in).

    Polyphase: of the zero-stuffed, lowpassed and decimated signal only the
    kept outputs are computed. With up/down the exact reduced rate ratio (see
    `rate_ratio`), the taps repeat every `up` outputs and `down` inputs, so
    one (width, up) table applied to input windows that start `down` samples
    apart gives each block of `up` outputs; rows go through in chunks of
    RESAMPLE_CHUNK_ROWS.
    """
    up, down = rate_ratio(fs_in, fs_out)
    x = np.asarray(signal, dtype=np.float64)
    if up == down:
        return x.copy()
    t = x.shape[-1]
    out_len = int(round(t * fs_out / fs_in))
    flat = x.reshape(-1, t)
    out = np.empty((flat.shape[0], out_len))
    if out_len:
        h = _resample_filter(up, down)
        half = (len(h) - 1) // 2
        # Window row w of block b holds x[b*down - lead + w]; column r is
        # output b*up + r, whose tap for that input is h[half + r*down + (lead - w)*up].
        lead = half // up
        width = lead + (half + (up - 1) * down) // up + 1
        tap = half + np.arange(up)[None, :] * down + (lead - np.arange(width)[:, None]) * up
        table = np.where((tap >= 0) & (tap < len(h)), h[np.clip(tap, 0, len(h) - 1)], 0.0)
        span = (-(-out_len // up) - 1) * down + width
        buf = np.zeros((min(RESAMPLE_CHUNK_ROWS, len(flat)), max(span, lead + t)))
        for lo in range(0, len(flat), RESAMPLE_CHUNK_ROWS):
            rows = flat[lo : lo + RESAMPLE_CHUNK_ROWS]
            buf[: len(rows), lead : lead + t] = rows
            windows = sliding_window_view(buf[: len(rows), :span], width, axis=-1)[:, ::down]
            blocks = (windows @ table).reshape(len(rows), -1)
            out[lo : lo + len(rows)] = blocks[:, :out_len]
    return out.reshape(*x.shape[:-1], out_len)


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


def preprocess(signal: np.ndarray, fs_in: float) -> np.ndarray:
    """resample to TARGET_FS -> bandpass -> zscore; a row that is flat after the
    bandpass comes out as zeros."""
    return zscore(bandpass(resample(signal, fs_in), TARGET_FS))[0]


# ---------------------------------------------------------------------------
# noise bank and augmentation


@dataclass
class NoiseBank:
    """Per-category noise recordings, one row per lead, unit standard deviation.

    Built in memory, by `synthetic` or from caller-supplied arrays; draws crop
    a random window of the requested length.
    """

    recordings: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        for cat, arr in self.recordings.items():
            if cat not in NOISE_CATEGORIES:
                raise ValueError(f"unknown noise category {cat!r}")
            if arr.ndim != 2:
                raise ValueError("noise recordings must be (n_leads, length)")

    @classmethod
    def synthetic(cls, duration: float = 60.0, seed: int = 0) -> "NoiseBank":
        """Generators standing in for recorded noise at TARGET_FS, 12 leads,
        one flavor per category.

        white: Gaussian; baseline_wander: 0.1-0.4 Hz sinusoids with random
        phase; muscle: 20-100 Hz band-limited Gaussian; movement: sparse
        steps and spikes. Each recording is normalized to unit std.
        """
        fs, n_leads = TARGET_FS, 12
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
        return cls(recordings=recs)

    def draw(self, category: str, lead_id: int, length: int, rng: np.random.Generator) -> np.ndarray:
        if category not in self.recordings:
            raise KeyError(f"noise category {category!r} not available in bank")
        leads = self.recordings[category]
        if not 1 <= lead_id <= len(leads):
            raise ValueError(f"lead_id must be in 1..{len(leads)}, got {lead_id}")
        rec = leads[lead_id - 1]
        if rec.shape[0] < length:
            reps = -(-length // rec.shape[0])
            rec = np.tile(rec, reps)
        offset = int(rng.integers(0, rec.shape[0] - length + 1))
        return rec[offset : offset + length]


def augment(samples: np.ndarray, lead_id: int, bank: NoiseBank, rng: np.random.Generator,
            phi: float = NOISE_INTENSITY) -> np.ndarray:
    """A float64 copy of one lead's ``samples`` under one of the five equally
    likely choices: ``phi`` times a crop of that lead's noise, or nothing."""
    x = np.array(samples, dtype=np.float64)
    choice = AUGMENT_CHOICES[int(rng.integers(len(AUGMENT_CHOICES)))]
    if choice != "none":
        x += phi * bank.draw(choice, lead_id, x.shape[0], rng)
    return x


def random_mask(samples: np.ndarray, rng: np.random.Generator, p: float = MASK_PROB,
                frac: float = MASK_FRACTION) -> np.ndarray:
    """With probability p, a copy of ``samples`` with one contiguous ``frac``
    portion zeroed at a uniform offset; otherwise ``samples`` itself."""
    if not (0.0 <= p <= 1.0 and 0.0 <= frac <= 1.0):
        raise ValueError("p and frac must lie in [0, 1]")
    t = samples.shape[0]
    n_mask = int(round(frac * t))
    if rng.random() >= p or n_mask == 0:
        return samples
    start = int(rng.integers(0, t - n_mask + 1))
    out = samples.copy()
    out[start : start + n_mask] = 0.0
    return out
