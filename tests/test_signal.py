"""Filter assays against the analytic Butterworth response; augmentation laws."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskclr.signal import (
    AUGMENT_CHOICES,
    NOISE_CATEGORIES,
    PREPROCESS_BLOCK_ROWS,
    RESAMPLE_CHUNK_ROWS,
    SOSFILT_BLOCK,
    NoiseBank,
    augment,
    bandpass,
    butter_bandpass_sos,
    preprocess,
    preprocess_rows,
    random_mask,
    rate_ratio,
    resample,
    resampled_length,
    sos_is_stable,
    sosfilt,
    zscore,
)
from riskclr.signal import _resample_filter

# ---------------------------------------------------------------------------
# Analytic oracle: Butterworth bandpass magnitude. The bilinear-transformed
# digital filter matches the analog prototype exactly at prewarped
# frequencies, so the oracle prewarps too.


def analytic_gain(f_hz: float, low: float, high: float, fs: float, order: int) -> float:
    warp = lambda f: 2.0 * fs * math.tan(math.pi * f / fs)
    w, wl, wh = warp(f_hz), warp(low), warp(high)
    w0_sq = wl * wh
    bw = wh - wl
    if w == 0.0:
        return 0.0
    x = (w * w - w0_sq) / (bw * w)
    return 1.0 / math.sqrt(1.0 + x ** (2 * order))


def steady_state_amplitude(y: np.ndarray, fs: float, f_hz: float) -> float:
    """Amplitude of the f_hz component over the trailing half of y."""
    tail = y[len(y) // 2 :]
    t = np.arange(len(y))[len(y) // 2 :] / fs
    c = 2.0 * np.mean(tail * np.cos(2 * np.pi * f_hz * t))
    s = 2.0 * np.mean(tail * np.sin(2 * np.pi * f_hz * t))
    return math.hypot(c, s)


# ---------------------------------------------------------------------------
# Reference kernels: the direct forms that the block kernels in riskclr.signal
# replaced. They do the per-sample and zero-stuffed work the plain way, so the
# fast kernels are checked against an independent computation of the same
# filter.


def reference_resample(signal: np.ndarray, fs_in: float, fs_out: float) -> np.ndarray:
    """Zero-stuff each row to t*up samples, convolve with every tap, keep 1 in down."""
    x = np.asarray(signal, dtype=np.float64)
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
        return full[half : half + t * up][::down][:out_len]

    return np.stack([one(row) for row in x.reshape(-1, t)]).reshape(*x.shape[:-1], -1)


def reference_sosfilt(sos: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per-sample transposed direct form II, one section after another."""
    x = np.asarray(x, dtype=np.float64)
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
    return y.reshape(x.shape)


RESAMPLE_RATES = ((100, 500), (128, 500), (250, 500), (257, 500), (360, 500),
                  (1000, 500), (500, 250))


@st.composite
def resample_cases(draw):
    """A rate pair and an input shape whose length is odd, shorter than one
    block of `down` inputs, or on or next to a block edge."""
    fs_in, fs_out = draw(st.sampled_from(RESAMPLE_RATES))
    down = Fraction(fs_out / fs_in).limit_denominator(1000).denominator
    t = draw(st.one_of(
        st.integers(1, 2 * down + 2),
        st.builds(lambda k, d: max(1, k * down + d), st.integers(1, 2), st.integers(-1, 1)),
    ))
    lead = draw(st.sampled_from(((), (1,), (2,), (3,), (2, 2))))
    return fs_in, fs_out, (*lead, t)


@st.composite
def sos_designs(draw):
    """Butterworth bandpass designs over random edges, orders and rates.

    Edges stay where the filter is well conditioned: the low edge at least
    0.2% of Nyquist, the high edge at most 80% of it and 60 times the low
    one. The ECG band (0.67-40 Hz at 500 Hz) is inside. Wider bands with a
    lower edge put poles so close to z = 1 that the per-sample recursion
    itself is off by 1e-7 or more against 80-bit arithmetic.
    """
    fs = draw(st.floats(50.0, 2000.0))
    nyq = fs / 2.0
    low = nyq * draw(st.floats(0.002, 0.3))
    high = draw(st.floats(1.05 * low, min(0.8 * nyq, 60.0 * low)))
    return butter_bandpass_sos(low, high, fs, draw(st.integers(1, 6)))


class TestBlockKernels:
    """The block kernels against the reference kernels above."""

    @settings(deadline=None, max_examples=60)
    @given(case=resample_cases(), seed=st.integers(0, 2**32 - 1))
    def test_resample_matches_zero_stuffed_convolution(self, case, seed):
        fs_in, fs_out, shape = case
        x = np.random.default_rng(seed).normal(size=shape)
        got = resample(x, fs_in, fs_out)
        want = reference_resample(x, fs_in, fs_out)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("rows", [1, RESAMPLE_CHUNK_ROWS - 1, RESAMPLE_CHUNK_ROWS,
                                      RESAMPLE_CHUNK_ROWS + 1, 2 * RESAMPLE_CHUNK_ROWS + 1])
    def test_resample_row_chunks(self, rows):
        x = np.random.default_rng(rows).normal(size=(rows, 37))
        np.testing.assert_allclose(resample(x, 360, 500), reference_resample(x, 360, 500),
                                   rtol=0, atol=1e-12)

    def test_resample_refuses_inexact_ratio(self):
        # 500/3498.277 has no fraction with a denominator up to 1000; the
        # closest, 1/7, would resample at another rate
        with pytest.raises(ValueError, match=r"3498\.277 Hz to 500 Hz"):
            resample(np.zeros(1000), 3498.277, 500)

    @settings(deadline=None, max_examples=60)
    @given(sos=sos_designs(),
           t=st.sampled_from((1, SOSFILT_BLOCK - 1, SOSFILT_BLOCK, SOSFILT_BLOCK + 1,
                              3 * SOSFILT_BLOCK + 7)),
           lead=st.sampled_from(((), (1, 1), (2, 3))),
           seed=st.integers(0, 2**32 - 1))
    def test_sosfilt_matches_per_sample_recursion(self, sos, t, lead, seed):
        x = np.random.default_rng(seed).normal(size=(*lead, t))
        got = sosfilt(sos, x)
        want = reference_sosfilt(sos, x)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9 * np.abs(want).max())


class TestBandpass:
    FS = 500.0

    def test_dc_rejected(self):
        # slowest high-pass pole pair has tau ~ 0.77 s, so the unit-step
        # transient needs ~4 s to fall below 1%
        x = np.ones(int(8 * self.FS))
        y = bandpass(x, self.FS)
        after_transient = y[int(4 * self.FS) :]
        assert np.abs(after_transient).max() < 0.01

    def test_passband_10hz_within_1db(self):
        t = np.arange(int(6 * self.FS)) / self.FS
        y = bandpass(np.sin(2 * np.pi * 10.0 * t), self.FS)
        amp = steady_state_amplitude(y, self.FS, 10.0)
        assert abs(20 * math.log10(amp)) < 1.0
        # and the measured gain agrees with the analytic response
        assert amp == pytest.approx(analytic_gain(10.0, 0.67, 40.0, self.FS, 5), abs=5e-3)

    def test_stopband_100hz_at_least_20db(self):
        t = np.arange(int(6 * self.FS)) / self.FS
        y = bandpass(np.sin(2 * np.pi * 100.0 * t), self.FS)
        amp = steady_state_amplitude(y, self.FS, 100.0)
        assert 20 * math.log10(max(amp, 1e-12)) <= -20.0
        assert amp == pytest.approx(analytic_gain(100.0, 0.67, 40.0, self.FS, 5), abs=1e-3)

    def test_sine_sweep_matches_analytic_response(self):
        for f in (2.0, 5.0, 20.0, 35.0, 60.0, 80.0):
            t = np.arange(int(8 * self.FS)) / self.FS
            y = bandpass(np.sin(2 * np.pi * f * t), self.FS)
            amp = steady_state_amplitude(y, self.FS, f)
            assert amp == pytest.approx(analytic_gain(f, 0.67, 40.0, self.FS, 5), abs=7e-3)

    def test_band_edges_validated(self):
        with pytest.raises(ValueError):
            butter_bandpass_sos(40.0, 0.67, self.FS)
        with pytest.raises(ValueError):
            butter_bandpass_sos(0.67, 300.0, self.FS)

    def test_sections_stable(self):
        sos = butter_bandpass_sos(0.67, 40.0, self.FS, 5)
        assert sos.shape == (5, 6)
        assert sos_is_stable(sos)
        # impulse response energy is finite and decaying
        imp = np.zeros(4000)
        imp[0] = 1.0
        h = sosfilt(sos, imp)
        assert np.isfinite(h).all()
        assert np.abs(h[-100:]).max() < 1e-3

    def test_output_length_and_batch_path(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 4, 700))
        y = bandpass(x, self.FS)
        assert y.shape == x.shape
        # a row filtered on its own matches the same row in the batch
        y0 = bandpass(x[0, 0], self.FS)
        np.testing.assert_allclose(y[0, 0], y0, atol=1e-12)


class TestResample:
    def test_identity_when_rates_match(self):
        x = np.random.default_rng(1).normal(size=500)
        np.testing.assert_array_equal(resample(x, 250, 250), x)

    def test_length_contract(self):
        x = np.zeros(1000)
        assert resample(x, 250, 500).shape[-1] == 2000
        assert resample(x, 500, 250).shape[-1] == 500
        for t, fs_in, fs_out in [(1000, 250, 500), (1001, 360, 500), (7, 360, 500),
                                 (999, 500, 250), (10, 500, 500)]:
            want = resampled_length(t, fs_in, fs_out)
            assert resample(np.zeros(t), fs_in, fs_out).shape[-1] == want
        assert resampled_length(7, 360, 500) == 10  # 9.72 rounds up
        with pytest.raises(ValueError, match="no fraction"):
            resampled_length(1000, 333.3333)

    def test_sine_doubling_matches_analytic(self):
        t = np.arange(1000) / 250.0
        x = np.sin(2 * np.pi * 5.0 * t)
        y = resample(x, 250, 500)
        t2 = np.arange(len(y)) / 500.0
        ref = np.sin(2 * np.pi * 5.0 * t2)
        # boundary samples see the filter run off the data; judge the interior
        interior = slice(40, len(y) - 40)
        assert np.abs(y - ref)[interior].max() < 1e-3

    def test_rejects_nonpositive_rates(self):
        with pytest.raises(ValueError):
            resample(np.zeros(10), 0, 500)

    @pytest.mark.parametrize("fs_in,fs_out,want", [
        (360, 500, (25, 18)), (44100, 500, (5, 441)), (500, 250, (1, 2)), (1000.0, 1000.0, (1, 1)),
    ])
    def test_rate_ratio_exact(self, fs_in, fs_out, want):
        assert rate_ratio(fs_in, fs_out) == want

    @pytest.mark.parametrize("fs_in", [333.3, 3498.277, 499.9999])
    def test_rate_ratio_refuses_inexact(self, fs_in):
        with pytest.raises(ValueError, match=f"{fs_in!r} Hz to 500 Hz"):
            rate_ratio(fs_in, 500)

    @pytest.mark.parametrize("fs_in", [math.nan, math.inf, -250.0])
    def test_rate_ratio_refuses_non_finite(self, fs_in):
        with pytest.raises(ValueError, match="positive and finite"):
            rate_ratio(fs_in, 500)


class TestZscore:
    def test_basic(self):
        z, flag = zscore(np.array([1.0, 2.0, 3.0]))
        assert not flag
        assert abs(z.mean()) < 1e-9
        assert abs(z.std() - 1.0) < 1e-6

    def test_constant_flagged(self):
        z, flag = zscore(np.array([5.0, 5.0, 5.0]))
        assert flag
        np.testing.assert_array_equal(z, np.zeros(3))
        # deviations whose squares underflow: the std is 0, so zeros too
        z, flag = zscore(np.array([1e-170, -1e-170, 1e-170]))
        assert flag
        np.testing.assert_array_equal(z, np.zeros(3))

    def test_idempotent(self):
        x = np.random.default_rng(2).normal(2.0, 3.0, size=400)
        z1, _ = zscore(x)
        z2, _ = zscore(z1)
        np.testing.assert_allclose(z2, z1, atol=1e-12)

    @pytest.mark.parametrize("shape", [(40, 5000), (9, 3), (1, 1001)])
    def test_bits_match_mean_and_std(self, shape):
        def reference(x):
            return (x - x.mean(-1, keepdims=True)) / x.std(-1, keepdims=True)

        x = np.random.default_rng(3).normal(2.0, 3.0, size=shape)
        z, flag = zscore(x)
        assert not flag
        np.testing.assert_array_equal(z, reference(x))
        x[0] = 1.5  # flat, with an exact mean
        z, flag = zscore(x)
        assert flag
        np.testing.assert_array_equal(z[0], np.zeros(shape[1]))
        np.testing.assert_array_equal(z[1:], reference(x[1:]))


class _SpyBank:
    """Delegates to a real bank and records each category drawn."""

    def __init__(self, bank):
        self.bank, self.drawn = bank, []

    def draw(self, category, lead_id, length, rng):
        self.drawn.append(category)
        return self.bank.draw(category, lead_id, length, rng)


def _augment_choice(spy, samples, rng, phi=0.02):
    """(augmented copy, the choice augment made)."""
    before = len(spy.drawn)
    out = augment(samples, 3, spy, rng, phi=phi)
    return out, spy.drawn[-1] if len(spy.drawn) > before else "none"


class TestAugment:
    def test_none_choice_is_identity(self):
        spy = _SpyBank(NoiseBank.synthetic(seed=0, duration=5.0))
        rng = np.random.default_rng(0)
        x = np.random.default_rng(1).normal(size=1000).astype(np.float32)
        for _ in range(100):
            out, choice = _augment_choice(spy, x, rng)
            if choice == "none":
                assert out.dtype == np.float64 and out is not x
                np.testing.assert_array_equal(out, x)
                return
        pytest.fail("never drew the no-perturbation choice")

    def test_white_noise_intensity(self):
        spy = _SpyBank(NoiseBank.synthetic(seed=1, duration=30.0))
        rng = np.random.default_rng(3)
        x = np.zeros(5000)
        stds = []
        for _ in range(200):
            out, choice = _augment_choice(spy, x, rng)
            if choice == "white":
                stds.append(out.std())
        assert stds, "white noise never drawn"
        assert np.mean(stds) == pytest.approx(0.02, rel=0.15)

    def test_choice_frequencies_uniform(self):
        spy = _SpyBank(NoiseBank.synthetic(seed=2, duration=2.0))
        rng = np.random.default_rng(4)
        x = np.zeros(16)
        counts = {c: 0 for c in AUGMENT_CHOICES}
        n = 100_000
        for _ in range(n):
            counts[_augment_choice(spy, x, rng)[1]] += 1
        for c, k in counts.items():
            assert 0.19 <= k / n <= 0.21, f"{c}: {k / n}"

    def test_missing_category_rejected(self):
        bank = NoiseBank(recordings={"white": np.zeros((12, 100))})
        rng = np.random.default_rng(5)
        with pytest.raises(KeyError):
            for _ in range(50):
                augment(np.zeros(50), 3, bank, rng)

    @pytest.mark.parametrize("lead_id", [0, 13])
    def test_lead_outside_bank_rejected(self, lead_id):
        bank = NoiseBank(recordings={c: np.zeros((12, 100)) for c in NOISE_CATEGORIES})
        with pytest.raises(ValueError, match=f"lead_id must be in 1..12, got {lead_id}"):
            bank.draw("white", lead_id, 50, np.random.default_rng(0))

    def test_input_never_touched(self):
        bank = NoiseBank.synthetic(seed=6, duration=2.0)
        x = np.random.default_rng(6).normal(size=100)
        kept = x.copy()
        for seed in range(20):
            rng = np.random.default_rng(seed)
            random_mask(augment(x, 3, bank, rng), rng, p=1.0)
            random_mask(x, rng, p=1.0)
        np.testing.assert_array_equal(x, kept)


class TestRandomMask:
    def test_exact_count_on_trigger(self):
        out = random_mask(np.ones(1000), np.random.default_rng(0), p=1.0, frac=0.10)
        assert int((out == 0.0).sum()) == 100

    def test_p_zero_identity(self):
        x = np.ones(100)
        rng = np.random.default_rng(1)
        for _ in range(20):
            assert random_mask(x, rng, p=0.0) is x

    def test_seeded_determinism(self):
        x = np.ones(500)
        a = random_mask(x, np.random.default_rng(7), p=1.0)
        b = random_mask(x, np.random.default_rng(7), p=1.0)
        np.testing.assert_array_equal(a, b)

    def test_contiguous_is_single_segment(self):
        out = random_mask(np.ones(1000), np.random.default_rng(3), p=1.0)
        zero = np.flatnonzero(out == 0.0)
        assert zero[-1] - zero[0] + 1 == len(zero)


class TestPreprocessPipeline:
    def test_order_and_determinism(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=2500) + 2.0
        a = preprocess(x, fs_in=250.0)
        b = preprocess(x, fs_in=250.0)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(a, zscore(bandpass(resample(x, 250.0), 500.0))[0])
        assert a.shape[-1] == 5000
        assert abs(a.mean()) < 1e-9
        assert abs(a.std() - 1.0) < 1e-6

    def test_flat_row_comes_out_zeros(self):
        x = np.stack([np.zeros(1000), np.random.default_rng(9).normal(size=1000)])
        out = preprocess(x, fs_in=250.0)
        np.testing.assert_array_equal(out[0], np.zeros(2000))
        assert abs(out[1].std() - 1.0) < 1e-6

    def test_rows_match_preprocess_block_by_block(self):
        n = 2 * PREPROCESS_BLOCK_ROWS + 7
        x = np.random.default_rng(10).normal(size=(n, 900)).astype(np.float32)
        x[300] = 0.0  # flat: comes out as zeros
        out = preprocess_rows(x, 360.0)
        assert out.dtype == np.float32 and out.shape == (n, resampled_length(900, 360.0))
        # two blocks, of 259 and 260 rows
        bounds = [0, n // 2, n]
        want = np.concatenate([preprocess(x[lo:hi], 360.0) for lo, hi in zip(bounds, bounds[1:])])
        np.testing.assert_array_equal(out, want.astype(np.float32))
        np.testing.assert_array_equal(out[300], np.zeros(out.shape[1]))

    def test_rows_of_none(self):
        out = preprocess_rows(np.zeros((0, 900), dtype=np.float32), 360.0)
        assert out.dtype == np.float32 and out.shape == (0, 1250)

    def test_rows_peak_held_to_one_block(self):
        """Above its output, 4 blocks of rows peak where one block does."""
        x = np.random.default_rng(11).normal(size=(4 * PREPROCESS_BLOCK_ROWS, 1000))
        preprocess_rows(x[:PREPROCESS_BLOCK_ROWS], 250.0)  # warm-up outside the count

        def peak_above_output(rows):
            tracemalloc.start()
            try:
                out = preprocess_rows(rows, 250.0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak - out.nbytes

        one, four = peak_above_output(x[:PREPROCESS_BLOCK_ROWS]), peak_above_output(x)
        assert four < one + 64 * 1024  # the whole-array chain holds 4x one

    def test_noise_bank_has_all_categories(self):
        bank = NoiseBank.synthetic(seed=0, duration=2.0)
        assert set(bank.recordings) == set(NOISE_CATEGORIES)
        for arr in bank.recordings.values():
            assert arr.shape[0] == 12
            np.testing.assert_allclose(arr.std(axis=1), 1.0, atol=1e-6)
