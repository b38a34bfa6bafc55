import math
import re
import struct
import wave

import numpy as np
import pytest
import scipy.signal

from pathovc import cli, dsp
from pathovc.dsp import audio, features

from oracles import (
    binary_opening_ref,
    dct2_ortho_ref,
    fast_griffin_lim_ref,
    fft_peak_bin,
    griffin_lim_ref,
    hz_to_mel_ref,
    idct2_ortho_ref,
    istft_ref,
    mel_filterbank_ref,
    mel_to_hz_ref,
    reduce_noise_ref,
    stft_ref,
    trim_silence_ref,
)


def sine(freq, sr, seconds=1.0, amp=0.8):
    t = np.arange(int(round(sr * seconds))) / sr
    return amp * np.sin(2 * np.pi * freq * t)


def filter_centers(cfg):
    """Centre frequencies of the mel filters: n_mels points evenly spaced in
    mel strictly between fmin and fmax."""
    lo, hi = hz_to_mel_ref(cfg.fmin), hz_to_mel_ref(cfg.fmax)
    step = (hi - lo) / (cfg.n_mels + 1)
    return [mel_to_hz_ref(lo + (m + 1) * step) for m in range(cfg.n_mels)]


class TestNormalize:
    def test_peak_becomes_exactly_one(self):
        w = dsp.normalize(dsp.Waveform(np.array([0.1, -0.4, 0.2]), 16000))
        assert np.max(np.abs(w.samples)) == 1.0

    def test_zero_signal_unchanged(self):
        w = dsp.normalize(dsp.Waveform(np.zeros(100), 16000))
        np.testing.assert_array_equal(w.samples, np.zeros(100))

    def test_idempotent_bit_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            w = dsp.Waveform(rng.normal(size=257) * rng.uniform(0.01, 50), 16000)
            once = dsp.normalize(w)
            twice = dsp.normalize(once)
            np.testing.assert_array_equal(once.samples, twice.samples)


class TestResample:
    def test_same_rate_identical(self):
        v = np.random.default_rng(1).normal(size=500)
        out = dsp.resample(dsp.Waveform(v.copy(), 24000), 24000)
        np.testing.assert_array_equal(out.samples, v)

    def test_zeros_stay_zeros(self):
        out = dsp.resample(dsp.Waveform(np.zeros(4800), 48000), 24000)
        assert out.sample_rate == 24000
        np.testing.assert_allclose(out.samples, 0.0)

    def test_tone_survives_16k_to_24k(self):
        out = dsp.resample(dsp.Waveform(sine(440, 16000), 16000), 24000)
        peak = fft_peak_bin(out.samples, 1024)
        assert abs(peak - 440 * 1024 / 24000) <= 1.0

    def test_duration_within_one_sample(self):
        for n in (16000, 16001, 12345):
            out = dsp.resample(dsp.Waveform(np.zeros(n), 16000), 24000)
            assert abs(out.samples.size / 24000 - n / 16000) <= 1 / 24000

    def test_bad_rate_rejected(self):
        w = dsp.Waveform(np.zeros(10), 16000)
        with pytest.raises(ValueError, match="target_rate"):
            dsp.resample(w, 0)
        with pytest.raises(ValueError, match="target_rate"):
            dsp.resample(w, -8000)

    @pytest.mark.parametrize("rate,target", [(16000, 24000), (22050, 24000),
                                             (48000, 24000), (24000, 16000)])
    def test_cached_filter_matches_resample_poly(self, rate, target):
        # the second call sees the cached filter as the first left it
        x = np.random.default_rng(rate).normal(size=3001)
        want = scipy.signal.resample_poly(
            x, target // np.gcd(rate, target), rate // np.gcd(rate, target),
            window=("kaiser", 8.0))
        for _ in range(2):
            got = dsp.resample(dsp.Waveform(x, rate), target)
            assert got.samples.tobytes() == want.tobytes()

    def test_cached_filter_read_only_and_unchanged(self):
        h = audio._resampling_filter(3, 2)
        keep = h.copy()
        assert not h.flags.writeable
        with pytest.raises(ValueError):
            h *= 2.0
        dsp.resample(dsp.Waveform(np.ones(500), 16000), 24000)
        assert audio._resampling_filter(3, 2) is h
        assert h.tobytes() == keep.tobytes()


class TestTrimSilence:
    SR = 16000
    FRAME = 400  # 25 ms at 16 kHz

    def test_constructed_case_frame_granular(self):
        x = np.zeros(6 * self.FRAME)
        x[800:1400] = 0.5
        out = dsp.trim_silence(dsp.Waveform(x, self.SR), -40.0)
        np.testing.assert_array_equal(out.samples, x[800:1600])

    def test_no_silence_unchanged(self):
        v = sine(300, self.SR, 0.5)
        out = dsp.trim_silence(dsp.Waveform(v.copy(), self.SR), -40.0)
        np.testing.assert_array_equal(out.samples, v)

    def test_all_zero_raises(self):
        with pytest.raises(dsp.AllSilentError):
            dsp.trim_silence(dsp.Waveform(np.zeros(4000), self.SR), -40.0)

    def test_below_threshold_everywhere_raises(self):
        x = np.zeros(4000)
        x[0] = 1.0
        x[1:] = 1e-4  # -80 dB re peak
        # the frame holding the peak survives; make even that frame quiet
        with pytest.raises(dsp.AllSilentError):
            dsp.trim_silence(dsp.Waveform(np.full(4000, 0.0), self.SR), -40.0)

    def test_loud_frames_never_removed(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            n_frames = rng.integers(4, 12)
            loud = rng.uniform(size=n_frames) < 0.4
            if not loud.any():
                loud[int(rng.integers(n_frames))] = True
            x = np.concatenate([
                (0.5 if is_loud else 1e-5) * np.ones(self.FRAME)
                for is_loud in loud])
            out = dsp.trim_silence(dsp.Waveform(x, self.SR), -40.0)
            first = int(np.argmax(loud))
            last = int(len(loud) - 1 - np.argmax(loud[::-1]))
            kept = (last + 1 - first) * self.FRAME
            assert out.samples.size == kept

    def test_nonnegative_threshold_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            dsp.trim_silence(dsp.Waveform(np.ones(100), self.SR), 3.0)

    def test_matches_frame_loop_oracle(self):
        # lengths on and off the frame grid, quiet and loud frames, several
        # rates, frame lengths and thresholds; NaN gates every frame shut.
        # At -20 dB the gate is exactly 0.1 of the peak, so the first
        # sample of `edge` sits on the gate and its frame must be kept
        rng = np.random.default_rng(12)
        edge = np.zeros(2500)
        edge[0], edge[1200] = 0.1, 1.0
        cases = 0
        for sr in (8000, 16000, 22050):
            for frame_ms in (0.01, 5.0, 25.0):
                for threshold_db in (-60.0, -40.0, -20.0, -6.0, -1e-9, np.nan):
                    for n in (1, 7, 399, 400, 401, 2500):
                        x = rng.normal(size=n) * 10.0 ** rng.uniform(-4, 0, size=n)
                        x[rng.uniform(size=n) < 0.3] = 0.0
                        for samples in (x, edge[:n]):
                            want = trim_silence_ref(samples, sr, threshold_db, frame_ms)
                            w = dsp.Waveform(samples, sr)
                            if want is None:
                                with pytest.raises(dsp.AllSilentError):
                                    dsp.trim_silence(w, threshold_db, frame_ms)
                            else:
                                got = dsp.trim_silence(w, threshold_db, frame_ms)
                                assert got.samples.tobytes() == want.tobytes()
                            cases += 1
        assert cases == 648


class TestReduceNoise:
    def test_snr_improves_at_least_6db(self):
        cfg = dsp.DspConfig()
        rng = np.random.default_rng(3)
        clean = sine(440, 16000)
        noise = rng.normal(size=clean.size)
        noise *= math.sqrt((clean ** 2).sum() / (noise ** 2).sum()) * 10 ** (-20 / 20)
        noisy = clean + noise
        out = dsp.reduce_noise(dsp.Waveform(noisy, 16000), cfg)

        def snr(x):
            return 10 * np.log10((clean ** 2).sum() / ((x - clean) ** 2).sum())

        assert out.samples.size == noisy.size
        assert snr(out.samples) - snr(noisy) >= 6.0

    def test_silence_stays_silent(self):
        out = dsp.reduce_noise(dsp.Waveform(np.zeros(8000), 16000), dsp.DspConfig())
        assert np.max(np.abs(out.samples)) < 1e-6

    def test_clean_tone_kept_within_1db(self):
        cfg = dsp.DspConfig()
        w = dsp.Waveform(sine(440, 16000, amp=0.9), 16000)
        out = dsp.reduce_noise(w, cfg)
        rms_in = np.sqrt(np.mean(w.samples ** 2))
        rms_out = np.sqrt(np.mean(out.samples ** 2))
        assert abs(20 * np.log10(rms_out / rms_in)) < 1.0

    def test_short_input_passes_through(self):
        v = np.random.default_rng(4).normal(size=100)
        out = dsp.reduce_noise(dsp.Waveform(v.copy(), 16000), dsp.DspConfig())
        np.testing.assert_array_equal(out.samples, v)


def _runs_mask(t, runs):
    """(t, 4) mask, True on frames [start, start + length) of each run."""
    mask = np.zeros((t, 4), dtype=bool)
    for start, length in runs:
        mask[start:start + length] = True
    return mask


class TestOpenRuns:
    """The noise gate's opening against ``ndimage.binary_opening``."""

    @pytest.mark.parametrize("t", [1, 2, 3, 60, 200, 400])
    @pytest.mark.parametrize("density", [0.3, 0.6, 0.9])
    def test_random_masks(self, t, density):
        rng = np.random.default_rng(int(t * 10 * density))
        mask = rng.random((t, 513)) < density
        got = audio._open_runs(mask)
        assert got.dtype == bool
        assert got.tobytes() == binary_opening_ref(mask).tobytes()

    @pytest.mark.parametrize("t", [1, 2, 3, 4, 60])
    @pytest.mark.parametrize("fill", [False, True])
    def test_constant_masks(self, t, fill):
        mask = np.full((t, 7), fill)
        got = audio._open_runs(mask)
        assert got.tobytes() == binary_opening_ref(mask).tobytes()
        assert got.tobytes() == np.full((t, 7), fill and t >= 3).tobytes()

    @pytest.mark.parametrize("runs,kept", [
        ([(5, 1)], []),
        ([(5, 2)], []),
        ([(0, 1), (18, 2)], []),
        ([(0, 2), (19, 1)], []),
        ([(5, 3)], [(5, 3)]),
        ([(0, 3), (17, 3)], [(0, 3), (17, 3)]),
        ([(2, 1), (4, 2), (7, 4), (12, 2)], [(7, 4)]),
    ])
    def test_short_runs_dropped_long_runs_kept(self, runs, kept):
        mask = _runs_mask(20, runs)
        got = audio._open_runs(mask)
        assert got.tobytes() == binary_opening_ref(mask).tobytes()
        assert got.tobytes() == _runs_mask(20, kept).tobytes()


class TestMelFilterbank:
    def test_weights_nonnegative_and_peak_at_center(self):
        cfg = dsp.DspConfig()
        fb = dsp.mel_filterbank(cfg)
        assert fb.shape == (80, 513)
        assert np.all(fb >= 0)
        assert np.all(fb <= 1.0 + 1e-12)
        centers = filter_centers(cfg)
        bin_hz = cfg.sample_rate / cfg.fft_size
        for m in (0, 20, 40, 79):
            peak_bin = int(np.argmax(fb[m]))
            assert abs(peak_bin * bin_hz - centers[m]) <= bin_hz

    def test_interior_bins_all_covered(self):
        cfg = dsp.DspConfig()
        fb = dsp.mel_filterbank(cfg)
        bin_hz = cfg.sample_rate / cfg.fft_size
        freqs = np.arange(fb.shape[1]) * bin_hz
        interior = (freqs > cfg.fmin) & (freqs < cfg.fmax)
        assert np.all(fb.sum(axis=0)[interior] > 0)

    def test_mel_scale_matches_reference(self):
        for f in (0.0, 80.0, 440.0, 7600.0, 12000.0):
            assert dsp.hertz_to_mel(f) == pytest.approx(hz_to_mel_ref(f), abs=1e-9)

    @pytest.mark.parametrize("sizes", [
        (24000, 1024, 80, 80.0, 7600.0),
        (16000, 512, 40, 0.0, 8000.0),
        (22050, 2048, 128, 55.0, 11025.0),
        (8000, 256, 2, 300.0, 3400.0),
    ])
    def test_matches_per_filter_loop_oracle(self, sizes):
        sample_rate, fft_size, n_mels, fmin, fmax = sizes
        cfg = dsp.DspConfig(sample_rate=sample_rate, fft_size=fft_size,
                            window_size=fft_size, hop_size=fft_size // 4,
                            n_mels=n_mels, fmin=fmin, fmax=fmax,
                            cepstral_order=n_mels - 1)
        got = dsp.mel_filterbank(cfg)
        assert got.tobytes() == mel_filterbank_ref(*sizes).tobytes()

    def test_cached_bank_is_shared_and_read_only(self):
        cfg = dsp.DspConfig()
        fb = dsp.mel_filterbank(cfg)
        assert dsp.mel_filterbank(dsp.DspConfig()) is fb
        with pytest.raises(ValueError, match="read-only"):
            fb[0, 0] = 1.0

    def test_cache_follows_a_mutated_config(self):
        # DspConfig is mutable, so the cache must key on its values
        cfg = dsp.DspConfig()
        assert dsp.mel_filterbank(cfg).shape == (80, 513)
        cfg.n_mels, cfg.fmax = 40, 8000.0
        fb = dsp.mel_filterbank(cfg)
        assert fb.shape == (40, 513)
        rebuilt = features._mel_filterbank.__wrapped__(24000, 1024, 40, 80.0, 8000.0)
        assert fb.tobytes() == rebuilt.tobytes()


class TestMelSpectrogram:
    def test_frame_count_formula(self):
        cfg = dsp.DspConfig()
        for n in (1024, 1025, 1280, 24000, 24001):
            w = dsp.Waveform(np.random.default_rng(6).normal(size=n), 24000)
            ms = dsp.mel_spectrogram(w, cfg)
            assert ms.frames.shape == (1 + (n - 1024) // 256, 80)
            assert ms.frame_shift == pytest.approx(256 / 24000)

    def test_zero_input_zero_output(self):
        ms = dsp.mel_spectrogram(dsp.Waveform(np.zeros(4096), 24000), dsp.DspConfig())
        np.testing.assert_array_equal(ms.frames, 0.0)

    def test_tone_at_center_dominates_its_band(self):
        cfg = dsp.DspConfig()
        centers = filter_centers(cfg)
        for m in (10, 40, 70):
            w = dsp.Waveform(sine(centers[m], 24000), 24000)
            ms = dsp.mel_spectrogram(w, cfg)
            assert np.all(np.argmax(ms.frames, axis=1) == m)

    def test_too_short_raises(self):
        with pytest.raises(ValueError, match="too short"):
            dsp.mel_spectrogram(dsp.Waveform(np.ones(512), 24000), dsp.DspConfig())


class TestMelCepstrum:
    def _random_mel(self, t=6, m=80, seed=7):
        rng = np.random.default_rng(seed)
        return dsp.MelSpectrogram(rng.uniform(0.05, 4.0, size=(t, m)), 256 / 24000, 24000)

    def test_constant_frame(self):
        ms = dsp.MelSpectrogram(np.full((3, 80), 2.5), 256 / 24000, 24000)
        mc = dsp.mel_cepstrum(ms, 39)
        assert mc.frames.shape == (3, 40)
        np.testing.assert_allclose(mc.frames[:, 0], math.sqrt(80) * math.log(2.5))
        np.testing.assert_allclose(mc.frames[:, 1:], 0.0, atol=1e-12)

    def test_matches_naive_dct_oracle(self):
        ms = self._random_mel()
        mc = dsp.mel_cepstrum(ms, 79)
        for t in range(ms.frames.shape[0]):
            ref = dct2_ortho_ref(np.log(ms.frames[t]))
            np.testing.assert_allclose(mc.frames[t], ref, atol=1e-9)

    def test_full_order_round_trip(self):
        ms = self._random_mel(seed=8)
        back = dsp.invert_mel_cepstrum(dsp.mel_cepstrum(ms, 79), 80)
        np.testing.assert_allclose(np.log(back.frames), np.log(ms.frames), atol=1e-9)

    def test_truncation_obeys_parseval(self):
        ms = self._random_mel(seed=9)
        logmel = np.log(ms.frames)
        full = dsp.mel_cepstrum(ms, 79)
        kept = dsp.mel_cepstrum(ms, 39)
        smooth = np.log(dsp.invert_mel_cepstrum(kept, 80).frames)
        residual = np.sum((logmel - smooth) ** 2, axis=1)
        dropped = np.sum(full.frames[:, 40:] ** 2, axis=1)
        np.testing.assert_allclose(residual, dropped, rtol=1e-9)

    def test_order_too_high_rejected(self):
        with pytest.raises(ValueError, match="order"):
            dsp.mel_cepstrum(self._random_mel(), 80)

    def test_inverse_matches_naive_idct(self):
        rng = np.random.default_rng(10)
        mc = dsp.MelCepstrogram(rng.normal(size=(4, 40)), 256 / 24000, 24000)
        ms = dsp.invert_mel_cepstrum(mc, 80)
        for t in range(4):
            ref = np.exp(idct2_ortho_ref(np.concatenate([mc.frames[t], np.zeros(40)])))
            np.testing.assert_allclose(ms.frames[t], ref, rtol=1e-9)

    def test_zero_cepstrum_gives_unit_energies(self):
        ms = dsp.invert_mel_cepstrum(
            dsp.MelCepstrogram(np.zeros((2, 40)), 256 / 24000, 24000), 80)
        np.testing.assert_allclose(ms.frames, 1.0)

    def test_too_many_coefficients_rejected(self):
        with pytest.raises(ValueError, match="exceed"):
            dsp.invert_mel_cepstrum(
                dsp.MelCepstrogram(np.zeros((2, 81)), 256 / 24000, 24000), 80)


class TestGriffinLim:
    def test_tone_peak_recovered(self):
        cfg = dsp.DspConfig()
        ms = dsp.mel_spectrogram(dsp.Waveform(sine(440, 24000), 24000), cfg)
        wav = dsp.griffin_lim(ms, cfg, 60)
        assert wav.sample_rate == 24000
        peak = fft_peak_bin(wav.samples, cfg.fft_size)
        assert abs(peak - 440 * cfg.fft_size / 24000) <= 1.0

    def test_zero_spectrogram_gives_zero_waveform(self):
        cfg = dsp.DspConfig()
        ms = dsp.MelSpectrogram(np.zeros((5, 80)), 256 / 24000, 24000)
        wav = dsp.griffin_lim(ms, cfg, 5)
        np.testing.assert_array_equal(wav.samples, 0.0)

    def test_convergence_error_non_increasing(self):
        cfg = dsp.DspConfig()
        ms = dsp.mel_spectrogram(dsp.Waveform(sine(523.25, 24000, 0.4), 24000), cfg)
        _, errs = dsp.griffin_lim(ms, cfg, 60, return_convergence=True)
        assert len(errs) == 60
        assert errs[-1] <= errs[0]
        assert all(errs[i + 1] <= errs[i] + 1e-12 for i in range(59))

    def test_edges_not_amplified(self):
        # at both ends the window-square sum is only a window tail; an
        # unfloored division there put the waveform's peak at the first
        # samples, ~3e4x above the body
        cfg = dsp.DspConfig()
        ms = dsp.mel_spectrogram(dsp.Waveform(sine(440, 24000, 0.8), 24000), cfg)
        x = dsp.griffin_lim(ms, cfg, 10).samples
        w = cfg.window_size
        edge = max(np.abs(x[:w]).max(), np.abs(x[-w:]).max())
        assert edge <= 3.0 * np.abs(x[w:-w]).max()

    def test_zero_iterations_rejected(self):
        cfg = dsp.DspConfig()
        ms = dsp.MelSpectrogram(np.ones((2, 80)), 256 / 24000, 24000)
        with pytest.raises(ValueError, match="iterations"):
            dsp.griffin_lim(ms, cfg, 0)


def harmonic_word(f0, seconds, sr):
    """Eleven harmonics of ``f0`` under one raised-sine syllable envelope."""
    t = np.arange(int(sr * seconds)) / sr
    x = sum(np.sin(2 * np.pi * k * f0 * t) / k for k in range(1, 12))
    return dsp.Waveform(0.5 * np.sin(np.pi * t / seconds) ** 2 * x, sr)


class TestFastGriffinLim:
    def test_convert_default_reaches_plain_sixty(self):
        # each word through the mel cepstrum that convert synthesizes from;
        # Fast Griffin-Lim is not monotone, and a short high word can end a
        # few percent above plain-60, so the mean is what is compared
        cfg = dsp.DspConfig()
        fast, plain = [], []
        for f0, seconds in ((110, 0.5), (140, 0.8), (180, 1.2), (230, 0.4)):
            w = harmonic_word(f0, seconds, cfg.sample_rate)
            mc = dsp.mel_cepstrum(dsp.mel_spectrogram(w, cfg), cfg.cepstral_order)
            ms = dsp.invert_mel_cepstrum(mc, cfg.n_mels)
            _, errs = dsp.griffin_lim(ms, cfg, cli.GL_ITERATIONS,
                                      return_convergence=True,
                                      momentum=cli.GL_MOMENTUM)
            fast.append(errs[-1])
            _, errs = dsp.griffin_lim(ms, cfg, 60, return_convergence=True)
            plain.append(errs[-1])
        assert cli.GL_ITERATIONS < 60 and cli.GL_MOMENTUM == 0.99
        assert np.mean(fast) <= np.mean(plain)

    def test_first_iteration_is_plain(self):
        # the previous estimate starts at zero, so the first step is plain;
        # the waveform inverts the spectrum of the step before the last, so
        # it first differs from plain at three iterations
        cfg = dsp.DspConfig()
        ms = dsp.mel_spectrogram(harmonic_word(140, 0.3, cfg.sample_rate), cfg)
        for n, same in ((1, True), (2, True), (3, False)):
            fast = dsp.griffin_lim(ms, cfg, n, momentum=0.99).samples
            plain = dsp.griffin_lim(ms, cfg, n).samples
            assert (fast.tobytes() == plain.tobytes()) == same


# default; window % hop != 0; fft > window; hop == window; hop = 999
STFT_CONFIGS = [
    dsp.DspConfig(),
    dsp.DspConfig(hop_size=300),
    dsp.DspConfig(fft_size=2048, window_size=1200),
    dsp.DspConfig(hop_size=1024),
    dsp.DspConfig(hop_size=999),
]
STFT_GRID = [(c, t) for c in range(len(STFT_CONFIGS)) for t in (1, 2, 7, 61, 140)]


def _grid_case(c, t):
    """Config, a signal of exactly t frames and a random mel spectrogram."""
    cfg = STFT_CONFIGS[c]
    rng = np.random.default_rng(100 * c + t)
    x = rng.normal(size=(t - 1) * cfg.hop_size + cfg.window_size)
    ms = dsp.MelSpectrogram(np.abs(rng.normal(size=(t, cfg.n_mels))),
                            cfg.hop_size / cfg.sample_rate, cfg.sample_rate)
    return cfg, x, ms


def _sizes(cfg):
    return cfg.fft_size, cfg.hop_size, cfg.window_size


class TestStftAgainstLoopOracle:
    """Byte equality with the per-frame-loop STFT pair and Griffin-Lim."""

    @pytest.mark.parametrize("c,t", STFT_GRID)
    def test_stft(self, c, t):
        cfg, x, _ = _grid_case(c, t)
        got = dsp.stft(x, *_sizes(cfg))
        assert got.shape == (t, cfg.fft_size // 2 + 1)
        assert got.tobytes() == stft_ref(x, *_sizes(cfg)).tobytes()

    @pytest.mark.parametrize("c,t", STFT_GRID)
    def test_istft_every_length(self, c, t):
        cfg, x, _ = _grid_case(c, t)
        spec = stft_ref(x, *_sizes(cfg))
        got = dsp.istft(spec, *_sizes(cfg))
        want = istft_ref(spec, *_sizes(cfg))
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("c,t", STFT_GRID)
    def test_reduce_noise_and_mel_spectrogram(self, c, t, monkeypatch):
        cfg, x, _ = _grid_case(c, t)
        w = dsp.Waveform(x, cfg.sample_rate)
        got = dsp.reduce_noise(w, cfg).samples
        assert got.tobytes() == reduce_noise_ref(x, cfg).tobytes()
        mel = dsp.mel_spectrogram(w, cfg).frames.tobytes()
        monkeypatch.setattr(features, "stft", stft_ref)
        assert mel == dsp.mel_spectrogram(w, cfg).frames.tobytes()

    @pytest.mark.parametrize("c,t", STFT_GRID)
    def test_griffin_lim(self, c, t):
        cfg, _, ms = _grid_case(c, t)
        wav, errors = dsp.griffin_lim(ms, cfg, 5, return_convergence=True)
        x, want = griffin_lim_ref(dsp.mel_to_linear(ms, cfg), *_sizes(cfg), 5)
        assert wav.samples.tobytes() == x.tobytes()
        assert errors == want
        assert dsp.griffin_lim(ms, cfg, 5).samples.tobytes() == x.tobytes()
        plain = dsp.griffin_lim(ms, cfg, 5, momentum=0.0)
        assert plain.samples.tobytes() == x.tobytes()

    @pytest.mark.parametrize("c,t", STFT_GRID)
    def test_fast_griffin_lim(self, c, t):
        cfg, _, ms = _grid_case(c, t)
        wav, errors = dsp.griffin_lim(ms, cfg, 5, return_convergence=True,
                                      momentum=0.99)
        x, want = fast_griffin_lim_ref(dsp.mel_to_linear(ms, cfg), *_sizes(cfg),
                                       5, 0.99)
        assert wav.samples.tobytes() == x.tobytes()
        assert errors == want
        fast = dsp.griffin_lim(ms, cfg, 5, momentum=0.99)
        assert fast.samples.tobytes() == x.tobytes()

    @pytest.mark.parametrize("t", [0, 1, 7])
    def test_silent_input(self, t):
        cfg = dsp.DspConfig()
        ms = dsp.MelSpectrogram(np.zeros((t, 80)), 256 / 24000, 24000)
        wav, errors = dsp.griffin_lim(ms, cfg, 4, return_convergence=True)
        n = (t - 1) * cfg.hop_size + cfg.window_size if t else 0
        assert wav.samples.tobytes() == np.zeros(n).tobytes()
        assert errors == [0.0] * 4


class TestStftResultsNotShared:
    """A result must not change when the function is called again."""

    def test_stft(self):
        cfg = STFT_CONFIGS[0]
        x = np.random.default_rng(1).normal(size=3000)
        first = dsp.stft(x, *_sizes(cfg))
        keep = first.copy()
        dsp.stft(-x, *_sizes(cfg))
        assert first.tobytes() == keep.tobytes()

    def test_istft(self):
        cfg = STFT_CONFIGS[0]
        x = np.random.default_rng(2).normal(size=3000)
        spec = dsp.stft(x, *_sizes(cfg))
        first = dsp.istft(spec, *_sizes(cfg))
        keep = first.copy()
        dsp.istft(2.0 * spec, *_sizes(cfg))
        assert first.tobytes() == keep.tobytes()

    def test_griffin_lim(self):
        cfg = STFT_CONFIGS[0]
        ms = _grid_case(0, 7)[2]
        first = dsp.griffin_lim(ms, cfg, 3)
        keep = first.samples.copy()
        dsp.griffin_lim(dsp.MelSpectrogram(2.0 * ms.frames, ms.frame_shift,
                                           ms.sample_rate), cfg, 3)
        assert first.samples.tobytes() == keep.tobytes()


class TestStftPlan:
    def test_shared_plan_gives_the_same_bytes(self):
        cfg, x, _ = _grid_case(1, 61)
        plan = audio._StftPlan(61, *_sizes(cfg))
        spec = dsp.stft(x, *_sizes(cfg), plan=plan)
        assert spec is plan.spec
        assert spec.tobytes() == stft_ref(x, *_sizes(cfg)).tobytes()
        want = istft_ref(spec, *_sizes(cfg))
        for _ in range(2):
            assert dsp.istft(spec, *_sizes(cfg), plan=plan).tobytes() == want.tobytes()


class TestWavIO:
    def test_round_trip(self, tmp_path):
        v = np.random.default_rng(11).uniform(-0.9, 0.9, size=1600)
        path = tmp_path / "a.wav"
        dsp.write_wav(path, dsp.Waveform(v, 16000))
        back = dsp.read_wav(path)
        assert back.sample_rate == 16000
        assert back.samples.size == 1600
        np.testing.assert_allclose(back.samples, v, atol=1.0 / 32767)

    def test_rejects_stereo(self, tmp_path):
        path = tmp_path / "st.wav"
        with wave.open(str(path), "wb") as f:
            f.setnchannels(2)
            f.setsampwidth(2)
            f.setframerate(16000)
            f.writeframes(b"\x00\x00" * 64)
        with pytest.raises(ValueError, match="mono"):
            dsp.read_wav(path)

    def test_rejects_wrong_depth(self, tmp_path):
        path = tmp_path / "w8.wav"
        with wave.open(str(path), "wb") as f:
            f.setnchannels(1)
            f.setsampwidth(1)
            f.setframerate(16000)
            f.writeframes(b"\x00" * 64)
        with pytest.raises(ValueError, match="16-bit"):
            dsp.read_wav(path)

    def test_bad_header_is_value_error_naming_path(self, tmp_path):
        path = tmp_path / "float.wav"
        dsp.write_wav(path, dsp.Waveform(np.zeros(64), 16000))
        raw = bytearray(path.read_bytes())
        raw[20:22] = (3).to_bytes(2, "little")  # IEEE float format tag
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=re.escape(f"{path}: ") + ".*unknown format: 3"):
            dsp.read_wav(path)

    def test_truncated_header_is_value_error_naming_path(self, tmp_path):
        path = tmp_path / "cut.wav"
        dsp.write_wav(path, dsp.Waveform(np.zeros(64), 16000))
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(ValueError, match=re.escape(f"{path}: ")):
            dsp.read_wav(path)


class TestMcepIO:
    def test_round_trip_bit_exact(self, tmp_path):
        frames = np.random.default_rng(12).normal(size=(13, 40)).astype(np.float32)
        path = tmp_path / "f.mcep"
        dsp.write_mcep(path, frames)
        back = dsp.read_mcep(path)
        assert back.dtype == np.float32
        np.testing.assert_array_equal(back, frames)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.mcep"
        path.write_bytes(b"XXXXX" + b"\x00" * 16)
        with pytest.raises(dsp.FeatureFormatError, match="magic"):
            dsp.read_mcep(path)

    def test_truncated_payload(self, tmp_path):
        frames = np.ones((4, 3), dtype=np.float32)
        path = tmp_path / "t.mcep"
        dsp.write_mcep(path, frames)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(dsp.FeatureFormatError, match="payload"):
            dsp.read_mcep(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_payload_rejected(self, tmp_path, bad):
        frames = np.ones((4, 3), dtype="<f4")
        frames[2, 1] = bad
        path = tmp_path / "nf.mcep"
        path.write_bytes(b"MCEP1" + struct.pack("<II", 4, 3) + frames.tobytes())
        with pytest.raises(dsp.FeatureFormatError, match="nf.mcep.*NaN or Inf"):
            dsp.read_mcep(path)

    # 1e39 overflows the float32 payload to Inf
    @pytest.mark.parametrize("bad", [np.nan, -np.inf, 1e39])
    def test_non_finite_frames_not_written(self, tmp_path, bad):
        frames = np.ones((4, 3))
        frames[2, 1] = bad
        path = tmp_path / "nf.mcep"
        with pytest.raises(dsp.FeatureFormatError, match="nf.mcep.*NaN or Inf"), \
                np.errstate(over="ignore"):
            dsp.write_mcep(path, frames)
        assert not path.exists()

    def test_zero_coefficients_rejected(self, tmp_path):
        path = tmp_path / "z.mcep"
        dsp.write_mcep(path, np.zeros((4, 0)))
        with pytest.raises(dsp.FeatureFormatError, match="z.mcep.*zero coefficients"):
            dsp.read_mcep(path)

    def test_short_header(self, tmp_path):
        path = tmp_path / "s.mcep"
        path.write_bytes(b"MCE")
        with pytest.raises(dsp.FeatureFormatError, match="short"):
            dsp.read_mcep(path)
