import math
import os
import re
import struct
import subprocess
import sys
import threading
import warnings
import wave
from pathlib import Path

import numpy as np
import pytest
import scipy.signal
import scipy.sparse

from pathovc import cli, dsp
from pathovc.atomic import atomic_open
from pathovc.config import ConvertConfig
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
    phase_start_ref,
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
    CFG = dsp.DspConfig(trim_threshold_db=-40.0, trim_frame_ms=25.0)

    def test_constructed_case_frame_granular(self):
        x = np.zeros(6 * self.FRAME)
        x[800:1400] = 0.5
        out = dsp.trim_silence(dsp.Waveform(x, self.SR), self.CFG)
        np.testing.assert_array_equal(out.samples, x[800:1600])

    def test_no_silence_unchanged(self):
        v = sine(300, self.SR, 0.5)
        out = dsp.trim_silence(dsp.Waveform(v.copy(), self.SR), self.CFG)
        np.testing.assert_array_equal(out.samples, v)

    def test_all_zero_raises(self):
        with pytest.raises(dsp.AllSilentError):
            dsp.trim_silence(dsp.Waveform(np.zeros(4000), self.SR), self.CFG)

    def test_below_threshold_everywhere_raises(self):
        x = np.zeros(4000)
        x[0] = 1.0
        x[1:] = 1e-4  # -80 dB re peak
        # the frame holding the peak survives; make even that frame quiet
        with pytest.raises(dsp.AllSilentError):
            dsp.trim_silence(dsp.Waveform(np.full(4000, 0.0), self.SR), self.CFG)

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
            out = dsp.trim_silence(dsp.Waveform(x, self.SR), self.CFG)
            first = int(np.argmax(loud))
            last = int(len(loud) - 1 - np.argmax(loud[::-1]))
            kept = (last + 1 - first) * self.FRAME
            assert out.samples.size == kept

    def test_nonnegative_threshold_rejected(self):
        with pytest.raises(ValueError, match="trim_threshold_db must be negative"):
            dsp.DspConfig(trim_threshold_db=3.0)

    def test_nan_threshold_rejected(self):
        # NaN would pass a threshold_db >= 0 check and gate every frame shut;
        # the config a trim reads refuses it before the trim can run
        with pytest.raises(ValueError, match="negative"):
            dsp.trim_silence(dsp.Waveform(np.ones(100), self.SR),
                             dsp.DspConfig(trim_threshold_db=np.nan))

    def test_nan_trim_threshold_setting_rejected(self):
        # NaN would pass a threshold >= 0 check and gate every frame shut
        with pytest.raises(ValueError, match="trim_threshold_db must be negative"):
            dsp.DspConfig(trim_threshold_db=np.nan)

    def test_matches_frame_loop_oracle(self):
        # lengths on and off the frame grid, quiet and loud frames, several
        # rates, frame lengths and thresholds.  At -20 dB the gate is
        # exactly 0.1 of the peak, so the first sample of `edge` sits on the
        # gate and its frame must be kept
        rng = np.random.default_rng(12)
        edge = np.zeros(2500)
        edge[0], edge[1200] = 0.1, 1.0
        cases = 0
        for sr in (8000, 16000, 22050):
            for frame_ms in (0.01, 5.0, 25.0):
                for threshold_db in (-60.0, -40.0, -20.0, -6.0, -1e-9):
                    for n in (1, 7, 399, 400, 401, 2500):
                        x = rng.normal(size=n) * 10.0 ** rng.uniform(-4, 0, size=n)
                        x[rng.uniform(size=n) < 0.3] = 0.0
                        for samples in (x, edge[:n]):
                            want = trim_silence_ref(samples, sr, threshold_db, frame_ms)
                            w = dsp.Waveform(samples, sr)
                            cfg = dsp.DspConfig(trim_threshold_db=threshold_db,
                                                trim_frame_ms=frame_ms)
                            if want is None:
                                with pytest.raises(dsp.AllSilentError):
                                    dsp.trim_silence(w, cfg)
                            else:
                                got = dsp.trim_silence(w, cfg)
                                assert got.samples.tobytes() == want.tobytes()
                            cases += 1
        assert cases == 540


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


def assert_frozen(bank):
    """Neither a stored entry nor a structural zero of ``bank`` can be set."""
    parts = [a.tobytes() for a in (bank.data, bank.indices, bank.indptr)]
    with pytest.raises(ValueError, match="read-only"):
        bank[0, bank.indices[0]] = 2.0
    # filter 0 ends below the Nyquist bin; the tier-1 warning policy turns
    # the structure change into an error before the write is tried
    assert bank[0, -1] == 0.0
    with pytest.raises((ValueError, scipy.sparse.SparseEfficiencyWarning)):
        bank[0, -1] = 2.0
    assert [a.tobytes() for a in (bank.data, bank.indices, bank.indptr)] == parts


class TestMelFilterbank:
    def test_weights_nonnegative_and_peak_at_center(self):
        cfg = dsp.DspConfig()
        fb = dsp.mel_filterbank(cfg).toarray()
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
        fb = dsp.mel_filterbank(cfg).toarray()
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
        got = dsp.mel_filterbank(cfg).toarray()
        assert got.tobytes() == mel_filterbank_ref(*sizes).tobytes()

    def test_cached_bank_is_shared_and_read_only(self):
        fb = dsp.mel_filterbank(dsp.DspConfig())
        assert dsp.mel_filterbank(dsp.DspConfig()) is fb
        assert_frozen(fb)

    def test_cache_follows_a_mutated_config(self):
        # DspConfig is mutable, so the cache must key on its values
        cfg = dsp.DspConfig()
        assert dsp.mel_filterbank(cfg).shape == (80, 513)
        cfg.n_mels, cfg.fmax = 40, 8000.0
        fb = dsp.mel_filterbank(cfg)
        assert fb.shape == (40, 513)
        rebuilt = features._mel_banks.__wrapped__(24000, 1024, 40, 80.0, 8000.0)[0]
        assert fb.toarray().tobytes() == rebuilt.toarray().tobytes()


# n_mels 2, 40 and 80; fmin 0; fmax at Nyquist; fft_size 512 and 2048
MEL_TO_LINEAR_CONFIGS = [
    dict(),
    dict(n_mels=2, cepstral_order=1),
    dict(n_mels=40, cepstral_order=20),
    dict(fmin=0.0),
    dict(fmax=12000.0),
    dict(fft_size=512, window_size=512, hop_size=128),
    dict(fft_size=2048),
]


class TestMelToLinear:
    @staticmethod
    def _dense_weights(cfg):
        fb = dsp.mel_filterbank(cfg).toarray()
        return fb / np.maximum(fb.sum(axis=0, keepdims=True), 1e-12)

    @staticmethod
    def _weights(cfg):
        return features._mel_banks(
            cfg.sample_rate, cfg.fft_size, cfg.n_mels, cfg.fmin, cfg.fmax)[1]

    @pytest.mark.parametrize("kwargs", MEL_TO_LINEAR_CONFIGS)
    def test_within_one_ulp_of_dense_product(self, kwargs):
        cfg = dsp.DspConfig(**kwargs)
        rng = np.random.default_rng(12)
        frames = np.exp(3.0 * rng.standard_normal((37, cfg.n_mels)))
        frames[5] = 0.0
        frames[:, 0] = 0.0
        dense = np.clip(frames @ self._dense_weights(cfg), 0.0, None)
        got = dsp.mel_to_linear(dsp.MelSpectrogram(frames, 0.01, cfg.sample_rate), cfg)
        assert got.shape == dense.shape
        assert np.all(np.abs(got - dense) <= np.spacing(dense))

    @pytest.mark.parametrize("kwargs", MEL_TO_LINEAR_CONFIGS)
    def test_no_bin_under_more_than_two_filters(self, kwargs):
        cfg = dsp.DspConfig(**kwargs)
        assert (dsp.mel_filterbank(cfg).toarray() > 0).sum(axis=0).max() <= 2

    @pytest.mark.parametrize("kwargs", MEL_TO_LINEAR_CONFIGS)
    def test_cached_weights_are_shared_and_read_only(self, kwargs):
        cfg = dsp.DspConfig(**kwargs)
        weights = self._weights(cfg)
        assert self._weights(dsp.DspConfig(**kwargs)) is weights
        assert weights.toarray().tobytes() == self._dense_weights(cfg).tobytes()
        assert_frozen(weights)


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

    def test_waveform_at_another_rate_raises(self):
        # the filterbank is laid out for [dsp] sample_rate, so a 1 kHz tone
        # at 16 kHz would peak in the band centred at 1,531 Hz
        w = dsp.Waveform(sine(1000, 16000), 16000)
        with pytest.raises(ValueError, match="waveform at 16000 Hz, but "
                           r"\[dsp\] sample_rate is 24000 Hz; resample first"):
            dsp.mel_spectrogram(w, dsp.DspConfig())

    def test_frames_independent_of_blas_threads(self):
        # the float64 frames of 40 noise clips of 0.25-2.5 s, once per BLAS
        # thread count, each in a fresh interpreter
        script = (
            "import hashlib\n"
            "import numpy as np\n"
            "from pathovc import dsp\n"
            "rng = np.random.default_rng(3)\n"
            "cfg = dsp.DspConfig()\n"
            "h = hashlib.sha256()\n"
            "for _ in range(40):\n"
            "    x = rng.uniform(-1.0, 1.0, int(rng.integers(6000, 60001)))\n"
            "    ms = dsp.mel_spectrogram(dsp.Waveform(x, 24000), cfg)\n"
            "    h.update(ms.frames.tobytes())\n"
            "print(h.hexdigest())\n")
        src = str(Path(dsp.__file__).resolve().parents[2])
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(
                           filter(None, [src, os.environ.get("PYTHONPATH")])))
            run = subprocess.run([sys.executable, "-c", script], env=env,
                                 capture_output=True, text=True, check=True,
                                 timeout=300)
            digests.append(run.stdout)
        assert digests[0] == digests[1]


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

    def test_preprocess_range_within_cepstral_bound(self):
        # digital silence sits at the floor in every band; a full-scale
        # square wave has the most energy a PCM16 clip can carry
        cfg = dsp.DspConfig()
        bound = dsp.cepstral_bound(cfg.n_mels)
        assert bound == pytest.approx(math.sqrt(160) * math.log(1e10))
        n = 8192
        loud = np.sign(np.sin(2 * np.pi * 3000 * np.arange(n) / 24000))
        for x in (np.zeros(n), loud,
                  np.random.default_rng(13).uniform(-1.0, 1.0, n)):
            ms = dsp.mel_spectrogram(dsp.Waveform(x, 24000), cfg)
            mc = dsp.mel_cepstrum(ms, cfg.cepstral_order)
            assert np.abs(mc.frames).max() <= bound

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

    @pytest.mark.parametrize("n_mels,rate,shift,message", [
        (80, 16000, 256 / 16000, r"of 80 bands at 16000 Hz, but \[dsp\] n_mels is 80 "
                                 "and sample_rate 24000 Hz"),
        (40, 24000, 256 / 24000, r"of 40 bands at 24000 Hz, but \[dsp\] n_mels is 80 "
                                 "and sample_rate 24000 Hz"),
        (80, 24000, 0.01, r"of frame shift 0.01 s, but \[dsp\] hop_size / "
                          r"sample_rate is 0.010666666666666666 s")],
        ids=["sample-rate", "n-mels", "frame-shift"])
    def test_spectrogram_unlike_cfg_rejected(self, n_mels, rate, shift, message):
        # the filterbank, the frame hop and the start's lambda and bin
        # spacing come from cfg
        cfg = dsp.DspConfig()
        ms = dsp.MelSpectrogram(np.ones((2, n_mels)), shift, rate)
        with pytest.raises(ValueError, match=message):
            dsp.griffin_lim(ms, cfg, 1)


def harmonic_word(f0, seconds, sr):
    """Eleven harmonics of ``f0`` under one raised-sine syllable envelope."""
    t = np.arange(int(sr * seconds)) / sr
    x = sum(np.sin(2 * np.pi * k * f0 * t) / k for k in range(1, 12))
    return dsp.Waveform(0.5 * np.sin(np.pi * t / seconds) ** 2 * x, sr)


class TestFastGriffinLim:
    def test_convert_default_reaches_plain_sixty(self):
        # each word through the mel cepstrum that convert synthesizes from;
        # Fast Griffin-Lim is not monotone, and a short high word can end a
        # few percent above plain-60, so the mean is what is compared. The
        # references start from zero phase: 60 plain iterations, and the
        # former default of 19 fast ones
        cfg = dsp.DspConfig()
        fast, plain, former = [], [], []
        for f0, seconds in ((110, 0.5), (140, 0.8), (180, 1.2), (230, 0.4)):
            w = harmonic_word(f0, seconds, cfg.sample_rate)
            mc = dsp.mel_cepstrum(dsp.mel_spectrogram(w, cfg), cfg.cepstral_order)
            ms = dsp.invert_mel_cepstrum(mc, cfg.n_mels)
            _, errs = dsp.griffin_lim(ms, cfg, ConvertConfig.gl_iterations,
                                      return_convergence=True,
                                      momentum=cli.GL_MOMENTUM)
            fast.append(errs[-1])
            target = dsp.mel_to_linear(ms, cfg)
            plain.append(griffin_lim_ref(target, target, *_sizes(cfg), 60)[1][-1])
            former.append(fast_griffin_lim_ref(target, target, *_sizes(cfg),
                                               19, 0.99)[1][-1])
        assert ConvertConfig.gl_iterations < 60 and cli.GL_MOMENTUM == 0.99
        assert np.mean(plain) == pytest.approx(0.2011, abs=1e-4)
        assert np.mean(former) == pytest.approx(0.1849, abs=1e-4)
        assert np.mean(fast) <= np.mean(plain)
        assert np.mean(fast) <= np.mean(former)

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


def _start(target, cfg):
    """griffin_lim's starting spectrum for linear magnitudes ``target``."""
    return features._phase_start(target, cfg, np.empty(target.shape, np.complex128))


class TestPhaseStart:
    @pytest.mark.parametrize("c,t", STFT_GRID)
    def test_matches_loop_oracle(self, c, t):
        # the time-integrated phase reaches ~4e5 rad at 140 frames, where a
        # double resolves ~1e-10 rad; the two sum in different orders
        cfg, _, ms = _grid_case(c, t)
        target = dsp.mel_to_linear(ms, cfg)
        np.testing.assert_allclose(_start(target, cfg),
                                   phase_start_ref(target, *_sizes(cfg)),
                                   rtol=1e-8, atol=0.0)

    @pytest.mark.parametrize("w", [
        dsp.Waveform(sine(440, 24000), 24000),
        harmonic_word(140, 0.8, 24000),
    ], ids=["tone", "word"])
    def test_beats_zero_phase_before_any_iteration(self, w):
        # one iteration's error is that of the start's consistent
        # spectrum: 0.26 and 0.55 here, against 0.96 and 0.93 from zero
        cfg = dsp.DspConfig()
        ms = dsp.mel_spectrogram(w, cfg)
        target = dsp.mel_to_linear(ms, cfg)
        _, errs = dsp.griffin_lim(ms, cfg, 1, return_convergence=True)
        _, zero = griffin_lim_ref(target, target, *_sizes(cfg), 1)
        assert errs[0] <= 0.6 * zero[0]

    @pytest.mark.parametrize("t", [1, 9])
    def test_single_frame_and_zero_bins_finite(self, t):
        # below fmin every bin is zero; one frame is zero throughout
        cfg = dsp.DspConfig()
        frames = np.random.default_rng(t).uniform(0.1, 2.0, size=(t, 80))
        if t > 1:
            frames[t // 2] = 0.0
        ms = dsp.MelSpectrogram(frames, 256 / 24000, 24000)
        target = dsp.mel_to_linear(ms, cfg)
        assert not np.any(target[:, :3])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            start = _start(target, cfg)
            wav = dsp.griffin_lim(ms, cfg, 3, momentum=0.99)
        assert np.all(np.isfinite(start))
        np.testing.assert_allclose(np.abs(start), target, rtol=1e-12, atol=0.0)
        assert np.all(np.isfinite(wav.samples))


class TestStftAgainstLoopOracle:
    """Byte equality with the per-frame-loop STFT pair and Griffin-Lim."""

    @pytest.mark.parametrize("c,t", STFT_GRID)
    def test_stft(self, c, t):
        cfg, x, _ = _grid_case(c, t)
        got = audio.stft(x, audio._StftPlan(t, cfg))
        assert got.shape == (t, cfg.fft_size // 2 + 1)
        assert got.tobytes() == stft_ref(x, *_sizes(cfg)).tobytes()

    @pytest.mark.parametrize("c,t", STFT_GRID)
    def test_istft_every_length(self, c, t):
        cfg, x, _ = _grid_case(c, t)
        spec = stft_ref(x, *_sizes(cfg))
        got = audio.istft(spec, audio._StftPlan(t, cfg))
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
        # the oracle ignores the plan that mel_spectrogram passes
        monkeypatch.setattr(features, "stft",
                            lambda x, plan: stft_ref(x, *_sizes(cfg)))
        assert mel == dsp.mel_spectrogram(w, cfg).frames.tobytes()

    @pytest.mark.parametrize("c,t", STFT_GRID)
    def test_griffin_lim(self, c, t):
        cfg, _, ms = _grid_case(c, t)
        wav, errors = dsp.griffin_lim(ms, cfg, 5, return_convergence=True)
        target = dsp.mel_to_linear(ms, cfg)
        x, want = griffin_lim_ref(target, _start(target, cfg), *_sizes(cfg), 5)
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
        target = dsp.mel_to_linear(ms, cfg)
        x, want = fast_griffin_lim_ref(target, _start(target, cfg), *_sizes(cfg),
                                       5, 0.99)
        assert wav.samples.tobytes() == x.tobytes()
        assert errors == want
        fast = dsp.griffin_lim(ms, cfg, 5, momentum=0.99)
        assert fast.samples.tobytes() == x.tobytes()

    def test_last_iteration_ends_at_its_waveform(self, monkeypatch):
        # without the errors, the last estimate would feed nothing returned
        cfg, _, ms = _grid_case(0, 61)
        calls, stft = [], features.stft
        monkeypatch.setattr(features, "stft",
                            lambda x, plan: calls.append(1) or stft(x, plan))
        dsp.griffin_lim(ms, cfg, 5, momentum=0.99)
        assert len(calls) == 4
        dsp.griffin_lim(ms, cfg, 5, return_convergence=True, momentum=0.99)
        assert len(calls) == 4 + 5

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

    def test_front_end(self):
        cfg = STFT_CONFIGS[0]
        w = dsp.Waveform(np.random.default_rng(1).normal(size=3000), cfg.sample_rate)
        louder = dsp.Waveform(-2.0 * w.samples, w.sample_rate)
        for fn, field in ((dsp.reduce_noise, "samples"), (dsp.mel_spectrogram, "frames")):
            first = getattr(fn(w, cfg), field)
            keep = first.copy()
            fn(louder, cfg)
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
        plan = audio._StftPlan(61, cfg)
        spec = audio.stft(x, plan)
        assert spec is plan.spec
        assert spec.tobytes() == stft_ref(x, *_sizes(cfg)).tobytes()
        want = istft_ref(spec, *_sizes(cfg))
        for _ in range(2):
            assert audio.istft(spec, plan).tobytes() == want.tobytes()


def _on_fresh_thread(fn, *args):
    """``fn(*args)`` run on a new thread, which starts with no work arrays."""
    out = []
    worker = threading.Thread(target=lambda: out.append(fn(*args)))
    worker.start()
    worker.join()
    return out[0]


def _front_end_bytes(x, cfg):
    """reduce_noise's samples and, for a clip of one window or more,
    mel_spectrogram's frames, as bytes; None stands for the mel's refusal."""
    w = dsp.Waveform(x, cfg.sample_rate)
    denoised = dsp.reduce_noise(w, cfg).samples.tobytes()
    if x.size < cfg.window_size:
        with pytest.raises(ValueError, match="too short"):
            dsp.mel_spectrogram(w, cfg)
        return denoised, None
    return denoised, dsp.mel_spectrogram(w, cfg).frames.tobytes()


def _front_end_ref_bytes(x, cfg):
    """What ``_front_end_bytes`` gives, from the oracles."""
    mel = None
    if x.size >= cfg.window_size:
        spec = stft_ref(x, *_sizes(cfg))
        mel = (np.abs(spec) @ dsp.mel_filterbank(cfg).T).tobytes()
    return reduce_noise_ref(x, cfg).tobytes(), mel


def _buffer_clips(cfg, seed):
    """A long and a short clip, clips of 1, 2 and 3 frames, silence, one
    shorter than a window, then a long clip again: each smaller clip runs
    in buffers a longer one has filled."""
    rng = np.random.default_rng(seed)
    n = [cfg.window_size + (t - 1) * cfg.hop_size for t in (90, 12, 1, 2, 3)]
    clips = [sine(300 + 40 * i, cfg.sample_rate, m / cfg.sample_rate, 0.5)
             + 0.05 * rng.normal(size=m) for i, m in enumerate(n)]
    clips += [np.zeros(n[1]), rng.normal(size=cfg.window_size - 1),
              0.3 * rng.normal(size=n[0] + cfg.hop_size // 2)]
    return clips


class TestThreadBuffers:
    """Front-end results do not depend on what a thread's work arrays
    held before, and the arrays are reused, not rebuilt."""

    @pytest.mark.parametrize("c", [0, 2])
    def test_reuse_gives_fresh_thread_and_oracle_bytes(self, c):
        cfg = STFT_CONFIGS[c]
        for x in _buffer_clips(cfg, c):
            got = _front_end_bytes(x, cfg)
            assert got == _on_fresh_thread(_front_end_bytes, x, cfg)
            assert got == _front_end_ref_bytes(x, cfg)

    def test_threads_in_lockstep_give_serial_bytes(self):
        cfg = STFT_CONFIGS[2]
        clips = [_buffer_clips(cfg, 5), _buffer_clips(cfg, 6)[::-1]]
        serial = [[_front_end_bytes(x, cfg) for x in own] for own in clips]
        barrier = threading.Barrier(2, timeout=60)
        got = [[], []]

        def run(i):
            for x in clips[i]:
                barrier.wait()
                got[i].append(_front_end_bytes(x, cfg))

        workers = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert got == serial

    def test_smaller_request_shares_larger_grows(self):
        a = audio._work("test", (4, 5))
        assert a.shape == (4, 5) and a.dtype == np.float64 and a.flags.c_contiguous
        # as many bytes as a
        smaller = audio._work("test", (2, 5), np.complex128)
        assert smaller.shape == (2, 5) and smaller.dtype == np.complex128
        assert np.shares_memory(a, smaller)
        grown = audio._work("test", (9, 5))
        assert grown.shape == (9, 5) and not np.shares_memory(a, grown)
        assert np.shares_memory(grown, audio._work("test", (4, 5), bool))

    def test_threads_never_share(self):
        mine = audio._work("test", (6, 7))
        theirs = _on_fresh_thread(audio._work, "test", (6, 7))
        assert not np.shares_memory(mine, theirs)

    def test_warm_reduce_noise_builds_no_buffer(self):
        cfg = dsp.DspConfig()
        w = dsp.Waveform(_buffer_clips(cfg, 7)[0], cfg.sample_rate)

        def buffers_per_call():
            dsp.reduce_noise(w, cfg)
            first = dict(vars(audio._thread_buffers))
            dsp.reduce_noise(w, cfg)
            return first, dict(vars(audio._thread_buffers))

        first, second = _on_fresh_thread(buffers_per_call)
        assert {"frames", "spec", "signal", "den", "mag", "gain"} <= first.keys()
        assert first.keys() == second.keys()
        assert all(second[name] is buf for name, buf in first.items())

    def test_warm_griffin_lim_builds_no_buffer(self):
        cfg = dsp.DspConfig()
        ms = dsp.mel_spectrogram(dsp.Waveform(_buffer_clips(cfg, 8)[0], cfg.sample_rate),
                                 cfg)

        def buffers_per_call():
            dsp.griffin_lim(ms, cfg, 2, momentum=0.99)
            first = dict(vars(audio._thread_buffers))
            dsp.griffin_lim(ms, cfg, 2, momentum=0.99)
            return first, dict(vars(audio._thread_buffers))

        first, second = _on_fresh_thread(buffers_per_call)
        assert {"frames", "spec", "signal", "den", "mag", "prev", "accel"} <= first.keys()
        assert first.keys() == second.keys()
        assert all(second[name] is buf for name, buf in first.items())

    @pytest.mark.parametrize("c", [0, 2])
    def test_griffin_lim_between_front_ends(self, c):
        # one thread: front end, Fast and plain Griffin-Lim on a short and
        # a long word, then the front end again, each step in buffers that
        # the steps before it have filled
        cfg = STFT_CONFIGS[c]
        clips = _buffer_clips(cfg, c)
        words = [dsp.mel_spectrogram(dsp.Waveform(x, cfg.sample_rate), cfg)
                 for x in (clips[1], clips[-1])]

        def synthesize(ms, momentum):
            wav, errors = dsp.griffin_lim(ms, cfg, 3, return_convergence=True,
                                          momentum=momentum)
            return wav.samples.tobytes(), errors

        steps = [(_front_end_bytes, clips[0], cfg)]
        steps += [(synthesize, ms, momentum) for ms in words for momentum in (0.99, 0.0)]
        steps += [(_front_end_bytes, x, cfg) for x in clips[1:]]
        got = _on_fresh_thread(lambda: [fn(*args) for fn, *args in steps])
        assert got == [_on_fresh_thread(fn, *args) for fn, *args in steps]
        for (fn, a, b), out in zip(steps, got):
            if fn is synthesize:
                target = dsp.mel_to_linear(a, cfg)
                start = _start(target, cfg)
                x, errors = (fast_griffin_lim_ref(target, start, *_sizes(cfg), 3, b) if b
                             else griffin_lim_ref(target, start, *_sizes(cfg), 3))
                assert out == (x.tobytes(), errors)
            else:
                assert out == _front_end_ref_bytes(a, cfg)


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
        whole = path.read_bytes()
        for size, cause in [(0, "empty file"),
                            (4, "file ends inside its header"),
                            (20, "file ends inside its header"),
                            (36, "fmt chunk and/or data chunk missing")]:  # wave's text
            path.write_bytes(whole[:size])
            with pytest.raises(ValueError) as info:
                dsp.read_wav(path)
            assert str(info.value) == f"{path}: not a readable wav file: {cause}"


class TestAtomicOpen:
    def test_failed_rename_names_the_destination_only(self, tmp_path):
        # a directory stands where the file goes
        path = tmp_path / "f.mcep"
        path.mkdir()
        with pytest.raises(IsADirectoryError) as info:
            with atomic_open(path, "wb") as f:
                f.write(b"data")
        assert info.value.filename == str(path)
        assert ".tmp" not in str(info.value) and str(path) in str(info.value)
        assert [p.name for p in tmp_path.iterdir()] == ["f.mcep"]
        assert not any(path.iterdir())


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
