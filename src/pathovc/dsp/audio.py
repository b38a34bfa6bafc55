"""Waveform-level operations: normalize, resample, trim, denoise, STFT."""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.ndimage
import scipy.signal

from .config import DspConfig


class AllSilentError(ValueError):
    """Raised when a clip has no frame above the trim threshold."""


@dataclass
class Waveform:
    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError("waveform must be single-channel (1-D)")
        if not isinstance(self.sample_rate, (int, np.integer)) or self.sample_rate <= 0:
            raise ValueError("sample_rate must be a positive integer")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("waveform contains NaN or Inf samples")

    @property
    def duration(self):
        return self.samples.size / self.sample_rate


def normalize(w: Waveform) -> Waveform:
    """Scale so peak |sample| is exactly 1; all-zero input passes through.

    Idempotent: the peak sample divides to exactly 1.0, so a second pass
    divides by 1.0 and changes nothing.
    """
    peak = np.max(np.abs(w.samples)) if w.samples.size else 0.0
    if peak == 0.0:
        return Waveform(w.samples.copy(), w.sample_rate)
    return Waveform(w.samples / peak, w.sample_rate)


def resample(w: Waveform, target_rate: int) -> Waveform:
    """Polyphase windowed-sinc resampling (Kaiser beta 8)."""
    if not isinstance(target_rate, (int, np.integer)) or target_rate <= 0:
        raise ValueError("target_rate must be a positive integer")
    if target_rate == w.sample_rate:
        return Waveform(w.samples.copy(), w.sample_rate)
    ratio = Fraction(int(target_rate), int(w.sample_rate))
    out = scipy.signal.resample_poly(
        w.samples, ratio.numerator, ratio.denominator, window=("kaiser", 8.0))
    return Waveform(out, int(target_rate))


def trim_silence(w: Waveform, threshold_db: float = -40.0,
                 frame_ms: float = 25.0) -> Waveform:
    """Drop leading/trailing frames whose peak is below threshold_db re max.

    Trimming is frame-granular: everything from the first non-silent frame
    to the end of the last one survives, so no frame above threshold is
    ever removed.
    """
    if threshold_db >= 0:
        raise ValueError("threshold_db must be negative (relative to peak)")
    x = w.samples
    peak = np.max(np.abs(x)) if x.size else 0.0
    if peak == 0.0:
        raise AllSilentError("clip has no signal above the trim threshold")
    frame = max(1, int(round(w.sample_rate * frame_ms / 1000.0)))
    n_frames = (x.size + frame - 1) // frame
    gate = peak * 10.0 ** (threshold_db / 20.0)
    loud = [np.max(np.abs(x[i * frame:(i + 1) * frame])) >= gate
            for i in range(n_frames)]
    if not any(loud):
        raise AllSilentError("clip has no frame above the trim threshold")
    first = loud.index(True)
    last = n_frames - 1 - loud[::-1].index(True)
    out = x[first * frame:min((last + 1) * frame, x.size)]
    return Waveform(out.copy(), w.sample_rate)


def _hann_periodic(n: int) -> np.ndarray:
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def stft(x: np.ndarray, fft_size: int, hop_size: int, window_size: int) -> np.ndarray:
    """Time-major complex STFT, no centering: T = 1 + (len - window) // hop."""
    x = np.asarray(x, dtype=np.float64)
    if x.size < window_size:
        raise ValueError(
            f"signal of {x.size} samples is shorter than the {window_size}-sample window")
    t = 1 + (x.size - window_size) // hop_size
    win = _hann_periodic(window_size)
    frames = np.lib.stride_tricks.sliding_window_view(x, window_size)[::hop_size][:t]
    return np.fft.rfft(frames * win, n=fft_size, axis=1)


# Near both ends the window-square sum is only a window tail (down to
# ~1e-10 of its peak), and dividing by it there lifts the edge samples far
# above the body.  Flooring it at this fraction of its peak bounds that gain.
_ISTFT_DEN_FLOOR = 0.1


def istft(spec: np.ndarray, fft_size: int, hop_size: int, window_size: int,
          length: int | None = None) -> np.ndarray:
    """Least-squares inverse of stft: windowed overlap-add over sum of squares."""
    spec = np.asarray(spec)
    t = spec.shape[0]
    win = _hann_periodic(window_size)
    frames = np.fft.irfft(spec, n=fft_size, axis=1)[:, :window_size]
    total = (t - 1) * hop_size + window_size
    num = np.zeros(total)
    den = np.zeros(total)
    for i in range(t):
        lo = i * hop_size
        num[lo:lo + window_size] += frames[i] * win
        den[lo:lo + window_size] += win * win
    out = num / np.maximum(den, max(_ISTFT_DEN_FLOOR * den.max(), 1e-12))
    if length is not None:
        if length <= total:
            out = out[:length]
        else:
            out = np.pad(out, (0, length - total))
    return out


def reduce_noise(w: Waveform, cfg: DspConfig) -> Waveform:
    """Stationary spectral gating.

    Per-bin noise floor from the lowest-energy fraction of frames, gate at
    floor + noise_gate_db, soft mask smoothed over time and frequency. The
    floor is median-filtered across frequency so a clean narrowband tone
    does not raise its own gate; signals shorter than one window pass
    through.
    """
    x = w.samples
    if x.size < cfg.window_size or not np.any(x):
        return Waveform(x.copy(), w.sample_rate)

    pad = cfg.window_size
    xp = np.pad(x, (pad, pad), mode="reflect")
    spec = stft(xp, cfg.fft_size, cfg.hop_size, cfg.window_size)
    mag = np.abs(spec)

    energies = np.sum(mag * mag, axis=1)
    n_floor = max(1, int(np.ceil(cfg.noise_floor_quantile * mag.shape[0])))
    quiet = np.argsort(energies, kind="stable")[:n_floor]
    floor = mag[quiet].mean(axis=0)
    floor = scipy.ndimage.median_filter(floor, size=25, mode="nearest")
    floor = np.maximum(floor, 1e-10 * mag.max() + 1e-12)

    gate = floor * 10.0 ** (cfg.noise_gate_db / 20.0)
    raw = mag > gate[None, :]
    # drop bins that pass the gate for fewer than 3 consecutive frames;
    # stationary signal content forms longer runs
    raw = scipy.ndimage.binary_opening(
        raw, structure=np.ones((3, 1), dtype=bool)).astype(np.float64)
    smooth = scipy.ndimage.uniform_filter(raw, size=(3, 5), mode="nearest")
    atten = 10.0 ** (cfg.noise_attenuation_db / 20.0)
    gain = np.clip(np.maximum(raw, smooth), atten, 1.0)

    out = istft(spec * gain, cfg.fft_size, cfg.hop_size, cfg.window_size,
                length=xp.size)
    return Waveform(out[pad:pad + x.size].copy(), w.sample_rate)
