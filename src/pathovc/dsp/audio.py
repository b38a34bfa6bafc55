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
    gate = peak * 10.0 ** (threshold_db / 20.0)
    # per-frame peaks; the last frame may be short
    loud = np.maximum.reduceat(np.abs(x), np.arange(0, x.size, frame)) >= gate
    if not loud.any():
        raise AllSilentError("clip has no frame above the trim threshold")
    first = int(np.argmax(loud))
    last = loud.size - 1 - int(np.argmax(loud[::-1]))
    out = x[first * frame:min((last + 1) * frame, x.size)]
    return Waveform(out.copy(), w.sample_rate)


def _hann_periodic(n: int) -> np.ndarray:
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


# Near both ends the window-square sum is only a window tail (down to
# ~1e-10 of its peak), and dividing by it there lifts the edge samples far
# above the body.  Flooring it at this fraction of its peak bounds that gain.
_ISTFT_DEN_FLOOR = 0.1


class _StftPlan:
    """Window, overlap-add denominator and work buffers for ``t`` frames.

    One plan serves any number of ``stft`` and ``istft`` calls of that
    frame count and those sizes. The arrays they return are views of the
    plan's buffers (``spec`` and ``signal``), so the next call with the same
    plan overwrites them: copy what must outlive it. Without a ``plan=``
    argument each call builds its own, and its result is a fresh array.
    """

    def __init__(self, t: int, fft_size: int, hop_size: int, window_size: int):
        self.sizes = (t, fft_size, hop_size, window_size)
        self.window = _hann_periodic(window_size)
        self.length = (t - 1) * hop_size + window_size
        self._den = None
        self.frames = np.empty((t, fft_size))
        self.windowed = np.empty((t, window_size))
        self.spec = np.empty((t, fft_size // 2 + 1), dtype=np.complex128)
        # t + ceil(window / hop) - 1 hop blocks; the first `length` samples
        # are the signal
        self.signal = np.empty((t - 1 - (-window_size // hop_size)) * hop_size)

    def overlap_add(self, frames: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Zero ``out``, add hop-shifted ``frames``; its first ``length`` samples.

        Frame i, column j*hop + c lands in row i + j of ``out`` seen as
        (t + k - 1, hop) blocks, so k strided adds do the work of t frame
        adds. Running j downwards adds each sample's frames in increasing
        frame order, as a per-frame loop does, so the sums are the same.
        """
        hop = self.sizes[2]
        t, width = frames.shape
        rows = out.reshape(-1, hop)
        rows.fill(0.0)
        for j in range((width - 1) // hop, -1, -1):
            block = frames[:, j * hop:(j + 1) * hop]
            rows[j:j + t, :block.shape[1]] += block
        return out[:self.length]

    @property
    def den(self) -> np.ndarray:
        """Floored window-square sum that ``istft`` divides by; built once."""
        if self._den is None:
            t, _, _, window_size = self.sizes
            squares = np.broadcast_to(self.window * self.window, (t, window_size))
            den = self.overlap_add(squares, np.empty_like(self.signal))
            self._den = np.maximum(den, max(_ISTFT_DEN_FLOOR * den.max(), 1e-12))
        return self._den


def stft(x: np.ndarray, fft_size: int, hop_size: int, window_size: int,
         plan: _StftPlan | None = None) -> np.ndarray:
    """Time-major complex STFT, no centering: T = 1 + (len - window) // hop.

    With ``plan``, the result is the plan's ``spec`` buffer.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.size < window_size:
        raise ValueError(
            f"signal of {x.size} samples is shorter than the {window_size}-sample window")
    t = 1 + (x.size - window_size) // hop_size
    if plan is None:
        plan = _StftPlan(t, fft_size, hop_size, window_size)
    frames = np.lib.stride_tricks.sliding_window_view(x, window_size)[::hop_size][:t]
    np.multiply(frames, plan.window, out=plan.windowed)
    return np.fft.rfft(plan.windowed, n=fft_size, axis=1, out=plan.spec)


def istft(spec: np.ndarray, fft_size: int, hop_size: int, window_size: int,
          plan: _StftPlan | None = None) -> np.ndarray:
    """Least-squares inverse of stft: windowed overlap-add over sum of squares.

    For T frames of ``spec`` the result has (T - 1) * hop_size +
    window_size samples.  With ``plan`` it is a view of the plan's
    ``signal`` buffer.
    """
    spec = np.asarray(spec)
    if plan is None:
        plan = _StftPlan(spec.shape[0], fft_size, hop_size, window_size)
    np.fft.irfft(spec, n=fft_size, axis=1, out=plan.frames)
    np.multiply(plan.frames[:, :window_size], plan.window, out=plan.windowed)
    out = plan.overlap_add(plan.windowed, plan.signal)
    np.divide(out, plan.den, out=out)
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

    # the inverse has len(xp) - (len(xp) - window) % hop samples; with
    # pad = window >= hop that is more than pad + len(x), so the slice
    # below always lies inside it
    out = istft(spec * gain, cfg.fft_size, cfg.hop_size, cfg.window_size)
    return Waveform(out[pad:pad + x.size].copy(), w.sample_rate)
