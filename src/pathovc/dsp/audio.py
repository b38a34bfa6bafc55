"""Waveform-level operations: normalize, resample, trim, denoise, STFT."""

import functools
import math
import threading
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
    """Polyphase windowed-sinc resampling (Kaiser beta 8).

    The low-pass filter is the one ``resample_poly`` designs for
    ``window=("kaiser", 8.0)``, built once per reduced up/down ratio and
    cached read-only (``_resampling_filter``).
    """
    if not isinstance(target_rate, (int, np.integer)) or target_rate <= 0:
        raise ValueError("target_rate must be a positive integer")
    if target_rate == w.sample_rate:
        return Waveform(w.samples.copy(), w.sample_rate)
    ratio = Fraction(int(target_rate), int(w.sample_rate))
    up, down = ratio.numerator, ratio.denominator
    out = scipy.signal.resample_poly(
        w.samples, up, down, window=_resampling_filter(up, down))
    return Waveform(out, int(target_rate))


@functools.lru_cache(maxsize=16)
def _resampling_filter(up: int, down: int) -> np.ndarray:
    # resample_poly's own design for a window tuple: cutoff at the lower
    # Nyquist rate, ten taps per phase either side; it copies an array
    # window before scaling it by ``up``, so the cached one stays intact
    max_rate = max(up, down)
    h = scipy.signal.firwin(20 * max_rate + 1, 1.0 / max_rate,
                            window=("kaiser", 8.0))
    h.flags.writeable = False
    return h


def trim_silence(w: Waveform, cfg: DspConfig) -> Waveform:
    """Drop leading/trailing ``cfg.trim_frame_ms`` frames whose peak is
    below ``cfg.trim_threshold_db`` (negative, see ``DspConfig``) re max.

    Trimming is frame-granular: everything from the first non-silent frame
    to the end of the last one survives, so no frame above threshold is
    ever removed.
    """
    x = w.samples
    peak = np.max(np.abs(x)) if x.size else 0.0
    if peak == 0.0:
        raise AllSilentError("clip has no signal above the trim threshold")
    # at most the clip: one frame then spans it, and a huge frame_ms
    # cannot overflow the conversion to int
    frame = max(1, int(round(min(w.sample_rate * cfg.trim_frame_ms / 1000.0, x.size))))
    gate = peak * 10.0 ** (cfg.trim_threshold_db / 20.0)
    # per-frame peaks; the last frame may be short
    # the gate is below the peak, so the peak's frame is always loud
    loud = np.maximum.reduceat(np.abs(x), np.arange(0, x.size, frame)) >= gate
    first = int(np.argmax(loud))
    last = loud.size - 1 - int(np.argmax(loud[::-1]))
    out = x[first * frame:min((last + 1) * frame, x.size)]
    return Waveform(out.copy(), w.sample_rate)


def _hann_periodic(n: int) -> np.ndarray:
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


_thread_buffers = threading.local()


def _work(name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
    """This thread's uninitialized work array ``name`` of ``shape``.

    A C-contiguous view of a grow-only buffer kept per thread, so the front
    end and Griffin-Lim reuse their memory from call to call instead of
    faulting in fresh pages. The view stays valid until this thread asks
    for ``name`` again.
    """
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    buf = vars(_thread_buffers).get(name)
    if buf is None or buf.size < nbytes:
        buf = vars(_thread_buffers)[name] = np.empty(nbytes, dtype=np.uint8)
    return buf[:nbytes].view(dtype).reshape(shape)


# Near both ends the window-square sum is only a window tail (down to
# ~1e-10 of its peak), and dividing by it there lifts the edge samples far
# above the body.  Flooring it at this fraction of its peak bounds that gain.
_ISTFT_DEN_FLOOR = 0.1


class _StftPlan:
    """Window, overlap-add denominator and work buffers for ``t`` frames of
    ``cfg``'s STFT.

    One plan serves any number of ``stft`` and ``istft`` calls; both window
    in the first ``window_size`` columns of its one frame buffer,
    ``frames``. Its buffers (``frames``, ``spec``, ``signal`` and the
    denominator) are this thread's ``_work`` arrays, so what ``stft`` and
    ``istft`` return is overwritten by the next call with this plan, and by
    any plan this thread builds next: copy what must outlive it.
    """

    def __init__(self, t: int, cfg: DspConfig):
        self.t, self.fft_size = t, cfg.fft_size
        self.hop_size, self.window_size = cfg.hop_size, cfg.window_size
        self.window = _hann_periodic(self.window_size)
        self.length = (t - 1) * self.hop_size + self.window_size
        self._den = None
        self.frames = _work("frames", (t, self.fft_size))
        self.spec = _work("spec", (t, self.fft_size // 2 + 1), np.complex128)
        # t + ceil(window / hop) - 1 hop blocks; the first `length` samples
        # are the signal
        blocks = t - 1 - (-self.window_size // self.hop_size)
        self.signal = _work("signal", (blocks * self.hop_size,))

    def overlap_add(self, frames: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Zero ``out``, add hop-shifted ``frames``; its first ``length`` samples.

        Frame i, column j*hop + c lands in row i + j of ``out`` seen as
        (t + k - 1, hop) blocks, so k strided adds do the work of t frame
        adds. Running j downwards adds each sample's frames in increasing
        frame order, as a per-frame loop does, so the sums are the same.
        """
        hop = self.hop_size
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
            squares = np.broadcast_to(self.window * self.window,
                                      (self.t, self.window_size))
            den = self.overlap_add(squares, _work("den", self.signal.shape))
            self._den = np.maximum(den, max(_ISTFT_DEN_FLOOR * den.max(), 1e-12),
                                   out=den)
        return self._den


def _frame_count(n: int, hop_size: int, window_size: int) -> int:
    return 1 + (n - window_size) // hop_size


def stft(x: np.ndarray, plan: _StftPlan) -> np.ndarray:
    """Time-major complex STFT of the plan's ``t`` frames of float64 ``x``,
    no centering (T = 1 + (len - window) // hop), in the plan's ``spec``."""
    frames = np.lib.stride_tricks.sliding_window_view(
        x, plan.window_size)[::plan.hop_size][:plan.t]
    windowed = np.multiply(frames, plan.window, out=plan.frames[:, :plan.window_size])
    return np.fft.rfft(windowed, n=plan.fft_size, axis=1, out=plan.spec)


def istft(spec: np.ndarray, plan: _StftPlan) -> np.ndarray:
    """Least-squares inverse of stft: windowed overlap-add over sum of squares.

    The result, the plan's ``length`` = (T - 1) * hop_size + window_size
    samples, is a view of its ``signal`` buffer.
    """
    np.fft.irfft(spec, n=plan.fft_size, axis=1, out=plan.frames)
    windowed = plan.frames[:, :plan.window_size]
    windowed *= plan.window
    out = plan.overlap_add(windowed, plan.signal)
    np.divide(out, plan.den, out=out)
    return out


def _open_runs(mask: np.ndarray) -> np.ndarray:
    """Binary opening of ``mask`` along axis 0 by three frames.

    The erosion is shifted ANDs with frames past either end counting as
    False, the dilation shifted ORs; together they keep exactly the runs
    of three or more True frames in each column.
    """
    core = _work("core", mask.shape, bool)
    core[:1] = core[-1:] = False
    np.logical_and(mask[:-2], mask[1:-1], out=core[1:-1])
    core[1:-1] &= mask[2:]
    out = _work("opened", mask.shape, bool)
    np.copyto(out, core)
    out[:-1] |= core[1:]
    out[1:] |= core[:-1]
    return out


def reduce_noise(w: Waveform, cfg: DspConfig) -> Waveform:
    """Stationary spectral gating.

    Per-bin noise floor from the lowest-energy fraction of frames, gate at
    floor + noise_gate_db, soft mask smoothed over time and frequency. The
    floor is median-filtered across frequency so a clean narrowband tone
    does not raise its own gate. A bin opens only where it passes the gate
    for three or more consecutive frames (a binary opening over time,
    ``_open_runs``). One ``_StftPlan`` serves the analysis and the
    resynthesis, and the gain is applied to its spectrum in place. Every
    clip-sized work array is this thread's (``_work``), reused by the next
    clip; only the returned samples are fresh. Signals shorter than one
    window pass through.
    """
    x = w.samples
    if x.size < cfg.window_size or not np.any(x):
        return Waveform(x.copy(), w.sample_rate)

    pad = cfg.window_size
    xp = np.pad(x, (pad, pad), mode="reflect")
    plan = _StftPlan(_frame_count(xp.size, cfg.hop_size, cfg.window_size), cfg)
    spec = stft(xp, plan)
    mag = np.abs(spec, out=_work("mag", spec.shape))

    energies = np.sum(np.multiply(mag, mag, out=_work("squares", mag.shape)), axis=1)
    n_floor = max(1, int(np.ceil(cfg.noise_floor_quantile * mag.shape[0])))
    quiet = np.argsort(energies, kind="stable")[:n_floor]
    floor = mag[quiet].mean(axis=0)
    floor = scipy.ndimage.median_filter(floor, size=25, mode="nearest")
    floor = np.maximum(floor, 1e-10 * mag.max() + 1e-12)

    gate = floor * 10.0 ** (cfg.noise_gate_db / 20.0)
    # stationary signal content forms runs of 3 or more frames
    raw = _open_runs(np.greater(mag, gate[None, :], out=_work("mask", mag.shape, bool)))
    # the filter and the maximum read the bool mask as 0.0 and 1.0
    gain = scipy.ndimage.uniform_filter(raw, size=(3, 5), mode="nearest",
                                        output=_work("gain", mag.shape))
    atten = 10.0 ** (cfg.noise_attenuation_db / 20.0)
    np.clip(np.maximum(raw, gain, out=gain), atten, 1.0, out=gain)

    spec *= gain
    # the inverse has len(xp) - (len(xp) - window) % hop samples; with
    # pad = window >= hop that is more than pad + len(x), so the slice
    # below always lies inside it
    out = istft(spec, plan)
    return Waveform(out[pad:pad + x.size].copy(), w.sample_rate)
