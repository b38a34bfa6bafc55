"""Mel-spectrogram and mel-cepstrum extraction, inversion, and synthesis."""

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.fft
import scipy.sparse

from .audio import Waveform, _frame_count, _StftPlan, _work, istft, stft
from .config import DspConfig

LOG_FLOOR = 1e-10


@dataclass
class MelSpectrogram:
    frames: np.ndarray
    frame_shift: float
    sample_rate: int

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float64)
        if self.frames.ndim != 2:
            raise ValueError("mel frames must be a T x M matrix")
        if np.any(self.frames < 0):
            raise ValueError("mel energies must be non-negative")

    @property
    def n_mels(self):
        return self.frames.shape[1]


@dataclass
class MelCepstrogram:
    frames: np.ndarray
    frame_shift: float
    sample_rate: int

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float64)
        if self.frames.ndim != 2:
            raise ValueError("cepstral frames must be a T x C matrix")
        if not np.all(np.isfinite(self.frames)):
            raise ValueError("cepstral frames must be finite")


def hertz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_filterbank(cfg: DspConfig) -> scipy.sparse.csr_array:
    """Triangular filters on the mel scale, (n_mels, fft_size//2 + 1).

    Filter m rises from mel point m-1 to a peak of 1 at point m and falls
    to zero at point m+1. The bank is sparse, cached per analysis setting
    and read-only.
    """
    return _mel_banks(cfg.sample_rate, cfg.fft_size, cfg.n_mels,
                      cfg.fmin, cfg.fmax)[0]


@functools.lru_cache(maxsize=16)
def _mel_banks(sample_rate, fft_size, n_mels, fmin, fmax):
    """The filters and their bin-normalized weights, as read-only CSR arrays.

    Keyed on the values: DspConfig is mutable and cannot be a key. Each
    bin lies under at most two adjacent filters, so both banks hold about
    two entries per bin, and products with them run in scipy's sparse
    loop, with no BLAS call: their bytes do not depend on the BLAS thread
    count, and concurrent syntheses do not contend for BLAS threads.
    """
    n_bins = fft_size // 2 + 1
    bin_mels = hertz_to_mel(np.arange(n_bins) * sample_rate / fft_size)
    points = np.linspace(hertz_to_mel(fmin), hertz_to_mel(fmax), n_mels + 2)
    lo, mid, hi = points[:-2, None], points[1:-1, None], points[2:, None]
    rising = (bin_mels - lo) / (mid - lo)
    falling = (hi - bin_mels) / (hi - mid)
    fb = np.clip(np.minimum(rising, falling), 0.0, None)
    weights = fb / np.maximum(fb.sum(axis=0), 1e-12)
    banks = scipy.sparse.csr_array(fb), scipy.sparse.csr_array(weights)
    for bank in banks:
        for a in (bank.data, bank.indices, bank.indptr):
            a.flags.writeable = False
    return banks


def mel_spectrogram(w: Waveform, cfg: DspConfig) -> MelSpectrogram:
    """Mel-weighted STFT magnitudes, time-major, of a waveform at
    ``cfg.sample_rate``, for which the filterbank is laid out. The STFT and
    its magnitudes live in this thread's work arrays, as in ``reduce_noise``."""
    if w.sample_rate != cfg.sample_rate:
        raise ValueError(
            f"waveform at {w.sample_rate} Hz, but [dsp] sample_rate is "
            f"{cfg.sample_rate} Hz; resample first")
    if w.samples.size < cfg.window_size:
        raise ValueError(
            f"waveform of {w.samples.size} samples is too short for one "
            f"{cfg.window_size}-sample analysis frame")
    plan = _StftPlan(_frame_count(w.samples.size, cfg.hop_size, cfg.window_size), cfg)
    spec = stft(w.samples, plan)
    mag = np.abs(spec, out=_work("mag", spec.shape))
    mel = mag @ mel_filterbank(cfg).T
    return MelSpectrogram(mel, cfg.hop_size / w.sample_rate, w.sample_rate)


def cepstral_bound(n_mels: int) -> float:
    """Largest |coefficient| that ``mel_cepstrum`` of ``n_mels`` bands yields.

    The orthonormal DCT-II has basis entries of at most sqrt(2 / n_mels),
    so a coefficient is at most sqrt(2 * n_mels) times the largest |log
    mel energy|. Below, energies are floored at LOG_FLOOR. Above, PCM
    samples lie in [-1, 1], so an energy stays under window_size times
    the bin count, whose log is below |ln LOG_FLOOR| for any fft_size up
    to 2**16. About 291 at 80 bands.
    """
    return math.sqrt(2 * n_mels) * abs(math.log(LOG_FLOOR))


def mel_cepstrum(ms: MelSpectrogram, order: int) -> MelCepstrogram:
    """Orthonormal DCT-II of floored log mel energies, kept to order+1."""
    if order + 1 > ms.n_mels:
        raise ValueError(f"order {order} needs more than {ms.n_mels} mel bands")
    logmel = np.log(np.maximum(ms.frames, LOG_FLOOR))
    coeffs = scipy.fft.dct(logmel, type=2, norm="ortho", axis=1)[:, :order + 1]
    return MelCepstrogram(coeffs, ms.frame_shift, ms.sample_rate)


def invert_mel_cepstrum(mc: MelCepstrogram, n_mels: int) -> MelSpectrogram:
    """Zero-pad to n_mels, inverse DCT, exponentiate. Exact at full order."""
    c = mc.frames.shape[1]
    if c > n_mels:
        raise ValueError(f"{c} cepstral coefficients exceed {n_mels} mel bands")
    padded = np.pad(mc.frames, ((0, 0), (0, n_mels - c)))
    logmel = scipy.fft.idct(padded, type=2, norm="ortho", axis=1)
    return MelSpectrogram(np.exp(logmel), mc.frame_shift, mc.sample_rate)


def mel_to_linear(ms: MelSpectrogram, cfg: DspConfig) -> np.ndarray:
    """Approximate linear magnitudes via the weight-normalized transpose.

    That is the frames times ``fb / fb.sum(axis=0)``, non-negative as
    both factors are, as a sparse product. It is returned in C order,
    which keeps the Griffin-Lim loop that reads it fast.
    """
    weights = _mel_banks(cfg.sample_rate, cfg.fft_size, cfg.n_mels,
                         cfg.fmin, cfg.fmax)[1]
    return np.ascontiguousarray(ms.frames @ weights)


def spectral_convergence(mag: np.ndarray, target: np.ndarray) -> float:
    denom = np.linalg.norm(target)
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(mag - target) / denom)


def _phase_start(target: np.ndarray, cfg: DspConfig, out: np.ndarray) -> np.ndarray:
    """``target * exp(1j * phi)`` in ``out``, phi estimated from |target|.

    Phase-gradient integration (PGHI; Průša, Balazs & Søndergaard, IEEE/ACM
    TASLP 2017) from each frame's peak bin instead of a heap, for a Hann
    window of L samples as a Gaussian of lambda = 0.25645 L**2. With s the
    log of ``target`` floored at 1e-10 of its peak, M = fft_size and a =
    hop_size, bin m advances by a (2 pi m / M + (M / lambda) ds/dm) per hop,
    summed along time (trapezoid rule). Each frame keeps that phase at its
    peak bin and steps by -(lambda / M) (ds/dn) / a per bin outward from it
    (0 for one frame). Less pi m L / M, phi is at the frame start, as in
    ``stft``, not the window centre.
    """
    t, n_bins = target.shape
    size, hop, lam = cfg.fft_size, cfg.hop_size, 0.25645 * cfg.window_size ** 2
    rows, bins, peak = np.arange(t), np.arange(n_bins), np.argmax(target, axis=1)
    # s lives in out.real until the phase overwrites it
    s = np.log(np.maximum(target, 1e-10 * target.max(), out=out.real), out=out.real)

    def integral(d, axis):  # trapezoid rule from 0 at index 0; overwrites d
        d *= 0.5
        return 2.0 * np.cumsum(d, axis=axis) - d - d.take([0], axis=axis)

    advance = np.gradient(s, axis=1)
    advance *= hop * size / lam
    advance += (2.0 * np.pi * hop / size) * bins
    anchor = integral(advance, 0)[rows, peak]
    del advance
    step = np.gradient(s, axis=0) if t > 1 else np.zeros_like(s)
    step *= -lam / (size * hop)
    phi = integral(step, 1)
    phi += (anchor - phi[rows, peak])[:, None]
    phi -= (np.pi * cfg.window_size / size) * bins
    np.cos(phi, out=out.real)
    np.sin(phi, out=out.imag)
    out *= target
    return out


def griffin_lim(ms: MelSpectrogram, cfg: DspConfig, iterations: int,
                return_convergence: bool = False, momentum: float = 0.0):
    """Iterative phase reconstruction from a mel spectrogram.

    Phase-gradient start (``_phase_start``), then per iteration one Fast
    Griffin-Lim update (Perraudin, Balazs & Søndergaard, 2013) with alpha =
    ``momentum``: the magnitude is replaced in ``estimate - alpha / (1 +
    alpha) * prev``, ``prev`` being the previous iteration's estimate (zero
    before the first). Alpha 0 is plain Griffin-Lim, whose
    spectral-convergence error is non-increasing; otherwise the error may
    rise between iterations. Returns the waveform, or (waveform,
    per-iteration errors of the estimate) when asked. Every spectral array
    is this thread's work buffer (``_work``), as in the front end, reused by
    the next call; only the returned samples are fresh. |estimate| is
    computed only for the errors, and without them the last iteration
    ends at its istft, the waveform returned.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    # the filterbank and the start's lambda and bin spacing come from cfg
    if (ms.n_mels, ms.sample_rate) != (cfg.n_mels, cfg.sample_rate):
        raise ValueError(
            f"mel spectrogram of {ms.n_mels} bands at {ms.sample_rate} Hz, but "
            f"[dsp] n_mels is {cfg.n_mels} and sample_rate {cfg.sample_rate} Hz")
    target = mel_to_linear(ms, cfg)
    if not np.any(target):
        t = target.shape[0]
        length = (t - 1) * cfg.hop_size + cfg.window_size if t else 0
        silent = Waveform(np.zeros(length), cfg.sample_rate)
        return (silent, [0.0] * iterations) if return_convergence else silent

    plan = _StftPlan(target.shape[0], cfg)
    spec = _phase_start(target, cfg, plan.spec)
    mag = _work("mag", target.shape)
    decay = momentum / (1.0 + momentum)
    prev = _work("prev", spec.shape, spec.dtype)  # -decay times the previous estimate
    prev.fill(0.0)
    accel = _work("accel", spec.shape, spec.dtype)
    errors = []
    for i in range(iterations):
        x = istft(spec, plan)
        if i == iterations - 1 and not return_convergence:
            break
        estimate = stft(x, plan)  # plan.spec, i.e. spec
        if return_convergence:
            errors.append(spectral_convergence(np.abs(estimate, out=mag), target))
        np.add(estimate, prev, out=accel)
        np.multiply(estimate, -decay, out=prev)
        # spec = target * accel / max(|accel|, 1e-12), in place
        np.abs(accel, out=mag)
        np.maximum(mag, 1e-12, out=mag)
        np.multiply(target, accel, out=spec)
        np.divide(spec, mag, out=spec)
    out = Waveform(x.copy(), cfg.sample_rate)
    return (out, errors) if return_convergence else out
