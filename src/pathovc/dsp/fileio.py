"""WAV (PCM16 mono) and MCEP1 feature-file input/output."""

import os
import struct
import wave

import numpy as np

from ..atomic import atomic_open
from .audio import Waveform

MCEP_MAGIC = b"MCEP1"


class FeatureFormatError(ValueError):
    """Raised when a feature file is not valid MCEP1."""


def read_wav(path) -> Waveform:
    """Read a mono PCM16 wav; a bad header raises ValueError naming ``path``."""
    try:
        f = wave.open(str(path), "rb")  # reads the header, closes on failure
    except wave.Error as exc:
        raise ValueError(f"{path}: not a readable wav file: {exc}") from None
    except EOFError:  # wave's has no message
        cause = "empty file" if os.path.getsize(path) == 0 else "file ends inside its header"
        raise ValueError(f"{path}: not a readable wav file: {cause}") from None
    with f:
        if f.getnchannels() != 1:
            raise ValueError(f"{path}: expected mono audio, got {f.getnchannels()} channels")
        if f.getsampwidth() != 2:
            raise ValueError(f"{path}: expected 16-bit PCM, got {8 * f.getsampwidth()}-bit")
        rate = f.getframerate()
        # the resampling filter grows with the rate: gigabytes at 2**31 Hz
        if not 0 < rate <= 384000:
            raise ValueError(f"{path}: sample rate {rate} Hz outside 1-384000")
        raw = f.readframes(f.getnframes())
    if len(raw) % 2:
        raise ValueError(f"{path}: data chunk ends inside a sample")
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    return Waveform(samples, rate)


def write_wav(path, w: Waveform) -> None:
    pcm = np.clip(np.round(w.samples * 32768.0), -32768, 32767).astype("<i2")
    with atomic_open(path, "wb") as fh, wave.open(fh, "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(2)
        f.setframerate(w.sample_rate)
        f.writeframes(pcm.tobytes())


def write_mcep(path, frames: np.ndarray) -> None:
    frames = np.ascontiguousarray(frames, dtype="<f4")
    if frames.ndim != 2:
        raise ValueError("MCEP1 frames must be a T x C matrix")
    if not np.all(np.isfinite(frames)):
        raise FeatureFormatError(f"{path}: frames hold NaN or Inf values")
    t, c = frames.shape
    with atomic_open(path, "wb") as f:
        f.write(MCEP_MAGIC)
        f.write(struct.pack("<II", t, c))
        f.write(frames.tobytes())


def read_mcep(path) -> np.ndarray:
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < len(MCEP_MAGIC) + 8:
        raise FeatureFormatError(f"{path}: file too short for an MCEP1 header")
    if blob[:len(MCEP_MAGIC)] != MCEP_MAGIC:
        raise FeatureFormatError(f"{path}: bad magic, not an MCEP1 file")
    t, c = struct.unpack_from("<II", blob, len(MCEP_MAGIC))
    if t == 0 or c == 0:
        raise FeatureFormatError(f"{path}: header declares zero {'coefficients' if t else 'frames'}")
    body = blob[len(MCEP_MAGIC) + 8:]
    expected = 4 * t * c
    if len(body) != expected:
        raise FeatureFormatError(
            f"{path}: payload is {len(body)} bytes, header implies {expected}")
    frames = np.frombuffer(body, dtype="<f4").reshape(t, c).copy()
    if not np.all(np.isfinite(frames)):
        raise FeatureFormatError(f"{path}: payload holds NaN or Inf values")
    return frames
