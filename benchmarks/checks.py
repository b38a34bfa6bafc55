"""The benchmark's own checks on what the pipeline commands wrote.

The file readers and the spectral reference here are written against the
file formats and the analysis settings, not against pathovc's functions,
so a change in pathovc cannot make its own output pass.  Each check
returns the number of operations (clips, steps, utterances) whose output
failed and appends one message per failure.
"""

from __future__ import annotations

import csv
import json
import math
import struct
import wave
from pathlib import Path

import numpy as np
import scipy.fft

MCEP_MAGIC = b"MCEP1"
MCEP_HEADER = len(MCEP_MAGIC) + 8


def read_mcep(path: Path) -> np.ndarray:
    blob = path.read_bytes()
    if blob[:len(MCEP_MAGIC)] != MCEP_MAGIC or len(blob) < MCEP_HEADER:
        raise ValueError("not an MCEP1 file")
    t, c = struct.unpack_from("<II", blob, len(MCEP_MAGIC))
    if len(blob) != MCEP_HEADER + 4 * t * c:
        raise ValueError("payload size does not match the header")
    return np.frombuffer(blob, dtype="<f4", offset=MCEP_HEADER).reshape(t, c)


def read_wav(path: Path):
    with wave.open(str(path), "rb") as f:
        if f.getnchannels() != 1 or f.getsampwidth() != 2:
            raise ValueError("not mono PCM16")
        rate = f.getframerate()
        pcm = np.frombuffer(f.readframes(f.getnframes()), dtype="<i2")
    return pcm.astype(np.float64) / 32768.0, rate


def utterance_keys(manifest: Path) -> list:
    keys = []
    for line in manifest.read_text(encoding="utf-8").splitlines()[1:]:
        sid, _, _, _, word, block, _ = line.split(",")
        if word:
            keys.append(f"{sid}/{word}/{block}")
    return keys


def check_preprocess(corpus, feats: Path, width: int, errors: list) -> int:
    """Every non-silent clip written and finite, every silent clip skipped."""
    index = json.loads((feats / "index.json").read_text(encoding="utf-8"))
    skipped = set((feats / "skipped.txt").read_text(encoding="utf-8").split())
    failed = 0
    if (feats / "errors.txt").read_text(encoding="utf-8").strip():
        errors.append("preprocess: errors.txt is not empty")
        failed += 1
    for key in utterance_keys(corpus.manifest):
        if key in corpus.silent_keys:
            ok = key in skipped and key not in index
        else:
            ok = key in index and key not in skipped
            if ok:
                try:
                    frames = read_mcep(feats / index[key]["feature_path"])
                    ok = (frames.shape == (index[key]["frames"], width)
                          and bool(np.all(np.isfinite(frames))))
                except (OSError, ValueError):
                    ok = False
        if not ok:
            failed += 1
            errors.append(f"preprocess: {key} missing, malformed or not skipped")
    return failed


def recon_tail(report: Path, steps: int) -> float:
    """Mean reconstruction loss over the last tenth of the steps."""
    with open(report, newline="", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    tail = rows[-math.ceil(steps / 10):]
    return float(np.mean([float(r["reconstruction"]) for r in tail]))


# Training must pull the reconstruction loss of the second half of the
# steps below this share of the first step's, which the untrained model
# scores.  Trained runs of 4 steps read 0.75-0.83 here and of 8 steps
# 0.71; with `Adam.step` made a no-op they read 0.93-1.05.
LOSS_FALL = 0.9


def check_train(model_dir: Path, steps: int, load_checkpoint, errors: list) -> int:
    """Checkpoint loads, one finite report row per step, the loss falls."""
    try:
        load_checkpoint(model_dir / "model.hvqv")
        with open(model_dir / "training_report.csv", newline="",
                  encoding="utf-8") as f:
            rows = list(csv.DictReader(f))
    except (OSError, ValueError) as exc:
        errors.append(f"train: {exc}")
        return steps
    if len(rows) != steps:
        errors.append(f"train: report has {len(rows)} rows for {steps} steps")
        return steps
    bad = sum(1 for r in rows
              if not all(math.isfinite(float(v)) for v in r.values()))
    if bad:
        errors.append(f"train: {bad} report row(s) not finite")
        return bad
    recon = [float(r["reconstruction"]) for r in rows]
    late = float(np.mean(recon[steps // 2:]))
    if not late <= LOSS_FALL * recon[0]:
        errors.append(f"train: reconstruction loss went from {recon[0]:.4g} "
                      f"to {late:.4g}, not below {LOSS_FALL} of it")
        return steps
    return 0


def check_convert(sources: dict, out: Path, cfg, wav: bool, errors: list,
                  convergence: list) -> int:
    """Converted features of the source's shape, wavs of the implied length.

    ``sources`` maps each output stem to its source feature file.  For
    every wav the spectral convergence against the converted cepstrum is
    appended to ``convergence``.
    """
    failed = 0
    for stem, source in sources.items():
        try:
            src = read_mcep(source)
            conv = read_mcep(out / f"{stem}.mcep")
            ok = conv.shape == src.shape and bool(np.all(np.isfinite(conv)))
            if ok and wav:
                x, rate = read_wav(out / f"{stem}.wav")
                length = (src.shape[0] - 1) * cfg.hop_size + cfg.window_size
                ok = rate == cfg.sample_rate and x.size == length
                if ok:
                    convergence.append(spectral_convergence(x, conv, cfg))
        except (OSError, ValueError):
            ok = False
        if not ok:
            failed += 1
            errors.append(f"convert: {stem} missing or malformed")
    return failed


def _mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def linear_magnitude(cep: np.ndarray, cfg) -> np.ndarray:
    """|STFT| implied by a mel cepstrum: inverse DCT, exp, mel-to-linear.

    The linear bins take the mel energies through the triangular
    filterbank's transpose, each bin weighted by its column sum.
    """
    padded = np.pad(cep.astype(np.float64), ((0, 0), (0, cfg.n_mels - cep.shape[1])))
    mel = np.exp(scipy.fft.idct(padded, type=2, norm="ortho", axis=1))
    bins = _mel(np.arange(cfg.fft_size // 2 + 1) * cfg.sample_rate / cfg.fft_size)
    points = np.linspace(_mel(cfg.fmin), _mel(cfg.fmax), cfg.n_mels + 2)
    lo, mid, hi = points[:-2, None], points[1:-1, None], points[2:, None]
    fb = np.clip(np.minimum((bins - lo) / (mid - lo), (hi - bins) / (hi - mid)),
                 0.0, None)
    return mel @ (fb / np.maximum(fb.sum(axis=0, keepdims=True), 1e-12))


def spectral_convergence(x: np.ndarray, cep: np.ndarray, cfg) -> float:
    """||g|STFT(x)| - M|| / ||M|| for the least-squares gain g.

    The wav is peak-normalized and quantized, so its scale is fitted
    before the comparison.
    """
    target = linear_magnitude(cep, cfg)
    n = cfg.window_size
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)
    frames = np.lib.stride_tricks.sliding_window_view(x, n)[::cfg.hop_size]
    mag = np.abs(np.fft.rfft(frames * window, n=cfg.fft_size, axis=1))
    gain = np.sum(mag * target) / max(np.sum(mag * mag), 1e-300)
    return float(np.linalg.norm(gain * mag - target) / np.linalg.norm(target))
