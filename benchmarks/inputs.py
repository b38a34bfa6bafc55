"""Seeded synthetic inputs for the benchmark workloads.

Everything here is a pure function of the workload spec and the seed, so
the same seed writes the same clips, manifest and config.  The clips are
synthetic voiced words: a harmonic source at a per-speaker pitch with a
slow syllable envelope, wrapped in low-level noise before and after the
word, as a close-talking recording of an isolated word would be.  A few
clips are digital silence, which `preprocess` must skip.
"""

from __future__ import annotations

import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# the [training] steps key is the only knob changed from the defaults, so
# the model and the batch (8), crop (64) and coefficient count (40) are
# the ones a user gets
CONFIG_TEMPLATE = "[training]\nsteps = {steps}\n"
MANIFEST_HEADER = "speaker_id,sex,intelligibility_score,band,word_id,block,audio_path"
BLOCKS = ("B1", "B2", "B3")
BAND_CUTS = ((25.0, "very_low"), (50.0, "low"), (75.0, "mid"))


@dataclass(frozen=True)
class Workload:
    """Input shape of one workload.

    Every word is recorded once per block.  Speaker M01 is the source of
    the waveform conversion, so its word count sets how many Griffin-Lim
    syntheses a cycle runs; ``words`` gives the word count of each other
    speaker.  Durations are (shortest, longest) voiced spans in seconds.
    """
    source_words: int
    source_seconds: tuple
    words: tuple
    word_seconds: tuple
    rates: tuple             # sample rates, dealt out in equal shares
    silent: int              # all-zero clips, never on the source speaker
    steps: int               # training steps per `train` pass


@dataclass
class Corpus:
    manifest: Path
    config: Path
    speakers: list
    silent_keys: set
    audio_seconds: float


def _band(score: float) -> str:
    for cut, name in BAND_CUTS:
        if score < cut:
            return name
    return "high"


def _write_pcm16(path: Path, x: np.ndarray, rate: int) -> None:
    pcm = np.clip(np.round(x * 32767.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(2)
        f.setframerate(rate)
        f.writeframes(pcm.tobytes())


def _voiced_word(rng, rate: int, seconds: float, f0: float) -> np.ndarray:
    n = int(seconds * rate)
    t = np.arange(n) / rate
    # vibrato-free but drifting pitch, as in slow effortful speech
    pitch = f0 * (1.0 + 0.08 * np.sin(2 * np.pi * rng.uniform(0.5, 2.0) * t))
    phase = 2 * np.pi * np.cumsum(pitch) / rate
    x = np.zeros(n)
    for h in range(1, 13):
        if h * f0 * 1.1 >= rate / 2:
            break
        formant = np.exp(-((h * f0 - rng.uniform(400, 2600)) / 900.0) ** 2)
        x += (0.3 + formant) / h * np.sin(h * phase + rng.uniform(0, 2 * np.pi))
    syllables = rng.integers(1, 4)
    envelope = np.sin(np.pi * t * syllables / seconds) ** 2
    x *= 0.3 + 0.7 * envelope
    x += 0.01 * rng.standard_normal(n)
    return x / np.max(np.abs(x))


def write_corpus(spec: Workload, seed: int, root: Path) -> Corpus:
    """Write clips, manifest and config for ``spec`` under ``root``."""
    rng = np.random.default_rng(seed)
    wavs = root / "wavs"
    wavs.mkdir(parents=True)
    counts = (spec.source_words,) + tuple(spec.words)
    spans = (spec.source_seconds,) + (spec.word_seconds,) * len(spec.words)
    speakers = [f"M{i + 1:02d}" for i in range(len(counts))]
    lines = [MANIFEST_HEADER]
    utterances = []
    for sid in speakers:
        score = round(float(rng.uniform(5.0, 95.0)), 1)
        lines.append(f"{sid},M,{score},{_band(score)},,,")
    for sid, n_words in zip(speakers, counts):
        for w in range(n_words):
            for block in BLOCKS:
                utterances.append((sid, f"W{w + 1:03d}", block))
    candidates = [i for i, u in enumerate(utterances) if u[0] != speakers[0]]
    silent = set(rng.choice(candidates, size=spec.silent, replace=False).tolist())

    # Durations and rates are dealt from fixed grids and only their order
    # is seeded: every seed then has the same amount of audio per speaker
    # and block and the same resampling mix, so per-clip and per-utterance
    # costs compare across seeds.  Pitch sits on a grid with a small seeded
    # jitter, since the speakers' pitches move the quality guards.
    f0s = np.linspace(100.0, 170.0, len(speakers)) * rng.uniform(0.97, 1.03, len(speakers))
    bodies = {}
    for sid, n_words, (lo, hi) in zip(speakers, counts, spans):
        for block in BLOCKS:
            grid = lo + (hi - lo) * (np.arange(n_words) + 0.5) / n_words
            for w, body in enumerate(rng.permutation(grid)):
                bodies[(sid, f"W{w + 1:03d}", block)] = float(body)
    rates = rng.permutation(np.resize(np.array(spec.rates), len(utterances)))
    audio_seconds = 0.0
    silent_keys = set()
    for i, (sid, word, block) in enumerate(utterances):
        rate = int(rates[i])
        lead, tail = rng.uniform(0.1, 0.3, size=2)
        body = bodies[(sid, word, block)]
        noise = 10.0 ** (rng.uniform(-58.0, -48.0) / 20.0)
        if i in silent:
            x = np.zeros(int((lead + body + tail) * rate))
            silent_keys.add(f"{sid}/{word}/{block}")
        else:
            f0 = f0s[speakers.index(sid)]
            voiced = 0.8 * _voiced_word(rng, rate, body, f0)
            x = np.concatenate([np.zeros(int(lead * rate)), voiced,
                                np.zeros(int(tail * rate))])
            x += noise * rng.standard_normal(x.size)
        path = wavs / f"{sid}_{word}_{block}.wav"
        _write_pcm16(path, x, rate)
        audio_seconds += x.size / rate
        lines.append(f"{sid},,,,{word},{block},{path}")

    manifest = root / "manifest.csv"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    config = root / "bench.ini"
    config.write_text(CONFIG_TEMPLATE.format(steps=spec.steps), encoding="utf-8")
    return Corpus(manifest, config, speakers, silent_keys, audio_seconds)
