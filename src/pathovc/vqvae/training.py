"""Minibatch training loop for the hierarchical VQ-VAE."""

import csv
from dataclasses import dataclass, field

import numpy as np

from .. import diffcore as dc
from ..atomic import atomic_open
from .model import HVqVaeModel, UnknownSpeakerError, codebook_perplexity


class NonFiniteLossError(ValueError):
    """A loss term came out NaN or Inf: training diverged."""


@dataclass
class TrainingConfig:
    steps: int = 200
    batch_size: int = 8
    crop_frames: int = 64
    learning_rate: float = 2e-4
    seed: int = 0

    def __post_init__(self):
        if self.steps < 1 or self.batch_size < 1:
            raise ValueError("steps and batch_size must be positive")
        if self.crop_frames < 8:
            raise ValueError("crop_frames must admit three halvings (>= 8)")


@dataclass
class TrainingReport:
    reconstruction: list = field(default_factory=list)
    codebook: list = field(default_factory=list)
    commitment: list = field(default_factory=list)
    perplexities: list = field(default_factory=list)  # (p1, p2, p3) per step

    def append(self, recon, cb, commit, perp):
        self.reconstruction.append(recon)
        self.codebook.append(cb)
        self.commitment.append(commit)
        self.perplexities.append(perp)

    def __len__(self):
        return len(self.reconstruction)

    def write_csv(self, path):
        with atomic_open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["step", "reconstruction", "codebook", "commitment",
                        "perplexity_1", "perplexity_2", "perplexity_3"])
            for i in range(len(self)):
                w.writerow([i + 1,
                            repr(self.reconstruction[i]),
                            repr(self.codebook[i]),
                            repr(self.commitment[i]),
                            repr(self.perplexities[i][0]),
                            repr(self.perplexities[i][1]),
                            repr(self.perplexities[i][2])])


def _validate_dataset(model, dataset):
    if not dataset:
        raise ValueError("training dataset is empty")
    items = []
    for i, (speaker_id, frames) in enumerate(dataset):
        if speaker_id not in model._speaker_index:
            raise UnknownSpeakerError(
                f"utterance {i} is tagged with unknown speaker {speaker_id!r}")
        frames = np.asarray(frames, dtype=model.cfg.dtype)
        if frames.ndim != 2 or frames.shape[1] != model.cfg.in_channels:
            raise ValueError(
                f"utterance {i}: expected T x {model.cfg.in_channels} frames, "
                f"got shape {frames.shape}")
        if not np.all(np.isfinite(frames)):
            raise ValueError(
                f"utterance {i} of speaker {speaker_id!r}: frames contain NaN or Inf")
        items.append((speaker_id, frames))
    return items


def _crop(frames, crop_frames, rng):
    """Random fixed-length crop; short utterances are zero-padded and masked."""
    t = frames.shape[0]
    if t >= crop_frames:
        start = int(rng.integers(0, t - crop_frames + 1))
        return frames[start:start + crop_frames], None
    pad = np.zeros((crop_frames, frames.shape[1]), dtype=frames.dtype)
    pad[:t] = frames
    mask = np.zeros(crop_frames, dtype=frames.dtype)
    mask[:t] = 1.0
    return pad, mask


def train(model: HVqVaeModel, dataset, cfg: TrainingConfig):
    """Runs cfg.steps of Adam on the three-term loss; returns (model, report).

    dataset is a sequence of (speaker_id, frames) with time-major frames.
    Codebooks are seeded from the first batch's encoder latents unless the
    model already carries initialized codebooks.  Raises NonFiniteLossError,
    naming the step and the loss term, as soon as a step's forward pass
    gives a NaN or Inf loss.
    """
    items = _validate_dataset(model, dataset)
    rng = np.random.default_rng(cfg.seed)
    report = TrainingReport()

    first_picks = rng.integers(0, len(items), size=cfg.batch_size)
    if not model.codebooks_initialized:
        pools = [[], [], []]
        for i in first_picks:
            frames, _ = _crop(items[i][1], cfg.crop_frames, rng)
            _, zs = model.encode(frames)
            for n in range(3):
                pools[n].append(zs[n])
        model.init_codebooks([np.concatenate(p, axis=0) for p in pools], rng)

    opt = dc.Adam(model.parameters(), lr=cfg.learning_rate)
    batch = first_picks
    for step in range(cfg.steps):
        opt.zero_grad()
        total = None
        recon = cb = commit = 0.0
        stage_indices = [[], [], []]
        for i in batch:
            speaker_id, frames = items[i]
            crop, mask = _crop(frames, cfg.crop_frames, rng)
            loss, parts = model._forward_graph(crop, speaker_id, mask)
            total = loss if total is None else dc.add(total, loss)
            recon += parts.reconstruction
            cb += parts.codebook
            commit += parts.commitment
            for n in range(3):
                stage_indices[n].append(parts.indices[n])
        for name, value in (("reconstruction", recon), ("codebook", cb),
                            ("commitment", commit)):
            if not np.isfinite(value):
                # finite inputs can still diverge; stop before the step
                # writes NaN into the parameters
                raise NonFiniteLossError(
                    f"training diverged at step {step + 1}: {name} loss is "
                    f"{value}; try a lower learning_rate")
        scale = 1.0 / cfg.batch_size
        (total * scale).backward()
        opt.step()
        perp = tuple(
            codebook_perplexity(np.concatenate(stage_indices[n]),
                                model.cfg.codebook_size)
            for n in range(3))
        report.append(recon * scale, cb * scale, commit * scale, perp)
        batch = rng.integers(0, len(items), size=cfg.batch_size)
    return model, report
