"""Minibatch training loop for the hierarchical VQ-VAE."""

import csv
from dataclasses import dataclass, field

import numpy as np

from .. import diffcore as dc
from ..atomic import atomic_open
from .model import MIN_FRAMES, HVqVaeModel, UnknownSpeakerError, codebook_perplexity


class NonFiniteLossError(ValueError):
    """Training diverged: a loss term, a seeding latent or a parameter after
    the last update came out NaN or Inf.  ``batch`` lists the dataset
    indices of the batch's utterances."""

    def __init__(self, message, batch):
        super().__init__(message)
        self.batch = sorted({int(i) for i in batch})


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
        if self.crop_frames < MIN_FRAMES:
            raise ValueError(f"crop_frames must admit three halvings (>= {MIN_FRAMES})")
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


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
        if frames.shape[0] == 0:
            raise ValueError(f"utterance {i} of speaker {speaker_id!r} has no frames")
        if not np.all(np.isfinite(frames)):
            raise ValueError(
                f"utterance {i} of speaker {speaker_id!r}: frames contain NaN or Inf")
        items.append((model.speaker_index(speaker_id), frames))
    return items


def _crop(frames, crop_frames, rng):
    """Random crop_frames window and its 0/1 mask; short utterances are zero-padded."""
    t = min(frames.shape[0], crop_frames)
    start = int(rng.integers(0, frames.shape[0] - t + 1)) if t == crop_frames else 0
    crop = np.zeros((crop_frames, frames.shape[1]), dtype=frames.dtype)
    crop[:t] = frames[start:start + t]
    mask = np.zeros(crop_frames, dtype=frames.dtype)
    mask[:t] = 1
    return crop, mask


def _batch(items, picks, crop_frames, rng):
    """One crop per pick, stacked: frames (B, T, C), speaker rows (B,), mask (B, T)."""
    crops, masks = zip(*(_crop(items[i][1], crop_frames, rng) for i in picks))
    return np.stack(crops), np.array([items[i][0] for i in picks]), np.stack(masks)


def train(model: HVqVaeModel, dataset, cfg: TrainingConfig):
    """Runs cfg.steps of Adam on the three-term loss; returns (model, report).

    dataset is a sequence of (speaker_id, frames) with time-major frames.
    Each step builds one graph over a (B, T, C) batch of crops.  Codebooks
    are seeded from the first batch's encoder latents unless the model
    already carries initialized codebooks.  Raises NonFiniteLossError,
    naming the step and the loss term, as soon as a step's forward pass
    gives a NaN or Inf loss, before the first step when the seeding
    latents overflow, or naming a parameter when the last update leaves
    it NaN or Inf.
    """
    items = _validate_dataset(model, dataset)
    rng = np.random.default_rng(cfg.seed)
    report = TrainingReport()

    picks = rng.integers(0, len(items), size=cfg.batch_size)
    if not model.codebooks_initialized:
        try:
            zs = model.encode(_batch(items, picks, cfg.crop_frames, rng)[0])
        except ValueError as exc:
            raise NonFiniteLossError(f"training diverged before step 1: {exc}", picks)
        model.init_codebooks([z.reshape(-1, z.shape[-1]) for z in zs], rng)

    opt = dc.Adam(model.parameters(), lr=cfg.learning_rate)
    for step in range(1, cfg.steps + 1):
        if step > 1:
            picks = rng.integers(0, len(items), size=cfg.batch_size)
        opt.zero_grad()
        # an overflow ends in NonFiniteLossError below, not in a warning
        with np.errstate(over="ignore", invalid="ignore"):
            loss, parts = model._forward_graph(*_batch(items, picks, cfg.crop_frames, rng))
            for name in ("reconstruction", "codebook", "commitment"):
                if not np.isfinite(getattr(parts, name)):
                    # finite inputs can still diverge; stop before the step
                    # writes NaN into the parameters
                    raise NonFiniteLossError(
                        f"training diverged at step {step}: {name} loss is "
                        f"{getattr(parts, name)}; try a lower learning_rate", picks)
            loss.backward()
            opt.step()
        report.append(parts.reconstruction, parts.codebook, parts.commitment,
                      tuple(codebook_perplexity(ix, model.cfg.codebook_size)
                            for ix in parts.indices))
    # each step's forward pass checks the update before it; this checks the last
    for name in sorted(model.params):
        if not np.isfinite(model.params[name].data).all():
            raise NonFiniteLossError(
                f"training diverged at step {cfg.steps}: parameter {name} holds "
                "NaN or Inf; try a lower learning_rate", picks)
    return model, report
