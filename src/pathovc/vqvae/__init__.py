from .checkpoint import (
    CheckpointFormatError,
    CheckpointVersionError,
    load_checkpoint,
    save_checkpoint,
)
from .model import (
    EmptyCodebookError,
    HVqVaeModel,
    LossBreakdown,
    MIN_FRAMES,
    PASS_FRAMES,
    UnknownSpeakerError,
    VqVaeConfig,
    codebook_perplexity,
    quantize,
)
from .training import NonFiniteLossError, TrainingConfig, TrainingReport, train

__all__ = [
    "CheckpointFormatError",
    "CheckpointVersionError",
    "EmptyCodebookError",
    "HVqVaeModel",
    "LossBreakdown",
    "MIN_FRAMES",
    "NonFiniteLossError",
    "PASS_FRAMES",
    "TrainingConfig",
    "TrainingReport",
    "UnknownSpeakerError",
    "VqVaeConfig",
    "codebook_perplexity",
    "load_checkpoint",
    "quantize",
    "save_checkpoint",
    "train",
]
