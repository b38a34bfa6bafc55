"""Versioned binary checkpoint: magic HVQV1, u16 version, JSON config, blobs."""

import dataclasses
import json
import struct

import numpy as np

from ..atomic import atomic_open
from .model import HVqVaeModel, VqVaeConfig

MAGIC = b"HVQV1"
VERSION = 1


class CheckpointFormatError(ValueError):
    pass


class CheckpointVersionError(CheckpointFormatError):
    pass


def save_checkpoint(model: HVqVaeModel, path) -> None:
    if model.cfg.dtype != np.float32:
        raise ValueError(
            "checkpoints store 32-bit floats; model parameters are "
            f"{model.cfg.dtype}")
    names = sorted(model.params)
    header = {
        "config": dataclasses.asdict(model.cfg),
        "speakers": model.speakers,
        "codebooks_initialized": model.codebooks_initialized,
        "params": [[n, list(model.params[n].data.shape)] for n in names],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with atomic_open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<H", VERSION))
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        for n in names:
            f.write(np.ascontiguousarray(model.params[n].data, dtype="<f4").tobytes())


def load_checkpoint(path) -> HVqVaeModel:
    with open(path, "rb") as f:
        raw = f.read()
    base = len(MAGIC) + 2 + 4
    if len(raw) < base:
        raise CheckpointFormatError(f"{path}: file too short for a checkpoint header")
    if raw[:len(MAGIC)] != MAGIC:
        raise CheckpointFormatError(f"{path}: bad magic, not an HVQV1 checkpoint")
    (version,) = struct.unpack_from("<H", raw, len(MAGIC))
    if version != VERSION:
        raise CheckpointVersionError(
            f"{path}: checkpoint version {version}, this build reads {VERSION}")
    (header_len,) = struct.unpack_from("<I", raw, len(MAGIC) + 2)
    if len(raw) < base + header_len:
        raise CheckpointFormatError(f"{path}: truncated config block")
    try:
        header = json.loads(raw[base:base + header_len].decode("utf-8"))
        cfg = VqVaeConfig(**header["config"])
        speakers = header["speakers"]
        manifest = header["params"]
    except (ValueError, KeyError, TypeError) as e:
        raise CheckpointFormatError(f"{path}: unreadable config block: {e}") from None

    model = HVqVaeModel(cfg, speakers, seed=0)
    if sorted(n for n, _ in manifest) != sorted(model.params):
        raise CheckpointFormatError(f"{path}: parameter manifest does not match model")

    offset = base + header_len
    for name, shape in manifest:
        shape = tuple(shape)
        if model.params[name].data.shape != shape:
            raise CheckpointFormatError(
                f"{path}: parameter {name} has shape {shape}, model expects "
                f"{model.params[name].data.shape}")
        nbytes = 4 * int(np.prod(shape))
        chunk = raw[offset:offset + nbytes]
        if len(chunk) != nbytes:
            raise CheckpointFormatError(f"{path}: truncated blob for {name}")
        model.params[name].data = np.frombuffer(chunk, dtype="<f4").reshape(shape).copy()
        offset += nbytes
    if offset != len(raw):
        raise CheckpointFormatError(f"{path}: {len(raw) - offset} trailing bytes")
    model.codebooks_initialized = bool(header.get("codebooks_initialized", False))
    return model
