"""Versioned binary checkpoint: magic HVQV1, u16 version, JSON config, blobs."""

import dataclasses
import json
import struct

import numpy as np

from ..atomic import atomic_open
from .model import HVqVaeModel, VqVaeConfig, _param_layout

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
        layout = {name: shape for name, shape, _ in _param_layout(cfg, len(speakers))}
        if cfg.dtype != np.float32:
            raise ValueError(f"param_dtype {cfg.param_dtype}, blobs are float32")
    except (ValueError, KeyError, TypeError) as e:
        raise CheckpointFormatError(f"{path}: unreadable config block: {e}") from None

    if not isinstance(manifest, list) or not all(
            isinstance(entry, list) and len(entry) == 2
            and isinstance(entry[0], str) and isinstance(entry[1], list)
            for entry in manifest):
        raise CheckpointFormatError(
            f"{path}: malformed parameter manifest; entries must be "
            "[name, shape] pairs")
    names = sorted(name for name, _ in manifest)
    if names != sorted(layout):
        missing = sorted(set(layout) - set(names))
        extra = sorted(set(names) - set(layout))
        raise CheckpointFormatError(
            f"{path}: parameter manifest does not match model (missing: "
            f"{', '.join(missing) or 'none'}; unexpected: "
            f"{', '.join(extra) or 'none'})")

    view = memoryview(raw)
    arrays = {}
    offset = base + header_len
    for name, shape in manifest:
        want = layout[name]
        if tuple(shape) != want:
            raise CheckpointFormatError(
                f"{path}: parameter {name} has shape {tuple(shape)}, model "
                f"expects {want}")
        nbytes = 4 * int(np.prod(want))
        chunk = view[offset:offset + nbytes]
        if len(chunk) != nbytes:
            raise CheckpointFormatError(f"{path}: truncated blob for {name}")
        data = np.frombuffer(chunk, dtype="<f4").reshape(want)
        if not np.all(np.isfinite(data)):
            raise CheckpointFormatError(
                f"{path}: parameter {name} holds NaN or Inf values")
        arrays[name] = data.copy()
        offset += nbytes
    if offset != len(raw):
        raise CheckpointFormatError(f"{path}: {len(raw) - offset} trailing bytes")
    try:
        model = HVqVaeModel._from_arrays(cfg, speakers, arrays)
    except (ValueError, TypeError) as e:
        raise CheckpointFormatError(f"{path}: {e}") from None
    model.codebooks_initialized = bool(header.get("codebooks_initialized", False))
    return model
