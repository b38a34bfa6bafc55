"""Versioned binary checkpoint: magic HVQV1, u16 version, JSON config, blobs.

The config and speaker count fix the parameter layout (`_param_layout`);
the blobs follow the header as little-endian float32, in sorted-name order.
"""

import dataclasses
import json
import math
import operator
import struct

import numpy as np

from ..atomic import atomic_open
from .model import HVqVaeModel, VqVaeConfig, _param_layout

MAGIC = b"HVQV1"
# 2: the config block lost stride, up_kernel_size and n_stages
# 3: the header lost its params list; the config fixes the layout
VERSION = 3


class CheckpointFormatError(ValueError):
    pass


class CheckpointVersionError(CheckpointFormatError):
    pass


def save_checkpoint(model: HVqVaeModel, path) -> None:
    if model.cfg.dtype != np.float32:
        raise ValueError(
            "checkpoints store 32-bit floats; model parameters are "
            f"{model.cfg.dtype}")
    header = {
        "config": dataclasses.asdict(model.cfg),
        "speakers": model.speakers,
        "codebooks_initialized": model.codebooks_initialized,
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with atomic_open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<H", VERSION))
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        for n in sorted(model.params):
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
        # a string would load as one speaker per character
        if not (isinstance(speakers, list)
                and all(isinstance(s, str) and s for s in speakers)):
            raise ValueError("speakers must be a list of non-empty strings, "
                             f"got {speakers!r}")
        initialized = header["codebooks_initialized"]
        if not isinstance(initialized, bool):
            raise ValueError("codebooks_initialized must be true or false, "
                             f"got {initialized!r}")
        # widths parsed from JSON may be floats, which no shape takes
        layout = sorted((name, tuple(map(operator.index, shape)))
                        for name, shape, _ in _param_layout(cfg, len(speakers)))
        if cfg.dtype != np.float32:
            raise ValueError(f"param_dtype {cfg.param_dtype}, blobs are float32")
    except (ValueError, KeyError, TypeError) as e:
        raise CheckpointFormatError(f"{path}: unreadable config block: {e}") from None

    view = memoryview(raw)
    arrays = {}
    offset = base + header_len
    for name, shape in layout:
        nbytes = 4 * math.prod(shape)
        chunk = view[offset:offset + nbytes]
        if len(chunk) != nbytes:
            raise CheckpointFormatError(f"{path}: truncated blob for {name}")
        data = np.frombuffer(chunk, dtype="<f4").reshape(shape)
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
    model.codebooks_initialized = initialized
    return model
