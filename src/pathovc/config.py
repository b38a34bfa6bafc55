"""Run configuration: one INI-style file covering every pipeline knob.

Sections map onto the modules: [dsp] feeds DspConfig, [model] feeds
VqVaeConfig, [training] feeds TrainingConfig, [corpus] and [pairing]
feed the manifest tooling, [paths] holds default file locations the
command line can override.  Every key is optional; omitted keys keep
their defaults.  Unknown sections or keys are an error, never ignored.
"""

from __future__ import annotations

import configparser
import dataclasses
import io
import math
from pathlib import Path

from .corpus import DEFAULT_BAND_CUTS, check_band_cuts, read_utf8
from .dsp import DspConfig
from .vqvae import TrainingConfig, VqVaeConfig


class ConfigError(ValueError):
    """Raised for unreadable, unknown, or ill-typed configuration input."""


@dataclasses.dataclass
class PairingConfig:
    max_delta: float = 10.0
    include_female: bool = False
    allow_cross_sex: bool = False

    def __post_init__(self):
        if self.max_delta < 0:
            raise ValueError(f"max_delta must be non-negative, got {self.max_delta}")


# [model] keys exposed to users; the stage count and parameter dtype are
# fixed by the architecture and the checkpoint format
MODEL_KEYS = ("in_channels", "hidden", "latent_dim", "codebook_size",
              "embed_dim", "beta", "kernel_size", "up_kernel_size", "stride")
PATH_KEYS = ("manifest", "features", "checkpoint", "out")

_TRUE = ("1", "yes", "true", "on")
_FALSE = ("0", "no", "false", "off")


def _parse_bool(text: str, where: str) -> bool:
    low = text.strip().lower()
    if low in _TRUE:
        return True
    if low in _FALSE:
        return False
    raise ConfigError(f"{where}: expected a boolean, got {text!r}")


def _parse_scalar(kind, text: str, where: str):
    if kind is bool:
        return _parse_bool(text, where)
    try:
        value = kind(text)
    except ValueError:
        raise ConfigError(
            f"{where}: expected {kind.__name__}, got {text!r}") from None
    # NaN fails every comparison, so a range check such as
    # trim_threshold_db >= 0 lets it through, and it then silently
    # disables what the key controls
    if kind is float and math.isnan(value):
        raise ConfigError(f"{where}: expected a number, got {text!r}")
    return value


def _parse_cuts(text: str, where: str):
    cuts = tuple(_parse_scalar(float, p.strip(), where) for p in text.split(","))
    try:
        check_band_cuts(cuts)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    return cuts


def _field_kinds(dc_type, keys=None):
    out = {}
    for f in dataclasses.fields(dc_type):
        if keys is None or f.name in keys:
            out[f.name] = type(f.default)
    return out


@dataclasses.dataclass
class RunConfig:
    dsp: DspConfig
    model: VqVaeConfig
    training: TrainingConfig
    pairing: PairingConfig
    band_cuts: tuple
    paths: dict
    explicit: frozenset

    def has(self, section: str, key: str) -> bool:
        """True when the key was written out in the loaded file."""
        return f"{section}.{key}" in self.explicit


def default_run_config() -> RunConfig:
    return RunConfig(DspConfig(), VqVaeConfig(), TrainingConfig(),
                     PairingConfig(), tuple(DEFAULT_BAND_CUTS),
                     {k: "" for k in PATH_KEYS}, frozenset())


def load_run_config(path=None) -> RunConfig:
    """Read a config file, or return all defaults when ``path`` is None."""
    if path is None:
        return default_run_config()
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    text = read_utf8(path, ConfigError)
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None

    sections = {
        "dsp": _field_kinds(DspConfig),
        "model": _field_kinds(VqVaeConfig, MODEL_KEYS),
        "training": _field_kinds(TrainingConfig),
        "pairing": _field_kinds(PairingConfig),
        "corpus": {"band_cuts": None},
        "paths": {k: str for k in PATH_KEYS},
    }
    values = {name: {} for name in sections}
    explicit = set()
    for section in parser.sections():
        if section not in sections:
            raise ConfigError(f"{path}: unknown section [{section}]; expected "
                              f"one of {', '.join(sections)}")
        for key, raw in parser.items(section):
            if key not in sections[section]:
                raise ConfigError(
                    f"{path}: unknown key {key!r} in [{section}]; expected "
                    f"one of {', '.join(sections[section])}")
            where = f"{path} [{section}] {key}"
            if section == "corpus":
                values[section][key] = _parse_cuts(raw, where)
            else:
                values[section][key] = _parse_scalar(
                    sections[section][key], raw, where)
            explicit.add(f"{section}.{key}")

    try:
        return RunConfig(
            dsp=DspConfig(**values["dsp"]),
            model=VqVaeConfig(**values["model"]),
            training=TrainingConfig(**values["training"]),
            pairing=PairingConfig(**values["pairing"]),
            band_cuts=values["corpus"].get("band_cuts", tuple(DEFAULT_BAND_CUTS)),
            paths={**{k: "" for k in PATH_KEYS}, **values["paths"]},
            explicit=frozenset(explicit),
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, tuple):
        return ", ".join(repr(float(c)) for c in v)
    return str(v)


def dump_run_config(cfg: RunConfig) -> str:
    """Render the full configuration as INI text, every key spelled out."""
    out = io.StringIO()
    out.write("# every knob the pipeline reads; edit and pass via --config\n")

    def section(name, pairs):
        out.write(f"\n[{name}]\n")
        for key, value in pairs:
            out.write(f"{key} = {_format_value(value)}\n")

    section("dsp", [(f.name, getattr(cfg.dsp, f.name))
                    for f in dataclasses.fields(DspConfig)])
    section("model", [(k, getattr(cfg.model, k)) for k in MODEL_KEYS])
    section("training", [(f.name, getattr(cfg.training, f.name))
                         for f in dataclasses.fields(TrainingConfig)])
    section("corpus", [("band_cuts", cfg.band_cuts)])
    section("pairing", [(f.name, getattr(cfg.pairing, f.name))
                        for f in dataclasses.fields(PairingConfig)])
    section("paths", [(k, cfg.paths.get(k, "")) for k in PATH_KEYS])
    return out.getvalue()
