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


def _parse_scalar(kind, text: str, where: str):
    if kind is bool:
        # 1/0, yes/no, true/false and on/off, in any case
        value = configparser.ConfigParser.BOOLEAN_STATES.get(text.strip().lower())
        if value is None:
            raise ConfigError(f"{where}: expected a boolean, got {text!r}")
        return value
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


def _defaults(dc_type, skip=()):
    return {f.name: f.default for f in dataclasses.fields(dc_type)
            if f.name not in skip}


# every section in file order: what builds its RunConfig field, and its keys
# with their defaults.  [model] leaves out in_channels, which train reads off
# the feature files, and param_dtype, which the checkpoint format fixes
SECTIONS = {
    "dsp": (DspConfig, _defaults(DspConfig)),
    "model": (VqVaeConfig, _defaults(VqVaeConfig, ("in_channels", "param_dtype"))),
    "training": (TrainingConfig, _defaults(TrainingConfig)),
    "corpus": (dict, {"band_cuts": tuple(DEFAULT_BAND_CUTS)}),
    "pairing": (PairingConfig, _defaults(PairingConfig)),
    "paths": (dict, dict.fromkeys(("manifest", "features", "checkpoint", "out"), "")),
}


@dataclasses.dataclass
class RunConfig:
    dsp: DspConfig
    model: VqVaeConfig
    training: TrainingConfig
    corpus: dict
    pairing: PairingConfig
    paths: dict
    explicit: frozenset

    def has(self, section: str, key: str) -> bool:
        """True when the key was written out in the loaded file."""
        return f"{section}.{key}" in self.explicit


def load_run_config(path=None) -> RunConfig:
    """Read a config file; with ``path`` None, every key keeps its default."""
    parser = configparser.ConfigParser(interpolation=None)
    if path is not None:
        path = Path(path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        text = read_utf8(path, ConfigError)
        try:
            parser.read_string(text, source=str(path))
        except configparser.Error as exc:
            raise ConfigError(f"{path}: {exc}") from None

    values = {name: {} for name in SECTIONS}
    for section in parser.sections():
        if section not in SECTIONS:
            raise ConfigError(f"{path}: unknown section [{section}]; expected "
                              f"one of {', '.join(SECTIONS)}")
        defaults = SECTIONS[section][1]
        for key, raw in parser.items(section):
            if key not in defaults:
                raise ConfigError(
                    f"{path}: unknown key {key!r} in [{section}]; expected "
                    f"one of {', '.join(defaults)}")
            where = f"{path} [{section}] {key}"
            kind = type(defaults[key])
            values[section][key] = (_parse_cuts(raw, where) if kind is tuple
                                    else _parse_scalar(kind, raw, where))

    try:
        return RunConfig(
            **{name: build(**{**defaults, **values[name]})
               for name, (build, defaults) in SECTIONS.items()},
            explicit=frozenset(f"{section}.{key}"
                               for section, keys in values.items() for key in keys))
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
    for name, (_, defaults) in SECTIONS.items():
        section = getattr(cfg, name)
        out.write(f"\n[{name}]\n")
        for key in defaults:
            value = section[key] if isinstance(section, dict) else getattr(section, key)
            out.write(f"{key} = {_format_value(value)}\n")
    return out.getvalue()
