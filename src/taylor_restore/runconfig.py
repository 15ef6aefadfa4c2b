"""Plain-text run configuration.

A config file is lines of ``key = value``; blank lines and lines starting
with ``#`` are ignored. Every key must be one of the documented schema keys
below; unknown keys are rejected. Values are parsed per key type (integer,
float, string choice, comma-separated integer list, path string).

Precedence, lowest to highest: defaults (each key takes the default of the
dataclass field that it fills), config file, ``--set``
overrides in command-line order, dedicated CLI flags (e.g. ``--seed``,
``--kind``). Every CLI flag overrides its config key. The fully resolved
configuration is echoed to ``config.echo`` in the output directory as
sorted ``key = value`` lines, in UTF-8 like the config file.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable

from .checkpoint import write_atomic
from .composer import G0_SOURCES, VARIANTS, ComposerConfig
from .degrade import KERNEL_KINDS, KINDS, BlurParams, DegradationSpec, RainParams
from .errors import ConfigError
from .networks import DerivativeSpec, MappingSpec
from .trainer import MODEL_METADATA, Model, TrainConfig, model_specs


def _parse_u64(text: str) -> int:
    value = int(text, 10)
    if not (0 <= value < 2**64):
        raise ValueError(f"{value} outside [0, 2**64)")
    return value


def _parse_path(text: str) -> str:
    # config.echo is UTF-8; a file name that is not arrives with surrogate escapes and raises
    # UnicodeEncodeError, a ValueError, here rather than after files are written
    text.encode("utf-8")
    return text


def _parse_int_list(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(part, 10) for part in text.split(","))


def _choice(*options: str) -> Callable[[str], str]:
    def parse(text: str) -> str:
        if text not in options:
            raise ValueError(f"must be one of {', '.join(options)}")
        return text
    return parse


def _fmt_default(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


@dataclass
class _Field:
    """A config key: how its text parses, and the dataclass field that it fills and whose
    default it takes. The field is named after the key's last part unless ``name`` says
    otherwise; a model key names ``Model``, whose ``MODEL_METADATA`` entry holds its spec and
    field. A key that only the CLI reads has no owner and spells its own default."""
    key: str
    parse: Callable[[str], object]
    owner: type | None = None
    name: str = ""
    default: object = None

    def __post_init__(self):
        self.name = self.name or self.key.rpartition(".")[2]
        if self.owner is Model:
            part, self.name, _ = MODEL_METADATA[self.key]
            self.owner = _MODEL_PARTS[part]
        if self.owner is not None:
            (self.default,) = [f.default for f in fields(self.owner) if f.name == self.name]


_MODEL_PARTS = {"mapping": MappingSpec, "derivative": DerivativeSpec, "composer": ComposerConfig}

SCHEMA: dict[str, _Field] = {row.key: row for row in (
    # degradation synthesis
    _Field("data.kind", _choice(*KINDS), DegradationSpec),
    _Field("data.count", int, default=16),
    _Field("data.image_size", int, default=64),
    _Field("data.seed", _parse_u64, DegradationSpec),
    _Field("data.rain.count_min", int, RainParams),
    _Field("data.rain.count_max", int, RainParams),
    _Field("data.rain.length_min", float, RainParams),
    _Field("data.rain.length_max", float, RainParams),
    _Field("data.rain.angle_min", float, RainParams),
    _Field("data.rain.angle_max", float, RainParams),
    _Field("data.rain.intensity_min", float, RainParams),
    _Field("data.rain.intensity_max", float, RainParams),
    _Field("data.rain.streak_sigma", float, RainParams),
    _Field("data.blur.kernel", _choice(*KERNEL_KINDS), BlurParams, "kernel_kind"),
    _Field("data.blur.kernel_size", int, BlurParams),
    _Field("data.blur.sigma", float, BlurParams),
    _Field("data.blur.motion_length", float, BlurParams),
    _Field("data.blur.motion_angle", float, BlurParams),
    _Field("data.blur.noise_sigma", float, BlurParams),
    # model and composer
    _Field("model.in_channels", int, Model),
    _Field("model.mapping_channels", int, Model),
    _Field("model.mapping_blocks", int, Model),
    _Field("model.derivative_channels", int, Model),
    _Field("model.kernel_size", int, Model),
    _Field("composer.order", int, Model),
    _Field("composer.lambda", float, Model),
    _Field("composer.variant", _choice(*VARIANTS), Model),
    _Field("composer.g0", _choice(*G0_SOURCES), Model),
    # training
    _Field("train.patch_size", int, TrainConfig),
    _Field("train.batch_size", int, TrainConfig),
    _Field("train.lr", float, TrainConfig, "lr0"),
    _Field("train.decay_epochs", _parse_int_list, TrainConfig),
    _Field("train.decay_factor", float, TrainConfig),
    _Field("train.epochs", int, TrainConfig),
    _Field("train.seed", _parse_u64, TrainConfig),
    _Field("train.checkpoint_every", int, TrainConfig),
    # paths
    _Field("paths.data", _parse_path, default=""),
    _Field("paths.ckpt", _parse_path, default=""),
    _Field("paths.resume", _parse_path, default=""),
)}


def parse_config_text(text: str, origin: str = "<config>") -> dict[str, str]:
    """Raw key -> value strings from config-file text."""
    values: dict[str, str] = {}
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{origin}:{line_no}: expected 'key = value', got {raw_line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"{origin}:{line_no}: empty key")
        if key in values:
            raise ConfigError(f"{origin}:{line_no}: duplicate key {key!r}")
        values[key] = value
    return values


def effective_config(
    file_values: dict[str, str] | None = None,
    overrides: list[tuple[str, str]] | None = None,
) -> dict[str, object]:
    """Typed config from defaults, then file values, then overrides in order."""
    cfg: dict[str, object] = {key: field.default for key, field in SCHEMA.items()}
    layers: list[tuple[str, str]] = []
    if file_values:
        layers.extend(file_values.items())
    if overrides:
        layers.extend(overrides)
    for key, text in layers:
        field = SCHEMA.get(key)
        if field is None:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            cfg[key] = field.parse(text)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {text!r} ({exc})") from exc
    return cfg


def echo_text(cfg: dict[str, object]) -> str:
    lines = [f"{key} = {_fmt_default(cfg[key])}" for key in sorted(cfg)]
    return "\n".join(lines) + "\n"


def write_echo(cfg: dict[str, object], out_dir: str | Path) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_atomic(out_dir / "config.echo", echo_text(cfg).encode("utf-8"))


def _wrap(build: Callable[[], object], what: str):
    try:
        return build()
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid {what}: {exc}") from exc


def _build(owner: type, cfg: dict[str, object], **parts) -> object:
    """An ``owner`` from the values of the keys that fill its fields, plus ``parts``."""
    return owner(**{row.name: cfg[key] for key, row in SCHEMA.items() if row.owner is owner},
                 **parts)


def degradation_spec_from(cfg: dict[str, object]) -> DegradationSpec:
    return _wrap(lambda: _build(DegradationSpec, cfg, rain=_build(RainParams, cfg),
                                blur=_build(BlurParams, cfg)), "degradation settings")


def mapping_spec_from(cfg: dict[str, object]) -> MappingSpec:
    return _wrap(lambda: model_specs(cfg), "model settings")[0]


def derivative_spec_from(cfg: dict[str, object]) -> DerivativeSpec:
    return _wrap(lambda: model_specs(cfg), "model settings")[1]


def composer_config_from(cfg: dict[str, object]) -> ComposerConfig:
    return _wrap(lambda: model_specs(cfg), "model settings")[2]


def train_config_from(cfg: dict[str, object]) -> TrainConfig:
    return _wrap(lambda: _build(TrainConfig, cfg), "training settings")
