"""Plain-text run configuration.

A config file is lines of ``key = value``; blank lines and lines starting
with ``#`` are ignored. Every key must be one of the documented schema keys
below; unknown keys are rejected. Values are parsed per key type (integer,
float, string choice, comma-separated integer list, path string).

Precedence, lowest to highest: built-in defaults, config file, ``--set``
overrides in command-line order, dedicated CLI flags (e.g. ``--seed``,
``--kind``). Every CLI flag overrides its config key. The fully resolved
configuration is echoed to ``config.echo`` in the output directory as
sorted ``key = value`` lines, in UTF-8 like the config file.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .composer import G0_SOURCES, VARIANTS, ComposerConfig
from .degrade import KERNEL_KINDS, KINDS, BlurParams, DegradationSpec, RainParams
from .errors import ConfigError
from .networks import DerivativeSpec, MappingSpec
from .trainer import TrainConfig


def _parse_int(text: str) -> int:
    return int(text, 10)


def _parse_u64(text: str) -> int:
    value = int(text, 10)
    if not (0 <= value < 2**64):
        raise ValueError(f"{value} outside [0, 2**64)")
    return value


def _parse_float(text: str) -> float:
    return float(text)


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


@dataclass(frozen=True)
class _Field:
    parse: Callable[[str], object]
    default: object
    help: str


SCHEMA: dict[str, _Field] = {
    # degradation synthesis
    "data.kind": _Field(_choice(*KINDS), "rain", "degradation family"),
    "data.count": _Field(_parse_int, 16, "number of samples to synthesize"),
    "data.image_size": _Field(_parse_int, 64, "clean image height and width"),
    "data.seed": _Field(_parse_u64, 0, "corpus seed (per-sample seeds derive from it)"),
    "data.rain.count_min": _Field(_parse_int, 4, "min streaks per image"),
    "data.rain.count_max": _Field(_parse_int, 10, "max streaks per image"),
    "data.rain.length_min": _Field(_parse_float, 8.0, "min streak length, px"),
    "data.rain.length_max": _Field(_parse_float, 20.0, "max streak length, px"),
    "data.rain.angle_min": _Field(_parse_float, 70.0, "min streak angle, degrees"),
    "data.rain.angle_max": _Field(_parse_float, 110.0, "max streak angle, degrees"),
    "data.rain.intensity_min": _Field(_parse_float, 0.15, "min streak intensity"),
    "data.rain.intensity_max": _Field(_parse_float, 0.6, "max streak intensity"),
    "data.rain.streak_sigma": _Field(_parse_float, 0.7, "streak cross-section sigma, px"),
    "data.blur.kernel": _Field(_choice(*KERNEL_KINDS), "gaussian", "blur kernel family"),
    "data.blur.kernel_size": _Field(_parse_int, 9, "kernel size (odd)"),
    "data.blur.sigma": _Field(_parse_float, 1.5, "gaussian kernel sigma"),
    "data.blur.motion_length": _Field(_parse_float, 7.0, "motion kernel length, px"),
    "data.blur.motion_angle": _Field(_parse_float, 0.0, "motion kernel angle, degrees"),
    "data.blur.noise_sigma": _Field(_parse_float, 0.01, "additive gaussian noise sigma"),
    # model
    "model.in_channels": _Field(_parse_int, 3, "image channels"),
    "model.mapping_channels": _Field(_parse_int, 32, "mapping net width"),
    "model.mapping_blocks": _Field(_parse_int, 3, "mapping net residual blocks"),
    "model.derivative_channels": _Field(_parse_int, 32, "derivative net width"),
    "model.kernel_size": _Field(_parse_int, 3, "conv kernel size (odd)"),
    # composer
    "composer.order": _Field(_parse_int, 3, "series truncation order n"),
    "composer.lambda": _Field(_parse_float, 1.0, "coarse-term loss weight"),
    "composer.variant": _Field(_choice(*VARIANTS), "with_k_residual", "recurrence variant"),
    "composer.g0": _Field(_choice(*G0_SOURCES), "f_out", "seed term for the recurrence"),
    # training
    "train.patch_size": _Field(_parse_int, 100, "square crop size"),
    "train.batch_size": _Field(_parse_int, 4, "patches per step"),
    "train.lr": _Field(_parse_float, 1e-3, "initial learning rate"),
    "train.decay_epochs": _Field(_parse_int_list, (30, 50, 80), "epochs at which lr decays"),
    "train.decay_factor": _Field(_parse_float, 0.2, "multiplicative lr decay"),
    "train.epochs": _Field(_parse_int, 100, "total epochs"),
    "train.seed": _Field(_parse_u64, 0, "run seed (init and sampling streams derive from it)"),
    "train.checkpoint_every": _Field(_parse_int, 10, "checkpoint cadence in epochs (0: final only)"),
    # paths
    "paths.data": _Field(_parse_path, "", "corpus directory (train/eval/sweep input)"),
    "paths.ckpt": _Field(_parse_path, "", "checkpoint file (eval input)"),
    "paths.resume": _Field(_parse_path, "", "checkpoint to resume training from"),
}


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
    (out_dir / "config.echo").write_text(echo_text(cfg), encoding="utf-8")


def _wrap(build: Callable[[], object], what: str):
    try:
        return build()
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid {what}: {exc}") from exc


def degradation_spec_from(cfg: dict[str, object]) -> DegradationSpec:
    def build() -> DegradationSpec:
        rain = RainParams(
            count_min=cfg["data.rain.count_min"],
            count_max=cfg["data.rain.count_max"],
            length_min=cfg["data.rain.length_min"],
            length_max=cfg["data.rain.length_max"],
            angle_min=cfg["data.rain.angle_min"],
            angle_max=cfg["data.rain.angle_max"],
            intensity_min=cfg["data.rain.intensity_min"],
            intensity_max=cfg["data.rain.intensity_max"],
            streak_sigma=cfg["data.rain.streak_sigma"],
        )
        blur = BlurParams(
            kernel_kind=cfg["data.blur.kernel"],
            kernel_size=cfg["data.blur.kernel_size"],
            sigma=cfg["data.blur.sigma"],
            motion_length=cfg["data.blur.motion_length"],
            motion_angle=cfg["data.blur.motion_angle"],
            noise_sigma=cfg["data.blur.noise_sigma"],
        )
        return DegradationSpec(kind=cfg["data.kind"], seed=cfg["data.seed"],
                               rain=rain, blur=blur)
    return _wrap(build, "degradation settings")


def mapping_spec_from(cfg: dict[str, object]) -> MappingSpec:
    return _wrap(lambda: MappingSpec(
        in_channels=cfg["model.in_channels"],
        channels=cfg["model.mapping_channels"],
        blocks=cfg["model.mapping_blocks"],
        kernel=cfg["model.kernel_size"],
    ), "model settings")


def derivative_spec_from(cfg: dict[str, object]) -> DerivativeSpec:
    return _wrap(lambda: DerivativeSpec(
        in_channels=cfg["model.in_channels"],
        channels=cfg["model.derivative_channels"],
        kernel=cfg["model.kernel_size"],
    ), "model settings")


def composer_config_from(cfg: dict[str, object]) -> ComposerConfig:
    return _wrap(lambda: ComposerConfig(
        order=cfg["composer.order"],
        lam=cfg["composer.lambda"],
        variant=cfg["composer.variant"],
        g0=cfg["composer.g0"],
    ), "composer settings")


def train_config_from(cfg: dict[str, object]) -> TrainConfig:
    def build() -> TrainConfig:
        return TrainConfig(
            patch_size=cfg["train.patch_size"],
            batch_size=cfg["train.batch_size"],
            lr0=cfg["train.lr"],
            decay_epochs=cfg["train.decay_epochs"],
            decay_factor=cfg["train.decay_factor"],
            epochs=cfg["train.epochs"],
            seed=cfg["train.seed"],
            checkpoint_every=cfg["train.checkpoint_every"],
        )
    try:
        return build()
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid training settings: {exc}") from exc
