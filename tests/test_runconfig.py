"""Run configuration: schema completeness, parse errors, layered precedence
(defaults < file < overrides), and the parseable echo."""

import pytest

from taylor_restore.composer import ComposerConfig
from taylor_restore.degrade import BlurParams, DegradationSpec, RainParams
from taylor_restore.errors import ConfigError
from taylor_restore.networks import DerivativeSpec, MappingSpec
from taylor_restore.runconfig import (
    SCHEMA,
    composer_config_from,
    degradation_spec_from,
    derivative_spec_from,
    echo_text,
    effective_config,
    mapping_spec_from,
    parse_config_text,
    train_config_from,
    write_echo,
)
from taylor_restore.trainer import (
    MODEL_METADATA,
    AdamState,
    Model,
    TrainConfig,
    make_train_checkpoint,
)

# one parseable non-default value per key, used to exercise precedence
ALTERNATIVES = {
    "data.kind": "blur",
    "data.blur.kernel": "box",
    "composer.variant": "concat_only",
    "composer.g0": "y",
    "model.kernel_size": "5",  # kernels are odd
    "data.blur.kernel_size": "11",
}

# echo_text(effective_config()), byte for byte
DEFAULT_ECHO = """\
composer.g0 = f_out
composer.lambda = 1.0
composer.order = 3
composer.variant = with_k_residual
data.blur.kernel = gaussian
data.blur.kernel_size = 9
data.blur.motion_angle = 0.0
data.blur.motion_length = 7.0
data.blur.noise_sigma = 0.01
data.blur.sigma = 1.5
data.count = 16
data.image_size = 64
data.kind = rain
data.rain.angle_max = 110.0
data.rain.angle_min = 70.0
data.rain.count_max = 10
data.rain.count_min = 4
data.rain.intensity_max = 0.6
data.rain.intensity_min = 0.15
data.rain.length_max = 20.0
data.rain.length_min = 8.0
data.rain.streak_sigma = 0.7
data.seed = 0
model.derivative_channels = 32
model.kernel_size = 3
model.mapping_blocks = 3
model.mapping_channels = 32
paths.ckpt = 
paths.data = 
paths.resume = 
train.batch_size = 4
train.checkpoint_every = 10
train.decay_epochs = 30,50,80
train.decay_factor = 0.2
train.epochs = 100
train.lr = 0.001
train.patch_size = 100
train.seed = 0
"""


def fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def alternative_for(key) -> str:
    if key in ALTERNATIVES:
        return ALTERNATIVES[key]
    default = SCHEMA[key].default
    if isinstance(default, tuple):
        return ",".join(str(v + 1) for v in default) or "2,4"
    if isinstance(default, float):
        return repr(default + 0.25)
    if isinstance(default, int):
        return str(default + 1)
    return "alternate_path"  # path strings default to ""


def built_objects(cfg) -> dict[type, object]:
    """Every object that the config builders make, by type."""
    spec = degradation_spec_from(cfg)
    return {DegradationSpec: spec, RainParams: spec.rain, BlurParams: spec.blur,
            MappingSpec: mapping_spec_from(cfg), DerivativeSpec: derivative_spec_from(cfg),
            ComposerConfig: composer_config_from(cfg), TrainConfig: train_config_from(cfg)}


def test_default_echo_is_unchanged():
    assert echo_text(effective_config()) == DEFAULT_ECHO


def test_defaults_are_complete_and_typed():
    cfg = effective_config()
    assert set(cfg) == set(SCHEMA)
    assert cfg["data.kind"] == "rain"
    assert cfg["train.decay_epochs"] == (30, 50, 80)
    assert cfg["train.lr"] == 1e-3
    assert cfg["composer.order"] == 3
    assert cfg["paths.data"] == ""


@pytest.mark.parametrize("key", sorted(SCHEMA))
def test_file_then_override_precedence(key):
    alt = alternative_for(key)
    default_text = fmt(SCHEMA[key].default)
    parsed_alt = SCHEMA[key].parse(alt)
    assert parsed_alt != SCHEMA[key].default, f"alternative for {key} is the default"

    from_file = effective_config(parse_config_text(f"{key} = {alt}\n"))
    assert from_file[key] == parsed_alt

    # an override wins over the file layer even when it restates the default
    overridden = effective_config(parse_config_text(f"{key} = {alt}\n"),
                                  [(key, default_text)])
    assert overridden[key] == SCHEMA[key].default


def test_later_overrides_win():
    cfg = effective_config(None, [("train.epochs", "5"), ("train.epochs", "9")])
    assert cfg["train.epochs"] == 9


def test_unknown_keys_rejected_everywhere():
    with pytest.raises(ConfigError, match="unknown config key 'train.momentum'"):
        effective_config(parse_config_text("train.momentum = 0.9\n"))
    with pytest.raises(ConfigError, match="unknown config key"):
        effective_config(None, [("nonsense", "1")])


def test_bad_values_name_the_key():
    with pytest.raises(ConfigError, match="bad value for train.epochs"):
        effective_config(None, [("train.epochs", "many")])
    with pytest.raises(ConfigError, match="bad value for data.kind"):
        effective_config(None, [("data.kind", "fog")])
    with pytest.raises(ConfigError, match="bad value for data.seed"):
        effective_config(None, [("data.seed", "-1")])
    with pytest.raises(ConfigError, match="bad value for train.decay_epochs"):
        effective_config(None, [("train.decay_epochs", "10,x")])


def test_config_text_parse_errors():
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        parse_config_text("just some words\n")
    with pytest.raises(ConfigError, match="empty key"):
        parse_config_text("= 3\n")
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_config_text("train.epochs = 1\ntrain.epochs = 2\n")


def test_comments_and_blanks_ignored():
    text = "# leading comment\n\n  \ntrain.epochs = 7\n# trailing\n"
    assert parse_config_text(text) == {"train.epochs": "7"}


def test_echo_is_sorted_and_parses_back(tmp_path):
    overrides = [(key, alternative_for(key)) for key in sorted(SCHEMA)]
    cfg = effective_config(None, overrides)
    text = echo_text(cfg)
    lines = text.splitlines()
    assert lines == sorted(lines)
    assert len(lines) == len(SCHEMA)
    reparsed = effective_config(parse_config_text(text))
    assert reparsed == cfg

    write_echo(cfg, tmp_path / "out")
    assert (tmp_path / "out" / "config.echo").read_text() == text


def test_builders_map_config_keys():
    cfg = effective_config(None, [
        ("data.kind", "blur"), ("data.blur.kernel", "box"),
        ("model.mapping_channels", "8"), ("model.mapping_blocks", "1"),
        ("model.derivative_channels", "6"), ("composer.order", "2"),
        ("composer.lambda", "0.5"), ("composer.variant", "concat_only"),
        ("train.patch_size", "32"), ("train.epochs", "12"),
        ("train.decay_epochs", "4,8"),
    ])
    spec = degradation_spec_from(cfg)
    assert spec.kind == "blur" and spec.blur.kernel_kind == "box"
    mapping = mapping_spec_from(cfg)
    assert (mapping.channels, mapping.blocks) == (8, 1)
    derivative = derivative_spec_from(cfg)
    assert derivative.channels == 6
    composer = composer_config_from(cfg)
    assert (composer.order, composer.lam, composer.variant) == (2, 0.5, "concat_only")
    train_cfg = train_config_from(cfg)
    assert train_cfg.patch_size == 32
    assert train_cfg.epochs == 12
    assert train_cfg.decay_epochs == (4, 8)


def test_builders_wrap_validation_as_config_errors():
    with pytest.raises(ConfigError, match="composer"):
        composer_config_from(effective_config(None, [("composer.order", "9")]))
    with pytest.raises(ConfigError, match="model"):
        mapping_spec_from(effective_config(None, [("model.kernel_size", "4")]))
    with pytest.raises(ConfigError, match="model"):
        mapping_spec_from(effective_config(None, [("model.mapping_channels", "0")]))
    with pytest.raises(ConfigError, match="model"):
        derivative_spec_from(effective_config(None, [("model.derivative_channels", "0")]))
    with pytest.raises(ConfigError):
        train_config_from(effective_config(None, [("train.batch_size", "0")]))
    with pytest.raises(ConfigError, match="degradation"):
        degradation_spec_from(effective_config(
            None, [("data.rain.count_min", "5"), ("data.rain.count_max", "2")]))


OWNED = sorted(key for key, row in SCHEMA.items() if row.owner is not None)


def test_model_keys_are_the_checkpoint_metadata_keys():
    # a MODEL_METADATA key missing from SCHEMA would be recorded in checkpoints that no
    # config can set
    assert {key for key in SCHEMA if key.startswith(("model.", "composer."))} == set(MODEL_METADATA)


def test_only_the_cli_keys_have_no_owner():
    assert sorted(set(SCHEMA) - set(OWNED)) == [
        "data.count", "data.image_size", "paths.ckpt", "paths.data", "paths.resume"]


@pytest.mark.parametrize("key", OWNED)
def test_each_owned_key_sets_its_field_and_no_other(key):
    row = SCHEMA[key]
    parsed = row.parse(alternative_for(key))
    objects = built_objects(effective_config(None, [(key, alternative_for(key))]))
    assert getattr(objects[row.owner], row.name) == parsed
    for other in OWNED:
        if other != key:
            field = SCHEMA[other]
            assert getattr(objects[field.owner], field.name) == field.default, other


def test_default_model_is_the_same_from_config_and_from_an_older_checkpoint():
    # a checkpoint written before composer.variant and composer.g0 were recorded takes the
    # same composer as a config that leaves them unset
    cfg = effective_config(None, [("model.mapping_channels", "2"), ("model.mapping_blocks", "1"),
                                  ("model.derivative_channels", "2")])
    model = Model.init(mapping_spec_from(cfg), derivative_spec_from(cfg),
                       composer_config_from(cfg), seed=0)
    checkpoint = make_train_checkpoint(model, AdamState.for_params(model.params), 1, 0)
    del checkpoint.metadata["composer.variant"], checkpoint.metadata["composer.g0"]
    loaded = Model.from_checkpoint(checkpoint)
    assert loaded.composer == composer_config_from(effective_config())
    assert (loaded.mapping, loaded.derivative) == (model.mapping, model.derivative)
