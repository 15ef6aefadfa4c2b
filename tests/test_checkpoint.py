"""Binary checkpoints: byte-stable serialization, strict validation on load,
and model reconstruction."""

import struct

import numpy as np
import pytest

from conftest import rand_tensor
from taylor_restore import trainer
from taylor_restore.checkpoint import (
    MAGIC,
    Checkpoint,
    checked_params,
    load_checkpoint,
    save_checkpoint,
)
from taylor_restore.composer import ComposerConfig
from taylor_restore.errors import FormatError
from taylor_restore.networks import (
    DerivativeSpec,
    MappingSpec,
    forward_mapping,
    init_params,
    param_shapes,
)
from taylor_restore.prng import SplitMix64
from taylor_restore.trainer import AdamState, Model, make_train_checkpoint


def sample_checkpoint():
    rng = SplitMix64(3)
    return Checkpoint(
        metadata={"alpha": "1", "z.key": "text value", "empty": ""},
        tensors={
            "param.w": rng.gaussians(6).reshape(2, 3),
            "adam.m.w": np.zeros((2, 3)),
            "scalar": np.array(2.5),  # rank-0 tensors are legal
        },
    )


def test_roundtrip_preserves_everything(tmp_path):
    path = tmp_path / "ckpt.bin"
    original = sample_checkpoint()
    save_checkpoint(path, original)
    loaded = load_checkpoint(path)
    assert loaded.metadata == original.metadata
    assert sorted(loaded.tensors) == sorted(original.tensors)
    for name in original.tensors:
        assert loaded.tensors[name].shape == np.asarray(original.tensors[name]).shape
        assert np.array_equal(loaded.tensors[name], original.tensors[name])
        assert loaded.tensors[name].dtype == np.float64


def test_save_load_save_is_byte_identical(tmp_path):
    first = tmp_path / "a.bin"
    second = tmp_path / "b.bin"
    save_checkpoint(first, sample_checkpoint())
    save_checkpoint(second, load_checkpoint(first))
    assert first.read_bytes() == second.read_bytes()


def test_empty_checkpoint_roundtrips(tmp_path):
    path = tmp_path / "empty.bin"
    save_checkpoint(path, Checkpoint())
    loaded = load_checkpoint(path)
    assert loaded.metadata == {} and loaded.tensors == {}
    assert path.read_bytes() == MAGIC + struct.pack("<I", 1) + struct.pack("<II", 0, 0)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.bin"
    save_checkpoint(path, sample_checkpoint())
    blob = bytearray(path.read_bytes())
    blob[0] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="magic"):
        load_checkpoint(path)


def test_unknown_version_rejected(tmp_path):
    path = tmp_path / "bad.bin"
    save_checkpoint(path, sample_checkpoint())
    blob = bytearray(path.read_bytes())
    blob[8:12] = struct.pack("<I", 2)
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="version"):
        load_checkpoint(path)


def test_truncated_file_rejected(tmp_path):
    path = tmp_path / "cut.bin"
    save_checkpoint(path, sample_checkpoint())
    blob = path.read_bytes()
    path.write_bytes(blob[:-3])
    with pytest.raises(FormatError, match="truncated"):
        load_checkpoint(path)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "padded.bin"
    save_checkpoint(path, sample_checkpoint())
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(FormatError, match="trailing"):
        load_checkpoint(path)


@pytest.mark.parametrize("shape", [(0, 1 << 63), (1 << 32, 1 << 32, 0), (0, (1 << 64) - 1)])
def test_zero_size_tensor_with_unusable_extents_rejected(tmp_path, shape):
    # no payload bytes, so nothing is truncated, but numpy cannot reshape to it
    path = tmp_path / "huge.bin"
    name = b"param.w"
    path.write_bytes(MAGIC + struct.pack("<III", 1, 0, 1) + struct.pack("<I", len(name)) + name
                     + struct.pack("<I", len(shape)) + struct.pack(f"<{len(shape)}Q", *shape))
    with pytest.raises(FormatError, match="unusable shape"):
        load_checkpoint(path)


# --- parameter loading ---------------------------------------------------------

def mapping_checkpoint(spec, seed=1):
    ckpt = Checkpoint()
    for name, tensor in init_params(spec, seed).items():
        ckpt.tensors["param." + name] = tensor.data.copy()
    return ckpt


def test_missing_tensor_is_named():
    spec = MappingSpec(channels=4, blocks=1)
    ckpt = mapping_checkpoint(spec)
    del ckpt.tensors["param.mapping.conv_in.bias"]
    with pytest.raises(FormatError, match=r"missing tensor param\.mapping\.conv_in\.bias"):
        checked_params(param_shapes(spec), ckpt)


def test_unknown_tensor_is_named():
    spec = MappingSpec(channels=4, blocks=1)
    ckpt = mapping_checkpoint(spec)
    ckpt.tensors["param.aaa_extra"] = np.zeros(2)
    with pytest.raises(FormatError, match=r"unknown tensor param\.aaa_extra"):
        checked_params(param_shapes(spec), ckpt)


def test_shape_mismatch_is_named():
    spec = MappingSpec(channels=4, blocks=1)
    ckpt = mapping_checkpoint(spec)
    ckpt.tensors["param.mapping.conv_in.weight"] = np.zeros((2, 2))
    with pytest.raises(FormatError, match=r"param\.mapping\.conv_in\.weight has shape"):
        checked_params(param_shapes(spec), ckpt)


# --- model reconstruction ---------------------------------------------------------

def train_style_checkpoint(order, seed=5):
    mapping_spec = MappingSpec(channels=4, blocks=1)
    derivative_spec = DerivativeSpec(in_channels=3, channels=4)
    cfg = ComposerConfig(order=order, lam=0.5, variant="concat_only", g0="y")
    model = Model.init(mapping_spec, derivative_spec, cfg, seed)
    return mapping_spec, derivative_spec, model.params, make_train_checkpoint(
        model, AdamState.for_params(model.params), epoch=0, rng_state=17)


def test_specs_roundtrip_through_metadata():
    mapping_spec, derivative_spec, _, ckpt = train_style_checkpoint(order=2)
    model = Model.from_checkpoint(ckpt)
    assert model.mapping == mapping_spec
    assert model.derivative == derivative_spec
    c = model.composer
    assert (c.order, c.lam, c.variant, c.g0) == (2, 0.5, "concat_only", "y")
    assert ckpt.metadata["train.rng_state"] == "17"
    assert model.metadata() == {key: value for key, value in ckpt.metadata.items()
                                if not key.startswith("train.")}


def test_model_from_checkpoint_reproduces_forward(tmp_path):
    mapping_spec, derivative_spec, params, ckpt = train_style_checkpoint(order=2)
    path = tmp_path / "model.bin"
    save_checkpoint(path, ckpt)
    model = Model.from_checkpoint(load_checkpoint(path))
    y = rand_tensor(8, (1, 3, 8, 8), 0.0, 1.0)
    direct = forward_mapping(params, mapping_spec, y)
    assert forward_mapping(model.params, model.mapping, y).data.tobytes() == direct.data.tobytes()
    original = Model(mapping_spec, derivative_spec, model.composer, params)
    assert model.forward(y).output.data.tobytes() == original.forward(y).output.data.tobytes()
    assert model.composer.order == 2


def test_order_zero_checkpoint_has_no_derivative_tensors():
    _, _, _, ckpt = train_style_checkpoint(order=0)
    assert not any("derivative" in name for name in ckpt.tensors)
    model = Model.from_checkpoint(ckpt)
    assert model.composer.order == 0
    y = rand_tensor(9, (1, 3, 8, 8), 0.0, 1.0)
    trace = model.forward(y)
    assert trace.output is trace.f_out and trace.output.shape == y.shape


def test_positive_order_without_derivative_params_rejected():
    _, _, _, ckpt = train_style_checkpoint(order=0)
    ckpt.metadata["composer.order"] = "3"
    with pytest.raises(FormatError, match="no derivative parameters"):
        Model.from_checkpoint(ckpt)


def test_order_zero_with_derivative_params_rejected():
    _, _, _, ckpt = train_style_checkpoint(order=2)
    ckpt.metadata["composer.order"] = "0"
    with pytest.raises(FormatError, match="order 0 but derivative parameters"):
        Model.from_checkpoint(ckpt)


@pytest.mark.parametrize("key, value, message", [
    ("model.mapping_blocks", str(10**7), "has 12 parameter tensors"),
    ("model.mapping_channels", str(1 << 40), "has shape"),
    ("model.kernel_size", str((1 << 40) + 1), "has shape"),
])
def test_metadata_of_another_model_fails_before_building_it(monkeypatch, key, value, message):
    # from_checkpoint draws no init and counts the stored tensors before it
    # lists the layers, so metadata naming a huge model costs nothing
    _, _, _, ckpt = train_style_checkpoint(order=2)
    ckpt.metadata[key] = value
    real_shapes = trainer.param_shapes

    def bounded_shapes(spec):
        assert getattr(spec, "blocks", 0) <= 1, "layers listed before the count check"
        return real_shapes(spec)

    monkeypatch.setattr(trainer, "param_shapes", bounded_shapes)
    monkeypatch.setattr(trainer, "init_params", None)
    with pytest.raises(FormatError, match=message):
        Model.from_checkpoint(ckpt)
