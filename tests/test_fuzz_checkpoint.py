"""Fuzzed checkpoints: truncated, byte-mutated, or carrying arbitrary model
metadata. Loading one and rebuilding its model may fail only with
FormatError (exit 3 at the CLI), never with another exception."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from taylor_restore.checkpoint import load_checkpoint, save_checkpoint
from taylor_restore.composer import ComposerConfig
from taylor_restore.errors import FormatError
from taylor_restore.networks import DerivativeSpec, MappingSpec
from taylor_restore.trainer import MODEL_METADATA, AdamState, Model, make_train_checkpoint

FUZZ = settings(derandomize=True, max_examples=150, deadline=None, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def tiny_checkpoint():
    model = Model.init(MappingSpec(channels=4, blocks=1), DerivativeSpec(channels=4),
                       ComposerConfig(order=2), seed=3)
    return make_train_checkpoint(model, AdamState.for_params(model.params),
                                 epoch=1, rng_state=5)


@pytest.fixture
def blob(tmp_path):
    save_checkpoint(tmp_path / "valid.bin", tiny_checkpoint())
    return (tmp_path / "valid.bin").read_bytes()


def load_and_rebuild(path):
    """Model.from_checkpoint(load_checkpoint(path)); FormatError is the only
    failure allowed, so any other exception fails the calling test."""
    try:
        return Model.from_checkpoint(load_checkpoint(path))
    except FormatError:
        return None


def test_valid_checkpoint_rebuilds(blob, tmp_path):
    path = tmp_path / "copy.bin"
    path.write_bytes(blob)
    assert load_and_rebuild(path) is not None


@FUZZ
@given(data=st.data())
def test_truncated_checkpoint_is_format_error(blob, tmp_path, data):
    cut = data.draw(st.integers(0, len(blob) - 1))
    path = tmp_path / "cut.bin"
    path.write_bytes(blob[:cut])
    with pytest.raises(FormatError):
        Model.from_checkpoint(load_checkpoint(path))


@FUZZ
@given(data=st.data())
def test_mutated_bytes_fail_only_with_format_error(blob, tmp_path, data):
    # half the positions fall in the first 600 bytes: header, metadata and the
    # first tensor headers, where a changed byte changes the structure
    position = st.one_of(st.integers(0, 600), st.integers(0, len(blob) - 1))
    edits = data.draw(st.lists(st.tuples(position, st.integers(0, 255)), min_size=1, max_size=4))
    mutated = bytearray(blob)
    for at, value in edits:
        mutated[at] = value
    path = tmp_path / "mutated.bin"
    path.write_bytes(bytes(mutated))
    load_and_rebuild(path)


@FUZZ
@given(key=st.sampled_from(sorted(MODEL_METADATA)),
       value=st.one_of(st.text(max_size=30),
                       st.integers().map(str),
                       st.sampled_from([1 << 40, (1 << 40) + 1, 10**7, 1 << 64, -1]).map(str)))
def test_arbitrary_model_metadata_fails_only_with_format_error(tmp_path, key, value):
    checkpoint = tiny_checkpoint()
    checkpoint.metadata[key] = value
    path = tmp_path / "edited.bin"
    save_checkpoint(path, checkpoint)
    load_and_rebuild(path)
