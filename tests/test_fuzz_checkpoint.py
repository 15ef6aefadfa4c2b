"""Fuzzed checkpoints: truncated, byte-mutated, with a rewritten tensor
header, or carrying arbitrary model metadata. Loading one and rebuilding its
model may fail only with FormatError (exit 3 at the CLI), never with another
exception."""

import math
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from taylor_restore.checkpoint import MAGIC, load_checkpoint, save_checkpoint
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


def tensor_headers(blob):
    """(offset of the rank field, offset of the payload) of every tensor in a
    well-formed checkpoint blob."""
    def u32(at):
        return struct.unpack_from("<I", blob, at)[0]

    pos = len(MAGIC) + 4
    entries = u32(pos)
    pos += 4
    for _ in range(2 * entries):  # key, value
        pos += 4 + u32(pos)
    count = u32(pos)
    pos += 4
    headers = []
    for _ in range(count):
        pos += 4 + u32(pos)  # name
        rank = u32(pos)
        payload = pos + 4 + 8 * rank
        headers.append((pos, payload))
        pos = payload + 8 * math.prod(struct.unpack_from(f"<{rank}Q", blob, pos + 4))
    assert pos == len(blob)
    return headers


# zero and small extents, and extents that overflow numpy's index type
EXTENTS = [0, 1, 2, 7, 1 << 32, 1 << 63, (1 << 64) - 1]


@FUZZ
@given(data=st.data())
def test_rewritten_tensor_header_fails_only_with_format_error(blob, tmp_path, data):
    rank_at, payload_at = data.draw(st.sampled_from(tensor_headers(blob)))
    shape = data.draw(st.lists(st.sampled_from(EXTENTS), max_size=4))
    header = struct.pack(f"<I{len(shape)}Q", len(shape), *shape)
    path = tmp_path / "reshaped.bin"
    path.write_bytes(blob[:rank_at] + header + blob[payload_at:])
    load_and_rebuild(path)
