"""Binary PPM files: exact header bytes, round-half-up quantization, and
strict rejection of anything but P6/maxval-255."""

import numpy as np
import pytest

from conftest import rand_array
from taylor_restore.errors import FormatError
from taylor_restore.ppm import read_ppm, write_ppm


def test_header_bytes_are_exact(tmp_path):
    path = tmp_path / "img.ppm"
    write_ppm(np.zeros((3, 4, 8)), path)  # 8 wide, 4 high
    blob = path.read_bytes()
    assert blob.startswith(b"P6\n8 4\n255\n")
    assert len(blob) == len(b"P6\n8 4\n255\n") + 3 * 4 * 8


def test_roundtrip_error_is_at_most_half_a_level(tmp_path):
    img = rand_array(1, (3, 6, 7), 0.0, 1.0)
    path = tmp_path / "img.ppm"
    write_ppm(img, path)
    back = read_ppm(path) / 255.0
    assert back.shape == img.shape
    assert float(np.abs(back - img).max()) <= 0.5 / 255.0 + 1e-12


def test_quantization_rounds_half_up(tmp_path):
    img = np.stack([
        np.full((2, 2), 0.0),
        np.full((2, 2), 0.999),   # 254.745 + 0.5 -> 255
        np.full((2, 2), 1.0),
    ])
    path = tmp_path / "img.ppm"
    write_ppm(img, path)
    payload = path.read_bytes()[len(b"P6\n2 2\n255\n"):]
    triples = np.frombuffer(payload, dtype=np.uint8).reshape(2, 2, 3)
    assert set(triples[..., 0].reshape(-1).tolist()) == {0}
    assert set(triples[..., 1].reshape(-1).tolist()) == {255}
    assert set(triples[..., 2].reshape(-1).tolist()) == {255}


def test_grid_values_roundtrip_exactly(tmp_path):
    # every representable 8-bit level maps back to itself
    levels = np.tile(np.arange(256) / 255.0, 3)
    img = levels.reshape(3, 16, 16)
    path = tmp_path / "grid.ppm"
    write_ppm(img, path)
    back = read_ppm(path) / 255.0
    assert np.array_equal(back, img)


def test_write_read_write_is_byte_stable(tmp_path):
    img = rand_array(2, (3, 5, 5), 0.0, 1.0)
    first = tmp_path / "a.ppm"
    second = tmp_path / "b.ppm"
    write_ppm(img, first)
    write_ppm(read_ppm(first) / 255.0, second)
    assert first.read_bytes() == second.read_bytes()


def test_reader_tolerates_comments_and_whitespace(tmp_path):
    path = tmp_path / "weird.ppm"
    payload = bytes(range(24))
    path.write_bytes(b"P6\n# a comment\n 4\t2 # inline\n255\n" + payload)
    img = read_ppm(path)
    assert img.shape == (3, 2, 4) and img.dtype == np.uint8
    assert img[:, 0, 0].tolist() == [0, 1, 2]
    assert img.max() == 23


def test_reader_rejects_wrong_magic(tmp_path):
    path = tmp_path / "gray.pgm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes(4))
    with pytest.raises(FormatError, match="magic"):
        read_ppm(path)


def test_reader_rejects_wrong_maxval(tmp_path):
    path = tmp_path / "deep.ppm"
    path.write_bytes(b"P6\n2 2\n65535\n" + bytes(24))
    with pytest.raises(FormatError, match="maxval"):
        read_ppm(path)


def test_reader_rejects_truncated_payload(tmp_path):
    path = tmp_path / "cut.ppm"
    write_ppm(np.zeros((3, 4, 4)), path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-5])
    with pytest.raises(FormatError, match="truncated"):
        read_ppm(path)


def test_reader_rejects_garbage_header(tmp_path):
    path = tmp_path / "bad.ppm"
    path.write_bytes(b"P6\ntwo 2\n255\n" + bytes(12))
    with pytest.raises(FormatError, match="non-numeric"):
        read_ppm(path)
    path.write_bytes(b"not an image at all")
    with pytest.raises(FormatError):
        read_ppm(path)


def test_writer_rejects_bad_inputs(tmp_path):
    path = tmp_path / "img.ppm"
    with pytest.raises(FormatError):
        write_ppm(np.zeros((1, 4, 4)), path)  # wrong channel count
    with pytest.raises(FormatError):
        write_ppm(np.zeros((3, 4)), path)  # wrong rank
    with pytest.raises(FormatError):
        write_ppm(np.full((3, 2, 2), 1.2), path)  # out of range
    with pytest.raises(FormatError):
        write_ppm(np.full((3, 2, 2), -0.1), path)
    with pytest.raises(FormatError, match="finite"):
        write_ppm(np.full((3, 2, 2), np.nan), path)  # passes both range comparisons
    assert not path.exists()
