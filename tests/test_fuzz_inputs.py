"""Fuzzed PPM files, manifests and config files. Reading a PPM or a manifest
may fail only with FormatError (exit 3 at the CLI); a config file only with
ConfigError (exit 2), never with another exception."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from taylor_restore.cli import main
from taylor_restore.degrade import read_manifest
from taylor_restore.errors import ConfigError, FormatError
from taylor_restore.ppm import read_ppm
from taylor_restore.runconfig import SCHEMA, effective_config, parse_config_text

FUZZ = settings(derandomize=True, max_examples=150, deadline=None, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

# a 5x4 image: header, then 60 payload bytes
VALID_PPM = b"P6\n5 4\n255\n" + bytes(range(60))


def read_ppm_or_format_error(path):
    try:
        samples = read_ppm(path)
    except FormatError:
        return
    image = samples / 255.0
    assert samples.dtype == np.uint8 and image.shape[0] == 3
    assert 0.0 <= image.min() <= image.max() <= 1.0


def edited(blob: bytes, data) -> bytes:
    """blob with up to 4 bytes rewritten (half of them within the first 16 bytes),
    then possibly cut short."""
    last = len(blob) - 1
    position = st.one_of(st.integers(0, min(15, last)), st.integers(0, last))
    mutated = bytearray(blob)
    for at, value in data.draw(st.lists(st.tuples(position, st.integers(0, 255)), max_size=4)):
        mutated[at] = value
    return bytes(mutated[:data.draw(st.integers(0, len(blob)))])


@FUZZ
@given(data=st.data())
def test_mutated_ppm_fails_only_with_format_error(tmp_path, data):
    path = tmp_path / "image.ppm"
    path.write_bytes(edited(VALID_PPM, data))
    read_ppm_or_format_error(path)


HEADER_TOKENS = [b"P6", b"P3", b"P", b"5", b"4", b"0", b"-4", b"+4", b"255", b"65535", b"1e3",
                 b"0x10", b"\xff", b"\xd9\xa3", b"9" * 5000, str(1 << 64).encode()]


@FUZZ
@given(tokens=st.lists(st.one_of(st.sampled_from(HEADER_TOKENS), st.binary(max_size=4)),
                       max_size=6),
       separators=st.lists(st.sampled_from([b" ", b"\n", b"\t", b"#c\n", b"", b"#"]),
                           min_size=6, max_size=6),
       payload=st.binary(max_size=80))
def test_arbitrary_ppm_header_fails_only_with_format_error(tmp_path, tokens, separators,
                                                           payload):
    header = b"".join(token + separator for token, separator in zip(tokens, separators))
    path = tmp_path / "image.ppm"
    path.write_bytes(header + payload)
    read_ppm_or_format_error(path)


MANIFEST_HEADER = ["index", "clean", "degraded", "kind", "seed"]
MANIFEST_FIELDS = [*MANIFEST_HEADER, "0", "-1", "1_0", "x", "", "9" * 5000, "clean_000000.ppm",
                   "rain", "é", "١"]


@FUZZ
@given(rows=st.lists(st.lists(st.one_of(st.sampled_from(MANIFEST_FIELDS), st.text(max_size=8)),
                              max_size=7), max_size=4),
       keep_header=st.booleans(), data=st.data())
def test_arbitrary_manifest_fails_only_with_format_error(tmp_path, rows, keep_header, data):
    lines = [MANIFEST_HEADER + ["count_min"]] * keep_header + rows
    text = "\n".join("\t".join(fields) for fields in lines) + "\n"
    path = tmp_path / "manifest.tsv"
    path.write_bytes(edited(text.encode("utf-8", "surrogatepass"), data))
    try:
        entries = read_manifest(path)
    except FormatError:
        return
    assert all(isinstance(entry.index, int) and isinstance(entry.seed, int) for entry in entries)


CONFIG_VALUES = ["", "0", "-1", "3", "1e999", "nan", "rain", "blur", "concat_only", "1,2",
                 "1,,2", str(1 << 64), "9" * 5000, "é", "corpus_é"]


CONFIG_VALUE = st.one_of(st.sampled_from(CONFIG_VALUES), st.text(max_size=12))
# path keys take any text, so they carry most of the non-ASCII values that reach the echo
CONFIG_LINE = st.one_of(
    st.tuples(st.sampled_from(["paths.data", "paths.ckpt", "paths.resume"]), CONFIG_VALUE),
    st.tuples(st.sampled_from(sorted(SCHEMA)), CONFIG_VALUE),
).map(lambda item: f"{item[0]} = {item[1]}")


@FUZZ
@given(lines=st.lists(st.one_of(
    CONFIG_LINE,
    st.sampled_from(["", "# comment", "=", "data.bogus = 1", "no equals sign"]),
    st.text(max_size=20)), max_size=6),
    data=st.data())
def test_arbitrary_config_file_exits_2_or_runs(tmp_path, lines, data):
    """eval with a fuzzed --config: a file that does not parse exits 2; one that
    does is echoed, and the run then exits 3 on its missing checkpoint."""
    blob = edited(("\n".join(lines) + "\n").encode("utf-8"), data)
    path = tmp_path / "run.cfg"
    path.write_bytes(blob)
    try:
        effective_config(parse_config_text(blob.decode("utf-8")))
        expected = 3
    except (UnicodeDecodeError, ConfigError):
        expected = 2
    rc = main(["eval", "--config", str(path), "--out", str(tmp_path / "eval"),
               "--ckpt", str(tmp_path / "missing.bin"), "--data", str(tmp_path / "corpus")])
    assert rc == expected
    if expected == 3:
        assert (tmp_path / "eval" / "config.echo").exists()
