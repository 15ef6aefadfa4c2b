"""Binary checkpoint files.

Layout (all integers little-endian, all floats IEEE-754 binary64):

    bytes  8   magic  b"TRSTCKPT"
    u32        format version (currently 1)
    u32        metadata entry count
      per entry: u32 key length, key bytes (UTF-8),
                 u32 value length, value bytes (UTF-8)
    u32        tensor count
      per tensor: u32 name length, name bytes (UTF-8),
                  u32 rank, rank x u64 extents,
                  numel x f64 payload (C row-major order)

Metadata keys and tensor names are written sorted, so save -> load -> save
is byte-identical. Tensors hold model parameters under ``param.<path>`` and
Adam moments under ``adam.m.<path>`` / ``adam.v.<path>``; metadata carries
the network/composer hyperparameters (``trainer.MODEL_METADATA``) and
training counters as strings.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import FormatError
# Not called here; perfbench/tracing.py wraps these two attributes of this module.
from .networks import forward_derivative, forward_mapping  # noqa: F401

MAGIC = b"TRSTCKPT"
VERSION = 1

PARAM_PREFIX = "param."
MOMENT_M_PREFIX = "adam.m."
MOMENT_V_PREFIX = "adam.v."


@dataclass
class Checkpoint:
    metadata: dict[str, str] = field(default_factory=dict)
    tensors: dict[str, np.ndarray] = field(default_factory=dict)


def write_atomic(path: str | Path, data: bytes) -> None:
    """Write ``data`` to a sibling temp file that replaces ``path`` only once it is complete,
    so ``path`` holds either its earlier bytes or all of the new ones. A failed write or
    replace removes the temp file."""
    temp = Path(f"{path}.tmp")
    try:
        temp.write_bytes(data)
        os.replace(temp, path)
    except OSError:
        temp.unlink(missing_ok=True)
        raise


def save_checkpoint(path: str | Path, checkpoint: Checkpoint) -> None:
    """Write atomically (``write_atomic``)."""
    parts: list[bytes] = [MAGIC, struct.pack("<I", VERSION)]
    meta_items = sorted(checkpoint.metadata.items())
    parts.append(struct.pack("<I", len(meta_items)))
    for key, value in meta_items:
        key_b, value_b = key.encode("utf-8"), str(value).encode("utf-8")
        parts.append(struct.pack("<I", len(key_b)) + key_b)
        parts.append(struct.pack("<I", len(value_b)) + value_b)
    names = sorted(checkpoint.tensors)
    parts.append(struct.pack("<I", len(names)))
    for name in names:
        # asarray, not ascontiguousarray: the latter promotes rank-0 to rank-1,
        # and tobytes() below already serialises in C order.
        array = np.asarray(checkpoint.tensors[name], dtype=np.float64)
        name_b = name.encode("utf-8")
        parts.append(struct.pack("<I", len(name_b)) + name_b)
        parts.append(struct.pack("<I", array.ndim))
        parts.append(struct.pack(f"<{array.ndim}Q", *array.shape) if array.ndim else b"")
        parts.append(array.astype("<f8", copy=False).tobytes())
    write_atomic(path, b"".join(parts))


class _Reader:
    def __init__(self, blob: bytes, origin: str):
        self.blob = blob
        self.pos = 0
        self.origin = origin

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise FormatError(f"{self.origin}: truncated checkpoint")
        chunk = self.blob[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def text(self) -> str:
        try:
            return self.take(self.u32()).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{self.origin}: text field is not valid UTF-8") from exc


def load_checkpoint(path: str | Path) -> Checkpoint:
    blob = Path(path).read_bytes()
    reader = _Reader(blob, str(path))
    if reader.take(len(MAGIC)) != MAGIC:
        raise FormatError(f"{path}: not a checkpoint file (bad magic)")
    version = reader.u32()
    if version != VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    checkpoint = Checkpoint()
    for _ in range(reader.u32()):
        key = reader.text()
        checkpoint.metadata[key] = reader.text()
    for _ in range(reader.u32()):
        name = reader.text()
        rank = reader.u32()
        shape = struct.unpack(f"<{rank}Q", reader.take(8 * rank)) if rank else ()
        count = 1
        for extent in shape:
            count *= extent
        payload = reader.take(8 * count)
        try:
            array = np.frombuffer(payload, dtype="<f8").reshape(shape)
        except ValueError as exc:  # zero-size, but an extent numpy cannot index
            raise FormatError(f"{path}: tensor {name} has unusable shape {shape}") from exc
        checkpoint.tensors[name] = array.copy()
    if reader.pos != len(blob):
        raise FormatError(f"{path}: {len(blob) - reader.pos} trailing bytes")
    return checkpoint


def meta_value(checkpoint: Checkpoint, key: str, parse=int):
    """One metadata value through ``parse`` (int, float or str); integers must
    lie in [0, 2**64). Anything else is a FormatError naming the key."""
    if key not in checkpoint.metadata:
        raise FormatError(f"checkpoint missing metadata key {key!r}")
    try:
        value = parse(checkpoint.metadata[key])
    except ValueError as exc:
        raise FormatError(f"checkpoint metadata {key!r} is not a valid {parse.__name__}") from exc
    if parse is int and not 0 <= value < 1 << 64:
        raise FormatError(f"checkpoint metadata {key!r} = {value} is outside [0, 2**64)")
    return value


def checked_params(shapes: dict[str, tuple[int, ...]], checkpoint: Checkpoint,
                   prefix: str = PARAM_PREFIX) -> dict[str, np.ndarray]:
    """The checkpoint's ``<prefix><path>`` arrays by parameter path, after
    checking them against the expected shapes.

    The checkpoint must carry exactly these tensors; the first missing,
    extra, or shape-mismatched one (sorted order) is named in the error.
    """
    stored = {
        name[len(prefix):]: array
        for name, array in checkpoint.tensors.items()
        if name.startswith(prefix)
    }
    for name in sorted(shapes):
        if name not in stored:
            raise FormatError(f"checkpoint missing tensor {prefix}{name}")
    for name in sorted(stored):
        if name not in shapes:
            raise FormatError(f"checkpoint has unknown tensor {prefix}{name}")
        if stored[name].shape != shapes[name]:
            raise FormatError(
                f"checkpoint tensor {prefix}{name} has shape "
                f"{stored[name].shape}, model expects {shapes[name]}"
            )
    return stored
