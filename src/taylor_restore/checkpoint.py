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
the network/composer hyperparameters and training counters as strings.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .autodiff import Tensor
from .composer import ComposerConfig
from .errors import FormatError
from .networks import (
    DerivativeSpec,
    MappingSpec,
    ParamSet,
    forward_derivative,
    forward_mapping,
    init_params,
)

MAGIC = b"TRSTCKPT"
VERSION = 1

PARAM_PREFIX = "param."
MOMENT_M_PREFIX = "adam.m."
MOMENT_V_PREFIX = "adam.v."


@dataclass
class Checkpoint:
    metadata: dict[str, str] = field(default_factory=dict)
    tensors: dict[str, np.ndarray] = field(default_factory=dict)


def save_checkpoint(path: str | Path, checkpoint: Checkpoint) -> None:
    """Write atomically: a sibling temp file replaces ``path`` only once it is complete."""
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
    temp = Path(f"{path}.tmp")
    temp.write_bytes(b"".join(parts))
    os.replace(temp, path)


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
        checkpoint.tensors[name] = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
    if reader.pos != len(blob):
        raise FormatError(f"{path}: {len(blob) - reader.pos} trailing bytes")
    return checkpoint


def _meta_int(checkpoint: Checkpoint, key: str) -> int:
    try:
        value = int(checkpoint.metadata[key])
    except KeyError as exc:
        raise FormatError(f"checkpoint missing metadata key {key!r}") from exc
    except ValueError as exc:
        raise FormatError(f"checkpoint metadata {key!r} is not an integer") from exc
    if not 0 <= value < 1 << 64:
        raise FormatError(f"checkpoint metadata {key!r} = {value} is outside [0, 2**64)")
    return value


def _meta_float(checkpoint: Checkpoint, key: str) -> float:
    try:
        return float(checkpoint.metadata[key])
    except KeyError as exc:
        raise FormatError(f"checkpoint missing metadata key {key!r}") from exc
    except ValueError as exc:
        raise FormatError(f"checkpoint metadata {key!r} is not a number") from exc


def specs_from_checkpoint(
    checkpoint: Checkpoint,
) -> tuple[MappingSpec, DerivativeSpec, ComposerConfig]:
    try:
        mapping_spec = MappingSpec(
            in_channels=_meta_int(checkpoint, "model.in_channels"),
            channels=_meta_int(checkpoint, "model.mapping_channels"),
            blocks=_meta_int(checkpoint, "model.mapping_blocks"),
            kernel=_meta_int(checkpoint, "model.kernel_size"),
        )
        derivative_spec = DerivativeSpec(
            in_channels=mapping_spec.in_channels,
            channels=_meta_int(checkpoint, "model.derivative_channels"),
            kernel=mapping_spec.kernel,
        )
        composer_cfg = ComposerConfig(
            order=_meta_int(checkpoint, "composer.order"),
            lam=_meta_float(checkpoint, "composer.lambda"),
            variant=checkpoint.metadata.get("composer.variant", "with_k_residual"),
            g0=checkpoint.metadata.get("composer.g0", "f_out"),
        )
    except ValueError as exc:
        raise FormatError(f"checkpoint metadata describes an invalid model: {exc}") from exc
    return mapping_spec, derivative_spec, composer_cfg


def load_params_into(params: ParamSet, checkpoint: Checkpoint) -> None:
    """Copy ``param.*`` tensors into an existing ParamSet.

    The checkpoint must carry exactly the model's parameters; the first
    missing, extra, or shape-mismatched tensor (sorted order) is named in
    the error.
    """
    stored = {
        name[len(PARAM_PREFIX):]: array
        for name, array in checkpoint.tensors.items()
        if name.startswith(PARAM_PREFIX)
    }
    for name in params.names():
        if name not in stored:
            raise FormatError(f"checkpoint missing tensor {PARAM_PREFIX}{name}")
    for name in sorted(stored):
        if name not in params:
            raise FormatError(f"checkpoint has unknown tensor {PARAM_PREFIX}{name}")
        target = params[name]
        if stored[name].shape != target.data.shape:
            raise FormatError(
                f"checkpoint tensor {PARAM_PREFIX}{name} has shape "
                f"{stored[name].shape}, model expects {target.data.shape}"
            )
    for name, array in stored.items():
        params[name].data[...] = array


def model_from_checkpoint(
    checkpoint: Checkpoint,
) -> tuple[Callable[[Tensor], Tensor], Callable[[Tensor, Tensor], Tensor], ComposerConfig]:
    """Rebuild forward callables (mapping, derivative) from a checkpoint.

    Order-0 checkpoints carry no derivative parameters; asking for one with a
    positive composer order is a format error.
    """
    mapping_spec, derivative_spec, composer_cfg = specs_from_checkpoint(checkpoint)
    has_derivative = any(
        name.startswith(PARAM_PREFIX + "derivative.") for name in checkpoint.tensors
    )
    if composer_cfg.order > 0 and not has_derivative:
        raise FormatError(
            f"checkpoint has composer order {composer_cfg.order} but no derivative parameters"
        )
    params = init_params(mapping_spec, 0)
    if has_derivative:
        params = params.merge(init_params(derivative_spec, 0))
    load_params_into(params, checkpoint)

    def mapping_fn(y: Tensor) -> Tensor:
        return forward_mapping(params, mapping_spec, y)

    def derivative_fn(g_k: Tensor, y: Tensor) -> Tensor:
        return forward_derivative(params, derivative_spec, g_k, y)

    return mapping_fn, derivative_fn, composer_cfg
