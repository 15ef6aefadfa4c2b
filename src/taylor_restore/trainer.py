"""Training loop: Adam, step-decay schedule, patch sampling, checkpoints.

Randomness is split into three independent child streams of the run seed:
mapping-net init (stream 1), derivative-net init (stream 2), and patch
sampling (stream 3). Because the streams are independent, the mapping net's
initial parameters and the sampled patches are bit-identical across composer
orders for the same seed; only the presence of the derivative net differs.

Each epoch runs ceil(corpus / batch) steps. A batch draws, per slot and in
this order, an image index, a patch top row, and a patch left column, all
uniform; clean and degraded patches are co-located. The loss log
``loss.tsv`` has one row per step: epoch (0-based), global step (1-based),
lr, total loss, output term, coarse term, all floats via repr so reruns are
byte-identical. It is flushed at every epoch end, and a run resumed into
the same directory keeps the rows up to its checkpoint's step and appends
after them. Checkpoints ``ckpt_epoch%04d.bin`` carry parameters, Adam
moments, counters, and the sampling-stream state, which is what makes
split training (train N, resume M) bit-identical to training N+M epochs.

A non-finite loss or parameter gradient aborts before the Adam update of its step.

Training pins glibc's heap for the rest of the process (see ``pin_heap``).
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import TextIO

import numpy as np

from .autodiff import Graph, Tensor, backward
from .checkpoint import (
    MOMENT_M_PREFIX,
    MOMENT_V_PREFIX,
    PARAM_PREFIX,
    Checkpoint,
    checked_params,
    load_checkpoint,
    meta_value,
    save_checkpoint,
)
from .composer import ComposerConfig, ComposerTrace, compose_orders, framework_loss_terms
from .degrade import ManifestEntry, read_manifest
from .errors import ConfigError, DivergenceError, FormatError
from .networks import (
    DerivativeSpec,
    MappingSpec,
    ParamSet,
    forward_derivative,
    forward_mapping,
    init_params,
    param_count,
    param_shapes,
)
from .ppm import read_ppm
from .prng import SplitMix64, derive_stream

STREAM_INIT_MAPPING = 1
STREAM_INIT_DERIVATIVE = 2
STREAM_DATA = 3

LOSS_LOG_HEADER = "epoch\tstep\tlr\tloss\tloss_output\tloss_coarse"


@dataclass(frozen=True)
class TrainConfig:
    patch_size: int = 100
    batch_size: int = 4
    lr0: float = 1e-3
    decay_epochs: tuple[int, ...] = (30, 50, 80)
    decay_factor: float = 0.2
    epochs: int = 100
    seed: int = 0
    checkpoint_every: int = 10  # 0 means final checkpoint only

    def __post_init__(self):
        if self.patch_size < 1:
            raise ConfigError(f"patch size must be >= 1, got {self.patch_size}")
        if self.batch_size < 1:
            raise ConfigError(f"batch size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ConfigError(f"epoch count must be >= 1, got {self.epochs}")
        if not (self.lr0 > 0 and math.isfinite(self.lr0)):
            raise ConfigError(f"lr0 must be positive and finite, got {self.lr0}")
        if not (0.0 < self.decay_factor <= 1.0):
            raise ConfigError(f"decay factor must be in (0, 1], got {self.decay_factor}")
        if any(b <= a for a, b in zip(self.decay_epochs, self.decay_epochs[1:])):
            raise ConfigError(f"decay epochs must increase strictly: {self.decay_epochs}")
        if self.checkpoint_every < 0:
            raise ConfigError(f"checkpoint_every must be >= 0, got {self.checkpoint_every}")


def lr_at(epoch: int, cfg: TrainConfig) -> float:
    """lr0 times decay_factor once per decay epoch <= epoch.

    The factor is applied as an exact rational when it is one (0.2 == 1/5 as
    a double), i.e. lr0 * num**k / den**k with integer powers, so repeated
    decay hits the exact decimal doubles (2e-4, 4e-5, 8e-6) instead of
    accumulating rounding error. Non-rational factors fall back to
    lr0 * factor**k.
    """
    decays = sum(1 for boundary in cfg.decay_epochs if boundary <= epoch)
    as_fraction = Fraction(cfg.decay_factor).limit_denominator(1_000_000)
    if float(as_fraction) == cfg.decay_factor:
        return cfg.lr0 * as_fraction.numerator**decays / as_fraction.denominator**decays
    return cfg.lr0 * cfg.decay_factor**decays


@dataclass
class AdamState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0

    @classmethod
    def for_params(cls, params: ParamSet) -> "AdamState":
        state = cls()
        for name, tensor in params.items():
            state.m[name] = np.zeros_like(tensor.data)
            state.v[name] = np.zeros_like(tensor.data)
        return state


def adam_step(params: ParamSet, state: AdamState, lr: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> None:
    """One bias-corrected Adam update from the grads stored on the params."""
    state.t += 1
    bias1 = 1.0 - beta1**state.t
    bias2 = 1.0 - beta2**state.t
    for name, tensor in params.items():
        grad = tensor.grad
        if grad is None:
            raise ValueError(f"adam_step: parameter {name!r} has no gradient")
        m = state.m[name]
        v = state.v[name]
        m *= beta1
        m += (1.0 - beta1) * grad
        v *= beta2
        v += (1.0 - beta2) * (grad * grad)
        tensor.data -= lr * (m / bias1) / (np.sqrt(v / bias2) + eps)


@dataclass
class CorpusImage:
    """One training pair as its files hold it: (3, H, W) uint8 samples each, which
    ``sample_patch_batch`` turns into floats one crop at a time."""
    clean: np.ndarray
    degraded: np.ndarray
    file: str


def read_pair(corpus_dir: Path, entry: ManifestEntry) -> tuple[np.ndarray, np.ndarray]:
    """The (clean, degraded) images of one manifest entry, which must have one shape."""
    clean = read_ppm(corpus_dir / entry.clean_file)
    degraded = read_ppm(corpus_dir / entry.degraded_file)
    if clean.shape != degraded.shape:
        raise FormatError(
            f"{entry.clean_file}/{entry.degraded_file}: pair shapes differ "
            f"({clean.shape} vs {degraded.shape})"
        )
    return clean, degraded


def load_corpus(corpus_dir: str | Path) -> list[CorpusImage]:
    """Every pair the manifest lists, in its order, kept as the 8-bit samples ``read_ppm``
    returns: 3·H·W bytes an image, an eighth of the images as float64."""
    corpus_dir = Path(corpus_dir)
    entries = read_manifest(corpus_dir / "manifest.tsv")
    if not entries:
        raise FormatError(f"{corpus_dir}: manifest lists no samples")
    images = []
    for entry in entries:
        clean, degraded = read_pair(corpus_dir, entry)
        images.append(CorpusImage(clean=clean, degraded=degraded, file=entry.degraded_file))
    return images


def sample_patch_batch(corpus: list[CorpusImage], patch_size: int, batch_size: int,
                       rng: SplitMix64) -> tuple[Tensor, Tensor]:
    """(degraded, clean) batch of co-located random crops, (B, C, p, p), as constants: training
    computes no gradient for either. Each uint8 crop is divided by 255.0 straight into its
    float64 slot, the same division as ``read_ppm(f) / 255.0``, so the batch keeps its bytes.
    Every image must be at least patch_size on each side, which ``train`` checks first."""
    channels = corpus[0].clean.shape[0]
    degraded = np.empty((batch_size, channels, patch_size, patch_size))
    clean = np.empty_like(degraded)
    for i in range(batch_size):
        image = corpus[rng.randint(len(corpus))]
        _, height, width = image.clean.shape
        top = rng.randint(height - patch_size + 1)
        left = rng.randint(width - patch_size + 1)
        window = (slice(None), slice(top, top + patch_size), slice(left, left + patch_size))
        np.divide(image.degraded[window], 255.0, out=degraded[i])
        np.divide(image.clean[window], 255.0, out=clean[i])
    return Tensor.constant(degraded), Tensor.constant(clean)


# Checkpoint metadata and config keys describing a model: key -> (part, field, parser).
# The derivative net takes in_channels and kernel from the mapping net.
MODEL_METADATA = {
    "model.in_channels": ("mapping", "in_channels", int),
    "model.mapping_channels": ("mapping", "channels", int),
    "model.mapping_blocks": ("mapping", "blocks", int),
    "model.kernel_size": ("mapping", "kernel", int),
    "model.derivative_channels": ("derivative", "channels", int),
    "composer.order": ("composer", "order", int),
    "composer.lambda": ("composer", "lam", float),
    "composer.variant": ("composer", "variant", str),
    "composer.g0": ("composer", "g0", str),
}


def model_specs(values: dict) -> tuple[MappingSpec, DerivativeSpec, ComposerConfig]:
    """The specs that parsed ``MODEL_METADATA`` values describe; an absent key takes its
    field's default. An invalid value raises ValueError."""
    fields: dict[str, dict] = {"mapping": {}, "derivative": {}, "composer": {}}
    for key, (part, name, _) in MODEL_METADATA.items():
        if key in values:
            fields[part][name] = values[key]
    mapping = MappingSpec(**fields["mapping"])
    derivative = DerivativeSpec(in_channels=mapping.in_channels, kernel=mapping.kernel,
                                **fields["derivative"])
    return mapping, derivative, ComposerConfig(**fields["composer"])


@dataclass
class Model:
    """The mapping net, the derivative net and their series composition, with
    one ParamSet holding both nets' parameters (order 0 has no derivative
    parameters at all)."""
    mapping: MappingSpec
    derivative: DerivativeSpec
    composer: ComposerConfig
    params: ParamSet

    @classmethod
    def init(cls, mapping: MappingSpec, derivative: DerivativeSpec,
             composer: ComposerConfig, seed: int) -> "Model":
        """Fresh parameters: the mapping net from stream 1 of ``seed``, then
        the derivative net from stream 2 when the order is positive."""
        params = init_params(mapping, derive_stream(seed, STREAM_INIT_MAPPING))
        if composer.order > 0:
            init_params(derivative, derive_stream(seed, STREAM_INIT_DERIVATIVE), params)
        return cls(mapping, derivative, composer, params)

    def forward(self, y: Tensor) -> ComposerTrace:
        # Module-level names, looked up per call: perfbench/tracing.py wraps them.
        return compose_orders(
            lambda t: forward_mapping(self.params, self.mapping, t),
            lambda g_k, t: forward_derivative(self.params, self.derivative, g_k, t),
            y, self.composer,
        )

    def metadata(self) -> dict[str, str]:
        return {key: str(getattr(getattr(self, part), name))
                for key, (part, name, _) in MODEL_METADATA.items()}

    @classmethod
    def from_checkpoint(cls, checkpoint: Checkpoint) -> "Model":
        """Rebuild a model from checkpoint metadata and its ``param.*`` tensors.

        The tensors' count, names and shapes are checked against the specs
        before any parameter is built, so metadata describing a huge model
        fails without allocating it. Derivative parameters are present exactly
        when the order is positive; the composer's variant and g0 take their
        defaults when absent.
        """
        values = {key: meta_value(checkpoint, key, parse)
                  for key, (_, _, parse) in MODEL_METADATA.items()
                  if parse is not str or key in checkpoint.metadata}
        try:
            mapping, derivative, composer = model_specs(values)
        except ValueError as exc:
            raise FormatError(f"checkpoint metadata describes an invalid model: {exc}") from exc
        stored = [name for name in checkpoint.tensors if name.startswith(PARAM_PREFIX)]
        has_derivative = any(name.startswith(PARAM_PREFIX + "derivative.") for name in stored)
        if has_derivative != (composer.order > 0):
            raise FormatError(f"checkpoint has composer order {composer.order} but "
                              f"{'' if has_derivative else 'no '}derivative parameters")
        nets = [mapping, derivative] if has_derivative else [mapping]
        expected = sum(param_count(net) for net in nets)
        if len(stored) != expected:
            raise FormatError(
                f"checkpoint has {len(stored)} parameter tensors, its metadata "
                f"describes a model with {expected}"
            )
        shapes = {name: shape for net in nets for name, shape in param_shapes(net).items()}
        params = ParamSet()
        for name, array in checked_params(shapes, checkpoint).items():
            params.add(name, Tensor(array))
        return cls(mapping, derivative, composer, params)


def make_train_checkpoint(model: Model, state: AdamState, epoch: int,
                          rng_state: int) -> Checkpoint:
    checkpoint = Checkpoint()
    checkpoint.metadata = {
        **model.metadata(),
        "train.epoch": str(epoch),
        "train.step": str(state.t),
        "train.rng_state": str(rng_state),
    }
    for name, tensor in model.params.items():
        checkpoint.tensors[PARAM_PREFIX + name] = tensor.data.copy()
        checkpoint.tensors[MOMENT_M_PREFIX + name] = state.m[name].copy()
        checkpoint.tensors[MOMENT_V_PREFIX + name] = state.v[name].copy()
    return checkpoint


def _open_loss_log(path: Path, step: int) -> TextIO:
    """The loss log, open for appending after its header and its rows up to `step`.

    A run resumed at global step `step` keeps the rows its checkpoint covers
    and drops any later ones; a fresh run (step 0), a missing file, or a file
    that does not start with the header is written from the header alone.
    Keeping stops at the first row past `step` or cut short by a kill.
    """
    header = (LOSS_LOG_HEADER + "\n").encode("ascii")
    keep = 0
    if step and path.is_file():
        data = path.read_bytes()
        if data.startswith(header):
            keep = len(header)
            for row in data[keep:].split(b"\n")[:-1]:  # rows that end in a newline
                fields = row.split(b"\t")
                if (len(fields) != header.count(b"\t") + 1 or not fields[1].isdigit()
                        or int(fields[1]) > step):
                    break
                keep += len(row) + 1
    if keep:
        os.truncate(path, keep)
        return open(path, "a", encoding="ascii")
    log = open(path, "w", encoding="ascii")
    log.write(LOSS_LOG_HEADER + "\n")
    return log


@functools.cache
def pin_heap() -> None:
    """Keep freed memory in glibc's heap for the rest of the process, once per process.

    By default glibc unmaps each freed block above its (dynamic) mmap threshold and trims the
    heap top once 128 KiB of it are free, so a step's buffers come back as fresh pages that
    fault again on the next step or call. With both thresholds above a step's largest
    temporary, the freed blocks stay mapped and the next step reuses them. Freed memory then
    stays with the process until it exits; the peak is unchanged. Where the C library has no
    mallopt, this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # M_TRIM_THRESHOLD and M_MMAP_THRESHOLD, both above the largest temporary of a
    # paper-default step (a 10 MiB 32-channel activation or gradient grid; conv2d's tap
    # stacks are built per tile, 6 MiB at most)
    mallopt(-1, 1 << 30)
    mallopt(-3, 128 << 20)


def train(corpus_dir: str | Path, mapping_spec: MappingSpec,
          derivative_spec: DerivativeSpec, composer_cfg: ComposerConfig,
          cfg: TrainConfig, out_dir: str | Path,
          resume_from: str | Path | None = None) -> Path:
    """Train a model on a corpus; returns the final checkpoint path.

    A resumed run takes its model, Adam moments and counters from the
    checkpoint; a config describing another model is a ConfigError naming the
    first differing key.
    """
    pin_heap()
    corpus = load_corpus(corpus_dir)
    for image in corpus:
        channels, height, width = image.clean.shape
        if channels != mapping_spec.in_channels:
            raise ConfigError(
                f"image {image.file} has {channels} channels, model.in_channels "
                f"is {mapping_spec.in_channels}"
            )
        if height < cfg.patch_size or width < cfg.patch_size:
            raise ConfigError(
                f"image {image.file} is {height}x{width}, smaller than patch "
                f"size {cfg.patch_size}"
            )

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    rng = SplitMix64(derive_stream(cfg.seed, STREAM_DATA))
    start_epoch = 0
    if resume_from is None:
        model = Model.init(mapping_spec, derivative_spec, composer_cfg, cfg.seed)
        state = AdamState.for_params(model.params)
    else:
        checkpoint = load_checkpoint(resume_from)
        model = Model.from_checkpoint(checkpoint)
        wanted = Model(mapping_spec, derivative_spec, composer_cfg, ParamSet()).metadata()
        for key, value in model.metadata().items():
            if value != wanted[key]:
                raise ConfigError(f"checkpoint has {key} = {value}, config has {wanted[key]}")
        shapes = {name: tensor.data.shape for name, tensor in model.params.items()}
        state = AdamState(m=checked_params(shapes, checkpoint, MOMENT_M_PREFIX),
                          v=checked_params(shapes, checkpoint, MOMENT_V_PREFIX),
                          t=meta_value(checkpoint, "train.step"))
        start_epoch = meta_value(checkpoint, "train.epoch")
        rng.state = meta_value(checkpoint, "train.rng_state")
        if start_epoch >= cfg.epochs:
            raise ConfigError(
                f"checkpoint already covers {start_epoch} epochs; "
                f"config asks for {cfg.epochs}"
            )

    params = model.params
    steps_per_epoch = math.ceil(len(corpus) / cfg.batch_size)
    final_path: Path | None = None
    with _open_loss_log(out_dir / "loss.tsv", state.t) as log:
        for epoch in range(start_epoch, cfg.epochs):
            lr = lr_at(epoch, cfg)
            for _ in range(steps_per_epoch):
                degraded, clean = sample_patch_batch(
                    corpus, cfg.patch_size, cfg.batch_size, rng
                )
                params.zero_grads()
                with Graph() as graph:
                    total, loss_output, loss_coarse = framework_loss_terms(
                        model.forward(degraded), clean, model.composer
                    )
                loss_value = total.item()
                if not math.isfinite(loss_value):
                    log.flush()
                    raise DivergenceError(state.t + 1, lr, loss_value)
                backward(total, graph)
                for name, tensor in params.items():
                    bad = tensor.grad[~np.isfinite(tensor.grad)]
                    if bad.size:
                        log.flush()
                        raise DivergenceError(state.t + 1, lr, float(bad[0]), f"gradient of {name}")
                adam_step(params, state, lr)
                log.write(
                    f"{epoch}\t{state.t}\t{lr!r}\t{loss_value!r}"
                    f"\t{loss_output.item()!r}\t{loss_coarse.item()!r}\n"
                )
            log.flush()
            completed = epoch + 1
            due = cfg.checkpoint_every > 0 and completed % cfg.checkpoint_every == 0
            if due or completed == cfg.epochs:
                path = out_dir / f"ckpt_epoch{completed:04d}.bin"
                save_checkpoint(path, make_train_checkpoint(model, state, completed, rng.state))
                final_path = path
    assert final_path is not None
    return final_path
