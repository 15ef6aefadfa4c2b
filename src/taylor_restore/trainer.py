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
byte-identical. Checkpoints ``ckpt_epoch%04d.bin`` carry parameters, Adam
moments, counters, and the sampling-stream state, which is what makes
split training (train N, resume M) bit-identical to training N+M epochs.

A non-finite loss or parameter gradient aborts before the Adam update of its step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from .autodiff import Graph, Tensor, backward
from .checkpoint import (
    MOMENT_M_PREFIX,
    MOMENT_V_PREFIX,
    PARAM_PREFIX,
    Checkpoint,
    _meta_int,
    load_checkpoint,
    load_params_into,
    save_checkpoint,
)
from .composer import ComposerConfig, compose_orders, framework_loss_terms
from .degrade import read_manifest
from .errors import ConfigError, DivergenceError, FormatError
from .networks import (
    DerivativeSpec,
    MappingSpec,
    ParamSet,
    forward_derivative,
    forward_mapping,
    init_params,
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
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
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
    clean: np.ndarray
    degraded: np.ndarray
    file: str


@dataclass
class Corpus:
    images: list[CorpusImage]

    def __len__(self) -> int:
        return len(self.images)


def load_corpus(corpus_dir: str | Path) -> Corpus:
    corpus_dir = Path(corpus_dir)
    entries = read_manifest(corpus_dir / "manifest.tsv")
    if not entries:
        raise FormatError(f"{corpus_dir}: manifest lists no samples")
    images = []
    for entry in entries:
        clean = read_ppm(corpus_dir / entry.clean_file)
        degraded = read_ppm(corpus_dir / entry.degraded_file)
        if clean.shape != degraded.shape:
            raise FormatError(
                f"{entry.clean_file}/{entry.degraded_file}: pair shapes differ "
                f"({clean.shape} vs {degraded.shape})"
            )
        images.append(CorpusImage(clean=clean.data, degraded=degraded.data,
                                  file=entry.degraded_file))
    return Corpus(images=images)


def sample_patch_batch(corpus: Corpus, patch_size: int, batch_size: int,
                       rng: SplitMix64) -> tuple[Tensor, Tensor]:
    """(degraded, clean) batch of co-located random crops, (B, C, p, p)."""
    degraded_patches = []
    clean_patches = []
    for _ in range(batch_size):
        image = corpus.images[rng.randint(len(corpus))]
        _, height, width = image.clean.shape
        if height < patch_size or width < patch_size:
            raise ValueError(
                f"image {image.file} is {height}x{width}, smaller than patch "
                f"size {patch_size}"
            )
        top = rng.randint(height - patch_size + 1)
        left = rng.randint(width - patch_size + 1)
        window = (slice(None), slice(top, top + patch_size), slice(left, left + patch_size))
        degraded_patches.append(image.degraded[window])
        clean_patches.append(image.clean[window])
    return Tensor(np.stack(degraded_patches)), Tensor(np.stack(clean_patches))


def build_params(mapping_spec: MappingSpec, derivative_spec: DerivativeSpec,
                 order: int, seed: int) -> ParamSet:
    """Fresh parameters for a run; order 0 has no derivative net at all."""
    params = init_params(mapping_spec, derive_stream(seed, STREAM_INIT_MAPPING))
    if order > 0:
        params = params.merge(
            init_params(derivative_spec, derive_stream(seed, STREAM_INIT_DERIVATIVE))
        )
    return params


def make_train_checkpoint(params: ParamSet, state: AdamState,
                          mapping_spec: MappingSpec, derivative_spec: DerivativeSpec,
                          composer_cfg: ComposerConfig, epoch: int,
                          rng_state: int) -> Checkpoint:
    checkpoint = Checkpoint()
    checkpoint.metadata = {
        "model.in_channels": str(mapping_spec.in_channels),
        "model.mapping_channels": str(mapping_spec.channels),
        "model.mapping_blocks": str(mapping_spec.blocks),
        "model.kernel_size": str(mapping_spec.kernel),
        "model.derivative_channels": str(derivative_spec.channels),
        "composer.order": str(composer_cfg.order),
        "composer.lambda": repr(composer_cfg.lam),
        "composer.variant": composer_cfg.variant,
        "composer.g0": composer_cfg.g0,
        "train.epoch": str(epoch),
        "train.step": str(state.t),
        "train.rng_state": str(rng_state),
    }
    for name, tensor in params.items():
        checkpoint.tensors[PARAM_PREFIX + name] = tensor.data.copy()
        checkpoint.tensors[MOMENT_M_PREFIX + name] = state.m[name].copy()
        checkpoint.tensors[MOMENT_V_PREFIX + name] = state.v[name].copy()
    return checkpoint


def _restore_moments(params: ParamSet, state: AdamState, checkpoint: Checkpoint) -> None:
    for name in params.names():
        for prefix, store in ((MOMENT_M_PREFIX, state.m), (MOMENT_V_PREFIX, state.v)):
            key = prefix + name
            if key not in checkpoint.tensors:
                raise FormatError(f"checkpoint missing tensor {key}")
            moment = checkpoint.tensors[key]
            if moment.shape != params[name].data.shape:
                raise FormatError(
                    f"checkpoint tensor {key} has shape {moment.shape}, "
                    f"model expects {params[name].data.shape}"
                )
            store[name] = moment.copy()


def train(corpus_dir: str | Path, mapping_spec: MappingSpec,
          derivative_spec: DerivativeSpec, composer_cfg: ComposerConfig,
          cfg: TrainConfig, out_dir: str | Path,
          resume_from: str | Path | None = None) -> Path:
    """Train a model on a corpus; returns the final checkpoint path."""
    corpus = load_corpus(corpus_dir)
    for image in corpus.images:
        _, height, width = image.clean.shape
        if height < cfg.patch_size or width < cfg.patch_size:
            raise ConfigError(
                f"image {image.file} is {height}x{width}, smaller than patch "
                f"size {cfg.patch_size}"
            )

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    params = build_params(mapping_spec, derivative_spec, composer_cfg.order, cfg.seed)
    state = AdamState.for_params(params)
    rng = SplitMix64(derive_stream(cfg.seed, STREAM_DATA))
    start_epoch = 0
    if resume_from is not None:
        checkpoint = load_checkpoint(resume_from)
        load_params_into(params, checkpoint)
        _restore_moments(params, state, checkpoint)
        state.t = _meta_int(checkpoint, "train.step")
        start_epoch = _meta_int(checkpoint, "train.epoch")
        rng.state = _meta_int(checkpoint, "train.rng_state")
        if start_epoch >= cfg.epochs:
            raise ConfigError(
                f"checkpoint already covers {start_epoch} epochs; "
                f"config asks for {cfg.epochs}"
            )

    def mapping_fn(y: Tensor) -> Tensor:
        return forward_mapping(params, mapping_spec, y)

    def derivative_fn(g_k: Tensor, y: Tensor) -> Tensor:
        return forward_derivative(params, derivative_spec, g_k, y)

    steps_per_epoch = math.ceil(len(corpus) / cfg.batch_size)
    final_path: Path | None = None
    with open(out_dir / "loss.tsv", "w", encoding="ascii") as log:
        log.write(LOSS_LOG_HEADER + "\n")
        for epoch in range(start_epoch, cfg.epochs):
            lr = lr_at(epoch, cfg)
            for _ in range(steps_per_epoch):
                degraded, clean = sample_patch_batch(
                    corpus, cfg.patch_size, cfg.batch_size, rng
                )
                params.zero_grads()
                with Graph() as graph:
                    trace = compose_orders(mapping_fn, derivative_fn, degraded, composer_cfg)
                    total, loss_output, loss_coarse = framework_loss_terms(
                        trace, clean, composer_cfg
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
                adam_step(params, state, lr, cfg.beta1, cfg.beta2, cfg.eps)
                log.write(
                    f"{epoch}\t{state.t}\t{lr!r}\t{loss_value!r}"
                    f"\t{loss_output.item()!r}\t{loss_coarse.item()!r}\n"
                )
            completed = epoch + 1
            due = cfg.checkpoint_every > 0 and completed % cfg.checkpoint_every == 0
            if due or completed == cfg.epochs:
                path = out_dir / f"ckpt_epoch{completed:04d}.bin"
                save_checkpoint(path, make_train_checkpoint(
                    params, state, mapping_spec, derivative_spec, composer_cfg,
                    completed, rng.state,
                ))
                final_path = path
    assert final_path is not None
    return final_path
