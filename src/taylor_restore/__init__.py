"""Image restoration by truncated-series composition of two small conv nets,
built on a from-scratch reverse-mode autodiff core."""

__version__ = "0.1.0"

from .autodiff import Graph, ShapeError, Tensor, backward, check_gradients
from .composer import ComposerConfig, ComposerTrace, compose_orders, framework_loss
from .degrade import DegradationSpec, make_corpus, synth_blur, synth_rain
from .metrics import evaluate, psnr, ssim
from .networks import DerivativeSpec, MappingSpec, ParamSet, init_params
from .prng import SplitMix64, derive_stream
from .trainer import Model, TrainConfig, adam_step, lr_at, train

__all__ = [
    "ComposerConfig",
    "ComposerTrace",
    "DegradationSpec",
    "DerivativeSpec",
    "Graph",
    "MappingSpec",
    "Model",
    "ParamSet",
    "ShapeError",
    "SplitMix64",
    "Tensor",
    "TrainConfig",
    "adam_step",
    "backward",
    "check_gradients",
    "compose_orders",
    "derive_stream",
    "evaluate",
    "framework_loss",
    "init_params",
    "lr_at",
    "make_corpus",
    "psnr",
    "ssim",
    "synth_blur",
    "synth_rain",
    "train",
]
