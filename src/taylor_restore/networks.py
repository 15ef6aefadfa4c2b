"""The two convolutional networks and their parameter storage.

The mapping network produces the coarse restoration: conv-in, a stack of
residual blocks (conv, relu, conv, skip add), conv-out, and a global skip
that adds the input back. With all-zero parameters it is therefore exactly
the identity.

The derivative network is deliberately small: two convolutions with one relu
between them and no final nonlinearity. Its input is the channel-concat of
the current term and the degraded image, so conv1 takes 2C channels. One
ParamSet is shared by every unrolled stage; the tape sums gradient
contributions across stages because the same Tensor objects are reused.

Weights are He-initialized, Normal(0, sqrt(2 / fan_in)) with
fan_in = Cin * kh * kw, drawn from the package PRNG in a fixed layer order
(conv_in, block0.conv1, block0.conv2, ..., conv_out); biases start at zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from .autodiff import ShapeError, Tensor, add, concat_channels, conv2d, relu
from .prng import SplitMix64


@dataclass(frozen=True)
class MappingSpec:
    in_channels: int = 3
    channels: int = 32
    blocks: int = 3
    kernel: int = 3

    def __post_init__(self):
        _check_spec(self)
        if self.blocks < 0:
            raise ValueError(f"block count must be >= 0, got {self.blocks}")


@dataclass(frozen=True)
class DerivativeSpec:
    in_channels: int = 3  # image channels; conv1 consumes 2x this
    channels: int = 32
    kernel: int = 3

    def __post_init__(self):
        _check_spec(self)


def _check_spec(spec: MappingSpec | DerivativeSpec) -> None:
    if spec.kernel % 2 != 1 or spec.kernel < 1:
        raise ValueError(f"kernel size must be odd and positive, got {spec.kernel}")
    if spec.in_channels < 1 or spec.channels < 1:
        raise ValueError(
            f"channel counts must be >= 1, got in_channels={spec.in_channels}, "
            f"channels={spec.channels}"
        )


class ParamSet:
    """Named map from parameter path to Tensor; iteration is sorted by path."""

    def __init__(self):
        self._by_name: dict[str, Tensor] = {}

    def add(self, name: str, tensor: Tensor) -> None:
        if name in self._by_name:
            raise ValueError(f"duplicate parameter name {name!r}")
        self._by_name[name] = tensor

    def __getitem__(self, name: str) -> Tensor:
        return self._by_name[name]

    def items(self) -> Iterator[tuple[str, Tensor]]:
        for name in sorted(self._by_name):
            yield name, self._by_name[name]

    def tensors(self) -> list[Tensor]:
        return [self._by_name[name] for name in sorted(self._by_name)]

    def zero_grads(self) -> None:
        for tensor in self._by_name.values():
            tensor.grad = None


def _conv_layers(spec: MappingSpec | DerivativeSpec) -> list[tuple[str, int, int]]:
    """(layer path, Cout, Cin) of every conv of one network, in init draw order."""
    if isinstance(spec, DerivativeSpec):
        return [("derivative.conv1", spec.channels, 2 * spec.in_channels),
                ("derivative.conv2", spec.in_channels, spec.channels)]
    if not isinstance(spec, MappingSpec):
        raise TypeError(f"unsupported spec type {type(spec).__name__}")
    layers = [("mapping.conv_in", spec.channels, spec.in_channels)]
    for b in range(spec.blocks):
        layers.append((f"mapping.block{b}.conv1", spec.channels, spec.channels))
        layers.append((f"mapping.block{b}.conv2", spec.channels, spec.channels))
    layers.append(("mapping.conv_out", spec.in_channels, spec.channels))
    return layers


def param_count(spec: MappingSpec | DerivativeSpec) -> int:
    """len(param_shapes(spec)), computed without listing the layers."""
    convs = 2 * spec.blocks + 2 if isinstance(spec, MappingSpec) else 2
    return 2 * convs


def param_shapes(spec: MappingSpec | DerivativeSpec) -> dict[str, tuple[int, ...]]:
    """Parameter path -> shape for one network, in init draw order."""
    shapes: dict[str, tuple[int, ...]] = {}
    for name, cout, cin in _conv_layers(spec):
        shapes[name + ".weight"] = (cout, cin, spec.kernel, spec.kernel)
        shapes[name + ".bias"] = (cout,)
    return shapes


def init_params(spec: MappingSpec | DerivativeSpec, seed: int,
                params: ParamSet | None = None) -> ParamSet:
    """Fresh parameters for one network, added to ``params`` when given;
    same seed -> bit-identical result."""
    rng = SplitMix64(seed)
    params = ParamSet() if params is None else params
    for name, shape in param_shapes(spec).items():
        if len(shape) == 1:
            params.add(name, Tensor.zeros(shape))
        else:
            std = math.sqrt(2.0 / math.prod(shape[1:]))
            params.add(name, Tensor(rng.gaussians(math.prod(shape)).reshape(shape) * std))
    return params


def forward_mapping(params: ParamSet, spec: MappingSpec, y: Tensor) -> Tensor:
    """Coarse restoration of y; output shape equals input shape."""
    pad = spec.kernel // 2
    h = conv2d(y, params["mapping.conv_in.weight"], params["mapping.conv_in.bias"], pad=pad)
    for b in range(spec.blocks):
        # Nothing else holds the previous block's conv2 output: free it before this conv1.
        # The last block's stays alive through conv_out: freeing it there too raised a
        # paper-default run's peak RSS by 7 MB, in the heap that trainer.pin_heap keeps.
        r = None
        r = conv2d(h, params[f"mapping.block{b}.conv1.weight"],
                   params[f"mapping.block{b}.conv1.bias"], pad=pad)
        r = relu(r)
        r = conv2d(r, params[f"mapping.block{b}.conv2.weight"],
                   params[f"mapping.block{b}.conv2.bias"], pad=pad)
        h = add(h, r)
    out = conv2d(h, params["mapping.conv_out.weight"], params["mapping.conv_out.bias"], pad=pad)
    return add(out, y)


def forward_derivative(params: ParamSet, spec: DerivativeSpec, g_k: Tensor, y: Tensor) -> Tensor:
    """One derivative-term evaluation on concat(g_k, y)."""
    if g_k.shape != y.shape:
        raise ShapeError(f"derivative inputs must share shape, got {g_k.shape} and {y.shape}")
    pad = spec.kernel // 2
    h = concat_channels(g_k, y)
    h = conv2d(h, params["derivative.conv1.weight"], params["derivative.conv1.bias"], pad=pad)
    h = relu(h)
    return conv2d(h, params["derivative.conv2.weight"], params["derivative.conv2.bias"], pad=pad)
