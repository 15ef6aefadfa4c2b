"""Gradient verification suites: per-op checks and the tiny composed model.

Each check compares analytic gradients against central finite differences on
seeded random inputs. An op whose output is not scalar is checked through
l1_loss against a fixed target 0.5 to 1 away from each output element, on a
random side: the loss is then exactly linear within reach of the step, and its
cotangent is a random sign over the output size, so errors in the op's adjoint
cannot cancel in a uniform reduction.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .autodiff import Tensor, add, check_gradients, concat_channels, conv2d, l1_loss, relu, scale
from .composer import ComposerConfig, VARIANTS, framework_loss_terms
from .networks import DerivativeSpec, MappingSpec
from .prng import SplitMix64, derive_stream
from .trainer import Model

PER_OP_THRESHOLD = 1e-6
COMPOSED_THRESHOLD = 1e-4

TINY_IMAGE = 8
TINY_CHANNELS = 4
TINY_BLOCKS = 1
TINY_ORDER = 3


def _rand(rng: SplitMix64, shape: tuple[int, ...], lo: float = -1.0, hi: float = 1.0) -> Tensor:
    count = 1
    for extent in shape:
        count *= extent
    return Tensor(lo + (hi - lo) * rng.uniforms(count).reshape(shape))


def _check_op(rng: SplitMix64, op: Callable[..., Tensor], inputs: list[Tensor],
              h: float = 1e-5) -> float:
    """check_gradients of l1_loss(op(*inputs), target), the target 0.5 to 1 from every output
    element on a random side."""
    out = op(*inputs).data
    side = np.where(rng.uniforms(out.size) < 0.5, -1.0, 1.0)
    offset = side * (0.5 + 0.5 * rng.uniforms(out.size))
    target = Tensor(out + offset.reshape(out.shape))
    return check_gradients(lambda: l1_loss(op(*inputs), target), inputs, h)


def per_op_gradchecks(seed: int = 2024) -> list[tuple[str, float]]:
    """(op name, max relative error) for every differentiable op."""
    rng = SplitMix64(seed)
    # one weight shape per conv2d GEMM layout: stacked kernel rows (C -> C), thin input, thin
    # output; the thin ones are the narrowest that reach their layout, so that few gradients lie
    # near zero, where a relative error is all rounding. The loss is linear in each single
    # coordinate, so a wide step has no truncation error and keeps rounding far below the
    # threshold; a step of 0.1 moves no output element by more than 0.1.
    conv_errors = [
        _check_op(rng, lambda x, w, b: conv2d(x, w, b, pad=1),
                  [_rand(rng, (2, cin, 6, 5)), _rand(rng, (cout, cin, 3, 3)), _rand(rng, (cout,))],
                  h=0.1)
        for cin, cout in ((3, 4), (1, 2), (2, 1))
    ]
    lp, lt = _rand(rng, (2, 3, 4, 4)), _rand(rng, (2, 3, 4, 4))
    return [
        ("conv2d", max(conv_errors)),
        ("relu", _check_op(rng, relu, [_rand(rng, (3, 4, 5))])),
        ("concat_channels", _check_op(rng, concat_channels,
                                      [_rand(rng, (2, 2, 3, 3)), _rand(rng, (2, 3, 3, 3))])),
        ("add", _check_op(rng, add, [_rand(rng, (3, 4)), _rand(rng, (3, 4))])),
        ("scale", _check_op(rng, lambda a: scale(a, -1.75), [_rand(rng, (3, 4))])),
        ("l1_loss", check_gradients(lambda: l1_loss(lp, lt), [lp, lt])),
    ]


def build_tiny_model(variant: str, seed: int = 7, kernel: int = 3):
    """Loss closure + parameter list for the standard tiny composed model:
    1x3x8x8 input, width-4 nets of kernel-square convs, one residual block, order 3."""
    model = Model.init(
        MappingSpec(in_channels=3, channels=TINY_CHANNELS, blocks=TINY_BLOCKS, kernel=kernel),
        DerivativeSpec(in_channels=3, channels=TINY_CHANNELS, kernel=kernel),
        ComposerConfig(order=TINY_ORDER, lam=1.0, variant=variant),
        seed,
    )
    data_rng = SplitMix64(derive_stream(seed, 99))
    y = _rand(data_rng, (1, 3, TINY_IMAGE, TINY_IMAGE), 0.0, 1.0)
    x = _rand(data_rng, (1, 3, TINY_IMAGE, TINY_IMAGE), 0.0, 1.0)

    def loss_fn() -> Tensor:
        return framework_loss_terms(model.forward(y), x, model.composer)[0]

    return loss_fn, model.params.tensors()


def composed_gradchecks(seed: int = 7) -> list[tuple[str, float]]:
    """(variant, max relative error) for the tiny composed model."""
    results = []
    for variant in VARIANTS:
        loss_fn, tensors = build_tiny_model(variant, seed)
        results.append((variant, check_gradients(loss_fn, tensors)))
    return results


def run_gradcheck(seed: int = 7) -> tuple[list[str], bool]:
    """Text report lines and overall pass/fail for the CLI."""
    lines = []
    ok = True
    for name, err in per_op_gradchecks(derive_stream(seed, 1)):
        passed = err < PER_OP_THRESHOLD
        ok &= passed
        lines.append(f"op {name}: max rel err {err:.3e} ({'ok' if passed else 'FAIL'})")
    for variant, err in composed_gradchecks(seed):
        passed = err < COMPOSED_THRESHOLD
        ok &= passed
        lines.append(
            f"composed order-{TINY_ORDER} {variant}: max rel err {err:.3e} "
            f"({'ok' if passed else 'FAIL'})"
        )
    lines.append("gradcheck PASS" if ok else "gradcheck FAIL")
    return lines, ok
