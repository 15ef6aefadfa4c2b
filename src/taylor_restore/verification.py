"""Gradient verification suites: per-op checks and the tiny composed model.

Each check compares analytic gradients against central finite differences on
seeded random inputs. Quadratic heads (mean of the square) are used where an
op's own output is not scalar, so errors in the op's adjoint cannot hide
behind a linear reduction.
"""

from __future__ import annotations

from .autodiff import (
    Tensor,
    add,
    check_gradients,
    concat_channels,
    conv2d,
    l1_loss,
    mean_all,
    mul,
    relu,
    scale,
    sum_all,
)
from .composer import ComposerConfig, VARIANTS, framework_loss
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


def per_op_gradchecks(seed: int = 2024) -> list[tuple[str, float]]:
    """(op name, max relative error) for every differentiable op."""
    rng = SplitMix64(seed)
    results: list[tuple[str, float]] = []

    # one weight shape per conv2d GEMM layout: stacked kernel rows (C -> C), thin input, thin
    # output; the thin ones are the narrowest that reach their layout, so that few gradients lie
    # near zero, where a relative error is all rounding
    conv_errors = []
    for cin, cout in ((3, 4), (1, 2), (2, 1)):
        x = _rand(rng, (2, cin, 6, 5))
        w = _rand(rng, (cout, cin, 3, 3))
        b = _rand(rng, (cout,))
        def f_conv() -> Tensor:
            out = conv2d(x, w, b, pad=1, stride=2)
            return mean_all(mul(out, out))
        # mean(out²) is exactly quadratic in each single coordinate, so a central difference has
        # no truncation error, only rounding of about eps·|L|/h; a wide step keeps that rounding
        # far below the threshold where a gradient entry is near zero
        conv_errors.append(check_gradients(f_conv, [x, w, b], h=1e-3))
    results.append(("conv2d", max(conv_errors)))

    r = _rand(rng, (3, 4, 5))
    def f_relu() -> Tensor:
        out = relu(r)
        return mean_all(mul(out, out))
    results.append(("relu", check_gradients(f_relu, [r])))

    ca = _rand(rng, (2, 2, 3, 3))
    cb = _rand(rng, (2, 3, 3, 3))
    def f_concat() -> Tensor:
        out = concat_channels(ca, cb)
        return mean_all(mul(out, out))
    results.append(("concat_channels", check_gradients(f_concat, [ca, cb])))

    aa = _rand(rng, (3, 4))
    ab = _rand(rng, (3, 4))
    def f_add() -> Tensor:
        out = add(aa, ab)
        return mean_all(mul(out, out))
    results.append(("add", check_gradients(f_add, [aa, ab])))

    ma = _rand(rng, (3, 4))
    mb = _rand(rng, (3, 4))
    def f_mul() -> Tensor:
        return mean_all(mul(ma, mb))
    results.append(("mul", check_gradients(f_mul, [ma, mb])))

    sc = _rand(rng, (3, 4))
    def f_scale() -> Tensor:
        out = scale(sc, -1.75)
        return mean_all(mul(out, out))
    results.append(("scale", check_gradients(f_scale, [sc])))

    su = _rand(rng, (2, 5))
    def f_sum() -> Tensor:
        return sum_all(mul(su, su))
    results.append(("sum_all", check_gradients(f_sum, [su])))

    me = _rand(rng, (2, 5))
    def f_mean() -> Tensor:
        return mean_all(mul(me, me))
    results.append(("mean_all", check_gradients(f_mean, [me])))

    lp = _rand(rng, (2, 3, 4, 4))
    lt = _rand(rng, (2, 3, 4, 4))
    def f_l1() -> Tensor:
        return l1_loss(lp, lt)
    results.append(("l1_loss", check_gradients(f_l1, [lp, lt])))

    return results


def build_tiny_model(variant: str, seed: int = 7):
    """Loss closure + parameter list for the standard tiny composed model:
    1x3x8x8 input, width-4 nets, one residual block, order 3."""
    model = Model.init(
        MappingSpec(in_channels=3, channels=TINY_CHANNELS, blocks=TINY_BLOCKS),
        DerivativeSpec(in_channels=3, channels=TINY_CHANNELS),
        ComposerConfig(order=TINY_ORDER, lam=1.0, variant=variant),
        seed,
    )
    data_rng = SplitMix64(derive_stream(seed, 99))
    y = _rand(data_rng, (1, 3, TINY_IMAGE, TINY_IMAGE), 0.0, 1.0)
    x = _rand(data_rng, (1, 3, TINY_IMAGE, TINY_IMAGE), 0.0, 1.0)

    def loss_fn() -> Tensor:
        return framework_loss(model.forward(y), x, model.composer)

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
