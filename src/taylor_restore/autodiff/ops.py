"""Differentiable operations.

Conventions, fixed once here:

* conv2d is cross-correlation (no kernel flip), zero padding, with
  out[n, o, i, j] = bias[o]
      + sum_{c, di, dj} x[n, c, i*stride + di - pad, j*stride + dj - pad]
                        * weight[o, c, di, dj]
  and output height (H + 2*pad - kh) // stride + 1 (width analogous).
* relu's subgradient at exactly 0 is 0.
* l1_loss is the mean of |pred - target| over all elements; its subgradient
  where pred == target is 0 (sign(0) == 0).
* add/mul require exactly equal shapes; there is no implicit broadcasting.

Each op computes its output eagerly and, when a Graph is active, records a
closure that turns the output's gradient into gradient contributions for the
inputs (added via Tensor.accumulate_grad, so repeated use of one tensor sums).
"""

from __future__ import annotations

import numpy as np

from .tensor import Graph, ShapeError, Tensor, active_graph


def _require_equal_shapes(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape:
        for axis, (da, db) in enumerate(zip(a.shape, b.shape)):
            if da != db:
                raise ShapeError(f"{op}: axis {axis} differs ({da} vs {db})")
        raise ShapeError(f"{op}: rank differs ({a.shape} vs {b.shape})")


def add(a: Tensor, b: Tensor) -> Tensor:
    _require_equal_shapes("add", a, b)
    out = Tensor(a.data + b.data)
    graph = active_graph()
    if graph is not None:
        def backward_fn(g: np.ndarray) -> None:
            a.accumulate_grad(g)
            b.accumulate_grad(g)
        graph.record("add", out, backward_fn)
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product."""
    _require_equal_shapes("mul", a, b)
    out = Tensor(a.data * b.data)
    graph = active_graph()
    if graph is not None:
        a_data, b_data = a.data.copy(), b.data.copy()
        def backward_fn(g: np.ndarray) -> None:
            a.accumulate_grad(g * b_data)
            b.accumulate_grad(g * a_data)
        graph.record("mul", out, backward_fn)
    return out


def scale(a: Tensor, factor: float) -> Tensor:
    """Multiply by a python scalar."""
    factor = float(factor)
    out = Tensor(a.data * factor)
    graph = active_graph()
    if graph is not None:
        def backward_fn(g: np.ndarray) -> None:
            a.accumulate_grad(g * factor)
        graph.record("scale", out, backward_fn)
    return out


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0.0
    out = Tensor(np.where(mask, x.data, 0.0))
    graph = active_graph()
    if graph is not None:
        def backward_fn(g: np.ndarray) -> None:
            x.accumulate_grad(np.where(mask, g, 0.0))
        graph.record("relu", out, backward_fn)
    return out


def concat_channels(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate two (N, C, H, W) tensors along the channel axis."""
    if a.ndim != 4 or b.ndim != 4:
        raise ShapeError(f"concat_channels needs rank-4 inputs, got {a.shape} and {b.shape}")
    for axis in (0, 2, 3):
        if a.shape[axis] != b.shape[axis]:
            raise ShapeError(
                f"concat_channels: axis {axis} differs ({a.shape[axis]} vs {b.shape[axis]})"
            )
    split = a.shape[1]
    out = Tensor(np.concatenate((a.data, b.data), axis=1))
    graph = active_graph()
    if graph is not None:
        def backward_fn(g: np.ndarray) -> None:
            a.accumulate_grad(g[:, :split])
            b.accumulate_grad(g[:, split:])
        graph.record("concat_channels", out, backward_fn)
    return out


def sum_all(x: Tensor) -> Tensor:
    out = Tensor(np.sum(x.data))
    graph = active_graph()
    if graph is not None:
        def backward_fn(g: np.ndarray) -> None:
            x.accumulate_grad(np.broadcast_to(g, x.shape))
        graph.record("sum_all", out, backward_fn)
    return out


def mean_all(x: Tensor) -> Tensor:
    out = Tensor(np.mean(x.data))
    graph = active_graph()
    if graph is not None:
        inv = 1.0 / x.size
        def backward_fn(g: np.ndarray) -> None:
            x.accumulate_grad(np.broadcast_to(g * inv, x.shape))
        graph.record("mean_all", out, backward_fn)
    return out


def l1_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean absolute difference over all elements (scalar output)."""
    _require_equal_shapes("l1_loss", pred, target)
    diff = pred.data - target.data
    out = Tensor(np.mean(np.abs(diff)))
    graph = active_graph()
    if graph is not None:
        sign = np.sign(diff)
        inv = 1.0 / diff.size
        def backward_fn(g: np.ndarray) -> None:
            contribution = (g * inv) * sign
            pred.accumulate_grad(contribution)
            target.accumulate_grad(-contribution)
        graph.record("l1_loss", out, backward_fn)
    return out


# OpenBLAS (measured with 1 against 2 threads) splits a GEMM whose column count is not a multiple
# of 8, or whose inner axis is long, differently per thread count, and so rounds differently.
# conv2d's column counts are multiples of ALIGN, and its dW GEMMs sum fixed DW_BLOCK-column
# blocks in order, so its bytes do not depend on the thread count.
ALIGN = 64
DW_BLOCK = 4096


def _matmul_nt(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b.T, summed over DW_BLOCK-column blocks of their shared axis in a fixed order."""
    out = np.matmul(a[:, :DW_BLOCK], b[:, :DW_BLOCK].T)
    for start in range(DW_BLOCK, a.shape[1], DW_BLOCK):
        out += np.matmul(a[:, start:start + DW_BLOCK], b[:, start:start + DW_BLOCK].T)
    return out


def conv2d(x: Tensor, weight: Tensor, bias: Tensor, pad: int = 0, stride: int = 1) -> Tensor:
    """Batched 2-D cross-correlation; see the module docstring for the formula.

    Each tap (di, dj) is one column slice of the zero-padded channel-major (Cin, N*Hp*Wp) grid,
    whose column (b*Hp + i)*Wp + j is pixel (b, i, j): output column r reads input column
    r + di*Wp + dj. Wrapped columns are dropped and stride > 1 keeps every stride-th.

    The GEMM layout follows the weight shape. When one side has at most half the channels of the
    other, the kh*kw taps are stacked on that thin side, so each GEMM passes over the wide side
    once: a thin input is stacked as kh*kw shifted slices under one (Cout, kh*kw*Cin) GEMM; a
    thin output is one (kh*kw*Cout, Cin) GEMM over the grid whose row blocks are summed shifted,
    and its backward stacks kh*kw shifted copies of the upstream gradient. Otherwise each tap is
    one (Cout, Cin) GEMM on its slice, summed. dW and dX use the same slices.
    """
    if x.ndim != 4:
        raise ShapeError(f"conv2d input must be (N, C, H, W), got shape {x.shape}")
    if weight.ndim != 4:
        raise ShapeError(f"conv2d weight must be (Cout, Cin, kh, kw), got shape {weight.shape}")
    if bias.ndim != 1:
        raise ShapeError(f"conv2d bias must be rank 1, got shape {bias.shape}")
    n, cin, h, w = x.shape
    cout, w_cin, kh, kw = weight.shape
    if w_cin != cin:
        raise ShapeError(f"conv2d: input has {cin} channels but weight expects {w_cin}")
    if bias.shape[0] != cout:
        raise ShapeError(f"conv2d: bias has {bias.shape[0]} entries for {cout} output channels")
    if pad < 0:
        raise ShapeError(f"conv2d: pad must be >= 0, got {pad}")
    if stride < 1:
        raise ShapeError(f"conv2d: stride must be >= 1, got {stride}")
    if kh > h + 2 * pad:
        raise ShapeError(f"conv2d: kernel height {kh} exceeds padded input height {h + 2 * pad}")
    if kw > w + 2 * pad:
        raise ShapeError(f"conv2d: kernel width {kw} exceeds padded input width {w + 2 * pad}")

    hp, wp = h + 2 * pad, w + 2 * pad
    h_out = (hp - kh) // stride + 1
    w_out = (wp - kw) // stride + 1
    offsets = [di * wp + dj for di in range(kh) for dj in range(kw)]
    # The last output pixel's last tap reads the last pixel column, so no output lies at or past
    # n*hp*wp - offsets[-1]. That span and the grid are rounded up to ALIGN with zero columns;
    # the output columns past span are left unwritten.
    span = -(-(n * hp * wp - offsets[-1]) // ALIGN) * ALIGN
    cols = np.zeros((cin, -(-(span + offsets[-1]) // ALIGN) * ALIGN))
    taps = weight.data.transpose(2, 3, 0, 1).reshape(kh * kw, cout, cin)
    thin_in, thin_out = 2 * cin <= cout, 2 * cout <= cin

    def pixels(grid: np.ndarray) -> np.ndarray:
        """The (C, N, Hp, Wp) pixels of a (C, ·) column grid, as a view."""
        return grid[:, :n * hp * wp].reshape(-1, n, hp, wp)

    def valid(grid: np.ndarray) -> np.ndarray:
        """The (C, N, h_out, w_out) output pixels of a column grid."""
        return pixels(grid)[:, :, :stride * h_out:stride, :stride * w_out:stride]

    def stacked(grid: np.ndarray) -> np.ndarray:
        """The kh*kw tap slices of a (C, ·) grid, stacked tap-major: (kh*kw*C, span)."""
        return np.concatenate([grid[:, offset:offset + span] for offset in offsets])

    pixels(cols)[:, :, pad:pad + h, pad:pad + w] = x.data.transpose(1, 0, 2, 3)
    acc = np.empty((cout, cols.shape[1]))
    acc_span = acc[:, :span]
    if thin_in:
        w_in = taps.transpose(1, 0, 2).reshape(cout, -1)
        np.matmul(w_in, stacked(cols), out=acc_span)
    elif thin_out:
        products = np.matmul(taps.reshape(-1, cin), cols).reshape(kh * kw, cout, -1)
        acc_span[...] = products[0, :, :span]
        for t, offset in enumerate(offsets[1:], start=1):
            acc_span += products[t, :, offset:offset + span]
    else:
        np.matmul(taps[0], cols[:, :span], out=acc_span)
        prod = np.empty((cout, span))
        for offset, tap in zip(offsets[1:], taps[1:]):
            acc_span += np.matmul(tap, cols[:, offset:offset + span], out=prod)
    acc_span += bias.data[:, None]
    out = Tensor(valid(acc).transpose(1, 0, 2, 3))

    graph = active_graph()
    if graph is not None:
        def backward_fn(g: np.ndarray) -> None:
            g_cols = np.zeros((cout, cols.shape[1]))
            valid(g_cols)[...] = g.transpose(1, 0, 2, 3)
            bias.accumulate_grad(g.sum(axis=(0, 2, 3)))
            g_span = g_cols[:, :span]
            d_cols = np.empty_like(cols)
            if thin_out:
                g_stack = np.zeros((kh * kw, cout, cols.shape[1]))
                for t, offset in enumerate(offsets):
                    g_stack[t, :, offset:offset + span] = g_span
                g_stack = g_stack.reshape(-1, cols.shape[1])
                d_taps = _matmul_nt(g_stack, cols)
                np.matmul(taps.reshape(-1, cin).T, g_stack, out=d_cols)
            elif thin_in:
                d_taps = _matmul_nt(g_span, stacked(cols)).reshape(cout, kh * kw, cin)
                d_taps = d_taps.transpose(1, 0, 2)
                d_stack = np.matmul(w_in.T, g_span).reshape(kh * kw, cin, span)
                d_cols[:, :span] = d_stack[0]
                d_cols[:, span:] = 0.0
                for t, offset in enumerate(offsets[1:], start=1):
                    d_cols[:, offset:offset + span] += d_stack[t]
            else:
                d_taps = np.stack([_matmul_nt(g_span, cols[:, offset:offset + span])
                                   for offset in offsets])
                np.matmul(taps[0].T, g_span, out=d_cols[:, :span])
                d_cols[:, span:] = 0.0
                d_prod = np.empty((cin, span))
                for offset, tap in zip(offsets[1:], taps[1:]):
                    d_cols[:, offset:offset + span] += np.matmul(tap.T, g_span, out=d_prod)
            weight.accumulate_grad(d_taps.reshape(kh, kw, cout, cin).transpose(2, 3, 0, 1))
            d_x = pixels(d_cols)[:, :, pad:pad + h, pad:pad + w]
            x.accumulate_grad(d_x.transpose(1, 0, 2, 3))
        graph.record("conv2d", out, backward_fn)
    return out
