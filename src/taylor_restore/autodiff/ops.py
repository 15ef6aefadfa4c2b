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


def conv2d(x: Tensor, weight: Tensor, bias: Tensor, pad: int = 0, stride: int = 1) -> Tensor:
    """Batched 2-D cross-correlation; see the module docstring for the formula."""
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

    h_out = (h + 2 * pad - kh) // stride + 1
    w_out = (w + 2 * pad - kw) // stride + 1
    padded = np.zeros((n, h + 2 * pad, w + 2 * pad, cin))
    padded[:, pad:pad + h, pad:pad + w] = x.data.transpose(0, 2, 3, 1)

    def tap(a: np.ndarray, di: int, dj: int) -> np.ndarray:
        """The (N, h_out, w_out, C) slice of padded NHWC `a` that tap (di, dj) reads."""
        return a[:, di:di + stride * h_out:stride, dj:dj + stride * w_out:stride]

    weight_data = weight.data
    out_mat = np.zeros((n * h_out * w_out, cout))
    for di in range(kh):
        for dj in range(kw):
            out_mat += tap(padded, di, dj).reshape(-1, cin) @ weight_data[:, :, di, dj].T
    out_mat += bias.data
    out = Tensor(out_mat.reshape(n, h_out, w_out, cout).transpose(0, 3, 1, 2))

    graph = active_graph()
    if graph is not None:
        def backward_fn(g: np.ndarray) -> None:
            g_mat = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(-1, cout)
            bias.accumulate_grad(g.sum(axis=(0, 2, 3)))
            d_weight = np.empty_like(weight_data)
            d_padded = np.zeros_like(padded)
            for di in range(kh):
                for dj in range(kw):
                    d_weight[:, :, di, dj] = g_mat.T @ tap(padded, di, dj).reshape(-1, cin)
                    d_tap = tap(d_padded, di, dj)
                    d_tap += (g_mat @ weight_data[:, :, di, dj]).reshape(d_tap.shape)
            weight.accumulate_grad(d_weight)
            x.accumulate_grad(d_padded[:, pad:pad + h, pad:pad + w].transpose(0, 3, 1, 2))
        graph.record("conv2d", out, backward_fn)
    return out
