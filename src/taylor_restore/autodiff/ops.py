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


def _stack(grid: np.ndarray, offsets: list[int], width: int) -> np.ndarray:
    """The slices grid[:, offset:offset + width], stacked tap-major: (len(offsets)*C, width)."""
    return np.concatenate([grid[:, offset:offset + width] for offset in offsets])


def _correlate(taps: np.ndarray, grid: np.ndarray, offsets: list[int],
               out: np.ndarray) -> np.ndarray | None:
    """out[:, r] = sum_t taps[t] @ grid[:, r + offsets[t]] for every column r of out.

    taps is (T, Co, Ci) and grid (Ci, ·), at least out's width plus the largest offset. The
    GEMM layout follows the tap shape. When one side has at most half the channels of the
    other, the taps are stacked on that thin side, so each GEMM passes over the wide side once:
    a thin input is one (Co, T*Ci) GEMM on the stacked shifted slices of the grid, and that
    stack is returned for reuse; a thin output is one (T*Co, Ci) GEMM over the whole grid whose
    row blocks are summed shifted. Otherwise each tap is one (Co, Ci) GEMM on its slice, summed.
    """
    n_taps, c_out, c_in = taps.shape
    width = out.shape[1]
    if 2 * c_in <= c_out:
        stack = _stack(grid, offsets, width)
        np.matmul(taps.transpose(1, 0, 2).reshape(c_out, -1), stack, out=out)
        return stack
    if 2 * c_out <= c_in:
        products = np.matmul(taps.reshape(-1, c_in), grid).reshape(n_taps, c_out, -1)
        out[...] = products[0, :, offsets[0]:offsets[0] + width]
        for t in range(1, n_taps):
            out += products[t, :, offsets[t]:offsets[t] + width]
        return None
    np.matmul(taps[0], grid[:, offsets[0]:offsets[0] + width], out=out)
    prod = np.empty_like(out)
    for tap, offset in zip(taps[1:], offsets[1:]):
        out += np.matmul(tap, grid[:, offset:offset + width], out=prod)
    return None


def conv2d(x: Tensor, weight: Tensor, bias: Tensor, pad: int = 0, stride: int = 1) -> Tensor:
    """Batched 2-D cross-correlation; see the module docstring for the formula.

    Each tap (di, dj) is one column slice of the zero-padded channel-major (Cin, N*Hp*Wp) grid,
    whose column (b*Hp + i)*Wp + j is pixel (b, i, j): output column r reads input column
    r + di*Wp + dj. Wrapped columns are dropped and stride > 1 keeps every stride-th. The
    forward is `_correlate` of the taps over that grid. dX is `_correlate` of the transposed
    taps over the upstream gradient shifted right by the last offset, with each offset
    mirrored: input column q gathers output column q - offset, read at q + (last - offset).
    dW stacks the thin side as the forward does, reusing dX's stack of the upstream gradient
    for a thin output.
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
    last = offsets[-1]
    # Both correlations write span columns, every pixel column rounded up to ALIGN, from a grid
    # of last more columns, rounded up, so that every tap's slice lies inside it. Grid columns
    # that hold no pixel are zero.
    span = -(-(n * hp * wp) // ALIGN) * ALIGN
    cols = np.zeros((cin, -(-(span + last) // ALIGN) * ALIGN))
    taps = weight.data.transpose(2, 3, 0, 1).reshape(kh * kw, cout, cin)
    thin_in, thin_out = 2 * cin <= cout, 2 * cout <= cin

    def pixels(grid: np.ndarray) -> np.ndarray:
        """The (C, N, Hp, Wp) pixels of a (C, ·) column grid, as a view."""
        return grid[:, :n * hp * wp].reshape(-1, n, hp, wp)

    def valid(grid: np.ndarray) -> np.ndarray:
        """The (C, N, h_out, w_out) output pixels of a column grid."""
        return pixels(grid)[:, :, :stride * h_out:stride, :stride * w_out:stride]

    pixels(cols)[:, :, pad:pad + h, pad:pad + w] = x.data.transpose(1, 0, 2, 3)
    # acc and d_cols are as wide as the grids, so that every (C, ·) buffer of a conv has one size
    # and the allocator reuses its blocks instead of mapping fresh pages each step
    acc = np.empty((cout, cols.shape[1]))
    _correlate(taps, cols, offsets, acc[:, :span])
    acc[:, :span] += bias.data[:, None]
    out = Tensor(valid(acc).transpose(1, 0, 2, 3))

    graph = active_graph()
    if graph is not None:
        def backward_fn(g: np.ndarray) -> None:
            bias.accumulate_grad(g.sum(axis=(0, 2, 3)))
            # output column r sits at g_grid column last + r; every other column is zero
            g_grid = np.zeros((cout, cols.shape[1]))
            valid(g_grid[:, last:])[...] = g.transpose(1, 0, 2, 3)
            g_span = g_grid[:, last:last + span]
            # dW stacks the thin side; a thin output's stack is dX's, so dW follows dX there
            if thin_in:
                d_taps = _matmul_nt(g_span, _stack(cols, offsets, span))
                d_taps = d_taps.reshape(cout, -1, cin).transpose(1, 0, 2)
            elif not thin_out:
                d_taps = np.stack([_matmul_nt(g_span, cols[:, offset:offset + span])
                                   for offset in offsets])
            d_cols = np.empty_like(cols)
            g_stack = _correlate(taps.transpose(0, 2, 1), g_grid,
                                 [last - offset for offset in offsets], d_cols[:, :span])
            if thin_out:
                # block t of the stack is the upstream gradient shifted right by offsets[t]
                d_taps = _matmul_nt(g_stack, cols[:, :span])
            del g_grid, g_span, g_stack  # x's gradient below reuses their blocks
            weight.accumulate_grad(d_taps.reshape(kh, kw, cout, cin).transpose(2, 3, 0, 1))
            d_x = pixels(d_cols)[:, :, pad:pad + h, pad:pad + w]
            x.accumulate_grad(d_x.transpose(1, 0, 2, 3))
        graph.record("conv2d", out, backward_fn)
    return out
