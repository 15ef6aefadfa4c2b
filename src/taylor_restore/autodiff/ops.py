"""Differentiable operations.

Conventions, fixed once here:

* conv2d is cross-correlation (no kernel flip), zero padding, with
  out[n, o, i, j] = bias[o]
      + sum_{c, di, dj} x[n, c, i*stride + di - pad, j*stride + dj - pad]
                        * weight[o, c, di, dj]
  and output height (H + 2*pad - kh) // stride + 1 (width analogous).
* relu's subgradient at exactly 0 is 0. relu passes NaN through (relu(NaN) is
  NaN), so a non-finite activation reaches the loss instead of being zeroed.
* l1_loss is the mean of |pred - target| over all elements; its subgradient
  where pred == target is 0 (sign(0) == 0).
* add and l1_loss require exactly equal shapes; there is no implicit broadcasting.

Each op computes its output eagerly and, when a Graph is active, records a
closure that turns the output's gradient into gradient contributions for the
inputs (added via accumulate_grad, so repeated use of one tensor sums). A
closure holds its inputs' gradient sinks (Tensor.sink), never the tensors, and
saves only what its adjoint reads: conv2d its zero-padded input grid, relu its
mask and l1_loss its sign. So the tape keeps no op output alive.
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
        a_sink, b_sink = a.sink, b.sink
        def backward_fn(g: np.ndarray) -> None:
            a_sink.accumulate_grad(g)
            b_sink.accumulate_grad(g)
        graph.record("add", out, backward_fn)
    return out


def scale(a: Tensor, factor: float) -> Tensor:
    """Multiply by a python scalar."""
    factor = float(factor)
    out = Tensor(a.data * factor)
    graph = active_graph()
    if graph is not None:
        a_sink = a.sink
        def backward_fn(g: np.ndarray) -> None:
            a_sink.accumulate_grad(g * factor)
        graph.record("scale", out, backward_fn)
    return out


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0.0
    out = Tensor(np.maximum(x.data, 0.0))
    graph = active_graph()
    if graph is not None:
        x_sink = x.sink
        def backward_fn(g: np.ndarray) -> None:
            x_sink.accumulate_grad(g * mask)
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
        a_sink, b_sink = a.sink, b.sink
        def backward_fn(g: np.ndarray) -> None:
            a_sink.accumulate_grad(g[:, :split])
            b_sink.accumulate_grad(g[:, split:])
        graph.record("concat_channels", out, backward_fn)
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
        pred_sink, target_sink = pred.sink, target.sink
        def backward_fn(g: np.ndarray) -> None:
            contribution = (g * inv) * sign
            pred_sink.accumulate_grad(contribution)
            target_sink.accumulate_grad(-contribution)
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


def _offsets(kh: int, kw: int, wp: int) -> list[int]:
    """The grid column offset di*wp + dj of every tap (di, dj), row-major."""
    return [di * wp + dj for di in range(kh) for dj in range(kw)]


def _stack(grid: np.ndarray, offsets: list[int] | range, width: int) -> np.ndarray:
    """The slices grid[:, offset:offset + width], stacked offset-major: (len(offsets)*C, width)."""
    return np.concatenate([grid[:, offset:offset + width] for offset in offsets])


def _correlate(taps: np.ndarray, grid: np.ndarray, wp: int,
               out: np.ndarray) -> np.ndarray | None:
    """out[:, r] = sum_{i, j} taps[i, j] @ grid[:, r + i*wp + j] for every column r of out.

    taps is (kh, kw, Co, Ci) and grid (Ci, ·), at least out's width plus (kh-1)*wp + kw-1
    columns. The GEMM layout follows the tap shape, so that each GEMM passes over the wide side
    once. A thin input (2*Ci <= Co) is one (Co, kh*kw*Ci) GEMM on the stacked shifted slices of
    the grid. A thin output (2*Co <= Ci) is one (kh*kw*Co, Ci) GEMM over the whole grid whose
    row blocks are summed shifted. Otherwise the kw taps of a kernel row are stacked once, as
    kw slices of the grid (kh-1)*wp columns wider than out, and each kernel row is one
    (Co, kw*Ci) GEMM on its wp-shifted window of that stack. Returns the stack built of the
    grid's slices (tap-major for a thin input, row-major otherwise), or None.
    """
    kh, kw, c_out, c_in = taps.shape
    width = out.shape[1]
    offsets = _offsets(kh, kw, wp)
    if 2 * c_in <= c_out:
        stack = _stack(grid, offsets, width)
        np.matmul(taps.transpose(2, 0, 1, 3).reshape(c_out, -1), stack, out=out)
        return stack
    if 2 * c_out <= c_in:
        products = np.matmul(taps.reshape(-1, c_in), grid).reshape(kh * kw, c_out, -1)
        out[...] = products[0, :, :width]
        for t in range(1, kh * kw):
            out += products[t, :, offsets[t]:offsets[t] + width]
        return None
    rows = _stack(grid, range(kw), width + (kh - 1) * wp)
    row_taps = taps.transpose(0, 2, 1, 3).reshape(kh, c_out, kw * c_in)
    np.matmul(row_taps[0], rows[:, :width], out=out)
    prod = np.empty_like(out)
    for i in range(1, kh):
        out += np.matmul(row_taps[i], rows[:, i * wp:i * wp + width], out=prod)
    return rows


def conv2d(x: Tensor, weight: Tensor, bias: Tensor, pad: int = 0, stride: int = 1) -> Tensor:
    """Batched 2-D cross-correlation; see the module docstring for the formula.

    Each tap (di, dj) is one column slice of the zero-padded channel-major (Cin, N*Hp*Wp) grid,
    whose column (b*Hp + i)*Wp + j is pixel (b, i, j): output column r reads input column
    r + di*Wp + dj. Wrapped columns are dropped and stride > 1 keeps every stride-th. The
    forward is `_correlate` of the taps over that grid. dX is `_correlate` of the flipped,
    transposed taps over the upstream gradient shifted right by the last offset: input column q
    gathers output column q - (di*Wp + dj) through tap (di, dj), read at grid column
    q + ((kh-1-di)*Wp + kw-1-dj), which is flipped tap (kh-1-di, kw-1-dj)'s own offset.
    dW of a thin input stacks the input's shifted slices as the forward does. Otherwise dW reuses
    the stack that dX built of the upstream gradient (every tap for a thin output, the kernel
    rows for C -> C): each of its wp-shifted windows is one GEMM against the input grid, and
    gives the taps of one kernel row, or all of them, in flipped order.
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
    offsets = _offsets(kh, kw, wp)
    last = offsets[-1]
    # Both correlations write span columns, every pixel column rounded up to ALIGN, from a grid
    # of last more columns, rounded up, so that every tap's slice lies inside it. Grid columns
    # that hold no pixel are zero.
    span = -(-(n * hp * wp) // ALIGN) * ALIGN
    cols = np.zeros((cin, -(-(span + last) // ALIGN) * ALIGN))
    taps = weight.data.transpose(2, 3, 0, 1)
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
    _correlate(taps, cols, wp, acc[:, :span])
    acc[:, :span] += bias.data[:, None]
    out = Tensor(valid(acc).transpose(1, 0, 2, 3))

    graph = active_graph()
    if graph is not None:
        x_sink, weight_sink, bias_sink = x.sink, weight.sink, bias.sink
        def backward_fn(g: np.ndarray) -> None:
            bias_sink.accumulate_grad(g.sum(axis=(0, 2, 3)))
            # output column r sits at g_grid column last + r; every other column is zero
            g_grid = np.zeros((cout, cols.shape[1]))
            valid(g_grid[:, last:])[...] = g.transpose(1, 0, 2, 3)
            g_span = g_grid[:, last:last + span]
            if thin_in:
                d_w = _matmul_nt(g_span, _stack(cols, offsets, span))
                d_w = d_w.reshape(cout, kh, kw, cin).transpose(0, 3, 1, 2)
            d_cols = np.empty_like(cols)
            g_stack = _correlate(taps[::-1, ::-1].transpose(0, 1, 3, 2), g_grid, wp,
                                 d_cols[:, :span])
            if not thin_in:
                # block j of window di*wp of dX's stack is the upstream gradient shifted right by
                # the offset of tap (kh-1-di, kw-1-j); a thin output's stack is one window
                d_w = np.stack([_matmul_nt(g_stack[:, di * wp:di * wp + span], cols[:, :span])
                                for di in range(1 if thin_out else kh)])
                d_w = d_w.reshape(kh, kw, cout, cin)[::-1, ::-1].transpose(2, 3, 0, 1)
            del g_grid, g_span, g_stack  # x's gradient below reuses their blocks
            weight_sink.accumulate_grad(d_w)
            d_x = pixels(d_cols)[:, :, pad:pad + h, pad:pad + w]
            x_sink.accumulate_grad(d_x.transpose(1, 0, 2, 3))
        graph.record("conv2d", out, backward_fn)
    return out
