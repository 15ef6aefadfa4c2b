"""Differentiable operations.

Conventions, fixed once here:

* conv2d is a same cross-correlation (no kernel flip): stride 1, a (2*pad + 1)-square kernel
  and zero padding, so the output keeps the input's height and width, with
  out[n, o, i, j] = bias[o]
      + sum_{c, di, dj} x[n, c, i + di - pad, j + dj - pad] * weight[o, c, di, dj].
* relu's subgradient at exactly 0 is 0. relu passes NaN through (relu(NaN) is
  NaN), so a non-finite activation reaches the loss instead of being zeroed.
* l1_loss is the mean of |pred - target| over all elements; its subgradient
  where pred == target is 0 (sign(0) == 0).
* add and l1_loss require exactly equal shapes; there is no implicit broadcasting.

Every 4-D op output (conv2d, relu, add, scale, concat_channels) is an (N, C, H, W) view into a
channel-major grid (see Layout): a zero ring as wide as the conv pad around each image, the
padded images flattened into columns, `lead` zero columns before them and a zero tail of at
least `last` = 2*lead columns after them, rounded up to ALIGN. A conv reads its input's grid in
place when its ring is the conv's pad, and builds one only for a plain input such as a batch; it
writes its products straight into its output grid and re-zeroes the ring. relu, add and
scale work on whole grids, whose rings stay zero. Gradients of op outputs live in the same
grids, so a conv's upstream gradient is the grid its dX correlation reads, and dX is written
into a grid laid out like the input's. conv2d builds every tap stack and product one TILE of
output columns at a time, so no temporary spans the whole grid.

Each op computes its output eagerly and, when a Graph is active, records a closure that turns
the output's gradient into gradient contributions for the inputs (added via accumulate_grad, so
repeated use of one tensor sums). A closure holds its inputs' gradient sinks (Tensor.sink),
never the tensors, and saves only what its adjoint reads: conv2d its input grid, relu its output
grid (which the next conv keeps as its input anyway) and l1_loss its sign. So the tape keeps no
op output's view alive. A constant input (Tensor.constant) has no sink: conv2d computes no dX
for it, and the other ops pass it nothing.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .tensor import Graph, ShapeError, Tensor, active_graph

# OpenBLAS (measured with 1 against 2 threads) splits a GEMM whose column count is not a multiple
# of 8, or whose inner axis is long, differently per thread count, and so rounds differently.
# conv2d's column counts are multiples of ALIGN, and its dW GEMMs sum fixed DW_BLOCK-column
# blocks in order, so its bytes do not depend on the thread count. conv2d builds its tap stacks
# and products one TILE of output columns at a time; a tile is a whole number of dW blocks, so
# dW sums the same blocks in the same order whatever the span, and a span of one tile runs as
# one GEMM per tap group.
ALIGN = 64
DW_BLOCK = 4096
TILE = 2 * DW_BLOCK


def _aligned(columns: int) -> int:
    return -(-columns // ALIGN) * ALIGN


class Layout(NamedTuple):
    """Where an (N, C, H, W) array's values sit in its channel-major (C, width) grid.

    Each image is padded by a zero ring of `pad`, to (Hp, Wp) = (H + 2*pad, W + 2*pad), and the
    padded images are flattened into N*Hp*Wp columns, so that padded column (b*Hp + i)*Wp + j is
    pixel (b, i - pad, j - pad). Padded column q sits at grid column q + `lead`, for
    lead = pad*Wp + pad, so pixel (b, i, j) sits at r + 2*lead for r = (b*Hp + i)*Wp + j: where
    a conv puts output column r. Zero columns follow up to `lead + aligned(span + last)`, so
    that a (2*pad + 1)-square correlation, whose last tap's offset is `last`, reads inside the
    grid. Every column but the pixels is zero.
    """

    n: int
    h: int
    w: int
    pad: int

    @property
    def hp(self) -> int:
        return self.h + 2 * self.pad

    @property
    def wp(self) -> int:
        return self.w + 2 * self.pad

    @property
    def lead(self) -> int:
        return self.pad * self.wp + self.pad

    @property
    def last(self) -> int:
        """The grid column offset of a (2*pad + 1)-square kernel's last tap."""
        return 2 * self.lead

    @property
    def span(self) -> int:
        """The padded columns, rounded up to ALIGN."""
        return _aligned(self.n * self.hp * self.wp)

    @property
    def width(self) -> int:
        return self.lead + _aligned(self.span + self.last)

    def padded(self, grid: np.ndarray) -> np.ndarray:
        """The (C, N, Hp, Wp) padded images of a grid, as a view."""
        start = self.lead
        return grid[:, start:start + self.n * self.hp * self.wp].reshape(-1, self.n, self.hp,
                                                                         self.wp)

    def interior(self, grid: np.ndarray) -> np.ndarray:
        """The (N, C, H, W) values of a grid, as a view."""
        p = self.pad
        return self.padded(grid)[:, :, p:p + self.h, p:p + self.w].transpose(1, 0, 2, 3)

    def zero_ring(self, grid: np.ndarray) -> None:
        """Zero every column of a grid that holds no value."""
        p, start = self.pad, self.lead
        grid[:, :start] = 0.0
        grid[:, start + self.n * self.hp * self.wp:] = 0.0
        if p:
            padded = self.padded(grid)
            padded[:, :, :p] = 0.0
            padded[:, :, p + self.h:] = 0.0
            padded[:, :, p:p + self.h, :p] = 0.0
            padded[:, :, p:p + self.h, p + self.w:] = 0.0

    def embed(self, data: np.ndarray) -> np.ndarray:
        """A new grid holding the values of an (N, C, H, W) array."""
        grid = np.empty((data.shape[1], self.width))
        self.zero_ring(grid)
        self.interior(grid)[...] = data
        return grid


def _layout_of(*tensors: Tensor) -> Layout | None:
    """The layout of an elementwise op's output: its first grid input's, a ring-0 one for plain
    4-D inputs, none otherwise."""
    for tensor in tensors:
        if tensor.layout is not None:
            return tensor.layout
    if tensors[0].ndim == 4:
        n, _, h, w = tensors[0].shape
        return Layout(n, h, w, 0)
    return None


def _grid(tensor: Tensor, layout: Layout | None) -> np.ndarray:
    """tensor's values laid out in layout: its own grid when that is how it is laid out."""
    return tensor.grid if tensor.layout == layout else layout.embed(tensor.data)


def _require_equal_shapes(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape:
        for axis, (da, db) in enumerate(zip(a.shape, b.shape)):
            if da != db:
                raise ShapeError(f"{op}: axis {axis} differs ({da} vs {db})")
        raise ShapeError(f"{op}: rank differs ({a.shape} vs {b.shape})")


def add(a: Tensor, b: Tensor) -> Tensor:
    _require_equal_shapes("add", a, b)
    layout = _layout_of(a, b)
    out = Tensor.of_grid(np.add(_grid(a, layout), _grid(b, layout)), layout)
    graph = active_graph()
    if graph is not None:
        sinks = [sink for sink in (a.sink, b.sink) if sink is not None]
        def backward_fn(g: np.ndarray) -> None:
            # the last sink keeps g itself, the others a copy
            for i, sink in enumerate(sinks, start=1 - len(sinks)):
                sink.accumulate_grad(g, layout, owned=i == 0)
        graph.record("add", out, backward_fn)
    return out


def scale(a: Tensor, factor: float) -> Tensor:
    """Multiply by a python scalar."""
    factor = float(factor)
    layout = _layout_of(a)

    def scaled(grid: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        out = np.multiply(grid, factor, out=out)
        if layout is not None:
            layout.zero_ring(out)  # 0 * factor is -0 or NaN for some factors
        return out

    out = Tensor.of_grid(scaled(_grid(a, layout)), layout)
    graph = active_graph()
    if graph is not None:
        a_sink = a.sink
        def backward_fn(g: np.ndarray) -> None:
            if a_sink is not None:
                a_sink.accumulate_grad(scaled(g, g), layout, owned=True)
        graph.record("scale", out, backward_fn)
    return out


def relu(x: Tensor) -> Tensor:
    layout = _layout_of(x)
    out_grid = np.maximum(_grid(x, layout), 0.0)
    out = Tensor.of_grid(out_grid, layout)
    graph = active_graph()
    if graph is not None:
        x_sink = x.sink
        def backward_fn(g: np.ndarray) -> None:
            # relu(x) > 0 exactly where x > 0 (NaN included), so the output is the mask
            if x_sink is not None:
                x_sink.accumulate_grad(np.multiply(g, out_grid > 0.0, out=g), layout, owned=True)
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
    layout = _layout_of(a, b)
    out = Tensor.of_grid(np.concatenate((_grid(a, layout), _grid(b, layout))), layout)
    graph = active_graph()
    if graph is not None:
        a_sink, b_sink = a.sink, b.sink
        def backward_fn(g: np.ndarray) -> None:
            if a_sink is not None:
                a_sink.accumulate_grad(g[:split], layout, owned=True)
            if b_sink is not None:
                b_sink.accumulate_grad(g[split:], layout, owned=True)
        graph.record("concat_channels", out, backward_fn)
    return out


def l1_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean absolute difference over all elements (scalar output)."""
    _require_equal_shapes("l1_loss", pred, target)
    # C order: the mean then sums the elements in the same order whatever pred's layout
    diff = np.subtract(pred.data, target.data, order="C")
    out = Tensor(np.mean(np.abs(diff)))
    graph = active_graph()
    if graph is not None:
        sign = np.sign(diff)
        inv = 1.0 / diff.size
        pred_sink, target_sink = pred.sink, target.sink
        def backward_fn(g: np.ndarray) -> None:
            contribution = (g * inv) * sign
            if pred_sink is not None:
                pred_sink.accumulate_grad(contribution)
            if target_sink is not None:
                target_sink.accumulate_grad(-contribution)
        graph.record("l1_loss", out, backward_fn)
    return out


def _matmul_nt(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """out + a @ b.T (a @ b.T without out), summed over DW_BLOCK-column blocks of their shared
    axis in order."""
    for start in range(0, a.shape[1], DW_BLOCK):
        block = np.matmul(a[:, start:start + DW_BLOCK], b[:, start:start + DW_BLOCK].T)
        if out is None:
            out = block
        else:
            out += block
    return out


def _offsets(kh: int, kw: int, wp: int) -> list[int]:
    """The grid column offset di*wp + dj of every tap (di, dj), row-major."""
    return [di * wp + dj for di in range(kh) for dj in range(kw)]


def _stack(grid: np.ndarray, offsets: list[int] | range, width: int) -> np.ndarray:
    """The slices grid[:, offset:offset + width], stacked offset-major: (len(offsets)*C, width)."""
    return np.concatenate([grid[:, offset:offset + width] for offset in offsets])


def _gather(grid: np.ndarray, kh: int, kw: int, wp: int, start: int, width: int,
            thin_in: bool) -> np.ndarray:
    """The stack a correlation of output columns start..start+width builds of grid: every tap's
    slice for a thin input, tap-major (kh*kw*C, width); otherwise the kw slices of a kernel row,
    (kh-1)*wp columns wider, (kw*C, width + (kh-1)*wp)."""
    if thin_in:
        return _stack(grid, [start + offset for offset in _offsets(kh, kw, wp)], width)
    return _stack(grid, range(start, start + kw), width + (kh - 1) * wp)


def _correlate(taps: np.ndarray, grid: np.ndarray, wp: int, start: int,
               out: np.ndarray) -> np.ndarray | None:
    """out[:, r] = sum_{i, j} taps[i, j] @ grid[:, start + r + i*wp + j] for every column r of out.

    taps is (kh, kw, Co, Ci) and grid (Ci, ·), at least start plus out's width plus
    (kh-1)*wp + kw-1 columns, rounded up to ALIGN. The GEMM layout follows the tap shape, so that
    each GEMM passes over the wide side once. A thin input (2*Ci <= Co) is one (Co, kh*kw*Ci)
    GEMM on the stacked shifted slices of the grid. A thin output (2*Co <= Ci) is one
    (kh*kw*Co, Ci) GEMM over the grid columns the taps reach, whose row blocks are summed
    shifted. Otherwise each kernel row is one (Co, kw*Ci) GEMM on its wp-shifted window of the
    kernel-row stack. Returns the stack (see _gather), or None for a thin output.
    """
    kh, kw, c_out, c_in = taps.shape
    width = out.shape[1]
    thin_in = 2 * c_in <= c_out
    if not thin_in and 2 * c_out <= c_in:
        offsets = _offsets(kh, kw, wp)
        reach = grid[:, start:start + _aligned(width + offsets[-1])]
        products = np.matmul(taps.reshape(-1, c_in), reach).reshape(kh * kw, c_out, -1)
        out[...] = products[0, :, :width]
        for t in range(1, kh * kw):
            out += products[t, :, offsets[t]:offsets[t] + width]
        return None
    stack = _gather(grid, kh, kw, wp, start, width, thin_in)
    if thin_in:
        np.matmul(taps.transpose(2, 0, 1, 3).reshape(c_out, -1), stack, out=out)
        return stack
    row_taps = taps.transpose(0, 2, 1, 3).reshape(kh, c_out, kw * c_in)
    np.matmul(row_taps[0], stack[:, :width], out=out)
    prod = np.empty_like(out)
    for i in range(1, kh):
        out += np.matmul(row_taps[i], stack[:, i * wp:i * wp + width], out=prod)
    return stack


def _tiles(span: int) -> list[tuple[int, int]]:
    """(start, stop) of each TILE of the span's output columns."""
    return [(start, min(start + TILE, span)) for start in range(0, span, TILE)]


def conv2d(x: Tensor, weight: Tensor, bias: Tensor, pad: int = 0, stride: int = 1) -> Tensor:
    """Batched same 2-D cross-correlation; see the module docstring for the formula. Any stride
    but 1, any kernel but a (2*pad + 1)-square one, or an image without pixels is a ShapeError.

    Each tap (di, dj) is one column slice of the input's grid: padded column q of the grid
    (column q + lead) is pixel (b, i, j) for q = (b*Hp + i)*Wp + j, and output column r reads
    padded column r + di*Wp + dj. The forward is `_correlate` of the taps over the padded
    columns, writing output column r at grid column r + last = r + 2*lead of the output grid,
    which is where the output's layout puts that pixel; the wrapped columns land in the ring.

    dX is `_correlate` of the flipped, transposed taps over the upstream gradient grid, whose
    column r + last holds output column r: input column q gathers output column q - (di*Wp + dj)
    through tap (di, dj), read at column q + ((kh-1-di)*Wp + kw-1-dj), which is flipped tap
    (kh-1-di, kw-1-dj)'s own offset. Its result, padded column q, lands at column q + lead of a
    grid laid out like the input's. dW of a thin input stacks the input's shifted slices as the
    forward does. Otherwise dW reuses the stack that dX built of the upstream gradient (every tap
    for a thin output, the kernel rows for C -> C): each of its wp-shifted windows is one GEMM
    against the input's padded columns, and gives the taps of one kernel row, or all of them, in
    flipped order. Every stack and product is built one TILE of output columns at a time.
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
    if stride != 1 or not kh == kw == 2 * pad + 1:
        raise ShapeError(f"conv2d: only same convs run (stride 1, a (2*pad + 1)-square kernel), "
                         f"got a {kh}x{kw} kernel at pad {pad} and stride {stride}")
    if h == 0 or w == 0:
        raise ShapeError(f"conv2d: input images have no pixels, shape {x.shape}")

    layout = Layout(n, h, w, pad)
    grid = _grid(x, layout)
    # both correlations write span columns, every padded column rounded up to ALIGN
    span, last, wp = layout.span, layout.last, layout.wp
    taps = weight.data.transpose(2, 3, 0, 1)
    thin_in = 2 * cin <= cout

    cols = grid[:, layout.lead:]
    y = np.empty((cout, layout.width))
    for start, stop in _tiles(span):
        _correlate(taps, cols, wp, start, y[:, last + start:last + stop])
    y[:, last:last + span] += bias.data[:, None]
    layout.zero_ring(y)
    out = Tensor.of_grid(y, layout)

    graph = active_graph()
    if graph is not None:
        x_sink, weight_sink, bias_sink = x.sink, weight.sink, bias.sink
        def backward_fn(g: np.ndarray) -> None:
            bias_sink.accumulate_grad(g.sum(axis=1))  # every column but the pixels is zero
            flipped = taps[::-1, ::-1].transpose(0, 1, 3, 2)
            rows = 1 if 2 * cout <= cin else kh  # windows of dX's stack that dW reads
            d_w = [None] * rows
            if x_sink is not None:
                d_grid = np.empty((cin, layout.width))
                d_cols = d_grid[:, layout.lead:]
            for start, stop in _tiles(span):
                width = stop - start
                if thin_in:
                    stack = _gather(cols, kh, kw, wp, start, width, True)
                    d_w[0] = _matmul_nt(g[:, last + start:last + stop], stack, d_w[0])
                    del stack  # dX's products below reuse its block
                if x_sink is not None:
                    stack = _correlate(flipped, g, wp, start, d_cols[:, start:stop])
                elif not thin_in:
                    stack = _gather(g, kh, kw, wp, start, width, 2 * cout <= cin)
                if not thin_in:
                    # block j of window di*wp of dX's stack is the upstream gradient shifted
                    # right by the offset of tap (kh-1-di, kw-1-j); a thin output's stack is
                    # one window
                    for di in range(rows):
                        d_w[di] = _matmul_nt(stack[:, di * wp:di * wp + width],
                                             cols[:, start:stop], d_w[di])
                stack = None
            if thin_in:
                d_w = d_w[0].reshape(cout, kh, kw, cin).transpose(0, 3, 1, 2)
            else:
                d_w = np.stack(d_w).reshape(kh, kw, cout, cin)[::-1, ::-1].transpose(2, 3, 0, 1)
            weight_sink.accumulate_grad(d_w)
            if x_sink is not None:
                layout.zero_ring(d_grid)
                x_sink.accumulate_grad(d_grid, layout, owned=True)
        graph.record("conv2d", out, backward_fn)
    return out
