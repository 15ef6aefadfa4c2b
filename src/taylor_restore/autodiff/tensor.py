"""Dense float64 tensors and the reverse-mode tape.

A Tensor is a float64 numpy array plus an optional gradient buffer of the
same shape. A leaf's array is C-contiguous. An op's 4-D output is an
(N, C, H, W) view into a channel-major grid (see ops.Layout): `grid` holds the
array the values live in and `layout` says where, or is None when `grid` is
`data` itself. Operations (see ops.py) record themselves on the innermost
active Graph; running them with no active graph is inference mode and costs
nothing extra.

Gradients accumulate: backward() adds into `.grad`, never overwrites, so a
parameter used several times in one graph (or across several graphs) receives
the sum of all contributions. Callers zero grads between steps. Only leaves
(tensors that no op produced) carry `.grad`, always as a plain array of their
shape; a constant leaf (Tensor.constant) takes none, and ops compute nothing
for it. Recording an op gives its output a GradSlot, which keeps the output's
gradient in the output's layout, and the tape keeps that slot and what the
adjoint reads, never the output, so an intermediate's data is freed once its
caller drops it.
"""

from __future__ import annotations

import threading
from typing import Callable

import numpy as np


class ShapeError(ValueError):
    """An operation's shape contract was violated."""


def _accumulate_grad(sink: "Tensor | GradSlot", kept_in, g: np.ndarray, layout,
                     owned: bool) -> None:
    """Add g into sink.grad, which is kept in the layout kept_in (None: a plain array).

    g is a grid in `layout`, or a plain array that broadcasts to the sink's shape when layout is
    None; a grid in another layout adds through its interior. With owned=True the caller hands g
    over: the sink may keep g itself as its gradient, so the caller must not use g again.
    """
    if layout != kept_in:
        if layout is not None:
            g, owned = layout.interior(g), False
        if kept_in is not None:
            if sink.grad is None:
                sink.grad = kept_in.embed(np.broadcast_to(g, sink.shape))
            else:
                kept_in.interior(sink.grad)[...] += g
            return
    if sink.grad is None:
        if not owned:
            g = np.array(g if layout is not None else np.broadcast_to(g, sink.shape),
                         dtype=np.float64, order="C")
        sink.grad = g
    else:
        sink.grad += g


class GradSlot:
    """The gradient of one op output, kept by the tape in the output's stead and in its layout."""

    __slots__ = ("shape", "layout", "grad")

    def __init__(self, shape: tuple[int, ...], layout):
        self.shape, self.layout, self.grad = shape, layout, None

    def accumulate_grad(self, g: np.ndarray, layout=None, owned: bool = False) -> None:
        _accumulate_grad(self, self.layout, g, layout, owned)


_CONSTANT = object()  # the slot of a constant leaf


class Tensor:
    __slots__ = ("data", "grad", "slot", "grid", "layout")

    def __init__(self, data):
        self.data: np.ndarray = np.ascontiguousarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.slot: GradSlot | None = None  # set when an op records this tensor as its output
        self.grid, self.layout = self.data, None

    @classmethod
    def constant(cls, data) -> "Tensor":
        """A leaf that takes no gradient: ops compute nothing for it, and its .grad stays None."""
        tensor = cls(data)
        tensor.slot = _CONSTANT
        return tensor

    @classmethod
    def of_grid(cls, grid: np.ndarray, layout) -> "Tensor":
        """An op output whose values sit in grid where layout puts them (None: grid itself)."""
        tensor = cls.__new__(cls)
        tensor.data = grid if layout is None else layout.interior(grid)
        tensor.grad, tensor.slot, tensor.grid, tensor.layout = None, None, grid, layout
        return tensor

    @classmethod
    def zeros(cls, shape) -> "Tensor":
        return cls(np.zeros(shape))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() requires a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(())[()])

    @property
    def sink(self) -> "Tensor | GradSlot | None":
        """Where this tensor's gradient accumulates: its slot, itself for a leaf, None for a
        constant."""
        if self.slot is None:
            return self
        return None if self.slot is _CONSTANT else self.slot

    def accumulate_grad(self, g: np.ndarray, layout=None, owned: bool = False) -> None:
        sink = self.sink
        if sink is self:
            _accumulate_grad(self, None, g, layout, owned)
        elif sink is not None:
            sink.accumulate_grad(g, layout, owned)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


class _TapeStack(threading.local):
    def __init__(self):
        self.stack: list["Graph"] = []


_TAPES = _TapeStack()


class Graph:
    """Ordered record of executed ops; reverse replay computes adjoints.

    Execution order is already topological (an op's inputs exist before the
    op runs), so backward() is a single reverse sweep that visits each record
    exactly once. A graph serves one forward/backward pair; backward() empties it.
    A record is (name, the output's GradSlot, closure); it never holds the output.
    The closure receives the output's gradient in the output's layout.
    """

    __slots__ = ("_records",)

    def __init__(self):
        self._records: list[tuple[str, GradSlot, Callable[[np.ndarray], None]]] = []

    def record(self, name: str, output: Tensor, backward_fn: Callable[[np.ndarray], None]) -> None:
        output.slot = GradSlot(output.shape, output.layout)
        self._records.append((name, output.slot, backward_fn))

    def __enter__(self) -> "Graph":
        _TAPES.stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _TAPES.stack.pop()
        assert popped is self, "graph contexts must nest properly"


def active_graph() -> Graph | None:
    stack = _TAPES.stack
    return stack[-1] if stack else None


def backward(loss: Tensor, graph: Graph) -> None:
    """Accumulate d(loss)/d(leaf) into .grad for every leaf feeding loss.

    The loss must be a scalar. Each record is popped and its slot's gradient
    taken (reset to None), so buffers are freed once used and the graph ends
    empty; the closure owns the gradient it is handed. Ops whose output never
    received a gradient (side branches that do not feed the loss) are skipped,
    leaving their inputs' grads untouched.
    """
    if loss.size != 1:
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")
    loss.accumulate_grad(np.ones_like(loss.data))
    while graph._records:
        _name, slot, backward_fn = graph._records.pop()
        upstream, slot.grad = slot.grad, None
        if upstream is not None:
            backward_fn(upstream)
