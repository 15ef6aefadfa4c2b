"""Dense float64 tensors and the reverse-mode tape.

A Tensor is a C-contiguous float64 numpy array plus an optional gradient
buffer of the same shape. Operations (see ops.py) record themselves on the
innermost active Graph; running them with no active graph is inference mode
and costs nothing extra.

Gradients accumulate: backward() adds into `.grad`, never overwrites, so a
parameter used several times in one graph (or across several graphs) receives
the sum of all contributions. Callers zero grads between steps. Only leaves
(tensors that no op produced) carry `.grad`: recording an op gives its output a
GradSlot, and the tape keeps that slot and what the adjoint reads, never the
output, so an intermediate's data is freed once its caller drops it.
"""

from __future__ import annotations

import threading
from typing import Callable

import numpy as np


class ShapeError(ValueError):
    """An operation's shape contract was violated."""


def _accumulate_grad(sink: "Tensor | GradSlot", g: np.ndarray) -> None:
    if sink.grad is None:
        sink.grad = np.array(np.broadcast_to(g, sink.shape), dtype=np.float64, order="C")
    else:
        sink.grad += g


class GradSlot:
    """The gradient of one op output, kept by the tape in the output's stead."""

    __slots__ = ("shape", "grad")
    accumulate_grad = _accumulate_grad

    def __init__(self, shape: tuple[int, ...]):
        self.shape, self.grad = shape, None


class Tensor:
    __slots__ = ("data", "grad", "slot")

    def __init__(self, data):
        self.data: np.ndarray = np.ascontiguousarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.slot: GradSlot | None = None  # set when an op records this tensor as its output

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
    def sink(self) -> "Tensor | GradSlot":
        """Where this tensor's gradient accumulates: its slot, or itself for a leaf."""
        return self if self.slot is None else self.slot

    def accumulate_grad(self, g: np.ndarray) -> None:
        _accumulate_grad(self.sink, g)

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
    """

    __slots__ = ("_records",)

    def __init__(self):
        self._records: list[tuple[str, GradSlot, Callable[[np.ndarray], None]]] = []

    def record(self, name: str, output: Tensor, backward_fn: Callable[[np.ndarray], None]) -> None:
        output.slot = GradSlot(output.shape)
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
    empty. Ops whose output never received a gradient (side branches that do
    not feed the loss) are skipped, leaving their inputs' grads untouched.
    """
    if loss.size != 1:
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")
    loss.accumulate_grad(np.ones_like(loss.data))
    while graph._records:
        _name, slot, backward_fn = graph._records.pop()
        upstream, slot.grad = slot.grad, None
        if upstream is not None:
            backward_fn(upstream)
