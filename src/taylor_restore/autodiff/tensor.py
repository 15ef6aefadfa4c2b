"""Dense float64 tensors and the reverse-mode tape.

A Tensor is a C-contiguous float64 numpy array plus an optional gradient
buffer of the same shape. Operations (see ops.py) record themselves on the
innermost active Graph; running them with no active graph is inference mode
and costs nothing extra.

Gradients accumulate: backward() adds into `.grad`, never overwrites, so a
parameter used several times in one graph (or across several graphs) receives
the sum of all contributions. backward() consumes its graph, and only leaves
(tensors that no op produced) keep `.grad`. Callers zero grads between steps.
"""

from __future__ import annotations

import threading
from typing import Callable

import numpy as np


class ShapeError(ValueError):
    """An operation's shape contract was violated."""


class Tensor:
    __slots__ = ("data", "grad")

    def __init__(self, data):
        self.data: np.ndarray = np.ascontiguousarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None

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

    def accumulate_grad(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(np.broadcast_to(g, self.data.shape), dtype=np.float64, order="C")
        else:
            self.grad += g

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
    """

    __slots__ = ("_records",)

    def __init__(self):
        self._records: list[tuple[str, Tensor, Callable[[np.ndarray], None]]] = []

    def record(self, name: str, output: Tensor, backward_fn: Callable[[np.ndarray], None]) -> None:
        self._records.append((name, output, backward_fn))

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

    The loss must be a scalar. Each record is popped and its output's gradient
    taken (reset to None), so buffers are freed once used and the graph ends
    empty. Ops whose output never received a gradient (side branches that do
    not feed the loss) are skipped, leaving their inputs' grads untouched.
    """
    if loss.size != 1:
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")
    loss.accumulate_grad(np.ones_like(loss.data))
    while graph._records:
        _name, output, backward_fn = graph._records.pop()
        upstream, output.grad = output.grad, None
        if upstream is not None:
            backward_fn(upstream)
