"""From-scratch reverse-mode autodiff on dense float64 numpy arrays."""

from .gradcheck import check_gradients
from .ops import (
    add,
    concat_channels,
    conv2d,
    l1_loss,
    mean_all,
    mul,
    relu,
    scale,
    sum_all,
)
from .tensor import Graph, ShapeError, Tensor, active_graph, backward

__all__ = [
    "Graph",
    "ShapeError",
    "Tensor",
    "active_graph",
    "add",
    "backward",
    "check_gradients",
    "concat_channels",
    "conv2d",
    "l1_loss",
    "mean_all",
    "mul",
    "relu",
    "scale",
    "sum_all",
]
