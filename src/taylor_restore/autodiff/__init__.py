"""From-scratch reverse-mode autodiff on dense float64 numpy arrays."""

from .gradcheck import check_gradients
from .ops import add, concat_channels, conv2d, l1_loss, relu, scale
from .tensor import Graph, ShapeError, Tensor, backward

__all__ = [
    "Graph",
    "ShapeError",
    "Tensor",
    "add",
    "backward",
    "check_gradients",
    "concat_channels",
    "conv2d",
    "l1_loss",
    "relu",
    "scale",
]
