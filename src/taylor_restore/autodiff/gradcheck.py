"""Central finite-difference verification of analytic gradients."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .tensor import Graph, Tensor, backward

# A re-measure can only lower an element's error; one at most this is far below both pass
# thresholds (1e-6 per op, 1e-4 composed) already, so it is measured once.
REMEASURE_ABOVE = 1e-8


def check_gradients(f: Callable[[], Tensor], params: Sequence[Tensor], h: float = 1e-5) -> float:
    """Max relative error between analytic and numeric gradients of f, over every element.

    f must be a deterministic zero-argument callable that runs the forward
    pass from current parameter values and returns a scalar loss Tensor. The
    analytic gradient comes from one taped forward/backward; the numeric one
    from central differences (f(p+h) - f(p-h)) / 2h, evaluated untaped. The
    relative error uses denominator max(|analytic|, |numeric|, 1e-8).

    A relu or L1 kink within h of an element shows as a one-sided difference
    that agrees with the analytic gradient better than the central one does.
    Such an element is measured again at h/100 and h/10**4, and keeps the
    smallest of its three errors. An element whose central error is at most
    REMEASURE_ABOVE is rounding already, and is not measured again.
    """
    for p in params:
        p.grad = None
    with Graph() as graph:
        loss = f()
    backward(loss, graph)
    loss_at = loss.item()
    analytic = [
        np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params
    ]

    def losses(flat: np.ndarray, i: int, step: float) -> tuple[float, float]:
        """f with element i of flat raised by step, then lowered by step."""
        original = flat[i]
        flat[i] = original + step
        plus = f().item()
        flat[i] = original - step
        minus = f().item()
        flat[i] = original
        return plus, minus

    def error(numeric: float, exact: float) -> float:
        return abs(numeric - exact) / max(abs(numeric), abs(exact), 1e-8)

    worst = 0.0
    for p, reference in zip(params, analytic):
        flat = p.data.reshape(-1)
        for i, exact in enumerate(reference.reshape(-1).tolist()):
            plus, minus = losses(flat, i, h)
            err = error((plus - minus) / (2.0 * h), exact)
            if err > REMEASURE_ABOVE and min(error((plus - loss_at) / h, exact),
                                             error((loss_at - minus) / h, exact)) < err:
                for step in (h / 1e2, h / 1e4):
                    plus, minus = losses(flat, i, step)
                    err = min(err, error((plus - minus) / (2.0 * step), exact))
            worst = max(worst, err)
    return worst
