"""Truncated-series composition of the two networks.

The mapping output f_out is the order-0 term. Higher terms come from
unrolling the derivative network n times from the seed term g0 (f_out by
default, the degraded input optionally):

    with_k_residual:  g[k+1] = derivative(g[k], y) + k * g[k]
    concat_only:      g[k+1] = derivative(g[k], y)

(k is the 0-based index of the source term, so the first step adds no
residual). Both recurrences ship because they produce different dynamics;
with_k_residual is the default. The restored image weights each term by the
reciprocal factorial of its 1-based index:

    output = f_out + sum_{k=1..n} g[k] / k!

with factorials computed as exact integers. The training loss adds a direct
supervision term on the coarse restoration:

    loss = l1(output, x) + lam * l1(f_out, x)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from .autodiff import Tensor, add, l1_loss, scale

VARIANT_WITH_K_RESIDUAL = "with_k_residual"
VARIANT_CONCAT_ONLY = "concat_only"
VARIANTS = (VARIANT_WITH_K_RESIDUAL, VARIANT_CONCAT_ONLY)

G0_FROM_MAPPING = "f_out"
G0_FROM_INPUT = "y"
G0_SOURCES = (G0_FROM_MAPPING, G0_FROM_INPUT)

MAX_ORDER = 8


@dataclass(frozen=True)
class ComposerConfig:
    order: int = 3
    lam: float = 1.0
    variant: str = VARIANT_WITH_K_RESIDUAL
    g0: str = G0_FROM_MAPPING

    def __post_init__(self):
        if not (0 <= self.order <= MAX_ORDER):
            raise ValueError(f"composer order must be in [0, {MAX_ORDER}], got {self.order}")
        if not (math.isfinite(self.lam) and self.lam >= 0.0):
            raise ValueError(f"composer lambda must be finite and >= 0, got {self.lam}")
        if self.variant not in VARIANTS:
            raise ValueError(f"composer variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.g0 not in G0_SOURCES:
            raise ValueError(f"composer g0 must be one of {G0_SOURCES}, got {self.g0!r}")


@dataclass
class ComposerTrace:
    """Everything one composition produced: the coarse term, the series terms
    g[1..n] in order, and the assembled output."""
    f_out: Tensor
    g: list[Tensor] = field(default_factory=list)
    output: Tensor | None = None


def assemble_output(f_out: Tensor, g: list[Tensor]) -> Tensor:
    """f_out + sum g[k]/k! with exact integer factorials (k is 1-based)."""
    out = f_out
    for k, term in enumerate(g, start=1):
        out = add(out, scale(term, 1.0 / math.factorial(k)))
    return out


def compose_orders(
    mapping_fn: Callable[[Tensor], Tensor],
    derivative_fn: Callable[[Tensor, Tensor], Tensor],
    y: Tensor,
    cfg: ComposerConfig,
) -> ComposerTrace:
    """Run the full composition on degraded input y.

    mapping_fn takes y; derivative_fn takes (g_k, y). With order 0 the
    assembled output IS the mapping output (same tensor).
    """
    f_out = mapping_fn(y)
    trace = ComposerTrace(f_out=f_out)
    g_k = f_out if cfg.g0 == G0_FROM_MAPPING else y
    for k in range(cfg.order):
        step = derivative_fn(g_k, y)
        if cfg.variant == VARIANT_WITH_K_RESIDUAL:
            g_next = add(step, scale(g_k, float(k)))
        else:
            g_next = step
        trace.g.append(g_next)
        g_k = g_next
    trace.output = assemble_output(f_out, trace.g)
    return trace


def framework_loss_terms(
    trace: ComposerTrace, x: Tensor, cfg: ComposerConfig
) -> tuple[Tensor, Tensor, Tensor]:
    """(total, output term, coarse term); total = out + lam * coarse."""
    loss_output = l1_loss(trace.output, x)
    loss_coarse = l1_loss(trace.f_out, x)
    total = add(loss_output, scale(loss_coarse, cfg.lam))
    return total, loss_output, loss_coarse

