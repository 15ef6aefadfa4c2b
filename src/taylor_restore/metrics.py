"""Restoration quality metrics and corpus evaluation.

PSNR: 10 * log10(peak^2 / MSE) with peak 1.0; identical images give +inf,
which every TSV in this package prints as the string "inf".

SSIM: the windowed form with an 11x11 Gaussian window (sigma 1.5, normalized
to sum 1), K1 = 0.01, K2 = 0.03, and Gaussian-weighted moments

    mu = sum w x;  var = sum w x^2 - mu^2;  cov = sum w x y - mu_x mu_y

    ssim = (2 mu_x mu_y + C1)(2 cov + C2)
           / ((mu_x^2 + mu_y^2 + C1)(var_x + var_y + C2))

averaged over every fully-interior window position and, for multi-channel
images, over channels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import ppm  # read_ppm through the module: perfbench/tracing.py wraps ppm.read_ppm
from .autodiff import ShapeError, Tensor
from .degrade import read_manifest
from .errors import FormatError
from .trainer import Model

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03


def format_metric(value: float) -> str:
    """Canonical TSV text for a metric value (repr floats, 'inf' sentinel)."""
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return repr(float(value))


def psnr(a: Tensor, b: Tensor, peak: float = 1.0) -> float:
    if a.shape != b.shape:
        raise ShapeError(f"psnr: shapes differ ({a.shape} vs {b.shape})")
    mse = float(np.mean((a.data - b.data) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(peak * peak / mse)


def gaussian_kernel(size: int = SSIM_WINDOW, sigma: float = SSIM_SIGMA) -> np.ndarray:
    """The 1-D Gaussian, normalized to sum 1; its outer product with itself is the window."""
    coords = np.arange(size) - (size - 1) / 2.0
    kernel = np.exp(-coords * coords / (2.0 * sigma * sigma))
    return kernel / kernel.sum()


def gaussian_window(size: int = SSIM_WINDOW, sigma: float = SSIM_SIGMA) -> np.ndarray:
    kernel = gaussian_kernel(size, sigma)
    return np.outer(kernel, kernel)


def _windowed_mean(plane: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    rows = sliding_window_view(plane, kernel.size, axis=1) @ kernel
    return sliding_window_view(rows, kernel.size, axis=0) @ kernel


def _ssim_plane(a: np.ndarray, b: np.ndarray, kernel: np.ndarray) -> float:
    c1 = (SSIM_K1 * 1.0) ** 2
    c2 = (SSIM_K2 * 1.0) ** 2
    mu_a = _windowed_mean(a, kernel)
    mu_b = _windowed_mean(b, kernel)
    var_a = _windowed_mean(a * a, kernel) - mu_a * mu_a
    var_b = _windowed_mean(b * b, kernel) - mu_b * mu_b
    cov = _windowed_mean(a * b, kernel) - mu_a * mu_b
    score = ((2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)) / (
        (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
    )
    return float(np.mean(score))


def ssim(a: Tensor, b: Tensor) -> float:
    """Mean SSIM between two (H, W) or (C, H, W) tensors in [0, 1]."""
    if a.shape != b.shape:
        raise ShapeError(f"ssim: shapes differ ({a.shape} vs {b.shape})")
    if a.ndim == 2:
        planes_a, planes_b = a.data[None], b.data[None]
    elif a.ndim == 3:
        planes_a, planes_b = a.data, b.data
    else:
        raise ShapeError(f"ssim expects (H, W) or (C, H, W), got {a.shape}")
    height, width = planes_a.shape[1:]
    if height < SSIM_WINDOW or width < SSIM_WINDOW:
        raise ShapeError(
            f"ssim needs spatial extent >= {SSIM_WINDOW}, got {height}x{width}"
        )
    kernel = gaussian_kernel()
    scores = [_ssim_plane(pa, pb, kernel) for pa, pb in zip(planes_a, planes_b)]
    return float(np.mean(scores))


@dataclass
class MetricRow:
    index: int
    file: str
    psnr: float
    ssim: float


@dataclass
class MetricReport:
    rows: list[MetricRow] = field(default_factory=list)
    mean_psnr: float = 0.0
    mean_ssim: float = 0.0

    @property
    def image_count(self) -> int:
        return len(self.rows)

    def write_tsv(self, path: str | Path) -> None:
        lines = ["index\tfile\tpsnr\tssim"]
        for row in self.rows:
            lines.append(
                f"{row.index}\t{row.file}\t{format_metric(row.psnr)}\t{format_metric(row.ssim)}"
            )
        lines.append(
            f"mean\t-\t{format_metric(self.mean_psnr)}\t{format_metric(self.mean_ssim)}"
        )
        Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def evaluate(checkpoint, corpus_dir: str | Path) -> MetricReport:
    """Full-image inference over a corpus; returns per-image and mean metrics.

    The restored output is clamped to [0, 1] before computing metrics (files
    on disk are 8-bit anyway). Rows follow manifest index order.
    """
    corpus_dir = Path(corpus_dir)
    model = Model.from_checkpoint(checkpoint)
    entries = read_manifest(corpus_dir / "manifest.tsv")
    report = MetricReport()
    psnr_sum, ssim_sum = 0.0, 0.0
    for entry in entries:
        clean = ppm.read_ppm(corpus_dir / entry.clean_file)
        degraded = ppm.read_ppm(corpus_dir / entry.degraded_file)
        if clean.shape != degraded.shape:
            raise FormatError(
                f"{entry.clean_file}/{entry.degraded_file}: pair shapes differ "
                f"({clean.shape} vs {degraded.shape})"
            )
        if clean.shape[0] != model.mapping.in_channels:
            raise FormatError(
                f"{entry.degraded_file} has {clean.shape[0]} channels, the checkpoint's "
                f"model takes {model.mapping.in_channels}"
            )
        y = Tensor(degraded.data[None])
        restored = Tensor(np.clip(model.forward(y).output.data[0], 0.0, 1.0))
        row = MetricRow(
            index=entry.index,
            file=entry.degraded_file,
            psnr=psnr(restored, clean),
            ssim=ssim(restored, clean),
        )
        report.rows.append(row)
        psnr_sum += row.psnr
        ssim_sum += row.ssim
    if not report.rows:
        raise FormatError(f"{corpus_dir}: manifest lists no samples")
    report.mean_psnr = psnr_sum / len(report.rows)
    report.mean_ssim = ssim_sum / len(report.rows)
    return report
