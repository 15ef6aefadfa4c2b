"""Restoration quality metrics and corpus evaluation.

PSNR: 10 * log10(1 / MSE), for images in [0, 1]; identical images give +inf,
which every TSV in this package prints as the string "inf".

SSIM: the windowed form with an 11x11 Gaussian window (sigma 1.5, normalized
to sum 1), K1 = 0.01, K2 = 0.03, and Gaussian-weighted moments

    mu = sum w x;  var = sum w x^2 - mu^2;  cov = sum w x y - mu_x mu_y

    ssim = (2 mu_x mu_y + C1)(2 cov + C2)
           / ((mu_x^2 + mu_y^2 + C1)(var_x + var_y + C2))

averaged over every fully-interior window position and over channels.
Both metrics take (C, H, W) arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .autodiff import ShapeError, Tensor
from .checkpoint import write_atomic
from .degrade import read_manifest
from .errors import FormatError
from .trainer import Model, pin_heap, read_pair  # reads through trainer.read_ppm, which perfbench wraps

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03
# OpenBLAS (measured with 1 against 2 threads) rounds a GEMM differently per thread count when
# its column count is not a multiple of 8 or its inner axis is long. SSIM's banded GEMMs write
# multiples of BAND_ALIGN columns and cover at most BAND_TILE window positions, an inner axis
# of BAND_TILE + 10, so SSIM's bits do not depend on the thread count.
BAND_ALIGN = 8
BAND_TILE = 120


def format_metric(value: float) -> str:
    """Canonical TSV text for a metric value (repr floats, 'inf' sentinel)."""
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return repr(float(value))


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    if a.shape != b.shape:
        raise ShapeError(f"psnr: shapes differ ({a.shape} vs {b.shape})")
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(1.0 / mse)


def gaussian_kernel() -> np.ndarray:
    """The 1-D Gaussian, normalized to sum 1; its outer product with itself is the window."""
    coords = np.arange(SSIM_WINDOW) - (SSIM_WINDOW - 1) / 2.0
    kernel = np.exp(-coords * coords / (2.0 * SSIM_SIGMA * SSIM_SIGMA))
    return kernel / kernel.sum()


def ssim_band(positions: int) -> np.ndarray:
    """The (positions, positions + 10) matrix whose row i holds the 11 Gaussian
    taps at columns i..i+10 and exact zeros elsewhere: a product with it is the
    1-D windowed mean at each of `positions` window positions."""
    band = np.zeros((positions, positions + SSIM_WINDOW - 1))
    diagonal = np.arange(positions) * (positions + SSIM_WINDOW)  # flat index of (i, i)
    band.reshape(-1)[diagonal[:, None] + np.arange(SSIM_WINDOW)] = gaussian_kernel()
    return band


def _window_means(rows: np.ndarray) -> np.ndarray:
    """The windowed means along each row of a 2-D array at its width - 10
    window positions, rounded up to BAND_ALIGN (the extra ones are cut at the
    edge and hold no mean)."""
    width = rows.shape[1]
    positions = -(-(width - SSIM_WINDOW + 1) // BAND_ALIGN) * BAND_ALIGN
    means = np.empty((rows.shape[0], positions))
    for first in range(0, positions, BAND_TILE):
        count = min(BAND_TILE, positions - first)
        band = ssim_band(count)[:, :width - first]
        np.matmul(rows[:, first:first + band.shape[1]], band.T, out=means[:, first:first + count])
    return means


def ssim(a: np.ndarray, b: np.ndarray) -> float:
    """Mean SSIM between two (C, H, W) arrays in [0, 1].

    The maps a, b, a^2 + b^2 and ab of every channel are stacked, so the
    separable window is banded GEMMs over all of them at once: along W, then
    along H of the transposed means. Only var_a + var_b enters the formula,
    so a^2 and b^2 share a map.
    """
    if a.shape != b.shape:
        raise ShapeError(f"ssim: shapes differ ({a.shape} vs {b.shape})")
    if a.ndim != 3:
        raise ShapeError(f"ssim expects (C, H, W), got {a.shape}")
    channels, height, width = a.shape
    if height < SSIM_WINDOW or width < SSIM_WINDOW:
        raise ShapeError(
            f"ssim needs spatial extent >= {SSIM_WINDOW}, got {height}x{width}"
        )
    maps = np.stack([a, b, a * a + b * b, a * b])
    across = _window_means(maps.reshape(-1, width))
    across = across.reshape(4 * channels, height, -1).transpose(0, 2, 1)
    moments = _window_means(across.reshape(-1, height))
    mu_a, mu_b, squares, product = moments.reshape(4, channels, -1, moments.shape[1])[
        ..., :width - SSIM_WINDOW + 1, :height - SSIM_WINDOW + 1]
    c1 = SSIM_K1 ** 2
    c2 = SSIM_K2 ** 2
    mu_ab = mu_a * mu_b
    mu_sq = mu_a * mu_a + mu_b * mu_b
    score = ((2.0 * mu_ab + c1) * (2.0 * (product - mu_ab) + c2)) / (
        (mu_sq + c1) * (squares - mu_sq + c2)
    )
    return float(np.mean(score.mean(axis=(1, 2))))


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
        write_atomic(path, ("\n".join(lines) + "\n").encode("ascii"))


def evaluate(checkpoint, corpus_dir: str | Path) -> MetricReport:
    """Full-image inference over a corpus; returns per-image and mean metrics.

    Each pair's 8-bit samples are divided by 255.0, one pair at a time. The
    restored output is clamped to [0, 1] before computing metrics (files on
    disk are 8-bit anyway). Rows follow manifest index order. An image
    smaller than the SSIM window is a FormatError. Like training, it pins
    glibc's heap for the rest of the process (``trainer.pin_heap``).
    """
    pin_heap()
    corpus_dir = Path(corpus_dir)
    model = Model.from_checkpoint(checkpoint)
    entries = read_manifest(corpus_dir / "manifest.tsv")
    report = MetricReport()
    psnr_sum, ssim_sum = 0.0, 0.0
    for entry in entries:
        clean, degraded = (samples / 255.0 for samples in read_pair(corpus_dir, entry))
        _, height, width = clean.shape
        if height < SSIM_WINDOW or width < SSIM_WINDOW:
            raise FormatError(
                f"{entry.degraded_file} is {height}x{width}, smaller than the "
                f"{SSIM_WINDOW}x{SSIM_WINDOW} SSIM window"
            )
        restored = np.clip(model.forward(Tensor.constant(degraded[None])).output.data[0], 0.0, 1.0)
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
