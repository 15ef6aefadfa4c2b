"""Shared test helpers.

The metric oracles here are deliberate re-implementations of the defining
formulas with plain Python loops — they share no code with the package, so
agreement between the two is evidence, not tautology.
"""

from __future__ import annotations

import math
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import taylor_restore
from taylor_restore.autodiff import Graph, Tensor
from taylor_restore.degrade import (
    DegradationSpec,
    RainParams,
    corpus_clean_seed,
    generate_clean,
    make_corpus,
)
from taylor_restore.prng import SplitMix64

settings.register_profile("deterministic", derandomize=True, deadline=None,
                          max_examples=40)
settings.load_profile("deterministic")

ACCEPTANCE_LINES: list[str] = []


def child_env(**extra):
    """The environment for a child process that imports this checkout's package."""
    package_root = str(Path(taylor_restore.__file__).resolve().parents[1])
    pythonpath = [package_root, os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath)), **extra)


def blas_threads() -> tuple[dict[str, str | None], int]:
    """(the BLAS thread variables, the threads of this process) after a GEMM big enough for
    a multi-threaded BLAS to start its threads; importable by a spawned worker."""
    from taylor_restore.cli import BLAS_THREAD_VARIABLES
    a = np.ones((512, 512))
    np.matmul(a, a)
    return ({name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES},
            len(os.listdir("/proc/self/task")))


@pytest.hookimpl(trylast=True)
def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def rand_array(seed: int, shape: tuple[int, ...],
               lo: float = -1.0, hi: float = 1.0) -> np.ndarray:
    """Deterministic uniform array on [lo, hi)."""
    rng = SplitMix64(seed)
    count = 1
    for extent in shape:
        count *= extent
    return lo + (hi - lo) * rng.uniforms(count).reshape(shape)


def rand_tensor(seed: int, shape: tuple[int, ...],
                lo: float = -1.0, hi: float = 1.0) -> Tensor:
    """Deterministic uniform tensor on [lo, hi)."""
    return Tensor(rand_array(seed, shape, lo, hi))


def weighted_sum(graph: Graph, out: Tensor, weights: np.ndarray | float = 1.0) -> Tensor:
    """sum(out * weights) as a scalar recorded on graph: backward hands out exactly
    weights (broadcast to out's shape) as its upstream gradient."""
    loss = Tensor(np.sum(out.data * weights))
    graph.record("weighted_sum", loss, lambda g: out.accumulate_grad(g * weights))
    return loss


def write_rain_corpus(out_dir: Path, count: int, size: int, seed: int,
                      rain: RainParams | None = None) -> Path:
    """Small on-disk corpus of procedural clean images with rain streaks."""
    spec = DegradationSpec(kind="rain", seed=seed, rain=rain or RainParams())
    cleans = (generate_clean(size, size, corpus_clean_seed(seed, i)) for i in range(count))
    return make_corpus(cleans, spec, out_dir)


# --- brute-force metric oracles -------------------------------------------

def psnr_bruteforce(a: np.ndarray, b: np.ndarray, peak: float = 1.0) -> float:
    total = 0.0
    count = 0
    for va, vb in zip(a.reshape(-1).tolist(), b.reshape(-1).tolist()):
        diff = va - vb
        total += diff * diff
        count += 1
    mse = total / count
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(peak * peak / mse)


def _window_bruteforce(size: int = 11, sigma: float = 1.5) -> list[list[float]]:
    half = (size - 1) / 2.0
    weights = [
        [math.exp(-(((i - half) ** 2 + (j - half) ** 2) / (2.0 * sigma * sigma)))
         for j in range(size)]
        for i in range(size)
    ]
    total = sum(sum(row) for row in weights)
    return [[w / total for w in row] for row in weights]


def ssim_bruteforce(a: np.ndarray, b: np.ndarray) -> float:
    """Windowed SSIM by explicit loops: 11x11 Gaussian window (sigma 1.5),
    K1=0.01, K2=0.03, peak 1.0, valid window positions, channel-averaged."""
    if a.ndim == 2:
        a, b = a[None], b[None]
    window = _window_bruteforce()
    size = 11
    c1 = 0.01 ** 2
    c2 = 0.03 ** 2
    channels, height, width = a.shape
    channel_scores = []
    for c in range(channels):
        scores = []
        for top in range(height - size + 1):
            for left in range(width - size + 1):
                mu_a = mu_b = 0.0
                sq_a = sq_b = prod = 0.0
                for i in range(size):
                    for j in range(size):
                        w = window[i][j]
                        va = float(a[c, top + i, left + j])
                        vb = float(b[c, top + i, left + j])
                        mu_a += w * va
                        mu_b += w * vb
                        sq_a += w * va * va
                        sq_b += w * vb * vb
                        prod += w * va * vb
                var_a = sq_a - mu_a * mu_a
                var_b = sq_b - mu_b * mu_b
                cov = prod - mu_a * mu_b
                scores.append(
                    ((2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2))
                    / ((mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2))
                )
        channel_scores.append(sum(scores) / len(scores))
    return sum(channel_scores) / len(channel_scores)


def conv2d_bruteforce(x: np.ndarray, weight: np.ndarray, bias: np.ndarray,
                      pad: int, stride: int) -> np.ndarray:
    """Direct cross-correlation with zero padding, written as plain loops."""
    n, cin, h, w = x.shape
    cout, _, kh, kw = weight.shape
    h_out = (h + 2 * pad - kh) // stride + 1
    w_out = (w + 2 * pad - kw) // stride + 1
    out = np.zeros((n, cout, h_out, w_out))
    for ni in range(n):
        for o in range(cout):
            for i in range(h_out):
                for j in range(w_out):
                    acc = float(bias[o])
                    for c in range(cin):
                        for di in range(kh):
                            for dj in range(kw):
                                src_i = i * stride + di - pad
                                src_j = j * stride + dj - pad
                                if 0 <= src_i < h and 0 <= src_j < w:
                                    acc += float(x[ni, c, src_i, src_j]) \
                                        * float(weight[o, c, di, dj])
                    out[ni, o, i, j] = acc
    return out


def conv2d_backward_bruteforce(x: np.ndarray, weight: np.ndarray, g: np.ndarray,
                               pad: int, stride: int):
    """(dX, dW, db) of conv2d for upstream gradient g, written as plain loops:
    every output pixel's gradient goes back through each tap that read it."""
    n, cin, h, w = x.shape
    cout, _, kh, kw = weight.shape
    d_x = np.zeros(x.shape)
    d_w = np.zeros(weight.shape)
    d_b = np.zeros(cout)
    for ni in range(n):
        for o in range(cout):
            for i in range(g.shape[2]):
                for j in range(g.shape[3]):
                    up = float(g[ni, o, i, j])
                    d_b[o] += up
                    for c in range(cin):
                        for di in range(kh):
                            for dj in range(kw):
                                src_i = i * stride + di - pad
                                src_j = j * stride + dj - pad
                                if 0 <= src_i < h and 0 <= src_j < w:
                                    d_x[ni, c, src_i, src_j] += up * float(weight[o, c, di, dj])
                                    d_w[o, c, di, dj] += up * float(x[ni, c, src_i, src_j])
    return d_x, d_w, d_b
