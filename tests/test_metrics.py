"""PSNR and windowed SSIM against independent loop-oracle implementations,
plus the TSV report format."""

import math
import subprocess
import sys

import numpy as np
import pytest

from conftest import child_env, psnr_bruteforce, rand_array, ssim_bruteforce
from taylor_restore.autodiff import ShapeError
from taylor_restore.metrics import (
    BAND_TILE,
    MetricReport,
    MetricRow,
    format_metric,
    gaussian_kernel,
    psnr,
    ssim,
    ssim_band,
)


def image_pair(seed, shape=(3, 16, 16)):
    a = rand_array(seed, shape, 0.0, 1.0)
    b = rand_array(seed + 1000, shape, 0.0, 1.0)
    return a, b


# --- PSNR -----------------------------------------------------------------------

def test_psnr_of_identical_images_is_infinite():
    a = rand_array(1, (3, 12, 12), 0.0, 1.0)
    assert psnr(a, a.copy()) == math.inf


def test_psnr_twenty_db_example():
    # uniform error of 0.1 against peak 1.0 is exactly 20 dB
    a = np.zeros((1, 10, 10))
    b = np.full((1, 10, 10), 0.1)
    assert abs(psnr(a, b) - 20.0) < 1e-9


def test_psnr_decreases_with_noise_amplitude():
    clean = rand_array(2, (3, 12, 12), 0.0, 1.0)
    noise = rand_array(3, (3, 12, 12), -1.0, 1.0)
    values = [psnr(clean, clean + amp * noise)
              for amp in (0.05, 0.1, 0.2, 0.4)]
    assert all(values[i] > values[i + 1] for i in range(len(values) - 1))


def test_psnr_matches_loop_oracle():
    for seed in range(5):
        a, b = image_pair(10 + seed)
        assert abs(psnr(a, b) - psnr_bruteforce(a, b)) <= 1e-9


def test_psnr_shape_mismatch():
    with pytest.raises(ShapeError):
        psnr(np.zeros((3, 4, 4)), np.zeros((3, 4, 5)))


# --- SSIM -----------------------------------------------------------------------

def test_ssim_window_is_normalised():
    # each row of the band is the window at one position: its 11 taps, zeros elsewhere
    kernel = gaussian_kernel()
    for positions in (1, 8, 54, BAND_TILE):
        band = ssim_band(positions)
        assert band.shape == (positions, positions + 10)
        for i, row in enumerate(band):
            assert abs(float(row.sum()) - 1.0) <= 1e-12
            assert np.array_equal(row[i:i + 11], kernel)
            assert float(row[i:i + 11].min()) > 0.0
            assert not row[:i].any() and not row[i + 11:].any()


def test_ssim_of_identical_images_is_one():
    a = rand_array(20, (3, 14, 14), 0.0, 1.0)
    assert ssim(a, a.copy()) == pytest.approx(1.0, abs=1e-9)


def test_ssim_is_symmetric():
    a, b = image_pair(21, (3, 14, 14))
    assert abs(ssim(a, b) - ssim(b, a)) <= 1e-12


def test_ssim_constant_images_hit_luminance_floor():
    # mu_a=0, mu_b=1, zero variances: score = C1 / (1 + C1)
    a = np.zeros((1, 12, 12))
    b = np.ones((1, 12, 12))
    c1 = 0.01 ** 2
    assert ssim(a, b) == pytest.approx(c1 / (1.0 + c1), abs=1e-7)


def test_ssim_matches_loop_oracle():
    # square planes, non-square ones, a single window position, and extents past
    # BAND_TILE positions, which take a second banded GEMM along H or along W
    shapes = [(3, 14, 14)] * 5 + [(3, 13, 19), (1, 11, 11), (3, 11, 40), (2, 29, 12),
                                  (1, 140, 12), (1, 12, 140)]
    for seed, shape in enumerate(shapes):
        a, b = image_pair(30 + seed, shape)
        assert abs(ssim(a, b) - ssim_bruteforce(a, b)) <= 1e-6


def test_ssim_rejects_small_or_mismatched_images_and_other_ranks():
    with pytest.raises(ShapeError):
        ssim(np.zeros((3, 10, 12)), np.zeros((3, 10, 12)))
    with pytest.raises(ShapeError):
        ssim(np.zeros((3, 14, 14)), np.zeros((3, 14, 15)))
    for shape in ((14, 14), (1, 3, 14, 14)):
        with pytest.raises(ShapeError, match="expects"):
            ssim(np.zeros(shape), np.zeros(shape))


# Independent images score near 0, where a last-bit change in a moment shows. With
# BAND_ALIGN set to 1, SSIM of the 1 x 100 x 97 pair differs between 1 and 2 threads;
# with no BAND_TILE limit, that of the 2 x 395 x 102 pair does.
SSIM_CHILD = """
import numpy as np
from taylor_restore.metrics import ssim
for shape in [(3, 150, 200), (3, 97, 131), (1, 100, 97), (2, 395, 102)]:
    rng = np.random.default_rng(7)
    a, b = rng.random(shape), rng.random(shape)
    print(ssim(a, b).hex())
"""


def test_ssim_bits_do_not_depend_on_blas_threads():
    printed = {}
    for threads in ("1", "2"):
        proc = subprocess.run([sys.executable, "-c", SSIM_CHILD], capture_output=True,
                              text=True, env=child_env(OPENBLAS_NUM_THREADS=threads))
        assert proc.returncode == 0, proc.stderr
        printed[threads] = proc.stdout.split()
    assert len(printed["1"]) == 4
    assert printed["1"] == printed["2"]


def test_ssim_degrades_with_noise():
    clean = rand_array(50, (3, 16, 16), 0.2, 0.8)
    noise = rand_array(51, (3, 16, 16), -1.0, 1.0)
    values = [ssim(clean, clean + amp * noise)
              for amp in (0.0, 0.05, 0.15)]
    assert values[0] == pytest.approx(1.0, abs=1e-12)
    assert values[0] > values[1] > values[2]


# --- report format -----------------------------------------------------------------

def test_format_metric():
    assert format_metric(math.inf) == "inf"
    assert format_metric(-math.inf) == "-inf"
    assert format_metric(1.0) == "1.0"
    assert format_metric(27.123456789012345) == repr(27.123456789012345)


def test_report_tsv_layout(tmp_path):
    rows = [MetricRow(0, "degraded_000000.ppm", math.inf, 1.0),
            MetricRow(1, "degraded_000001.ppm", 31.5, 0.875)]
    report = MetricReport(rows=rows,
                          mean_psnr=(math.inf),
                          mean_ssim=(1.0 + 0.875) / 2.0)
    path = tmp_path / "metrics.tsv"
    report.write_tsv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "index\tfile\tpsnr\tssim"
    assert lines[1] == "0\tdegraded_000000.ppm\tinf\t1.0"
    assert lines[2] == f"1\tdegraded_000001.ppm\t{31.5!r}\t{0.875!r}"
    assert lines[3] == f"mean\t-\tinf\t{(1.0 + 0.875) / 2.0!r}"
    assert len(lines) == 4


def test_report_mean_matches_rows(tmp_path):
    values = [(28.25, 0.91), (30.5, 0.95), (26.125, 0.89)]
    rows = [MetricRow(i, f"f{i}", p, s) for i, (p, s) in enumerate(values)]
    mean_psnr = sum(p for p, _ in values) / 3
    mean_ssim = sum(s for _, s in values) / 3
    report = MetricReport(rows=rows, mean_psnr=mean_psnr, mean_ssim=mean_ssim)
    path = tmp_path / "metrics.tsv"
    report.write_tsv(path)
    footer = path.read_text().splitlines()[-1].split("\t")
    assert footer[0] == "mean"
    assert abs(float(footer[2]) - mean_psnr) <= 1e-12
    assert abs(float(footer[3]) - mean_ssim) <= 1e-12
