"""End-to-end acceptance checks.

Each test here verifies one headline guarantee at its stated tolerance and
prints a single PASS/FAIL line (collected into a summary section at the end
of the pytest run):

  1. gradient correctness: finite-difference error < 1e-6 for each of the six
     ops the model runs (conv2d, relu, concat_channels, add, scale, l1_loss),
     composed order-3 model (both recurrence variants) < 1e-4, under a minute
  2. series composition: hand-unrolled recurrence values exact to 1e-12;
     order 0 returns the coarse mapping's output itself
  3. learning-rate schedule: the 1e-3 / 2e-4 / 4e-5 / 8e-6 ladder is hit
     exactly (as doubles) at epochs 0 / 30 / 50 / 80
  4. image metrics: PSNR within 1e-9 and SSIM within 1e-6 of brute-force
     loop oracles; identical images give inf / 1.0
  5. desk-scale trend: on a 200-train / 50-test rain corpus at 64x64,
     patch 32, 30 epochs, train seeds {1,2,3}: mean test PSNR of the
     order-3 model beats the order-0 baseline by >= 0.05 dB, inside half
     an hour of wall clock
  6. order sweep: sweep-order 0..4 writes one row per order, and its
     order-0 run is bit-for-bit the same as a separately trained plain
     mapping (same seed)
  7. reruns of 5 and 6 reproduce every loss log, metric table, and sweep
     table byte-identically
  8. split training (5 epochs + resume 5) equals 10 straight epochs,
     checkpoint bytes included
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    ACCEPTANCE_LINES,
    psnr_bruteforce,
    rand_array,
    rand_tensor,
    ssim_bruteforce,
)
from taylor_restore.autodiff import Tensor
from taylor_restore.cli import main as cli_main
from taylor_restore.composer import ComposerConfig, compose_orders
from taylor_restore.metrics import psnr, ssim
from taylor_restore.networks import MappingSpec, forward_mapping, init_params
from taylor_restore.prng import derive_stream
from taylor_restore.trainer import TrainConfig, lr_at
from taylor_restore.verification import (
    COMPOSED_THRESHOLD,
    PER_OP_THRESHOLD,
    composed_gradchecks,
    per_op_gradchecks,
)

PRESET = Path(__file__).resolve().parent.parent / "configs" / "desk_rain.cfg"

TREND_SEEDS = (1, 2, 3)
TREND_ORDERS = (0, 3)
TREND_TRAIN_COUNT = 200
TREND_TEST_COUNT = 50
TREND_WALL_LIMIT = 30 * 60.0

SWEEP_ORDERS = (0, 1, 2, 3, 4)
SWEEP_DATA_COUNT = 24
SWEEP_SEED = 9


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    line = f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'} — {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def _mean_psnr_ssim(metrics_path: Path) -> tuple[float, float]:
    footer = metrics_path.read_text().splitlines()[-1].split("\t")
    assert footer[0] == "mean", metrics_path
    return float(footer[2]), float(footer[3])


# --- criterion 1 -------------------------------------------------------------

def test_01_gradient_correctness():
    start = time.perf_counter()
    per_op = per_op_gradchecks(derive_stream(7, 1))
    composed = composed_gradchecks(7)
    wall = time.perf_counter() - start
    worst_op = max(err for _, err in per_op)
    worst_composed = max(err for _, err in composed)
    ops = [name for name, _ in per_op]
    ok = (ops == ["conv2d", "relu", "concat_channels", "add", "scale", "l1_loss"]
          and worst_op < PER_OP_THRESHOLD
          and len(composed) == 2 and worst_composed < COMPOSED_THRESHOLD
          and wall < 60.0)
    _report(1, "gradient correctness", ok,
            f"per-op max {worst_op:.2e} over {len(ops)} ops (need < {PER_OP_THRESHOLD:.0e}), "
            f"composed max {worst_composed:.2e} (need < {COMPOSED_THRESHOLD:.0e}), "
            f"wall {wall:.1f}s (need < 60s)")


# --- criterion 2 -------------------------------------------------------------

def test_02_series_composition():
    shape = (1, 2, 4, 4)
    y = rand_tensor(101, shape, 0.0, 1.0)
    f0 = rand_tensor(102, shape, 0.0, 1.0)
    c = 0.25
    cfg = ComposerConfig(order=3, variant="with_k_residual")
    trace = compose_orders(lambda t: Tensor(f0.data.copy()),
                           lambda g, t: Tensor(np.full(g.shape, c)), y, cfg)
    recurrence_err = max(
        float(np.abs(g.data - expected).max())
        for g, expected in zip(trace.g, [c, 2 * c, 5 * c])
    )
    output_err = float(np.abs(trace.output.data - (f0.data + (17.0 / 6.0) * c)).max())

    spec = MappingSpec(channels=4, blocks=1)
    params = init_params(spec, 5)
    rgb = rand_tensor(103, (1, 3, 4, 4), 0.0, 1.0)
    trace0 = compose_orders(lambda t: forward_mapping(params, spec, t),
                            lambda g, t: Tensor(np.full(g.shape, c)), rgb,
                            ComposerConfig(order=0))
    order0_identity = trace0.output is trace0.f_out
    order0_exact = trace0.output.data.tobytes() \
        == forward_mapping(params, spec, rgb).data.tobytes()

    ok = (recurrence_err <= 1e-12 and output_err <= 1e-12
          and order0_identity and order0_exact)
    _report(2, "series composition", ok,
            f"constant-stub recurrence err {recurrence_err:.1e}, "
            f"assembled output err {output_err:.1e} (need <= 1e-12); "
            f"order-0 output is the mapping output object: {order0_identity}, "
            f"bit-identical: {order0_exact}")


# --- criterion 3 -------------------------------------------------------------

def test_03_learning_rate_schedule():
    cfg = TrainConfig()  # lr0 1e-3, decays at 30/50/80, factor 0.2
    checks = [
        (0, 1e-3), (29, 1e-3), (30, 2e-4), (49, 2e-4),
        (50, 4e-5), (79, 4e-5), (80, 8e-6), (99, 8e-6),
    ]
    mismatches = [(epoch, lr_at(epoch, cfg), want)
                  for epoch, want in checks if lr_at(epoch, cfg) != want]
    ok = not mismatches
    detail = ("epochs 0/30/50/80 give exactly 1e-3/2e-4/4e-5/8e-6"
              if ok else f"mismatches: {mismatches}")
    _report(3, "learning-rate schedule", ok, detail)


# --- criterion 4 -------------------------------------------------------------

def test_04_image_metrics():
    worst_psnr = 0.0
    worst_ssim = 0.0
    for seed in range(5):
        a = rand_array(200 + seed, (3, 14, 14), 0.0, 1.0)
        b = rand_array(300 + seed, (3, 14, 14), 0.0, 1.0)
        worst_psnr = max(worst_psnr, abs(psnr(a, b) - psnr_bruteforce(a, b)))
        worst_ssim = max(worst_ssim, abs(ssim(a, b) - ssim_bruteforce(a, b)))
    same = rand_array(400, (3, 14, 14), 0.0, 1.0)
    twin = same.copy()
    identical_psnr = psnr(same, twin)
    identical_ssim = ssim(same, twin)
    ok = (worst_psnr <= 1e-9 and worst_ssim <= 1e-6
          and identical_psnr == math.inf and abs(identical_ssim - 1.0) <= 1e-9)
    _report(4, "image metrics", ok,
            f"PSNR vs oracle {worst_psnr:.1e} (need <= 1e-9), "
            f"SSIM vs oracle {worst_ssim:.1e} (need <= 1e-6), "
            f"identical images -> psnr {identical_psnr}, ssim {identical_ssim!r}")


# --- criteria 5 and 7: the desk-scale experiment -------------------------------

def _synthesize_corpus(out: Path, seed: int, count: int) -> None:
    rc = cli_main(["synthesize", "--config", str(PRESET), "--out", str(out),
                   "--seed", str(seed), "--set", f"data.count={count}"])
    assert rc == 0, f"synthesize into {out} failed"


def _run_trend(root: Path) -> dict:
    train_data = root / "train_data"
    test_data = root / "test_data"
    _synthesize_corpus(train_data, seed=11, count=TREND_TRAIN_COUNT)
    _synthesize_corpus(test_data, seed=12, count=TREND_TEST_COUNT)
    mean_psnr = {}
    for seed in TREND_SEEDS:
        for order in TREND_ORDERS:
            run = root / f"seed{seed}_order{order}"
            rc = cli_main(["train", "--config", str(PRESET),
                           "--data", str(train_data), "--out", str(run),
                           "--seed", str(seed),
                           "--set", f"composer.order={order}"])
            assert rc == 0, f"training {run.name} failed"
            rc = cli_main(["eval", "--ckpt", str(run / "ckpt_epoch0030.bin"),
                           "--data", str(test_data),
                           "--out", str(run / "eval")])
            assert rc == 0, f"evaluating {run.name} failed"
            mean_psnr[seed, order] = _mean_psnr_ssim(run / "eval" / "metrics.tsv")[0]
    return mean_psnr


TREND_ARTIFACTS = (
    ["train_data/manifest.tsv", "test_data/manifest.tsv"]
    + [f"seed{s}_order{o}/loss.tsv" for s in TREND_SEEDS for o in TREND_ORDERS]
    + [f"seed{s}_order{o}/eval/metrics.tsv" for s in TREND_SEEDS for o in TREND_ORDERS]
)


@pytest.fixture(scope="session")
def trend_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("trend_first")
    start = time.perf_counter()
    mean_psnr = _run_trend(root)
    wall = time.perf_counter() - start
    return {"root": root, "psnr": mean_psnr, "wall": wall}


def test_05_desk_scale_restoration_trend(trend_run):
    psnr_by = trend_run["psnr"]
    gains = {seed: psnr_by[seed, 3] - psnr_by[seed, 0] for seed in TREND_SEEDS}
    mean_gain = sum(gains.values()) / len(gains)
    wall = trend_run["wall"]
    ok = mean_gain >= 0.05 and wall <= TREND_WALL_LIMIT
    per_seed = ", ".join(
        f"seed {s}: {psnr_by[s, 0]:.3f} -> {psnr_by[s, 3]:.3f} dB ({gains[s]:+.3f})"
        for s in TREND_SEEDS)
    _report(5, "desk-scale restoration trend", ok,
            f"{per_seed}; mean gain {mean_gain:+.3f} dB (need >= +0.05), "
            f"wall {wall:.0f}s (need <= {TREND_WALL_LIMIT:.0f}s)")


# --- criterion 6: order sweep ---------------------------------------------------

def _run_sweep(root: Path) -> None:
    data = root / "data"
    _synthesize_corpus(data, seed=21, count=SWEEP_DATA_COUNT)
    rc = cli_main(["sweep-order", "0..4", "--config", str(PRESET),
                   "--data", str(data), "--out", str(root / "sweep"),
                   "--seed", str(SWEEP_SEED)])
    assert rc == 0, "sweep-order failed"
    rc = cli_main(["train", "--config", str(PRESET), "--data", str(data),
                   "--out", str(root / "plain"), "--seed", str(SWEEP_SEED),
                   "--set", "composer.order=0"])
    assert rc == 0, "plain order-0 training failed"
    rc = cli_main(["eval", "--ckpt", str(root / "plain" / "ckpt_epoch0030.bin"),
                   "--data", str(data), "--out", str(root / "plain_eval")])
    assert rc == 0, "plain order-0 evaluation failed"


SWEEP_ARTIFACTS = (
    ["data/manifest.tsv", "sweep/sweep.tsv", "plain/loss.tsv",
     "plain_eval/metrics.tsv"]
    + [f"sweep/order_{o}/loss.tsv" for o in SWEEP_ORDERS]
    + [f"sweep/order_{o}/metrics.tsv" for o in SWEEP_ORDERS]
)


@pytest.fixture(scope="session")
def sweep_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("sweep_first")
    _run_sweep(root)
    return {"root": root}


def test_06_order_sweep_matches_plain_baseline(sweep_run):
    root = sweep_run["root"]
    lines = (root / "sweep" / "sweep.tsv").read_text().splitlines()
    header_ok = lines[0] == "order\tpsnr\tssim"
    rows_ok = (len(lines) == 1 + len(SWEEP_ORDERS)
               and all(line.split("\t")[0] == str(order) and "FAILED" not in line
                       for order, line in zip(SWEEP_ORDERS, lines[1:])))

    plain_psnr, plain_ssim = _mean_psnr_ssim(root / "plain_eval" / "metrics.tsv")
    from taylor_restore.metrics import format_metric
    row0_ok = lines[1] == f"0\t{format_metric(plain_psnr)}\t{format_metric(plain_ssim)}"

    loss_ok = (root / "sweep" / "order_0" / "loss.tsv").read_bytes() \
        == (root / "plain" / "loss.tsv").read_bytes()
    metrics_ok = (root / "sweep" / "order_0" / "metrics.tsv").read_bytes() \
        == (root / "plain_eval" / "metrics.tsv").read_bytes()
    ckpt_ok = (root / "sweep" / "order_0" / "ckpt_epoch0030.bin").read_bytes() \
        == (root / "plain" / "ckpt_epoch0030.bin").read_bytes()

    ok = header_ok and rows_ok and row0_ok and loss_ok and metrics_ok and ckpt_ok
    _report(6, "order sweep vs plain baseline", ok,
            f"5-row table for orders 0..4: {rows_ok}; order-0 row equals the "
            f"separately trained plain mapping (row text {row0_ok}, loss log "
            f"{loss_ok}, metrics {metrics_ok}, checkpoint bytes {ckpt_ok})")


# --- criterion 7: byte-identical reruns ------------------------------------------

def test_07_reruns_are_byte_identical(trend_run, sweep_run, tmp_path_factory):
    trend_again = tmp_path_factory.mktemp("trend_second")
    _run_trend(trend_again)
    sweep_again = tmp_path_factory.mktemp("sweep_second")
    _run_sweep(sweep_again)

    mismatched = []
    for rel in TREND_ARTIFACTS:
        if (trend_run["root"] / rel).read_bytes() != (trend_again / rel).read_bytes():
            mismatched.append(f"trend:{rel}")
    for rel in SWEEP_ARTIFACTS:
        if (sweep_run["root"] / rel).read_bytes() != (sweep_again / rel).read_bytes():
            mismatched.append(f"sweep:{rel}")

    total = len(TREND_ARTIFACTS) + len(SWEEP_ARTIFACTS)
    ok = not mismatched
    _report(7, "byte-identical reruns", ok,
            f"re-ran the trend and sweep experiments from scratch; "
            f"{total - len(mismatched)}/{total} loss logs, metric tables, "
            f"manifests and sweep tables identical"
            + (f"; mismatches: {mismatched}" if mismatched else ""))


# --- criterion 8: checkpoint resume -----------------------------------------------

def test_08_split_training_equals_continuous(tmp_path):
    data = tmp_path / "data"
    _synthesize_corpus(data, seed=31, count=16)

    def run(out, epochs, resume=None):
        args = ["train", "--config", str(PRESET), "--data", str(data),
                "--out", str(out), "--seed", "4",
                "--set", f"train.epochs={epochs}",
                "--set", "train.checkpoint_every=5"]
        if resume is not None:
            args += ["--resume", str(resume)]
        assert cli_main(args) == 0, f"training into {out} failed"

    run(tmp_path / "continuous", 10)
    run(tmp_path / "half", 5)
    run(tmp_path / "resumed", 10, resume=tmp_path / "half" / "ckpt_epoch0005.bin")

    final_ok = (tmp_path / "continuous" / "ckpt_epoch0010.bin").read_bytes() \
        == (tmp_path / "resumed" / "ckpt_epoch0010.bin").read_bytes()
    half_ok = (tmp_path / "continuous" / "ckpt_epoch0005.bin").read_bytes() \
        == (tmp_path / "half" / "ckpt_epoch0005.bin").read_bytes()
    cont_log = (tmp_path / "continuous" / "loss.tsv").read_text().splitlines()
    half_log = (tmp_path / "half" / "loss.tsv").read_text().splitlines()
    resumed_log = (tmp_path / "resumed" / "loss.tsv").read_text().splitlines()
    log_ok = half_log[1:] + resumed_log[1:] == cont_log[1:]

    ok = final_ok and half_ok and log_ok
    _report(8, "checkpoint resume", ok,
            f"5+5-epoch run vs 10-epoch run: final checkpoint bytes equal "
            f"{final_ok}, epoch-5 checkpoints equal {half_ok}, concatenated "
            f"loss logs equal {log_ok}")
