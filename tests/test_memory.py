"""Fixed memory budgets, as tracemalloc peaks: one paper-default training step, so that a change
which brings back a full-span temporary (a tap stack, a padded copy, a saved mask) fails here;
one whole paper-default ``train`` call, so that a loop which holds a forward's outputs across
its backward fails here; a blur at two kernel sizes, so that a blur which copies every kernel
window of the image fails here; and the image memory of loading a corpus, training on it and
synthesizing one, so that a change which keeps images as floats or holds a whole corpus in
memory fails here."""

import concurrent.futures
import multiprocessing
import tracemalloc
from pathlib import Path

import pytest

from conftest import rand_array
from taylor_restore.autodiff import Graph, Tensor, backward
from taylor_restore.cli import main
from taylor_restore.composer import ComposerConfig, framework_loss_terms
from taylor_restore.degrade import BlurParams, generate_clean, synth_blur
from taylor_restore.networks import DerivativeSpec, MappingSpec
from taylor_restore.runconfig import (
    composer_config_from,
    derivative_spec_from,
    effective_config,
    mapping_spec_from,
    parse_config_text,
    train_config_from,
)
from taylor_restore.trainer import Model, TrainConfig, load_corpus, train

PRESET = Path(__file__).resolve().parents[1] / "configs" / "desk_rain.cfg"

# 64 pairs of 64x64: 1.57 MB as uint8 samples; they read 12.6 MB as float64.
CORPUS_PEAK_MB = 2.0
# One desk-preset epoch over that corpus measured 8.8 MB, and 19.8 MB with a float64 corpus.
DESK_EPOCH_PEAK_MB = 11.0
# Each 64 px clean image is 98 KB as float64; 32 of them held at once read 2.8 MB above 4.
SYNTHESIS_GROWTH_MB = 0.5


def traced_peak_mb(call, *args) -> float:
    """The tracemalloc peak of call(*args); importable by a spawned worker."""
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def in_fresh_process(call, *args):
    """call(*args) in a fresh spawned process. The suite's own process has grown
    interpreter-wide tables by then, and a one-off resize of one of them landed 1.9 MB in a
    synthesis measured there; a fresh process repeats the same history every time."""
    with concurrent.futures.ProcessPoolExecutor(
            max_workers=1, mp_context=multiprocessing.get_context("spawn")) as pool:
        return pool.submit(call, *args).result(timeout=300)


def fresh_peak_mb(call, *args) -> float:
    """traced_peak_mb of call(*args) in a fresh spawned process."""
    return in_fresh_process(traced_peak_mb, call, *args)


def desk_epoch(corpus: Path, out: Path) -> None:
    """One desk-preset training epoch on `corpus`, with only the final checkpoint."""
    cfg = effective_config(parse_config_text(PRESET.read_text(encoding="utf-8")),
                           [("train.epochs", "1"), ("train.checkpoint_every", "0")])
    train(corpus, mapping_spec_from(cfg), derivative_spec_from(cfg), composer_config_from(cfg),
          train_config_from(cfg), out)


# Measured 131.3 MB for this step; the tape holds 117 MB of it, mostly the conv input grids.
# Whole-span tap stacks (one tile per span) read 140.8 MB, and the step before activations
# stayed in their grids 155.1 MB.
STEP_PEAK_MB = 135.0


def paper_step_peak_mb() -> tuple[float, bool]:
    """The tracemalloc peak of one paper-default step, traced from after its set-up, and whether
    every parameter got a gradient; importable by a spawned worker."""
    model = Model.init(MappingSpec(), DerivativeSpec(), ComposerConfig(), seed=0)
    degraded = Tensor.constant(rand_array(1, (4, 3, 100, 100), 0.0, 1.0))
    clean = Tensor.constant(rand_array(2, (4, 3, 100, 100), 0.0, 1.0))
    tracemalloc.start()
    try:
        with Graph() as graph:
            total = framework_loss_terms(model.forward(degraded), clean, model.composer)[0]
        backward(total, graph)
        peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    return peak_mb, all(tensor.grad is not None for tensor in model.params.tensors())


def test_paper_default_step_stays_within_its_memory_budget():
    peak_mb, every_grad = in_fresh_process(paper_step_peak_mb)
    assert every_grad
    assert peak_mb <= STEP_PEAK_MB


# One paper-default train call (a single step) measured 135.05 MB. With the loop holding the
# ComposerTrace (f_out and every series term) across backward it measured 140.10 MB.
TRAIN_CALL_PEAK_MB = 137.0


def paper_train(corpus: Path, out: Path) -> None:
    """One paper-default training epoch on `corpus`, with only the final checkpoint."""
    train(corpus, MappingSpec(), DerivativeSpec(), ComposerConfig(),
          TrainConfig(epochs=1, checkpoint_every=0), out)


def test_a_paper_default_train_call_stays_within_its_memory_budget(tmp_path):
    corpus = tmp_path / "corpus"
    assert main(["synthesize", "--count", "4", "--seed", "0", "--set", "data.image_size=128",
                 "--out", str(corpus)]) == 0
    assert fresh_peak_mb(paper_train, corpus, tmp_path / "run") <= TRAIN_CALL_PEAK_MB


@pytest.fixture(scope="module")
def desk_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("desk") / "corpus"
    assert main(["synthesize", "--config", str(PRESET), "--count", "64", "--seed", "0",
                 "--out", str(out)]) == 0
    return out


def test_a_loaded_corpus_stays_within_its_memory_budget(desk_corpus):
    assert fresh_peak_mb(load_corpus, desk_corpus) <= CORPUS_PEAK_MB


def test_a_desk_epoch_stays_within_its_memory_budget(desk_corpus, tmp_path):
    assert fresh_peak_mb(desk_epoch, desk_corpus, tmp_path) <= DESK_EPOCH_PEAK_MB


def test_synthesis_memory_does_not_grow_with_the_count(tmp_path):
    def peak(count):
        return fresh_peak_mb(main, ["synthesize", "--count", str(count), "--seed", "0", "--set",
                                    "data.image_size=64", "--out", str(tmp_path / str(count))])

    assert abs(peak(32) - peak(4)) <= SYNTHESIS_GROWTH_MB


# A 128 px blur measured 2.36 MB at kernel size 3 and at 15. Summing the taps in a GEMV over a
# copy of every kernel window read 4.34 and 89.36 MB.
BLUR_KERNEL_GROWTH_MB = 0.5


def test_blur_memory_does_not_grow_with_the_kernel():
    clean = generate_clean(128, 128, 0)

    def peak(size):
        return fresh_peak_mb(synth_blur, clean, BlurParams(kernel_size=size), 0)

    assert abs(peak(15) - peak(3)) <= BLUR_KERNEL_GROWTH_MB
