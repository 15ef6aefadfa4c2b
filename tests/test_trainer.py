"""Training loop: exact step-decay schedule, Adam update semantics, patch
sampling, divergence handling, and bit-identical resume."""

import math
import platform
import subprocess
import sys

import numpy as np
import pytest

from conftest import child_env, write_rain_corpus
from taylor_restore import trainer
from taylor_restore.autodiff import Graph, Tensor, backward, l1_loss
from taylor_restore.checkpoint import load_checkpoint, save_checkpoint
from taylor_restore.composer import ComposerConfig, compose_orders, framework_loss_terms
from taylor_restore.degrade import read_manifest
from taylor_restore.errors import ConfigError, DivergenceError, FormatError
from taylor_restore.networks import (
    DerivativeSpec,
    MappingSpec,
    forward_mapping,
    init_params,
)
from taylor_restore.ppm import read_ppm, write_ppm
from taylor_restore.prng import SplitMix64, derive_stream
from taylor_restore.trainer import (
    LOSS_LOG_HEADER,
    STREAM_DATA,
    STREAM_INIT_MAPPING,
    AdamState,
    CorpusImage,
    TrainConfig,
    Model,
    adam_step,
    load_corpus,
    lr_at,
    sample_patch_batch,
    train,
)

TINY_MAPPING = MappingSpec(channels=4, blocks=1)
TINY_DERIVATIVE = DerivativeSpec(channels=4)


def tiny_train_cfg(**kwargs):
    defaults = dict(patch_size=8, batch_size=4, epochs=2, checkpoint_every=0, seed=3)
    defaults.update(kwargs)
    return TrainConfig(**defaults)


# --- learning-rate schedule -----------------------------------------------------

def test_decay_ladder_hits_exact_doubles():
    cfg = TrainConfig()
    assert lr_at(0, cfg) == 1e-3
    assert lr_at(29, cfg) == 1e-3
    assert lr_at(30, cfg) == 2e-4
    assert lr_at(49, cfg) == 2e-4
    assert lr_at(50, cfg) == 4e-5
    assert lr_at(80, cfg) == 8e-6
    assert lr_at(500, cfg) == 8e-6


def test_halving_ladder_is_exact():
    cfg = TrainConfig(lr0=1.0, decay_epochs=(1, 2, 3, 4), decay_factor=0.5)
    assert [lr_at(e, cfg) for e in range(5)] == [1.0, 0.5, 0.25, 0.125, 0.0625]


def test_empty_decay_schedule_is_constant():
    cfg = TrainConfig(decay_epochs=())
    assert lr_at(0, cfg) == lr_at(99, cfg) == 1e-3


def test_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(patch_size=0)
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0)
    with pytest.raises(ConfigError):
        TrainConfig(epochs=0)
    with pytest.raises(ConfigError):
        TrainConfig(lr0=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(decay_factor=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(decay_epochs=(10, 10))
    with pytest.raises(ConfigError):
        TrainConfig(checkpoint_every=-1)


# --- Adam -------------------------------------------------------------------------

def make_param_set(values):
    from taylor_restore.networks import ParamSet
    params = ParamSet()
    for name, value in values.items():
        params.add(name, Tensor(np.asarray(value, dtype=np.float64)))
    return params


def test_first_step_moves_by_almost_lr():
    params = make_param_set({"w": [1.0]})
    params["w"].grad = np.array([1.0])
    state = AdamState.for_params(params)
    adam_step(params, state, lr=0.1)
    # bias correction makes m-hat = v-hat = 1, so the move is lr/(1 + eps)
    moved = 1.0 - float(params["w"].data[0])
    assert moved == pytest.approx(0.1, rel=1e-7)
    assert moved < 0.1  # eps keeps it strictly below lr
    assert state.t == 1


def test_zero_gradient_leaves_parameter_bits_alone():
    params = make_param_set({"w": [0.75, -0.25]})
    before = params["w"].data.tobytes()
    params["w"].grad = np.zeros(2)
    state = AdamState.for_params(params)
    adam_step(params, state, lr=0.1)
    assert params["w"].data.tobytes() == before


def test_missing_gradient_is_an_error():
    params = make_param_set({"w": [1.0], "b": [2.0]})
    params["w"].grad = np.array([1.0])
    state = AdamState.for_params(params)
    with pytest.raises(ValueError, match="'b' has no gradient"):
        adam_step(params, state, lr=0.1)
    assert state.t == 1  # the counter ticks once per call


def test_identical_steps_are_bit_identical():
    def run():
        params = make_param_set({"w": np.linspace(-1, 1, 7)})
        params["w"].grad = np.linspace(0.5, -0.5, 7)
        state = AdamState.for_params(params)
        adam_step(params, state, lr=0.01)
        adam_step(params, state, lr=0.01)
        return params["w"].data.tobytes(), state.m["w"].tobytes(), state.v["w"].tobytes()

    assert run() == run()


# --- patch sampling ------------------------------------------------------------------

def ramp_corpus(count=1, size=8):
    """uint8 images, as load_corpus keeps them, whose samples differ within an image."""
    images = []
    for i in range(count):
        base = ((np.arange(3 * size * size) + 7 * i) % 256).astype(np.uint8)
        base = base.reshape(3, size, size)
        images.append(CorpusImage(clean=base, degraded=base.copy(), file=f"img{i}"))
    return images


def test_patch_equal_to_image_returns_whole_image():
    corpus = ramp_corpus(count=1, size=8)
    degraded, clean = sample_patch_batch(corpus, 8, 2, SplitMix64(1))
    assert degraded.shape == (2, 3, 8, 8)
    assert np.array_equal(degraded.data[0], corpus[0].degraded / 255.0)
    assert np.array_equal(clean.data[1], corpus[0].clean / 255.0)


def test_patches_are_colocated():
    corpus = ramp_corpus(count=3, size=8)
    degraded, clean = sample_patch_batch(corpus, 3, 16, SplitMix64(2))
    assert np.array_equal(degraded.data, clean.data)  # clean == degraded per image


def test_draw_order_is_index_top_left():
    corpus = ramp_corpus(count=5, size=9)
    patch = 4
    rng = SplitMix64(7)
    degraded, _ = sample_patch_batch(corpus, patch, 6, rng)

    ref = SplitMix64(7)
    for slot in range(6):
        idx = ref.randint(5)
        top = ref.randint(9 - patch + 1)
        left = ref.randint(9 - patch + 1)
        expected = corpus[idx].degraded[:, top:top + patch, left:left + patch] / 255.0
        assert np.array_equal(degraded.data[slot], expected)


def test_sampling_is_deterministic():
    corpus = ramp_corpus(count=4, size=8)
    a, _ = sample_patch_batch(corpus, 5, 8, SplitMix64(3))
    b, _ = sample_patch_batch(corpus, 5, 8, SplitMix64(3))
    assert a.data.tobytes() == b.data.tobytes()


def test_a_step_leaves_the_batch_without_gradients():
    """The batch is constant: a step computes no gradient for it, and the parameter gradients
    have the same bytes as a step whose batch is made of ordinary leaves."""
    corpus = ramp_corpus(count=2, size=12)
    model = Model.init(MappingSpec(channels=4, blocks=1), DerivativeSpec(channels=6),
                       ComposerConfig(order=2), seed=5)

    def step(degraded, clean):
        model.params.zero_grads()
        with Graph() as graph:
            total = framework_loss_terms(model.forward(degraded), clean, model.composer)[0]
        backward(total, graph)
        return [tensor.grad.tobytes() for tensor in model.params.tensors()]

    degraded, clean = sample_patch_batch(corpus, 8, 3, SplitMix64(4))
    constant_grads = step(degraded, clean)
    assert degraded.grad is None and clean.grad is None
    leaves = Tensor(degraded.data), Tensor(clean.data)
    assert step(*leaves) == constant_grads
    assert leaves[0].grad is not None and leaves[1].grad is not None


# --- corpus loading -------------------------------------------------------------------

def test_load_corpus_roundtrip(tmp_path):
    corpus_dir = write_rain_corpus(tmp_path / "c", count=3, size=16, seed=4)
    corpus = load_corpus(corpus_dir)
    assert len(corpus) == 3
    assert corpus[0].clean.shape == (3, 16, 16)
    assert corpus[0].file == "degraded_000000.ppm"


def test_corpus_keeps_each_file_as_its_own_uint8_samples(tmp_path):
    corpus_dir = write_rain_corpus(tmp_path / "c", count=2, size=12, seed=6)
    for image in load_corpus(corpus_dir):
        for array, name in ((image.clean, image.file.replace("degraded", "clean")),
                            (image.degraded, image.file)):
            assert array.dtype == np.uint8 and array.flags.c_contiguous
            assert array.nbytes == 3 * 12 * 12 and array.base is None
            assert np.array_equal(array, read_ppm(corpus_dir / name))


@pytest.mark.parametrize("patch", [5, 16])
def test_batches_are_crops_of_the_files_over_255_byte_for_byte(tmp_path, patch):
    corpus_dir = write_rain_corpus(tmp_path / "c", count=3, size=16, seed=4)
    files = [(read_ppm(corpus_dir / entry.degraded_file) / 255.0,
              read_ppm(corpus_dir / entry.clean_file) / 255.0)
             for entry in read_manifest(corpus_dir / "manifest.tsv")]
    degraded, clean = sample_patch_batch(load_corpus(corpus_dir), patch, 6, SplitMix64(9))
    ref = SplitMix64(9)
    for slot in range(6):
        image = files[ref.randint(3)]
        top, left = ref.randint(16 - patch + 1), ref.randint(16 - patch + 1)
        window = (slice(None), slice(top, top + patch), slice(left, left + patch))
        assert degraded.data[slot].tobytes() == image[0][window].tobytes()
        assert clean.data[slot].tobytes() == image[1][window].tobytes()


def test_load_corpus_rejects_mismatched_pair(tmp_path):
    corpus_dir = tmp_path / "bad"
    corpus_dir.mkdir()
    write_ppm(np.zeros((3, 16, 16)), corpus_dir / "clean_000000.ppm")
    write_ppm(np.zeros((3, 8, 8)), corpus_dir / "degraded_000000.ppm")
    (corpus_dir / "manifest.tsv").write_text(
        "index\tclean\tdegraded\tkind\tseed\n"
        "0\tclean_000000.ppm\tdegraded_000000.ppm\train\t1\n"
    )
    with pytest.raises(FormatError, match="pair shapes differ"):
        load_corpus(corpus_dir)


# --- parameter streams ------------------------------------------------------------------

def test_mapping_init_is_order_independent():
    # higher orders add a derivative net but must not disturb the mapping
    # net's starting point (independent init streams per network)
    plain = Model.init(TINY_MAPPING, TINY_DERIVATIVE, ComposerConfig(order=0), seed=11).params
    composed = Model.init(TINY_MAPPING, TINY_DERIVATIVE, ComposerConfig(order=3), seed=11).params
    assert not any(name.startswith("derivative.") for name, _ in plain.items())
    assert any(name.startswith("derivative.") for name, _ in composed.items())
    for name, _ in plain.items():
        assert composed[name].data.tobytes() == plain[name].data.tobytes()


# --- the training loop ---------------------------------------------------------------------

def test_train_writes_log_and_checkpoint(tmp_path):
    corpus_dir = write_rain_corpus(tmp_path / "data", count=4, size=16, seed=5)
    out_dir = tmp_path / "run"
    final = train(corpus_dir, TINY_MAPPING, TINY_DERIVATIVE,
                  ComposerConfig(order=1), tiny_train_cfg(), out_dir)
    assert final == out_dir / "ckpt_epoch0002.bin"
    assert final.exists()
    lines = (out_dir / "loss.tsv").read_text().splitlines()
    assert lines[0] == LOSS_LOG_HEADER
    assert len(lines) == 1 + 2 * 1  # ceil(4/4) steps per epoch, 2 epochs
    first = lines[1].split("\t")
    assert first[0] == "0" and first[1] == "1"
    assert float(first[2]) == 1e-3
    assert math.isfinite(float(first[3]))


def test_checkpoint_cadence(tmp_path):
    corpus_dir = write_rain_corpus(tmp_path / "data", count=4, size=16, seed=6)
    out_dir = tmp_path / "run"
    final = train(corpus_dir, TINY_MAPPING, TINY_DERIVATIVE,
                  ComposerConfig(order=1),
                  tiny_train_cfg(epochs=5, checkpoint_every=2), out_dir)
    names = sorted(p.name for p in out_dir.glob("ckpt_*.bin"))
    assert names == ["ckpt_epoch0002.bin", "ckpt_epoch0004.bin", "ckpt_epoch0005.bin"]
    assert final.name == "ckpt_epoch0005.bin"


def test_train_rerun_is_byte_identical(tmp_path):
    corpus_dir = write_rain_corpus(tmp_path / "data", count=4, size=16, seed=7)
    outputs = []
    for tag in ("a", "b"):
        out_dir = tmp_path / tag
        final = train(corpus_dir, TINY_MAPPING, TINY_DERIVATIVE,
                      ComposerConfig(order=2), tiny_train_cfg(), out_dir)
        outputs.append((final.read_bytes(), (out_dir / "loss.tsv").read_bytes()))
    assert outputs[0] == outputs[1]


def test_patch_larger_than_corpus_images_is_config_error(tmp_path):
    corpus_dir = write_rain_corpus(tmp_path / "data", count=2, size=16, seed=8)
    with pytest.raises(ConfigError,
                       match="degraded_000000.ppm is 16x16, smaller than patch size 32"):
        train(corpus_dir, TINY_MAPPING, TINY_DERIVATIVE, ComposerConfig(order=1),
              tiny_train_cfg(patch_size=32), tmp_path / "run")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_aborts_with_step_and_flushed_log(tmp_path):
    corpus_dir = write_rain_corpus(tmp_path / "data", count=8, size=16, seed=9)
    out_dir = tmp_path / "run"
    with pytest.raises(DivergenceError) as excinfo:
        train(corpus_dir, TINY_MAPPING, TINY_DERIVATIVE, ComposerConfig(order=0),
              tiny_train_cfg(lr0=1e80, epochs=1), out_dir)
    assert excinfo.value.step == 2
    assert excinfo.value.lr == 1e80
    assert "step 2" in str(excinfo.value)
    lines = (out_dir / "loss.tsv").read_text().splitlines()
    assert lines[0] == LOSS_LOG_HEADER
    assert len(lines) == 2  # the one completed step was flushed before the abort


def test_loss_trends_down(tmp_path):
    corpus_dir = write_rain_corpus(tmp_path / "data", count=16, size=32, seed=10)
    out_dir = tmp_path / "run"
    spec = MappingSpec(channels=8, blocks=1)
    dspec = DerivativeSpec(channels=8)
    train(corpus_dir, spec, dspec, ComposerConfig(order=1),
          tiny_train_cfg(patch_size=16, epochs=6, seed=1), out_dir)
    losses = [float(line.split("\t")[3])
              for line in (out_dir / "loss.tsv").read_text().splitlines()[1:]]
    assert len(losses) == 24
    assert np.mean(losses[-10:]) < np.mean(losses[:10])


def test_resume_matches_continuous_run(tmp_path):
    corpus_dir = write_rain_corpus(tmp_path / "data", count=8, size=16, seed=12)
    composer_cfg = ComposerConfig(order=2)

    continuous = train(corpus_dir, TINY_MAPPING, TINY_DERIVATIVE, composer_cfg,
                       tiny_train_cfg(epochs=10, checkpoint_every=5, seed=4),
                       tmp_path / "cont")

    half = train(corpus_dir, TINY_MAPPING, TINY_DERIVATIVE, composer_cfg,
                 tiny_train_cfg(epochs=5, checkpoint_every=5, seed=4),
                 tmp_path / "half")
    resumed = train(corpus_dir, TINY_MAPPING, TINY_DERIVATIVE, composer_cfg,
                    tiny_train_cfg(epochs=10, checkpoint_every=5, seed=4),
                    tmp_path / "resumed", resume_from=half)

    assert continuous.name == resumed.name == "ckpt_epoch0010.bin"
    assert continuous.read_bytes() == resumed.read_bytes()

    # the resumed log covers exactly the second half, and concatenating the
    # two halves reproduces the continuous log line for line
    cont_lines = (tmp_path / "cont" / "loss.tsv").read_text().splitlines()
    half_lines = (tmp_path / "half" / "loss.tsv").read_text().splitlines()
    res_lines = (tmp_path / "resumed" / "loss.tsv").read_text().splitlines()
    assert res_lines[1].startswith("5\t")
    assert half_lines[1:] + res_lines[1:] == cont_lines[1:]


@pytest.mark.parametrize("resume_epoch", [2, 3])
def test_resume_into_own_directory_keeps_its_log(tmp_path, resume_epoch):
    corpus_dir = write_rain_corpus(tmp_path / "data", count=8, size=16, seed=12)
    composer_cfg = ComposerConfig(order=2)
    continuous = train(corpus_dir, TINY_MAPPING, TINY_DERIVATIVE, composer_cfg,
                       tiny_train_cfg(epochs=4, checkpoint_every=2, seed=4),
                       tmp_path / "cont")

    # The first run logs epoch 2 past its epoch-2 checkpoint, then a row cut
    # short as if by a kill; the resume drops what its checkpoint does not cover.
    run = tmp_path / "run"
    train(corpus_dir, TINY_MAPPING, TINY_DERIVATIVE, composer_cfg,
          tiny_train_cfg(epochs=3, checkpoint_every=2, seed=4), run)
    with open(run / "loss.tsv", "a", encoding="ascii") as log:
        log.write("3\t7\t0.001\t0.25")
    resumed = train(corpus_dir, TINY_MAPPING, TINY_DERIVATIVE, composer_cfg,
                    tiny_train_cfg(epochs=4, checkpoint_every=2, seed=4), run,
                    resume_from=run / f"ckpt_epoch{resume_epoch:04d}.bin")

    assert resumed.read_bytes() == continuous.read_bytes()
    assert (run / "loss.tsv").read_bytes() == (tmp_path / "cont" / "loss.tsv").read_bytes()


def test_loss_log_is_on_disk_at_every_checkpoint(tmp_path, monkeypatch):
    corpus_dir = write_rain_corpus(tmp_path / "data", count=8, size=16, seed=14)
    out_dir = tmp_path / "run"
    rows_at_save = []

    def counting_save(path, checkpoint):
        rows = (out_dir / "loss.tsv").read_text().splitlines()[1:]
        rows_at_save.append((checkpoint.metadata["train.epoch"], len(rows)))
        save_checkpoint(path, checkpoint)

    monkeypatch.setattr(trainer, "save_checkpoint", counting_save)
    train(corpus_dir, TINY_MAPPING, TINY_DERIVATIVE, ComposerConfig(order=1),
          tiny_train_cfg(epochs=3, checkpoint_every=1), out_dir)
    # two steps per epoch: every completed epoch's rows are on disk at its save
    assert rows_at_save == [("1", 2), ("2", 4), ("3", 6)]


# A width-32 model on two 64 px patches: each conv's kernel-row stack (6.8 MB) and grids are
# far above glibc's default 128 KiB mmap threshold. Unpinned, the second call took 3,400-4,400
# minor faults; pinned, 0-1.
FAULT_CHECK = """
import resource, sys
from taylor_restore import trainer
from taylor_restore.composer import ComposerConfig
from taylor_restore.networks import DerivativeSpec, MappingSpec
corpus, out = sys.argv[1:]
cfg = trainer.TrainConfig(patch_size=64, batch_size=2, epochs=1, checkpoint_every=0)
for call in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    trainer.train(corpus, MappingSpec(channels=32, blocks=1), DerivativeSpec(channels=32),
                  ComposerConfig(order=0), cfg, f"{out}/call{call}")
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap pin is glibc's mallopt")
def test_second_training_call_does_not_refault_its_memory(tmp_path):
    """With the heap pinned, a second identical training call reuses the blocks the first one
    freed instead of faulting fresh pages in."""
    corpus = write_rain_corpus(tmp_path / "corpus", count=2, size=64, seed=1)
    proc = subprocess.run([sys.executable, "-c", FAULT_CHECK, str(corpus), str(tmp_path)],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) <= 200


def test_derivative_kernel_must_be_the_mapping_kernel(tmp_path):
    # the checkpoint records one model.kernel_size, so a model whose nets disagree would
    # write checkpoints that its own eval and resume reject
    derivative = DerivativeSpec(channels=4, kernel=5)
    with pytest.raises(ValueError, match="derivative kernel 5 differs from the mapping kernel 3"):
        Model.init(TINY_MAPPING, derivative, ComposerConfig(order=2), 0)
    corpus_dir = write_rain_corpus(tmp_path / "data", count=4, size=16, seed=13)
    final = train(corpus_dir, TINY_MAPPING, TINY_DERIVATIVE, ComposerConfig(order=2),
                  tiny_train_cfg(epochs=1), tmp_path / "first")
    with pytest.raises(ValueError, match="derivative kernel 5 differs from the mapping kernel 3"):
        train(corpus_dir, TINY_MAPPING, derivative, ComposerConfig(order=2),
              tiny_train_cfg(epochs=2), tmp_path / "second", resume_from=final)
    assert not list((tmp_path / "second").glob("ckpt_*"))


def test_resume_beyond_config_is_rejected(tmp_path):
    corpus_dir = write_rain_corpus(tmp_path / "data", count=4, size=16, seed=13)
    final = train(corpus_dir, TINY_MAPPING, TINY_DERIVATIVE, ComposerConfig(order=1),
                  tiny_train_cfg(epochs=2), tmp_path / "first")
    with pytest.raises(ConfigError, match="already covers 2 epochs"):
        train(corpus_dir, TINY_MAPPING, TINY_DERIVATIVE, ComposerConfig(order=1),
              tiny_train_cfg(epochs=2), tmp_path / "second", resume_from=final)


def test_resume_of_order_zero_checkpoint_with_derivative_params_is_format_error(tmp_path):
    # an order-0 model with derivative parameters would leave them without gradients
    corpus_dir = write_rain_corpus(tmp_path / "data", count=4, size=16, seed=13)
    checkpoint = load_checkpoint(train(corpus_dir, TINY_MAPPING, TINY_DERIVATIVE,
                                       ComposerConfig(order=1), tiny_train_cfg(epochs=2),
                                       tmp_path / "first"))
    checkpoint.metadata["composer.order"] = "0"
    save_checkpoint(tmp_path / "edited.bin", checkpoint)
    with pytest.raises(FormatError, match="order 0 but derivative parameters"):
        train(corpus_dir, TINY_MAPPING, TINY_DERIVATIVE, ComposerConfig(order=0),
              tiny_train_cfg(epochs=4), tmp_path / "second", resume_from=tmp_path / "edited.bin")


def test_zero_weighted_series_trains_like_plain_mapping(tmp_path):
    # with a stubbed-out derivative net (zero output) and lambda 0, the
    # composed objective must drive the mapping net exactly like a plain
    # l1(F(y), x) objective: same patches, same gradients, same Adam moves
    corpus_dir = write_rain_corpus(tmp_path / "data", count=4, size=16, seed=14)
    corpus = load_corpus(corpus_dir)
    spec = TINY_MAPPING
    seed = 21
    steps = 6
    cfg = ComposerConfig(order=3, lam=0.0, variant="with_k_residual")

    def fresh():
        params = init_params(spec, derive_stream(seed, STREAM_INIT_MAPPING))
        return params, AdamState.for_params(params), \
            SplitMix64(derive_stream(seed, STREAM_DATA))

    composed_params, composed_state, rng_a = fresh()
    plain_params, plain_state, rng_b = fresh()
    zero_stub = lambda g, y: Tensor.zeros(g.shape)

    for _ in range(steps):
        degraded, clean = sample_patch_batch(corpus, 8, 4, rng_a)
        composed_params.zero_grads()
        with Graph() as graph:
            trace = compose_orders(
                lambda y: forward_mapping(composed_params, spec, y),
                zero_stub, degraded, cfg)
            total, _, _ = framework_loss_terms(trace, clean, cfg)
        backward(total, graph)
        adam_step(composed_params, composed_state, lr=1e-3)

        degraded_b, clean_b = sample_patch_batch(corpus, 8, 4, rng_b)
        assert degraded_b.data.tobytes() == degraded.data.tobytes()
        plain_params.zero_grads()
        with Graph() as graph:
            loss = l1_loss(forward_mapping(plain_params, spec, degraded_b), clean_b)
        backward(loss, graph)
        adam_step(plain_params, plain_state, lr=1e-3)

        for name, _ in plain_params.items():
            assert np.array_equal(composed_params[name].data,
                                  plain_params[name].data), name
