"""The command-line interface end to end: every subcommand, the documented
exit codes, config precedence from flags, and byte-stable reruns."""

import concurrent.futures
import importlib
import os
import resource
import shutil
import signal
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import blas_threads, child_env
from taylor_restore import cli, trainer
from taylor_restore.checkpoint import load_checkpoint, save_checkpoint
from taylor_restore.cli import main
from taylor_restore.composer import ComposerConfig
from taylor_restore.networks import DerivativeSpec, MappingSpec
from taylor_restore.ppm import write_ppm
from taylor_restore.trainer import AdamState, Model, make_train_checkpoint

TINY_MODEL_SETS = [
    "--set", "model.mapping_channels=4",
    "--set", "model.mapping_blocks=1",
    "--set", "model.derivative_channels=4",
]


def synthesize(out, count=4, size=16, seed=5, extra=()):
    rc = main(["synthesize", "--out", str(out), "--count", str(count),
               "--seed", str(seed), "--set", f"data.image_size={size}", *extra])
    assert rc == 0
    return out


def train_args(data, out, order=1, epochs=2, patch=8, extra=()):
    return ["train", "--data", str(data), "--out", str(out),
            *TINY_MODEL_SETS,
            "--set", f"composer.order={order}",
            "--set", f"train.epochs={epochs}",
            "--set", f"train.patch_size={patch}",
            "--set", "train.checkpoint_every=0",
            "--seed", "3", *extra]


# --- argument handling ------------------------------------------------------------

def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "synthesize" in capsys.readouterr().out


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 2


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2


def test_bad_orders_spec_is_usage_error(capsys):
    assert main(["sweep-order", "5..1", "--out", "x"]) == 2
    assert main(["sweep-order", "abc", "--out", "x"]) == 2


@pytest.mark.parametrize("command", ["train", "synthesize"])
def test_seed_that_is_no_u64_is_usage_error(capsys, command):
    assert main([command, "--seed", "abc"]) == 2
    err = capsys.readouterr().err
    assert "expected an integer in [0, 2**64), got 'abc'" in err
    assert "_parse_u64_arg" not in err
    assert main([command, "--seed", "-1"]) == 2
    assert "seed -1 outside [0, 2**64)" in capsys.readouterr().err


def check_console_script(command, env=None):
    proc = subprocess.run([*command, "--help"], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0
    assert "synthesize" in proc.stdout
    # A usage error's 2 shows the launcher passes main's return code through.
    proc = subprocess.run([*command, "frobnicate"], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 2


def test_console_script_is_installed(tmp_path):
    """The declared `taylor-restore` entry point, run through the launcher an
    installer writes for it, is the CLI; an installed script is checked too."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert "taylor-restore" in scripts
    module, _, attr = scripts["taylor-restore"].partition(":")
    assert getattr(importlib.import_module(module), attr) is main

    launcher = tmp_path / "taylor-restore"
    launcher.write_text(f"import sys\nfrom {module} import {attr}\n"
                        f"sys.exit({attr}())\n")
    check_console_script([sys.executable, str(launcher)], child_env())

    installed = shutil.which("taylor-restore")
    if installed is not None:
        check_console_script([installed])


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "taylor_restore", "--help"],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0


# --- synthesize ----------------------------------------------------------------------

def test_synthesize_writes_corpus_and_echo(tmp_path, capsys):
    out = tmp_path / "data"
    synthesize(out, count=3, size=16, seed=5)
    stdout = capsys.readouterr().out
    assert "synthesized 3 samples (kind=rain, seed=5)" in stdout
    assert (out / "manifest.tsv").exists()
    assert (out / "clean_000002.ppm").exists()
    assert (out / "degraded_000002.ppm").exists()
    echo = (out / "config.echo").read_text()
    assert "data.count = 3\n" in echo
    assert "data.seed = 5\n" in echo
    assert "train.seed = 5\n" in echo  # --seed sets both seeds


def test_synthesize_rerun_is_byte_identical(tmp_path):
    a = synthesize(tmp_path / "a", count=3, size=16, seed=9)
    b = synthesize(tmp_path / "b", count=3, size=16, seed=9)
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


@pytest.mark.parametrize("sets", [
    ["--kind", "blur", "--set", "data.blur.kernel_size=4"],
    ["--kind", "blur", "--set", "data.blur.kernel=linear_motion",
     "--set", "data.blur.motion_length=12"],
    ["--set", "data.blur.kernel_size=4"],  # both param sets are built, whatever the kind
])
def test_blur_settings_that_make_no_kernel_are_config_errors(tmp_path, sets):
    out = tmp_path / "data"
    proc = subprocess.run([sys.executable, "-m", "taylor_restore", "synthesize", "--out", str(out),
                           "--count", "1", "--set", "data.image_size=16", *sets],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 2, proc.stderr
    assert "config error" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("sets", [
    ["--kind", "blur", "--set", "data.blur.kernel=linear_motion",
     "--set", "data.blur.noise_sigma=nan"],
    ["--kind", "blur", "--set", "data.blur.kernel=linear_motion",
     "--set", "data.blur.motion_angle=inf"],
    ["--kind", "rain", "--set", "data.rain.length_max=1e300"],
    ["--kind", "rain", "--set", "data.rain.streak_sigma=nan"],
])
def test_non_finite_degradation_settings_are_config_errors(tmp_path, capsys, sets):
    """A setting that is not finite, or whose square overflows, would synthesize NaN pixels."""
    out = tmp_path / "data"
    assert main(["synthesize", "--out", str(out), "--count", "2",
                 "--set", "data.image_size=16", *sets]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err
    assert not list(tmp_path.rglob("*.ppm"))


def test_failed_resynthesis_leaves_no_manifest(tmp_path, capsys, monkeypatch):
    """A synthesize into an existing corpus removes its manifest before the first image and puts
    the new one in place last, so one that fails part way leaves a corpus that train refuses
    rather than the old rows over a mix of old and new images."""
    data = synthesize(tmp_path / "data", seed=1)
    monkeypatch.setattr(os, "replace", replace_failing_for("manifest.tsv"))
    assert main(["synthesize", "--out", str(data), "--count", "4", "--seed", "2",
                 "--set", "data.image_size=16"]) == 3
    assert "io error" in capsys.readouterr().err
    assert not (data / "manifest.tsv").exists()
    assert not (data / "manifest.tsv.tmp").exists()
    monkeypatch.undo()
    assert main(train_args(data, tmp_path / "run")) == 3
    assert "manifest not found" in capsys.readouterr().err


def test_synthesize_requires_out(capsys):
    assert main(["synthesize", "--count", "1"]) == 2
    assert "requires --out" in capsys.readouterr().err


def test_synthesize_rejects_zero_count(tmp_path, capsys):
    assert main(["synthesize", "--out", str(tmp_path / "x"), "--count", "0"]) == 2
    assert "data.count" in capsys.readouterr().err


def test_unknown_set_key_is_config_error(tmp_path, capsys):
    rc = main(["synthesize", "--out", str(tmp_path / "x"), "--count", "1",
               "--set", "data.bogus=1"])
    assert rc == 2
    assert "unknown config key" in capsys.readouterr().err


def test_config_file_layers_under_set_flags(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("data.count = 3\ndata.image_size = 16\n")
    out = tmp_path / "data"
    rc = main(["synthesize", "--config", str(cfg), "--out", str(out),
               "--set", "data.count=2", "--seed", "4"])
    assert rc == 0
    manifest = (out / "manifest.tsv").read_text().splitlines()
    assert len(manifest) == 3  # header + 2 rows: --set beat the file value


def test_seed_flag_beats_set_overrides(tmp_path):
    flag = tmp_path / "flag"
    plain = tmp_path / "plain"
    rc = main(["synthesize", "--out", str(flag), "--count", "2",
               "--set", "data.image_size=16", "--set", "data.seed=99",
               "--seed", "7"])
    assert rc == 0
    synthesize(plain, count=2, size=16, seed=7)
    assert (flag / "manifest.tsv").read_bytes() == (plain / "manifest.tsv").read_bytes()


def test_missing_config_file_is_config_error(tmp_path, capsys):
    rc = main(["synthesize", "--config", str(tmp_path / "nope.cfg"),
               "--out", str(tmp_path / "x"), "--count", "1"])
    assert rc == 2
    assert "config file not found" in capsys.readouterr().err


def test_config_file_not_utf8_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"data.count = 3\n# caf\xe9 (Latin-1)\n")
    rc = main(["synthesize", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "config file is not UTF-8" in capsys.readouterr().err


def test_non_ascii_paths_are_echoed_in_utf8(tmp_path, capsys):
    """A corpus and a run directory whose names are not ASCII train and evaluate;
    each config.echo holds the paths in UTF-8."""
    data = synthesize(tmp_path / "corpus_é")
    run = tmp_path / "run_é"
    assert main(train_args(data, run)) == 0
    assert f"paths.data = {data}\n" in (run / "config.echo").read_text(encoding="utf-8")
    ckpt = run / "ckpt_epoch0002.bin"
    out = tmp_path / "eval_é"
    assert main(["eval", "--ckpt", str(ckpt), "--data", str(data), "--out", str(out)]) == 0
    echo = (out / "config.echo").read_text(encoding="utf-8")
    assert f"paths.data = {data}\n" in echo and f"paths.ckpt = {ckpt}\n" in echo


# how Python hands over a file name holding the byte 0xff, which is not UTF-8
NOT_UTF8 = "corpus_\udcff"


@pytest.mark.parametrize("command", ["train", "eval", "sweep-order"])
def test_data_path_not_utf8_is_config_error(tmp_path, capsys, command):
    """config.echo is UTF-8, so a corpus name that is not is refused before any file is written."""
    data = synthesize(tmp_path / "data").rename(tmp_path / NOT_UTF8)
    out = tmp_path / "out"
    argv = {
        "train": train_args(data, out),
        "eval": ["eval", "--ckpt", str(identity_checkpoint(tmp_path / "identity.bin")),
                 "--data", str(data), "--out", str(out)],
        "sweep-order": ["sweep-order", "0", "--data", str(data), "--out", str(out),
                        *sweep_sets()],
    }[command]
    assert main(argv) == 2
    assert "bad value for paths.data" in capsys.readouterr().err
    assert not out.exists()


def test_synthesize_into_directory_not_utf8_prints_escaped_name(tmp_path, capsys):
    out = tmp_path / NOT_UTF8
    assert main(["synthesize", "--out", str(out), "--count", "1",
                 "--set", "data.image_size=16"]) == 0
    assert (out / "manifest.tsv").exists()
    assert capsys.readouterr().out.endswith("corpus_\\udcff\n")


def test_train_into_directory_not_utf8_prints_escaped_name(tmp_path, capsys):
    data = synthesize(tmp_path / "data")
    run = tmp_path / f"run_{NOT_UTF8}"
    assert main(train_args(data, run)) == 0
    assert (run / "ckpt_epoch0002.bin").exists()
    assert capsys.readouterr().out.endswith("corpus_\\udcff/ckpt_epoch0002.bin\n")


@pytest.mark.parametrize("command", ["train", "eval"])
def test_manifest_not_ascii_is_io_error(tmp_path, capsys, command):
    data = synthesize(tmp_path / "data")
    manifest = data / "manifest.tsv"
    manifest.write_bytes(manifest.read_bytes().replace(b"\train\t", b"\tr\xffin\t", 1))
    if command == "train":
        argv = train_args(data, tmp_path / "run")
    else:
        argv = ["eval", "--ckpt", str(identity_checkpoint(tmp_path / "identity.bin")),
                "--data", str(data), "--out", str(tmp_path / "eval")]
    assert main(argv) == 3
    assert "manifest is not ASCII" in capsys.readouterr().err


# --- train ------------------------------------------------------------------------------

def test_train_writes_outputs(tmp_path, capsys):
    data = synthesize(tmp_path / "data")
    out = tmp_path / "run"
    rc = main(train_args(data, out))
    assert rc == 0
    assert "trained 2 epochs" in capsys.readouterr().out
    assert (out / "loss.tsv").exists()
    assert (out / "ckpt_epoch0002.bin").exists()
    assert (out / "config.echo").exists()


def test_train_rerun_reproduces_log(tmp_path):
    data = synthesize(tmp_path / "data")
    first = tmp_path / "r1"
    second = tmp_path / "r2"
    assert main(train_args(data, first)) == 0
    assert main(train_args(data, second)) == 0
    assert (first / "loss.tsv").read_bytes() == (second / "loss.tsv").read_bytes()
    assert (first / "ckpt_epoch0002.bin").read_bytes() \
        == (second / "ckpt_epoch0002.bin").read_bytes()


def test_train_bytes_do_not_depend_on_blas_threads(tmp_path):
    """A desk-shape run writes the same loss log and checkpoint with one BLAS
    thread as with two, and an eval of that checkpoint the same metrics."""
    preset = Path(__file__).resolve().parents[1] / "configs" / "desk_rain.cfg"
    data = synthesize(tmp_path / "data", count=8, size=64, extra=["--config", str(preset)])
    written = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "taylor_restore", "train", "--config", str(preset),
             "--data", str(data), "--out", str(out), "--seed", "3",
             "--set", "train.epochs=2", "--set", "train.checkpoint_every=0"],
            capture_output=True, text=True, env=child_env(OPENBLAS_NUM_THREADS=threads))
        assert proc.returncode == 0, proc.stderr
        written[threads] = [(out / name).read_bytes()
                            for name in ("loss.tsv", "ckpt_epoch0002.bin")]
    assert written["1"] == written["2"]
    # eval runs batch-1 convs, whose GEMMs BLAS may split across threads differently
    for threads in ("1", "2"):
        out = tmp_path / f"eval{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "taylor_restore", "eval", "--config", str(preset),
             "--ckpt", str(tmp_path / "threads1" / "ckpt_epoch0002.bin"),
             "--data", str(data), "--out", str(out)],
            capture_output=True, text=True, env=child_env(OPENBLAS_NUM_THREADS=threads))
        assert proc.returncode == 0, proc.stderr
        written[threads] = (out / "metrics.tsv").read_bytes()
    assert written["1"] == written["2"]


def test_paper_default_train_bytes_do_not_depend_on_blas_threads(tmp_path):
    """One paper-default step (batch 4 of 100 px patches, width 32, three blocks,
    order 3) writes the same loss log and checkpoint with one BLAS thread as
    with two: its GEMMs are wide enough for BLAS to split them across threads."""
    data = synthesize(tmp_path / "data", count=4, size=128)
    written = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "taylor_restore", "train", "--data", str(data),
             "--out", str(out), "--seed", "3", "--set", "train.epochs=1"],
            capture_output=True, text=True, env=child_env(OPENBLAS_NUM_THREADS=threads))
        assert proc.returncode == 0, proc.stderr
        written[threads] = [(out / name).read_bytes()
                            for name in ("loss.tsv", "ckpt_epoch0001.bin")]
    assert written["1"] == written["2"]


# A blur that sums its taps in a BLAS GEMV gives other floats at these two sizes with two
# threads than with one; at 64 and 128 px they happened to agree.
BLUR_CHILD = """
import hashlib
from taylor_restore.degrade import BlurParams, generate_clean, synth_blur
for size in (45, 63):
    blurred = synth_blur(generate_clean(size, size, 3), BlurParams(), 5)
    print(hashlib.sha256(blurred.tobytes()).hexdigest())
"""


def test_blur_bits_do_not_depend_on_blas_threads():
    printed = {}
    for threads in ("1", "2"):
        proc = subprocess.run([sys.executable, "-c", BLUR_CHILD], capture_output=True,
                              text=True, env=child_env(OPENBLAS_NUM_THREADS=threads))
        assert proc.returncode == 0, proc.stderr
        printed[threads] = proc.stdout.split()
    assert len(printed["1"]) == 2
    assert printed["1"] == printed["2"]


def test_train_requires_data(tmp_path, capsys):
    assert main(["train", "--out", str(tmp_path / "run")]) == 2
    assert "missing paths.data" in capsys.readouterr().err


def test_train_with_missing_corpus_is_io_error(tmp_path, capsys):
    rc = main(train_args(tmp_path / "absent", tmp_path / "run"))
    assert rc == 3


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_divergence_exit_code(tmp_path, capsys):
    data = synthesize(tmp_path / "data", count=8)
    rc = main(train_args(data, tmp_path / "run", order=0, epochs=1,
                         extra=["--set", "train.lr=1e80"]))
    assert rc == 4
    assert "diverged: non-finite loss" in capsys.readouterr().err


# The address space of an out-of-memory child: ample for a tiny run, far below what its
# oversized model or batch asks for, so the machine is never asked for that memory.
CHILD_ADDRESS_SPACE = 3 << 30


def can_cap_address_space():
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    return hard == resource.RLIM_INFINITY or hard >= CHILD_ADDRESS_SPACE


def cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_ADDRESS_SPACE, CHILD_ADDRESS_SPACE))


@pytest.mark.skipif(not can_cap_address_space(), reason="cannot cap a child's address space")
@pytest.mark.parametrize("setting", ["model.mapping_channels=100000",
                                     "train.batch_size=1000000000"])
def test_out_of_memory_is_config_error(tmp_path, setting):
    """A model or batch too large to allocate exits 2 with one line, not a traceback."""
    data = synthesize(tmp_path / "data")
    proc = subprocess.run(
        [sys.executable, "-m", "taylor_restore",
         *train_args(data, tmp_path / "run", extra=["--set", setting])],
        capture_output=True, text=True, env=child_env(), preexec_fn=cap_address_space,
        timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("out of memory: ")
    assert "Traceback" not in proc.stderr


def test_train_resume_flag(tmp_path):
    data = synthesize(tmp_path / "data")
    cont = tmp_path / "cont"
    half = tmp_path / "half"
    resumed = tmp_path / "resumed"
    assert main(train_args(data, cont, epochs=4)) == 0
    assert main(train_args(data, half, epochs=2)) == 0
    rc = main(train_args(data, resumed, epochs=4,
                         extra=["--resume", str(half / "ckpt_epoch0002.bin")]))
    assert rc == 0
    assert (resumed / "ckpt_epoch0004.bin").read_bytes() \
        == (cont / "ckpt_epoch0004.bin").read_bytes()


EVERY_EPOCH = ["--set", "train.checkpoint_every=1"]


def test_resume_latest_resumes_from_the_newest_checkpoint(tmp_path):
    """`--resume latest` takes the highest epoch in --out and writes the bytes of a resume that
    names that file. The older checkpoints come from another seed, so a resume from one of
    them would write other bytes."""
    data = synthesize(tmp_path / "data")
    run, other, named = tmp_path / "run", tmp_path / "other", tmp_path / "named"
    assert main(train_args(data, run, epochs=3, extra=EVERY_EPOCH)) == 0
    assert main(train_args(data, other, epochs=2, extra=[*EVERY_EPOCH, "--seed", "4"])) == 0
    for name in ("ckpt_epoch0001.bin", "ckpt_epoch0002.bin"):
        shutil.copy(other / name, run / name)
    shutil.copytree(run, named)
    assert main(train_args(data, run, epochs=4, extra=["--resume", "latest"])) == 0
    assert main(train_args(data, named, epochs=4,
                           extra=["--resume", str(named / "ckpt_epoch0003.bin")])) == 0
    for name in ("loss.tsv", "ckpt_epoch0004.bin"):
        assert (run / name).read_bytes() == (named / name).read_bytes(), name


def test_resume_latest_skips_a_checkpoint_that_does_not_load(tmp_path, capsys):
    data = synthesize(tmp_path / "data")
    run, named = tmp_path / "run", tmp_path / "named"
    assert main(train_args(data, run, epochs=3, extra=EVERY_EPOCH)) == 0
    shutil.copytree(run, named)
    newest = run / "ckpt_epoch0003.bin"
    newest.write_bytes(newest.read_bytes()[:-9])
    capsys.readouterr()
    assert main(train_args(data, run, epochs=4, extra=["--resume", "latest"])) == 0
    assert f"skipping {newest}: " in capsys.readouterr().err
    assert main(train_args(data, named, epochs=4,
                           extra=["--resume", str(named / "ckpt_epoch0002.bin")])) == 0
    for name in ("loss.tsv", "ckpt_epoch0004.bin"):
        assert (run / name).read_bytes() == (named / name).read_bytes(), name


def test_a_killed_run_resumed_from_latest_writes_the_bytes_of_a_continuous_one(tmp_path):
    """A desk train child is SIGKILLed as soon as a checkpoint exists (the first in one run, the
    second in another), which the poll below sees mid-run, then resumed with --resume latest.
    Its loss log and final checkpoint equal those of a run that was never killed, whatever part
    of the next epoch the kill cut short."""
    preset = Path(__file__).resolve().parents[1] / "configs" / "desk_rain.cfg"
    data = synthesize(tmp_path / "data", count=16, size=40, extra=["--config", str(preset)])

    def train_command(out, *extra):
        return [sys.executable, "-m", "taylor_restore", "train", "--config", str(preset),
                "--data", str(data), "--out", str(out), "--seed", "3",
                "--set", "train.epochs=4", "--set", "train.checkpoint_every=1", *extra]

    continuous = tmp_path / "continuous"
    proc = subprocess.run(train_command(continuous), capture_output=True, text=True,
                          env=child_env())
    assert proc.returncode == 0, proc.stderr
    for kill_at in ("ckpt_epoch0001.bin", "ckpt_epoch0002.bin"):
        killed = tmp_path / kill_at
        child = subprocess.Popen(train_command(killed), stdout=subprocess.DEVNULL,
                                 stderr=subprocess.DEVNULL, env=child_env())
        try:
            while not (killed / kill_at).exists() and child.poll() is None:
                time.sleep(0.002)
        finally:
            child.kill()
            child.wait()
        assert child.returncode == -signal.SIGKILL, f"the run ended before {kill_at}"
        assert not (killed / "ckpt_epoch0004.bin").exists()
        proc = subprocess.run(train_command(killed, "--resume", "latest"), capture_output=True,
                              text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
        for name in ("loss.tsv", "ckpt_epoch0004.bin"):
            assert (killed / name).read_bytes() == (continuous / name).read_bytes(), name


def test_resume_latest_without_a_checkpoint_is_config_error(tmp_path, capsys):
    data = synthesize(tmp_path / "data")
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(train_args(data, empty, extra=["--resume", "latest"])) == 2
    assert f"no checkpoint in {empty} loads" in capsys.readouterr().err
    assert not list(empty.iterdir())


@pytest.mark.parametrize("sets, message", [
    # the first differing key is named: lambda comes before variant
    (["composer.variant=concat_only", "composer.lambda=0.5"],
     "checkpoint has composer.lambda = 0.5, config has 1.0"),
    (["composer.order=2"], "checkpoint has composer.order = 2, config has 1"),
    (["model.mapping_channels=8"], "checkpoint has model.mapping_channels = 8, config has 4"),
])
def test_resume_with_another_model_is_config_error(tmp_path, capsys, sets, message):
    """Resume takes the model from the checkpoint; a config describing another
    one exits 2 before any step."""
    data = synthesize(tmp_path / "data")
    extra = [arg for item in sets for arg in ("--set", item)]
    assert main(train_args(data, tmp_path / "half", extra=extra)) == 0
    resumed = tmp_path / "resumed"
    rc = main(train_args(data, resumed, epochs=4,
                         extra=["--resume", str(tmp_path / "half" / "ckpt_epoch0002.bin")]))
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not list(resumed.glob("ckpt_epoch*.bin"))


def test_in_channels_is_an_unknown_key(tmp_path, capsys):
    """Images are RGB: no key sets a channel count, from --set or from a config file."""
    data = synthesize(tmp_path / "data")
    out = tmp_path / "run"
    assert main(train_args(data, out, extra=["--set", "model.in_channels=1"])) == 2
    assert "unknown config key 'model.in_channels'" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model.in_channels = 3\n")
    assert main(train_args(data, out, extra=["--config", str(cfg)])) == 2
    assert "unknown config key 'model.in_channels'" in capsys.readouterr().err
    assert not out.exists()


def test_failed_checkpoint_write_keeps_the_earlier_file(tmp_path, capsys, monkeypatch):
    """A checkpoint that cannot be put in place leaves the one already at its path
    whole, and the run exits 3."""
    data = synthesize(tmp_path / "data")
    path = tmp_path / "run" / "ckpt_epoch0002.bin"
    assert main(train_args(data, tmp_path / "run")) == 0
    earlier = path.read_bytes()

    monkeypatch.setattr(os, "replace", replace_failing_for(path.name))
    # another seed, so that a non-atomic write would change the bytes
    assert main(train_args(data, tmp_path / "run", extra=["--seed", "4"])) == 3
    assert "io error" in capsys.readouterr().err
    assert path.read_bytes() == earlier
    load_checkpoint(path)


def replace_failing_for(name):
    """os.replace, except that it raises for a destination called `name`."""
    real_replace = os.replace

    def replace(src, dst):
        if Path(dst).name == name:
            raise OSError(f"cannot replace {dst}")
        real_replace(src, dst)
    return replace


@pytest.mark.parametrize("name", ["config.echo", "metrics.tsv", "sweep.tsv"])
def test_failed_output_write_keeps_the_earlier_file(tmp_path, capsys, monkeypatch, name):
    """config.echo, metrics.tsv and sweep.tsv are put in place as checkpoints are: one that
    cannot be leaves the earlier file whole and no temp file, and the run exits 3."""
    out = tmp_path / "out"
    ckpt = identity_checkpoint(tmp_path / "identity.bin")

    def argv(seed):
        data = synthesize(tmp_path / f"data{seed}", size=24, seed=seed)
        if name == "sweep.tsv":
            return ["sweep-order", "0", "--data", str(data), "--out", str(out), *sweep_sets()]
        return ["eval", "--ckpt", str(ckpt), "--data", str(data), "--out", str(out)]

    first, second = argv(5), argv(6)  # another corpus, so that the bytes would change
    assert main(first) == 0
    earlier = (out / name).read_bytes()
    monkeypatch.setattr(os, "replace", replace_failing_for(name))
    assert main(second) == 3
    assert "io error" in capsys.readouterr().err
    assert (out / name).read_bytes() == earlier
    assert not (out / f"{name}.tmp").exists()


def test_non_finite_gradient_exits_before_adam(tmp_path, capsys, monkeypatch):
    """A NaN in one parameter's gradient ends the run with exit 4, names the
    parameter, and reaches neither the weights nor a checkpoint."""
    data = synthesize(tmp_path / "data")
    built = []

    def recording_init(*args):
        model = real_init(*args)
        built.append((model.params, {name: t.data.copy() for name, t in model.params.items()}))
        return model

    def poisoning_backward(loss, graph):
        real_backward(loss, graph)
        params, _ = built[0]
        params.tensors()[-1].grad[...] = np.nan

    real_init, real_backward = Model.init, trainer.backward
    monkeypatch.setattr(Model, "init", recording_init)
    monkeypatch.setattr(trainer, "backward", poisoning_backward)
    out = tmp_path / "run"
    assert main(train_args(data, out)) == 4
    params, initial = built[0]
    last = list(params.items())[-1][0]
    assert f"non-finite gradient of {last} nan at step 1" in capsys.readouterr().err
    for name, tensor in params.items():
        assert np.array_equal(tensor.data, initial[name]), name
    assert not list(out.glob("ckpt_*"))


# --- eval --------------------------------------------------------------------------------

def identity_checkpoint(path, channels=3):
    # an order-0 model with all-zero convolutions: restoration == input; any other channel
    # count reshapes the image-facing tensors for it, which no model of this package reads
    model = Model.init(MappingSpec(channels=4, blocks=1), DerivativeSpec(channels=4),
                       ComposerConfig(order=0), seed=0)
    for tensor in model.params.tensors():
        tensor.data[...] = 0.0
    ckpt = make_train_checkpoint(model, AdamState.for_params(model.params),
                                 epoch=0, rng_state=0)
    for name, shape in (("mapping.conv_in.weight", (4, channels, 3, 3)),
                        ("mapping.conv_out.weight", (channels, 4, 3, 3)),
                        ("mapping.conv_out.bias", (channels,))):
        for prefix in ("param.", "adam.m.", "adam.v."):
            ckpt.tensors[prefix + name] = np.zeros(shape)
    save_checkpoint(path, ckpt)
    return path


def test_eval_identity_model_on_undegraded_corpus(tmp_path, capsys):
    data = synthesize(tmp_path / "data", count=3, size=24, seed=6,
                      extra=["--set", "data.rain.count_min=0",
                             "--set", "data.rain.count_max=0"])
    ckpt = identity_checkpoint(tmp_path / "identity.bin")
    out = tmp_path / "eval"
    rc = main(["eval", "--ckpt", str(ckpt), "--data", str(data), "--out", str(out)])
    assert rc == 0
    assert "evaluated 3 images: mean psnr inf, mean ssim 1.0" in capsys.readouterr().out
    lines = (out / "metrics.tsv").read_text().splitlines()
    assert lines[0] == "index\tfile\tpsnr\tssim"
    assert lines[1] == "0\tdegraded_000000.ppm\tinf\t1.0"
    assert lines[-1] == "mean\t-\tinf\t1.0"


def test_eval_of_trained_checkpoint(tmp_path, capsys):
    data = synthesize(tmp_path / "data", count=4, size=16)
    run = tmp_path / "run"
    assert main(train_args(data, run)) == 0
    out = tmp_path / "eval"
    rc = main(["eval", "--ckpt", str(run / "ckpt_epoch0002.bin"),
               "--data", str(data), "--out", str(out)])
    assert rc == 0
    lines = (out / "metrics.tsv").read_text().splitlines()
    assert len(lines) == 6  # header + 4 rows + mean
    footer = lines[-1].split("\t")
    assert footer[0] == "mean"
    float(footer[2]), float(footer[3])  # parseable numbers


def test_eval_requires_checkpoint(tmp_path, capsys):
    assert main(["eval", "--data", "d", "--out", str(tmp_path / "x")]) == 2
    assert "missing paths.ckpt" in capsys.readouterr().err


def test_eval_missing_checkpoint_file_is_io_error(tmp_path, capsys):
    data = synthesize(tmp_path / "data", count=1)
    rc = main(["eval", "--ckpt", str(tmp_path / "nope.bin"), "--data", str(data),
               "--out", str(tmp_path / "eval")])
    assert rc == 3


def test_eval_corrupt_checkpoint_is_io_error(tmp_path, capsys):
    data = synthesize(tmp_path / "data", count=1)
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"definitely not a checkpoint")
    rc = main(["eval", "--ckpt", str(bad), "--data", str(data),
               "--out", str(tmp_path / "eval")])
    assert rc == 3
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("command, key, value", [
    ("eval", "composer.variant", b"\xff\xfe"),  # not UTF-8
    ("eval", "model.kernel_size", b"4"),  # even kernel: MappingSpec rejects it
    ("eval", "model.mapping_channels", b"0"),  # MappingSpec rejects zero channels
    # a model of another size: the stored tensors are checked before anything is built
    ("eval", "model.mapping_channels", str(1 << 40).encode()),
    ("eval", "model.kernel_size", str((1 << 40) + 1).encode()),
    ("eval", "model.mapping_blocks", str(10**7).encode()),
    # resume rebuilds its model from the checkpoint as eval does
    ("train", "model.kernel_size", b"4"),
    ("train", "composer.variant", b"\xff\xfe"),
    ("train", "train.step", b"x"),  # read only when resuming
    ("train", "train.epoch", b"-3"),  # would train 7 epochs of a 4-epoch run
    ("train", "train.step", b"-1"),  # would divide by zero in Adam's bias correction
    ("train", "train.rng_state", str(1 << 64).encode()),  # not a 64-bit state
])
def test_bad_checkpoint_metadata_is_io_error(tmp_path, capsys, command, key, value):
    data = synthesize(tmp_path / "data")
    assert main(train_args(data, tmp_path / "run")) == 0
    checkpoint = load_checkpoint(tmp_path / "run" / "ckpt_epoch0002.bin")
    checkpoint.metadata[key] = "PLACEHOLDER"
    bad = tmp_path / "bad.bin"
    save_checkpoint(bad, checkpoint)
    placeholder = struct.pack("<I", 11) + b"PLACEHOLDER"
    blob = bad.read_bytes()
    assert blob.count(placeholder) == 1
    bad.write_bytes(blob.replace(placeholder, struct.pack("<I", len(value)) + value))
    if command == "eval":
        argv = ["eval", "--ckpt", str(bad), "--data", str(data), "--out", str(tmp_path / "eval")]
    else:
        argv = train_args(data, tmp_path / "resumed", epochs=4, extra=["--resume", str(bad)])
    assert main(argv) == 3
    assert "data error" in capsys.readouterr().err


def test_eval_pair_shape_mismatch_is_io_error(tmp_path, capsys):
    data = synthesize(tmp_path / "data", count=2)
    write_ppm(np.zeros((3, 8, 8)), data / "degraded_000001.ppm")
    rc = main(["eval", "--ckpt", str(identity_checkpoint(tmp_path / "identity.bin")),
               "--data", str(data), "--out", str(tmp_path / "eval")])
    assert rc == 3
    assert "pair shapes differ" in capsys.readouterr().err


def test_eval_channel_count_mismatch_is_io_error(tmp_path, capsys):
    """A checkpoint whose tensors are shaped for one-channel images fails the shape check."""
    data = synthesize(tmp_path / "data", count=1)
    rc = main(["eval", "--ckpt", str(identity_checkpoint(tmp_path / "gray.bin", channels=1)),
               "--data", str(data), "--out", str(tmp_path / "eval")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "data error" in err
    assert ("checkpoint tensor param.mapping.conv_in.weight has shape (4, 1, 3, 3), "
            "model expects (4, 3, 3, 3)") in err


def test_eval_on_images_smaller_than_the_ssim_window_is_io_error(tmp_path, capsys):
    """An 8-px corpus trains with 8-px patches, but SSIM needs 11 px: eval names the file."""
    data = synthesize(tmp_path / "data", count=2, size=8)
    assert main(train_args(data, tmp_path / "run", patch=8)) == 0
    out = tmp_path / "eval"
    rc = main(["eval", "--ckpt", str(tmp_path / "run" / "ckpt_epoch0002.bin"),
               "--data", str(data), "--out", str(out)])
    assert rc == 3
    assert ("degraded_000000.ppm is 8x8, smaller than the 11x11 SSIM window"
            in capsys.readouterr().err)
    assert not (out / "metrics.tsv").exists()


# --- gradcheck ----------------------------------------------------------------------------

def test_gradcheck_command_passes(tmp_path, capsys):
    rc = main(["gradcheck", "--out", str(tmp_path / "gc")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "gradcheck PASS" in out
    assert "op conv2d" in out
    assert "composed order-3 with_k_residual" in out
    assert "composed order-3 concat_only" in out
    assert (tmp_path / "gc" / "config.echo").exists()


@pytest.mark.parametrize("seed", ["1", "20", "21"])
def test_gradcheck_passes_where_a_conv_gradient_is_near_zero(capsys, seed):
    """At these seeds the conv check meets gradient entries near zero, where the rounding of a
    narrow central difference alone exceeded the per-op threshold."""
    assert main(["gradcheck", "--seed", seed]) == 0
    assert "gradcheck PASS" in capsys.readouterr().out


# --- sweep-order --------------------------------------------------------------------------

def sweep_sets(extra=()):
    return [*TINY_MODEL_SETS,
            "--set", "train.epochs=2",
            "--set", "train.patch_size=12",
            "--set", "train.checkpoint_every=0",
            *extra]


def test_sweep_runs_each_order(tmp_path, capsys):
    data = synthesize(tmp_path / "data", count=4, size=24, seed=8)
    out = tmp_path / "sweep"
    rc = main(["sweep-order", "0..2", "--data", str(data), "--out", str(out),
               "--seed", "3", *sweep_sets()])
    assert rc == 0
    lines = (out / "sweep.tsv").read_text().splitlines()
    assert lines[0] == "order\tpsnr\tssim"
    assert len(lines) == 4
    for order, line in enumerate(lines[1:]):
        fields = line.split("\t")
        assert fields[0] == str(order)
        float(fields[1]), float(fields[2])
        run_dir = out / f"order_{order}"
        assert (run_dir / "loss.tsv").exists()
        assert (run_dir / "metrics.tsv").exists()
        # the sweep row repeats the per-order metrics footer verbatim
        footer = (run_dir / "metrics.tsv").read_text().splitlines()[-1].split("\t")
        assert fields[1] == footer[2] and fields[2] == footer[3]


def test_sweep_parallel_jobs_match_serial(tmp_path):
    data = synthesize(tmp_path / "data", count=4, size=24, seed=8)
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    args = ["0..1", "--data", str(data), "--seed", "3", *sweep_sets()]
    assert main(["sweep-order", *args, "--out", str(serial)]) == 0
    assert main(["sweep-order", *args, "--out", str(parallel), "--jobs", "2"]) == 0
    assert (serial / "sweep.tsv").read_bytes() == (parallel / "sweep.tsv").read_bytes()
    for order in (0, 1):
        assert (serial / f"order_{order}" / "loss.tsv").read_bytes() \
            == (parallel / f"order_{order}" / "loss.tsv").read_bytes()


def test_sweep_marks_failed_orders(tmp_path, capsys, monkeypatch):
    """An order whose run fails is marked in sweep.tsv, and the other orders still run."""
    train = cli._train

    def train_or_fail(cfg, *args):
        if cfg["composer.order"] == 2:
            raise ValueError("order 2 cannot train here")
        return train(cfg, *args)

    monkeypatch.setattr(cli, "_train", train_or_fail)
    data = synthesize(tmp_path / "data", count=4, size=24, seed=8)
    out = tmp_path / "sweep"
    rc = main(["sweep-order", "0,2", "--data", str(data), "--out", str(out),
               "--seed", "3", *sweep_sets()])
    assert rc == 1
    lines = (out / "sweep.tsv").read_text().splitlines()
    assert lines[1].split("\t")[0] == "0"
    assert lines[2] == "2\tFAILED\tFAILED"
    captured = capsys.readouterr()
    assert "order 2 FAILED: order 2 cannot train here" in captured.err


def test_sweep_refuses_an_order_listed_twice(tmp_path, capsys):
    """Both runs of a twice-listed order would write into one order_N directory."""
    data = synthesize(tmp_path / "data", count=4, size=24, seed=8)
    out = tmp_path / "sweep"
    assert main(["sweep-order", "3,3", "--data", str(data), "--out", str(out),
                 "--jobs", "2", *sweep_sets()]) == 2
    assert "an order is listed twice" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    (["9"], "order 9 is outside [0, 8]"),
    (["0,9"], "order 9 is outside [0, 8]"),
    (["1..9"], "order 9 is outside [0, 8]"),
    (["-1"], "order -1 is outside [0, 8]"),
    (["0..1", "--jobs", "0"], "--jobs must be >= 1, got 0"),
])
def test_sweep_refuses_an_unsupported_order_or_job_count(tmp_path, capsys, args, message):
    """Refused before any order trains: an order outside [0, composer.MAX_ORDER], or --jobs
    below 1."""
    data = synthesize(tmp_path / "data", count=4, size=24, seed=8)
    out = tmp_path / "sweep"
    assert main(["sweep-order", *args, "--data", str(data), "--out", str(out),
                 *sweep_sets()]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("orders, jobs, pools, rows", [("0..1", 64, [2], 2), ("2", 8, [], 1)])
def test_sweep_pool_never_exceeds_the_order_count(tmp_path, monkeypatch, orders, jobs, pools,
                                                  rows):
    """--jobs N starts at most one worker per order; a single order runs in-process."""
    created = []

    class InlineExecutor:
        """Records max_workers and runs each submitted call at once, in this process."""

        def __init__(self, max_workers, mp_context):
            created.append(max_workers)
            assert mp_context.get_start_method() == "spawn"

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
    data = synthesize(tmp_path / "data", count=4, size=24, seed=8)
    out = tmp_path / "sweep"
    assert main(["sweep-order", orders, "--data", str(data), "--out", str(out),
                 "--jobs", str(jobs), "--seed", "3", *sweep_sets()]) == 0
    assert created == pools
    assert len((out / "sweep.tsv").read_text().splitlines()) == 1 + rows


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc to count threads")
def test_sweep_workers_run_one_blas_thread():
    """A sweep worker loads numpy with one BLAS thread; the calling process keeps its own
    environment."""
    before = {name: os.environ.get(name) for name in cli.BLAS_THREAD_VARIABLES}
    with cli.worker_pool(2) as pool:
        variables, threads = pool.submit(blas_threads).result()
    assert variables == dict.fromkeys(cli.BLAS_THREAD_VARIABLES, "1")
    assert threads == 1
    assert {name: os.environ.get(name) for name in cli.BLAS_THREAD_VARIABLES} == before
