"""The benchmark's workloads: what each one sets up and which public call it
times. NOTES.md says why each workload exists.

Every input is generated from the workload seed: corpora come from the
program's own synthesizer, driven through ``cli.main(["synthesize", ...])``
with a config file written here, so the program only ever sees generated
corpora. Each timed call is a rerun of the same inputs, so every call must
write the same bytes as the first one.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

# The desk preset (configs/desk_rain.cfg at the commit that added this
# benchmark), copied so that later edits to the preset do not move it.
DESK = {
    "data.kind": "rain",
    "data.image_size": "64",
    "data.rain.count_min": "16",
    "data.rain.count_max": "28",
    "data.rain.intensity_max": "0.9",
    "model.mapping_channels": "8",
    "model.mapping_blocks": "1",
    "model.derivative_channels": "16",
    "composer.order": "3",
    "composer.variant": "concat_only",
    "train.patch_size": "32",
    "train.batch_size": "4",
}
# Every model, composer and train key at its default, which is the paper's.
PAPER = {"data.kind": "rain", "data.image_size": "128"}

# (kind, tolerance) for each checked number of a row, against a reference
# recorded at the same seed: relative for losses, absolute for PSNR (dB) and
# SSIM. Last-bit changes to the arithmetic move these by ~1e-14.
LOSS_TOLERANCE = (("rel", 1e-9),) * 3
METRIC_TOLERANCE = (("abs", 1e-9), ("abs", 1e-6))


@dataclass
class Outcome:
    """What one timed call wrote, split into one row per operation."""
    samples: int                    # patches trained or images evaluated
    rows: list[str]                 # per operation, as the program wrote it
    values: list[tuple[float, ...]]  # the checked numbers of each row
    whole: bytes                    # output of the call as a whole


def _write_config(path: Path, keys: dict[str, str]) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()), encoding="ascii")
    return path


def _float(text: str) -> float:
    try:
        return float(text)
    except ValueError:  # a FAILED cell
        return math.nan


class Workload:
    op = "step"  # what one operation is: "step" or "image"
    tolerance: tuple = ()

    def __init__(self, seed: int, modules: dict):
        self.seed = seed
        self.m = modules

    def _synthesize(self, keys: dict, seed: int, count: int, out: Path) -> Path:
        config = _write_config(out.parent / f"{out.name}.cfg", keys)
        rc = self.m["cli"].main(["synthesize", "--config", str(config), "--seed", str(seed),
                                 "--count", str(count), "--out", str(out)])
        if rc != 0:
            raise RuntimeError(f"synthesize exited {rc}")
        return out

    def row_valid(self, values: tuple[float, ...]) -> bool:
        return all(math.isfinite(v) for v in values)

    def checkpoint_bytes(self, outcome: Outcome, scratch: Path) -> int:
        """Bytes of the tensors (parameters, Adam moments) in the checkpoint
        the call wrote or read. The file adds metadata whose length varies
        with the seed, so only the tensors give a count that repeats."""
        checkpoint = self.m["checkpoint"].load_checkpoint(self.checkpoint_path(outcome, scratch))
        return sum(tensor.nbytes for tensor in checkpoint.tensors.values())


class TrainWorkload(Workload):
    """One ``trainer.train`` call per operation batch: a single epoch over
    the corpus, with the loss log and the final checkpoint written."""
    tolerance = LOSS_TOLERANCE

    def __init__(self, seed: int, modules: dict, keys: dict, images: int):
        super().__init__(seed, modules)
        self.keys = keys
        self.images = images
        rc = modules["runconfig"]
        self.cfg = rc.effective_config(dict(keys), [
            ("train.seed", str(seed)), ("train.epochs", "1"), ("train.checkpoint_every", "0"),
        ])
        self.ops_per_call = math.ceil(images / self.cfg["train.batch_size"])

    def setup(self, work: Path) -> None:
        self.corpus = self._synthesize(self.keys, self.seed, self.images, work / "corpus")

    def call(self, out: Path) -> Outcome:
        rc = self.m["runconfig"]
        final = self.m["trainer"].train(
            self.corpus, rc.mapping_spec_from(self.cfg), rc.derivative_spec_from(self.cfg),
            rc.composer_config_from(self.cfg), rc.train_config_from(self.cfg), out,
        )
        rows = (out / "loss.tsv").read_text(encoding="ascii").splitlines()[1:]
        return Outcome(
            samples=len(rows) * self.cfg["train.batch_size"],
            rows=rows,
            values=[tuple(float(cell) for cell in row.split("\t")[3:]) for row in rows],
            whole=final.read_bytes(),
        )

    def checkpoint_path(self, outcome: Outcome, scratch: Path) -> Path:
        scratch.write_bytes(outcome.whole)
        return scratch


class EvalWorkload(Workload):
    """``metrics.evaluate`` of a checkpoint loaded from disk, as ``eval`` does.

    Set-up trains the checkpoint through the command line in a child process,
    so the evaluating process's peak RSS is that of evaluation alone.
    """
    op = "image"
    tolerance = METRIC_TOLERANCE
    train_images = 16
    train_epochs = 4
    ops_per_call = 50

    def setup(self, work: Path) -> None:
        keys = dict(DESK, **{"data.kind": "blur"})
        train_dir = self._synthesize(keys, self.seed, self.train_images, work / "train")
        self.test_dir = self._synthesize(keys, self.seed ^ 0x5EED, self.ops_per_call,
                                         work / "test")
        config = _write_config(work / "model.cfg", keys)
        src = Path(self.m["cli"].__file__).resolve().parent.parent
        subprocess.run(
            [sys.executable, "-m", "taylor_restore", "train", "--config", str(config),
             "--seed", str(self.seed), "--data", str(train_dir), "--out", str(work / "model"),
             "--set", f"train.epochs={self.train_epochs}", "--set", "train.checkpoint_every=0"],
            env=dict(os.environ, PYTHONPATH=str(src)), stdout=subprocess.DEVNULL, check=True,
        )
        self.ckpt = work / "model" / f"ckpt_epoch{self.train_epochs:04d}.bin"

    def call(self, out: Path) -> Outcome:
        report = self.m["metrics"].evaluate(self.m["checkpoint"].load_checkpoint(self.ckpt),
                                            self.test_dir)
        out.mkdir(parents=True, exist_ok=True)
        report.write_tsv(out / "metrics.tsv")
        lines = (out / "metrics.tsv").read_text(encoding="ascii").splitlines()
        rows = lines[1:-1]
        return Outcome(
            samples=len(rows),
            rows=rows,
            values=[tuple(_float(cell) for cell in row.split("\t")[2:]) for row in rows],
            whole=lines[-1].encode("ascii"),
        )

    def row_valid(self, values: tuple[float, ...]) -> bool:
        psnr, ssim = values
        return math.isfinite(psnr) and -1.0 <= ssim <= 1.0

    def checkpoint_path(self, outcome: Outcome, scratch: Path) -> Path:
        return self.ckpt


def make_workload(name: str, seed: int, modules: dict) -> Workload:
    if name == "train_desk":
        return TrainWorkload(seed, modules, DESK, images=64)
    if name == "train_paper":
        return TrainWorkload(seed, modules, PAPER, images=4)
    if name == "eval_blur":
        return EvalWorkload(seed, modules)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("train_desk", "train_paper", "eval_blur")
