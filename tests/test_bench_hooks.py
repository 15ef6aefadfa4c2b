"""The benchmark's tracer (perfbench/tracing.py) wraps attributes of the
program's modules by name and calls conv2d positionally. These checks run a
tiny train and eval under it, so a renamed attribute, a changed conv2d
signature or a call that no longer goes through a wrapped attribute fails
here rather than in a traced benchmark run."""

import importlib
from pathlib import Path

from taylor_restore.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

TINY = ["--set", "model.mapping_channels=4", "--set", "model.mapping_blocks=1",
        "--set", "model.derivative_channels=4", "--set", "composer.order=3",
        "--set", "train.epochs=1", "--set", "train.patch_size=8",
        "--set", "train.checkpoint_every=0", "--set", "train.batch_size=2", "--seed", "3"]
# convs in one forward of that model: conv_in, two per block, conv_out, and
# two per derivative step
CONVS_PER_FORWARD = 1 + 2 * 1 + 1 + 2 * 3


def test_tracer_scopes_every_conv_and_uninstalls(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from run import MODULES
    from tracing import CONV_SCOPES, NAME, PHASE, SCOPE, Tracer, layer_metrics

    modules = {name: importlib.import_module(f"taylor_restore.{name}") for name in MODULES}
    before = {name: dict(vars(module)) for name, module in modules.items()}
    data, run = tmp_path / "data", tmp_path / "run"
    assert main(["synthesize", "--out", str(data), "--count", "4", "--seed", "5",
                 "--set", "data.image_size=16"]) == 0

    tracer = Tracer(modules)
    tracer.install()
    try:
        tracer.phase = "train"
        assert main(["train", "--data", str(data), "--out", str(run), *TINY]) == 0
        tracer.phase = "eval"
        assert main(["eval", "--ckpt", str(run / "ckpt_epoch0001.bin"), "--data", str(data),
                     "--out", str(tmp_path / "eval")]) == 0
    finally:
        tracer.uninstall()

    conv = [span for span in tracer.spans
            if span[NAME] in ("autodiff.conv2d", "autodiff.conv2d.bwd")]
    assert {(span[NAME], span[PHASE]) for span in conv} == {
        ("autodiff.conv2d", "train"), ("autodiff.conv2d.bwd", "train"),
        ("autodiff.conv2d", "eval"),
    }
    assert {span[SCOPE] for span in conv} <= set(CONV_SCOPES)
    # backward pops every record of the traced Graph subclass and runs its closure
    train_names = [span[NAME] for span in conv if span[PHASE] == "train"]
    assert train_names.count("autodiff.conv2d.bwd") == train_names.count("autodiff.conv2d")

    # one operation per train step (4 images, batch 2) and per eval image;
    # each runs one forward
    for phase, op, ops in (("train", "step", 2), ("eval", "image", 4)):
        metrics, samples = layer_metrics(tracer, phase, op)
        assert samples["ops"] == ops, phase
        assert metrics["autodiff.conv2d.calls"] == CONVS_PER_FORWARD, phase

    for name, module in modules.items():
        after = vars(module)
        assert after.keys() == before[name].keys()
        assert all(after[attr] is value for attr, value in before[name].items()), name
