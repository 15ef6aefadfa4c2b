"""Outside-in tracing: spans recorded by wrappers around the module
attributes the program calls through.

Nothing under ``src/`` knows about this file. ``Tracer.install`` swaps
functions such as ``networks.conv2d`` or ``trainer.adam_step`` for wrappers
that open a span around the original call, and installs a ``Graph`` subclass
as ``trainer.Graph`` whose ``record`` wraps each backward closure in a span.
``Tracer.uninstall`` puts every original back. The wrappers only read shapes
and the clock, so a traced call computes the same bytes as an untraced one.

A span is ``[name, start, end, parent, step, phase, scope, flop, bytes]``:
``parent`` is the index of the enclosing span (-1 at top level), ``step`` the
operation it belongs to (a train step or an eval image), ``phase`` the part
of the run it was recorded in; conv spans carry their layer scope and, as
integers so that per-step sums repeat exactly, the multiply-adds x 2 they
compute and the bytes of their im2col buffer. Spans stay in memory until the
run ends.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

NAME, START, END, PARENT, STEP, PHASE, SCOPE, FLOP, BYTES = range(9)

# Conv scopes reported one by one: the paper-default mapping net has three
# residual blocks and both presets unroll the derivative net three times.
CONV_SCOPES = (
    ["mapping.conv_in"]
    + [f"mapping.block{b}.conv{c}" for b in range(3) for c in (1, 2)]
    + ["mapping.conv_out"]
    + [f"derivative.conv{c}.k{k}" for k in (1, 2, 3) for c in (1, 2)]
)

# (module, attribute, span name): plain timing wrappers. A function imported
# by name into several modules is wrapped in each module that calls it.
TIMED = (
    ("trainer", "train", "trainer.train"),
    ("trainer", "load_corpus", "trainer.load_corpus"),
    ("trainer", "framework_loss_terms", "composer.loss"),
    ("trainer", "adam_step", "trainer.adam_step"),
    ("trainer", "backward", "autodiff.backward"),
    ("trainer", "save_checkpoint", "checkpoint.save"),
    ("trainer", "read_ppm", "ppm.read"),
    ("ppm", "read_ppm", "ppm.read"),
    ("degrade", "write_ppm", "ppm.write"),
    ("degrade", "generate_clean", "degrade.generate_clean"),
    ("cli", "generate_clean", "degrade.generate_clean"),
    ("degrade", "synthesize_sample", "degrade.synth"),
    ("checkpoint", "load_checkpoint", "checkpoint.load"),
    ("composer", "assemble_output", "composer.assemble"),
    ("metrics", "evaluate", "metrics.evaluate"),
    ("metrics", "psnr", "metrics.psnr"),
    ("cli", "main", "cli.main"),
)


class Tracer:
    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[list] = []
        self.records: dict[tuple[str, int], int] = {}  # (phase, step) -> tape records
        self.phase = "setup"
        self.step = 0
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._conv: tuple[str, int] = ("", 0)
        self._layer_names: dict[int, str] = {}
        self._unroll = 0

    @contextmanager
    def span(self, name: str, scope: str = "", flop: int = 0, nbytes: int = 0):
        record = [name, perf_counter(), 0.0, self._open[-1] if self._open else -1,
                  self.step, self.phase, scope, flop, nbytes]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            self._open.pop()
            record[END] = perf_counter()

    # -- installing the wrappers ------------------------------------------

    def _patch(self, module_name: str, attr: str, make) -> None:
        module = self.modules[module_name]
        original = getattr(module, attr)
        self._patches.append((module, attr, original))
        setattr(module, attr, make(original))

    def _timed(self, name: str):
        def make(original):
            def wrapper(*args, **kwargs):
                with self.span(name):
                    return original(*args, **kwargs)
            return wrapper
        return make

    def install(self) -> None:
        for module_name, attr, name in TIMED:
            self._patch(module_name, attr, self._timed(name))
        self._patch("trainer", "sample_patch_batch", self._wrap_sample)
        self._patch("metrics", "ssim", self._wrap_ssim)
        self._patch("networks", "conv2d", self._wrap_conv)
        for module_name in ("trainer", "checkpoint"):
            self._patch(module_name, "forward_mapping", self._wrap_mapping)
            self._patch(module_name, "forward_derivative", self._wrap_derivative)
        for module_name in ("trainer", "composer"):
            self._patch(module_name, "compose_orders", self._wrap_compose)
        self._patch("trainer", "Graph", self._graph_class)

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def _wrap_sample(self, original):
        def wrapper(*args, **kwargs):
            self.step += 1  # a train step starts by drawing its batch
            with self.span("trainer.sample_patch_batch"):
                return original(*args, **kwargs)
        return wrapper

    def _wrap_ssim(self, original):
        def wrapper(*args, **kwargs):
            with self.span("metrics.ssim"):
                result = original(*args, **kwargs)
            self.step += 1  # ssim is the last call evaluate makes per image
            return result
        return wrapper

    def _wrap_mapping(self, original):
        def wrapper(params, spec, y):
            self._name_layers(params, "")
            with self.span("networks.mapping.fwd"):
                return original(params, spec, y)
        return wrapper

    def _wrap_derivative(self, original):
        def wrapper(params, spec, g_k, y):
            self._unroll += 1
            self._name_layers(params, f".k{self._unroll}")
            with self.span("networks.derivative.fwd"):
                return original(params, spec, g_k, y)
        return wrapper

    def _wrap_compose(self, original):
        def wrapper(*args, **kwargs):
            self._unroll = 0
            with self.span("composer.compose_orders"):
                return original(*args, **kwargs)
        return wrapper

    def _name_layers(self, params, suffix: str) -> None:
        self._layer_names = {
            id(tensor): name[: -len(".weight")] + (suffix if name.startswith("derivative.") else "")
            for name, tensor in params.items() if name.endswith(".weight")
        }

    def _wrap_conv(self, original):
        def wrapper(x, weight, bias, pad=0, stride=1):
            n, cin, h, w = x.shape
            cout, _, kh, kw = weight.shape
            h_out = (h + 2 * pad - kh) // stride + 1
            w_out = (w + 2 * pad - kw) // stride + 1
            taps = n * h_out * w_out * cin * kh * kw
            scope = self._layer_names.get(id(weight), "unscoped")
            self._conv = (scope, 2 * taps * cout)
            # im2col buffer: one float64 row of cin*kh*kw taps per output pixel
            with self.span("autodiff.conv2d", scope, self._conv[1], taps * 8):
                return original(x, weight, bias, pad, stride)
        return wrapper

    def _graph_class(self, base):
        tracer = self

        class TracedGraph(base):
            """Times every backward closure; credits conv closures to their layer."""

            def record(self, name, output, backward_fn):
                key = (tracer.phase, tracer.step)
                tracer.records[key] = tracer.records.get(key, 0) + 1
                if name == "conv2d":
                    scope, fwd_flop = tracer._conv

                    def timed(g):
                        # dW and dX are two GEMMs of the forward's size
                        with tracer.span("autodiff.conv2d.bwd", scope, 2 * fwd_flop):
                            backward_fn(g)
                    super().record(name, output, timed)
                else:
                    super().record(name, output, backward_fn)

        return TracedGraph

    # -- output -------------------------------------------------------------

    def write(self, path: Path) -> None:
        lines = ["name\tstart\tend\tparent\tstep\tphase\tscope\tflop\tbytes"]
        lines += ["\t".join(repr(v) if isinstance(v, float) else str(v) for v in span)
                  for span in self.spans]
        path.write_text("\n".join(lines) + "\n", encoding="ascii")


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def _quantile(values: list[float], q: int) -> float:
    """q-th percentile; statistics.quantiles needs two values at least."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def layer_metrics(tracer: Tracer, phase: str, op: str) -> tuple[dict, dict]:
    """Per-layer metrics of one phase, normalised per operation.

    op is "step" (a train step runs from drawing its batch to the Adam update)
    or "image" (an eval image runs from reading its files to its SSIM).
    Returns (metrics, sample counts).
    """
    spans = [span for span in tracer.spans if span[PHASE] == phase]
    first, last = {
        "step": ("trainer.sample_patch_batch", "trainer.adam_step"),
        "image": ("ppm.read", "metrics.ssim"),
    }[op]
    starts: dict[int, float] = {}
    op_ms = []
    for span in spans:
        if span[NAME] == first:
            starts.setdefault(span[STEP], span[START])
        elif span[NAME] == last and span[STEP] in starts:
            op_ms.append(_ms(span[END] - starts[span[STEP]]))
    ops = max(len(op_ms), 1)

    total: dict[str, float] = {}
    conv_calls = conv_flop = im2col_bytes = 0
    conv_s = 0.0
    for span in spans:
        seconds = span[END] - span[START]
        total[span[NAME]] = total.get(span[NAME], 0.0) + seconds
        if span[NAME] in ("autodiff.conv2d", "autodiff.conv2d.bwd"):
            suffix = ".fwd" if span[NAME] == "autodiff.conv2d" else ".bwd"
            key = f"networks.{span[SCOPE]}{suffix}"
            total[key] = total.get(key, 0.0) + seconds
            conv_flop += span[FLOP]
            conv_s += seconds
        if span[NAME] == "autodiff.conv2d":
            conv_calls += 1
            im2col_bytes += span[BYTES]

    def per_op_ms(name: str) -> float:
        return _ms(total.get(name, 0.0)) / ops

    # which module spends the time: self time of each span, per operation
    modules: dict[str, float] = {}
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        if span[PHASE] == phase:
            module = span[NAME].split(".")[0]
            modules[module] = modules.get(module, 0.0) + _ms(own) / ops

    records = [count for (rec_phase, _), count in tracer.records.items() if rec_phase == phase]
    metrics = {
        "autodiff.conv2d.fwd_ms": per_op_ms("autodiff.conv2d"),
        "autodiff.conv2d.bwd_ms": per_op_ms("autodiff.conv2d.bwd"),
        "autodiff.conv2d.gflop_per_s": conv_flop / conv_s / 1e9 if conv_s else 0.0,
        "autodiff.conv2d.calls": conv_calls / ops,
        "autodiff.conv2d.gflop": conv_flop / ops / 1e9,
        "autodiff.conv2d.im2col_mb": im2col_bytes / ops / 1e6,
        "autodiff.backward.ms": per_op_ms("autodiff.backward"),
        "autodiff.backward.non_conv_ms":
            per_op_ms("autodiff.backward") - per_op_ms("autodiff.conv2d.bwd"),
        "autodiff.graph.records": sum(records) / ops,
        "networks.mapping.fwd_ms": per_op_ms("networks.mapping.fwd"),
        "networks.derivative.fwd_ms": per_op_ms("networks.derivative.fwd"),
        "composer.assemble_ms": per_op_ms("composer.assemble"),
        "composer.loss_ms": per_op_ms("composer.loss"),
        "trainer.sample_patch_batch_ms": per_op_ms("trainer.sample_patch_batch"),
        "trainer.adam_step_ms": per_op_ms("trainer.adam_step"),
        "metrics.ssim_ms": per_op_ms("metrics.ssim"),
        "metrics.psnr_ms": per_op_ms("metrics.psnr"),
        "metrics.infer_ms": per_op_ms("composer.compose_orders") if op == "image" else 0.0,
    }
    for scope in CONV_SCOPES:
        metrics[f"networks.{scope}.fwd_ms"] = per_op_ms(f"networks.{scope}.fwd")
        metrics[f"networks.{scope}.bwd_ms"] = per_op_ms(f"networks.{scope}.bwd")
    dist = "trainer.step_ms" if op == "step" else "metrics.image_ms"
    other = "metrics.image_ms" if op == "step" else "trainer.step_ms"
    metrics[f"{dist}.p50"] = _quantile(op_ms, 50)
    metrics[f"{dist}.p90"] = _quantile(op_ms, 90)
    metrics[f"{other}.p50"] = metrics[f"{other}.p90"] = 0.0
    samples = {"ops": len(op_ms), "modules_self_ms": modules,
               "per_op_counts_repeat": len(set(records)) <= 1}
    return metrics, samples


def call_means(tracer: Tracer) -> dict[str, float]:
    """Mean time per call over the whole traced run, set-up included."""
    by_name: dict[str, list[float]] = {}
    for span in tracer.spans:
        by_name.setdefault(span[NAME], []).append(span[END] - span[START])

    def mean_ms(name: str) -> float:
        values = by_name.get(name, [])
        return _ms(sum(values) / len(values)) if values else 0.0

    return {
        "checkpoint.save_ms": mean_ms("checkpoint.save"),
        "checkpoint.load_ms": mean_ms("checkpoint.load"),
        "degrade.generate_clean_ms": mean_ms("degrade.generate_clean"),
        "degrade.synth_ms": mean_ms("degrade.synth"),
        "ppm.write_ms": mean_ms("ppm.write"),
        "ppm.read_ms": mean_ms("ppm.read"),
        "trainer.load_corpus_s": mean_ms("trainer.load_corpus") / 1000.0,
    }
