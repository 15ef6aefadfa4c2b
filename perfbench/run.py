"""Benchmark entry point: one workload, one seed, one process.

    python3 perfbench/run.py --workload train_desk --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. With ``--trace 0`` the run prints the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
A report for people (environment, units, sample counts) comes before it,
and the full result, spans included, is written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import resource
import shutil
import statistics
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

from checks import failed_ops, load_reference
from environment import describe_environment
from tracing import Tracer, call_means, layer_metrics
from workloads import WORKLOADS, make_workload

MODULES = ("cli", "checkpoint", "composer", "degrade", "metrics", "networks", "ppm",
           "runconfig", "trainer")
# Set-up runs this many times; setup_s is the median, so one slow set-up
# (a neighbour's burst, a cold page cache) does not move it.
SETUP_REPS = 3


class Run:
    """Times calls of one workload and checks every output they write."""

    def __init__(self, workload, reference, work: Path):
        self.workload = workload
        self.reference = reference
        self.work = work
        self.calls = 0
        self.attempted = 0
        self.failed = 0
        self.baseline = None

    def attempt(self):
        """One timed call: (seconds, outcome or None if it raised)."""
        self.calls += 1
        out = self.work / f"call{self.calls}"
        start = perf_counter()
        try:
            outcome = self.workload.call(out)
        except Exception as exc:  # counted as failed operations, the run goes on
            print(f"call {self.calls} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            outcome = None
        seconds = perf_counter() - start
        shutil.rmtree(out, ignore_errors=True)
        if self.baseline is None and outcome is not None:
            self.baseline = outcome
        self.attempted += self.workload.ops_per_call
        self.failed += failed_ops(self.workload, outcome, self.baseline, self.reference)
        return seconds, outcome

    def window(self, seconds: float) -> list[float]:
        """Calls back to back until `seconds` have passed; samples/s of each call."""
        rates = []
        deadline = perf_counter() + seconds
        while not rates or perf_counter() < deadline:
            elapsed, outcome = self.attempt()
            if outcome is not None:
                rates.append(outcome.samples / elapsed)
            elif perf_counter() >= deadline:
                break
        return rates


def digest(outcome) -> str:
    blob = "\n".join(outcome.rows).encode("ascii") + b"\0" + outcome.whole
    return hashlib.sha256(blob).hexdigest()


def window_rate(rates: list[float]) -> float:
    """Samples per second over a window's calls. Every call does the same
    work, so this is the harmonic mean of their rates. A median would take
    the rate of whichever speed the shared machine ran at for most of the
    window; this weighs each part of the window by its length."""
    return statistics.harmonic_mean(rates) if rates else 0.0


def measure(args, root: Path) -> dict:
    start = perf_counter()
    modules = {name: importlib.import_module(f"taylor_restore.{name}") for name in MODULES}
    import_s = perf_counter() - start

    workload = make_workload(args.workload, args.seed, modules)
    work = root / ".perfbench" / "work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    run = Run(workload, load_reference(args.workload, args.seed), work)
    tracer = Tracer(modules) if args.trace else None
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "samples": {}}
    try:
        if tracer:
            tracer.install()
        setup_times = []
        for rep in range(SETUP_REPS):
            rep_start = perf_counter()
            workload.setup(work / f"setup{rep}")
            run.attempt()  # warm-up: first-touch page faults, BLAS thread start
            setup_times.append(perf_counter() - rep_start)
        result["samples"]["setup_reps_s"] = setup_times
        result["samples"]["import_s"] = import_s

        if not tracer:
            rates = run.window(args.seconds)
            metrics = {
                "setup_s": import_s + statistics.median(setup_times),
                "samples_per_s": window_rate(rates),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            result["samples"]["samples_per_s"] = rates
        else:
            tracer.uninstall()
            untraced = run.window(args.seconds / 2)
            tracer.phase = "traced"
            tracer.install()
            traced = run.window(args.seconds / 2)
            tracer.uninstall()
            metrics, samples = workload_layers(run, tracer, untraced, traced)
            result["samples"].update(samples)
            tracer.write(root / ".perfbench" / "results" / f"{stem(args)}-spans.tsv")
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    units = listed_units(root, args.trace)
    if set(units) != set(metrics):
        raise RuntimeError(f"measured metrics {sorted(set(metrics) ^ set(units))} "
                           "are not the ones BENCHMARK.json lists, or the reverse")
    result.update(
        correct=run.failed == 0 and run.baseline is not None,
        attempted=run.attempted,
        failed=run.failed,
        metrics={name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    )
    if run.baseline is not None:
        result["output_sha256"] = digest(run.baseline)
        result["observed"] = run.baseline.values
    return result


def workload_layers(run, tracer, untraced, traced):
    """Per-layer metrics of a traced run, and their sample counts."""
    workload = run.workload
    metrics, samples = layer_metrics(tracer, "traced", workload.op)
    metrics.update(call_means(tracer))
    # one more call, untimed, for the peak of what numpy and Python allocate
    tracer.phase = "tracemalloc"
    tracemalloc.start()
    _, outcome = run.attempt()
    metrics["autodiff.graph.peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
    tracemalloc.stop()
    metrics["checkpoint.bytes"] = (workload.checkpoint_bytes(outcome, run.work / "ckpt.bin")
                                   if outcome else 0)
    base = window_rate(untraced)
    with_trace = window_rate(traced)
    metrics["trace.samples_per_s_untraced"] = base
    metrics["trace.samples_per_s_traced"] = with_trace
    metrics["trace.overhead_pct"] = (base / with_trace - 1.0) * 100.0 if with_trace else 0.0
    samples.update(untraced_calls=len(untraced), traced_calls=len(traced))
    return metrics, samples


def listed_units(root: Path, trace: int) -> dict[str, str]:
    """Name and unit of every metric BENCHMARK.json lists for this kind of run."""
    bench = json.loads((root / "BENCHMARK.json").read_text(encoding="ascii"))
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def stem(args) -> str:
    return f"{args.workload}-seed{args.seed}-trace{args.trace}"


def report(result: dict, env: dict) -> None:
    print(f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}")
    print("environment " + json.dumps(env, sort_keys=True))
    samples = result["samples"]
    calls = len(samples.get("samples_per_s", []))
    counts = {"setup_s": len(samples.get("setup_reps_s", [])), "samples_per_s": calls}
    for name, metric in result["metrics"].items():
        n = counts.get(name, samples.get("ops", 1))
        print(f"  {name:<44} {metric['value']:>16.6g} {metric['unit']:<8} n={n}")
    if "modules_self_ms" in samples:
        print("  self time per operation by module: " + ", ".join(
            f"{module} {ms:.3f} ms" for module, ms in sorted(samples["modules_self_ms"].items())))
        print(f"  tape records per operation repeat within the run: "
              f"{samples['per_op_counts_repeat']}")
    ratio = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"  fail_ratio {result['failed']}/{result['attempted']} = {ratio:g}"
          f"  output sha256 {result.get('output_sha256', '-')[:16]}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "taylor_restore" / "__init__.py").is_file():
        print(f"perfbench: no program source at {root / 'src' / 'taylor_restore'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    (root / ".perfbench" / "results").mkdir(parents=True, exist_ok=True)

    with contextlib.redirect_stdout(sys.stderr):  # the program's own chatter
        result = measure(args, root)
    env = describe_environment(args.seed)
    result["environment"] = env
    (root / ".perfbench" / "results" / f"{stem(args)}.json").write_text(
        json.dumps(result, indent=1) + "\n", encoding="ascii")
    report(result, env)
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
