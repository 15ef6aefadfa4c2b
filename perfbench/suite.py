"""Run every workload of BENCHMARK.json, one process each, and report.

    python3 perfbench/suite.py                      # each workload once, seed 0
    python3 perfbench/suite.py --seeds 0-9          # ten seeds: medians and spreads
    python3 perfbench/suite.py --seeds 0-2 --trace both

For each workload it prints every end-to-end metric by name, with unit and
sample count, and the failed/attempted operations. Over several seeds it
prints each metric's median and quartile spread (q3 - q1) / median against
the bound in BENCHMARK.json. With traced runs it checks that the exact counts
repeat across runs and that traced and untraced runs at one seed wrote the
same bytes. ``--record-reference`` stores the checked outputs of the untraced
runs in reference.json, keyed by workload and seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXACT_COUNTS = ("autodiff.graph.records", "autodiff.conv2d.calls", "autodiff.conv2d.gflop",
                "autodiff.conv2d.im2col_mb", "checkpoint.bytes")


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",")]


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0 or not done.stdout.strip():
        raise SystemExit(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr[-2000:]}")
    line = json.loads(done.stdout.strip().splitlines()[-1])
    stem = f"{workload}-seed{seed}-trace{trace}"
    full = json.loads((ROOT / ".perfbench" / "results" / f"{stem}.json").read_text())
    full["last_line"] = line
    return full


def spread(values: list[float]) -> tuple[float, float, float]:
    """(median, q1, q3) as statistics.quantiles gives them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--workloads", help="comma-separated; default: BENCHMARK.json's")
    parser.add_argument("--trace", choices=("0", "1", "both"), default="0")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    traces = {"0": [0], "1": [1], "both": [0, 1]}[args.trace]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    results: dict[tuple[str, int], list[dict]] = {}
    for seed in parse_seeds(args.seeds):
        for name in names:
            for trace in traces:
                result = run_one(name, seed, seconds, trace)
                results.setdefault((name, trace), []).append(result)
                line = result["last_line"]
                print(f"{name:<12} seed {seed:<4} trace {trace}  "
                      f"failed {line['failed']}/{line['attempted']}  " + "  ".join(
                          f"{k}={m['value']:.6g}{m['unit']}" for k, m in line["metrics"].items()
                          if trace == 0), flush=True)

    ok = True
    for name in names:
        untraced = results.get((name, 0), [])
        if untraced:
            env = untraced[0]["environment"]
            print(f"\n{name}: {len(untraced)} runs, python {env['python']}, numpy {env['numpy']}, "
                  f"{env['blas']} {env['blas_version']} x{env['blas_threads']} threads, "
                  f"nproc {env['nproc']}")
            attempted = sum(r["attempted"] for r in untraced)
            failed = sum(r["failed"] for r in untraced)
            print(f"  fail_ratio {failed}/{attempted} operations")
            ok &= failed == 0
        for metric in untraced[0]["metrics"] if untraced else []:
            values = [r["metrics"][metric]["value"] for r in untraced]
            unit = untraced[0]["metrics"][metric]["unit"]
            if len(values) < 2:
                samples = untraced[0]["samples"].get(
                    {"setup_s": "setup_reps_s", "samples_per_s": "samples_per_s"}.get(metric), [])
                print(f"  {metric:<14} {values[0]:>12.6g} {unit:<5} "
                      f"(n={len(samples) or 1} in the run)")
                continue
            median, q1, q3 = spread(values)
            share = (q3 - q1) / median
            bound = bounds.get(metric)
            verdict = "" if bound is None else (
                "ok" if share < bound / 3 else "within bound" if share <= bound else "TOO WIDE")
            if bound is not None:
                ok &= share <= bound
            print(f"  {metric:<14} median {median:>12.6g} {unit:<5} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {share:.4f} bound {bound}  {verdict}")
        traced = results.get((name, 1), [])
        if traced:
            for count in EXACT_COUNTS:
                seen = {r["metrics"][count]["value"] for r in traced if count in r["metrics"]}
                print(f"  {count:<28} {sorted(seen)}  "
                      f"{'repeats' if len(seen) <= 1 else 'DIFFERS'}")
                ok &= len(seen) <= 1
            by_seed = {r["seed"]: r.get("output_sha256") for r in untraced}
            for r in traced:
                if r["seed"] in by_seed:
                    same = by_seed[r["seed"]] == r.get("output_sha256")
                    print(f"  seed {r['seed']}: traced outputs "
                          f"{'identical to' if same else 'DIFFER from'} untraced")
                    ok &= same
                over = r["metrics"]["trace.overhead_pct"]["value"]
                print(f"  seed {r['seed']}: tracing overhead {over:.2f}% of samples/s")

    if args.record_reference:
        path = HERE / "reference.json"
        reference = json.loads(path.read_text()) if path.is_file() else {}
        for (name, trace), runs in results.items():
            for r in runs:
                if trace == 0 and "observed" in r:
                    reference.setdefault(name, {})[str(r["seed"])] = r["observed"]
        path.write_text(json.dumps(reference, sort_keys=True) + "\n", encoding="ascii")
        print(f"\nrecorded references in {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
