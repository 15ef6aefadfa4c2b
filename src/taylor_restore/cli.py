"""Command-line interface.

Subcommands: synthesize, train, eval, gradcheck, sweep-order. Shared flags:
--config PATH (key = value file), --seed U64 (overrides data.seed and
train.seed), --out DIR, --set KEY=VALUE (repeatable, overrides any config
key). The resolved configuration is echoed to <out>/config.echo.

Exit codes: 0 success, 2 configuration error, 3 I/O or file-format error,
4 training aborted on non-finite loss, 5 gradient check failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import sys
from pathlib import Path

from .checkpoint import load_checkpoint
from .degrade import corpus_clean_seed, generate_clean, make_corpus
from .errors import ConfigError, DivergenceError, FormatError
from .metrics import evaluate, format_metric
from .runconfig import (
    composer_config_from,
    degradation_spec_from,
    derivative_spec_from,
    effective_config,
    mapping_spec_from,
    parse_config_text,
    train_config_from,
    write_echo,
)
from .trainer import train
from .verification import run_gradcheck

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_DIVERGED = 4
EXIT_GRADCHECK = 5


def _parse_u64_arg(text: str) -> int:
    value = int(text, 10)
    if not (0 <= value < 2**64):
        raise argparse.ArgumentTypeError(f"seed {value} outside [0, 2**64)")
    return value


def _parse_set_arg(text: str) -> tuple[str, str]:
    if "=" not in text:
        raise argparse.ArgumentTypeError(f"expected KEY=VALUE, got {text!r}")
    key, _, value = text.partition("=")
    return key.strip(), value.strip()


def _parse_orders_arg(text: str) -> list[int]:
    text = text.strip()
    try:
        if ".." in text:
            lo_text, _, hi_text = text.partition("..")
            lo, hi = int(lo_text), int(hi_text)
            if hi < lo:
                raise ValueError("empty range")
            return list(range(lo, hi + 1))
        return [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad orders {text!r}: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taylor-restore",
        description="Train and evaluate series-composed restoration models "
                    "on synthetic degradations.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, metavar="PATH",
                        help="key = value config file")
    common.add_argument("--seed", type=_parse_u64_arg, metavar="U64",
                        help="overrides data.seed and train.seed")
    common.add_argument("--out", type=Path, metavar="DIR", help="output directory")
    common.add_argument("--set", dest="overrides", action="append", default=[],
                        type=_parse_set_arg, metavar="KEY=VALUE",
                        help="override any config key (repeatable)")

    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synthesize", parents=[common],
                             help="write a degraded corpus (PPM pairs + manifest)")
    p_synth.add_argument("--kind", choices=("rain", "blur"), help="degradation family")
    p_synth.add_argument("--count", type=int, help="number of samples")

    p_train = sub.add_parser("train", parents=[common],
                             help="train a model; writes loss.tsv and checkpoints")
    p_train.add_argument("--data", type=Path, metavar="DIR", help="corpus directory")
    p_train.add_argument("--resume", type=Path, metavar="CKPT",
                         help="checkpoint to resume from")

    p_eval = sub.add_parser("eval", parents=[common],
                            help="evaluate a checkpoint; writes metrics.tsv")
    p_eval.add_argument("--ckpt", type=Path, metavar="CKPT", help="checkpoint file")
    p_eval.add_argument("--data", type=Path, metavar="DIR", help="corpus directory")

    sub.add_parser("gradcheck", parents=[common],
                   help="finite-difference check of all gradients on a tiny model")

    p_sweep = sub.add_parser("sweep-order", parents=[common],
                             help="train/eval one model per order; writes sweep.tsv")
    p_sweep.add_argument("orders", type=_parse_orders_arg,
                         help="orders to sweep, e.g. 0..4 or 0,2,3")
    p_sweep.add_argument("--data", type=Path, metavar="DIR", help="corpus directory")
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="concurrent order runs (default 1)")
    return parser


def _load_config(args: argparse.Namespace) -> dict[str, object]:
    file_values = None
    if args.config is not None:
        try:
            text = args.config.read_text(encoding="utf-8")
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {args.config}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file is not UTF-8: {args.config} ({exc})") from exc
        file_values = parse_config_text(text, origin=str(args.config))
    overrides = list(args.overrides)
    if args.seed is not None:
        overrides.append(("data.seed", str(args.seed)))
        overrides.append(("train.seed", str(args.seed)))
    if getattr(args, "kind", None):
        overrides.append(("data.kind", args.kind))
    if getattr(args, "count", None) is not None:
        overrides.append(("data.count", str(args.count)))
    if getattr(args, "data", None) is not None:
        overrides.append(("paths.data", str(args.data)))
    if getattr(args, "ckpt", None) is not None:
        overrides.append(("paths.ckpt", str(args.ckpt)))
    if getattr(args, "resume", None) is not None:
        overrides.append(("paths.resume", str(args.resume)))
    return effective_config(file_values, overrides)


def _require_out(args: argparse.Namespace) -> Path:
    if args.out is None:
        raise ConfigError(f"{args.command} requires --out DIR")
    return args.out


def _require_path(cfg: dict[str, object], key: str, flag: str) -> Path:
    value = cfg[key]
    if not value:
        raise ConfigError(f"missing {key} (set it in the config or pass {flag})")
    return Path(value)


def _shown(path: Path) -> str:
    """A path as text that any UTF-8 stream takes: a byte that is not UTF-8 (a surrogate escape)
    prints as its escape, e.g. \\udcff."""
    return str(path).encode("utf-8", "backslashreplace").decode("utf-8")


def cmd_synthesize(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    out_dir = _require_out(args)
    count = cfg["data.count"]
    if count < 1:
        raise ConfigError(f"data.count must be >= 1, got {count}")
    size = cfg["data.image_size"]
    if size < 1:
        raise ConfigError(f"data.image_size must be >= 1, got {size}")
    spec = degradation_spec_from(cfg)
    write_echo(cfg, out_dir)
    cleans = [
        generate_clean(size, size, corpus_clean_seed(spec.seed, index))
        for index in range(count)
    ]
    make_corpus(cleans, spec, count, out_dir)
    print(f"synthesized {count} samples (kind={spec.kind}, seed={spec.seed}) -> {_shown(out_dir)}")
    return EXIT_OK


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    out_dir = _require_out(args)
    data_dir = _require_path(cfg, "paths.data", "--data")
    resume = cfg["paths.resume"] or None
    write_echo(cfg, out_dir)
    final = train(
        data_dir,
        mapping_spec_from(cfg),
        derivative_spec_from(cfg),
        composer_config_from(cfg),
        train_config_from(cfg),
        out_dir,
        resume_from=resume,
    )
    print(f"trained {cfg['train.epochs']} epochs -> {_shown(final)}")
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    out_dir = _require_out(args)
    ckpt_path = _require_path(cfg, "paths.ckpt", "--ckpt")
    data_dir = _require_path(cfg, "paths.data", "--data")
    write_echo(cfg, out_dir)
    report = evaluate(load_checkpoint(ckpt_path), data_dir)
    report.write_tsv(out_dir / "metrics.tsv")
    print(
        f"evaluated {report.image_count} images: mean psnr "
        f"{format_metric(report.mean_psnr)}, mean ssim {format_metric(report.mean_ssim)}"
    )
    return EXIT_OK


def cmd_gradcheck(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    if args.out is not None:
        write_echo(cfg, args.out)
    seed = args.seed if args.seed is not None else 7
    lines, ok = run_gradcheck(seed)
    for line in lines:
        print(line)
    return EXIT_OK if ok else EXIT_GRADCHECK


def _run_one_order(cfg: dict[str, object], order: int,
                   data_dir: str, out_dir: str) -> tuple[int, float, float]:
    """Train + evaluate one order; importable so process pools can run it."""
    cfg = {**cfg, "composer.order": order}
    run_dir = Path(out_dir) / f"order_{order}"
    run_dir.mkdir(parents=True, exist_ok=True)
    write_echo(cfg, run_dir)
    final = train(
        Path(data_dir),
        mapping_spec_from(cfg),
        derivative_spec_from(cfg),
        composer_config_from(cfg),
        train_config_from(cfg),
        run_dir,
    )
    report = evaluate(load_checkpoint(final), Path(data_dir))
    report.write_tsv(run_dir / "metrics.tsv")
    return order, report.mean_psnr, report.mean_ssim


def cmd_sweep_order(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    out_dir = _require_out(args)
    data_dir = _require_path(cfg, "paths.data", "--data")
    orders = args.orders
    if not orders:
        raise ConfigError("sweep-order needs at least one order")
    # a process pool starts all of its workers at the first submit, so never more than orders
    jobs = max(1, min(args.jobs, len(orders)))
    write_echo(cfg, out_dir)

    results: dict[int, tuple[float, float]] = {}
    failures: dict[int, str] = {}
    if jobs == 1:
        for order in orders:
            try:
                _, mean_psnr, mean_ssim = _run_one_order(
                    cfg, order, str(data_dir), str(out_dir)
                )
                results[order] = (mean_psnr, mean_ssim)
            except Exception as exc:  # mark and continue with other orders
                failures[order] = str(exc)
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = {
                pool.submit(_run_one_order, cfg, order, str(data_dir), str(out_dir)): order
                for order in orders
            }
            for future in concurrent.futures.as_completed(futures):
                order = futures[future]
                try:
                    _, mean_psnr, mean_ssim = future.result()
                    results[order] = (mean_psnr, mean_ssim)
                except Exception as exc:
                    failures[order] = str(exc)

    lines = ["order\tpsnr\tssim"]
    for order in orders:
        if order in results:
            mean_psnr, mean_ssim = results[order]
            lines.append(f"{order}\t{format_metric(mean_psnr)}\t{format_metric(mean_ssim)}")
        else:
            lines.append(f"{order}\tFAILED\tFAILED")
    (out_dir / "sweep.tsv").write_text("\n".join(lines) + "\n", encoding="ascii")
    for order in orders:
        if order in failures:
            print(f"order {order} FAILED: {failures[order]}", file=sys.stderr)
        else:
            mean_psnr, mean_ssim = results[order]
            print(f"order {order}: psnr {format_metric(mean_psnr)} ssim {format_metric(mean_ssim)}")
    return EXIT_OK if not failures else 1


COMMANDS = {
    "synthesize": cmd_synthesize,
    "train": cmd_train,
    "eval": cmd_eval,
    "gradcheck": cmd_gradcheck,
    "sweep-order": cmd_sweep_order,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_CONFIG
    try:
        return COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FormatError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except DivergenceError as exc:
        print(f"diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
