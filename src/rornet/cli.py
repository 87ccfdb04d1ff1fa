"""Command-line driver: build / analyze / train / eval / plot.

Heavy imports happen inside the command handlers so that ``--threads`` can
pin the BLAS thread count through the environment before numpy loads.

Exit codes: 0 success, 2 configuration error, 3 I/O error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from xml.sax.saxutils import escape

from . import __version__
from .exceptions import CheckpointError, ConfigError, DataError, NumericError


def _bool(value: str) -> bool:
    if value.lower() not in ("true", "false"):
        raise ValueError(f"expected true or false, got {value!r}")
    return value.lower() == "true"


_TRAIN_FILE_KEYS = {
    "base_lr": float, "lr_factor": float, "momentum": float, "weight_decay": float,
    "batch_size": int, "max_epochs": int, "pad_crop": _bool, "hflip": _bool, "seed": int,
    "milestones": lambda v: tuple(int(m) for m in v.split(",") if m.strip()),
}
# rornet train's defaults where TrainConfig's (the paper's schedule) differ; hflip follows pad_crop
_TRAIN_DEFAULTS = {"milestones": (), "max_epochs": 30, "pad_crop": False}


def _split_config_file(path):
    """A config file may mix architecture and training keys; split them.

    Training-key lines are blanked, not dropped, so the architecture text
    keeps the file's line numbers for error messages.
    """
    lines, train_kwargs = Path(path).read_text().splitlines(), {}
    for lineno, raw in enumerate(lines, start=1):
        key, _, value = (part.strip() for part in raw.partition("="))
        if key in _TRAIN_FILE_KEYS:
            try:
                train_kwargs[key] = _TRAIN_FILE_KEYS[key](value)
            except ValueError as e:
                raise ConfigError(f"config line {lineno}: {e}") from None
            lines[lineno - 1] = ""
    return "\n".join(lines) + "\n", train_kwargs


def _add_arch_flags(p: argparse.ArgumentParser) -> None:
    # each flag but --wrn and --config keeps its value under the ArchConfig field it sets
    p.add_argument("--config", help="flat key=value config file (architecture and training keys)")
    p.add_argument("--family", choices=["cifar", "imagenet"])
    p.add_argument("--depth", type=int, help="layer count (6n+2; 6n+4 for wide variants)")
    p.add_argument("--blocks", dest="blocks_per_group", help="comma-separated blocks per group, e.g. 2,2,2")
    p.add_argument("--wrn", type=int, metavar="DEPTH",
                   help="wide variant named WRN-DEPTH-k; implies pre-activation order")
    p.add_argument("--width", dest="width_k", type=int, help="width multiplier k")
    p.add_argument("--levels", dest="levels_m", type=int, help="number of shortcut levels m")
    p.add_argument("--order", dest="block_order", choices=["post_act", "pre_act"])
    p.add_argument("--block-size", choices=["b33", "b333", "bottleneck"])
    p.add_argument("--final-type", dest="final_shortcut", choices=["A", "B"], help="final-level shortcut type")
    p.add_argument("--upper-type", dest="upper_shortcut", choices=["A", "B"], help="root/middle shortcut type")
    p.add_argument("--classes", dest="num_classes", type=int, help="number of output classes")
    p.add_argument("--sd-pl", dest="sd_p_l", type=float, help="terminal survival probability for drop-path")
    p.add_argument("--seed", type=int, help="default 0")


def _arch_config(args):
    from .arch import _CONFIG_KEYS, ArchConfig, config_from_text, parse_config_value

    cfg = config_from_text(_split_config_file(args.config)[0]) if args.config else ArchConfig()
    if args.wrn is not None:
        cfg.depth, cfg.blocks_per_group, cfg.block_order = args.wrn, None, "pre_act"
        if args.width_k is None and cfg.width_k == 1:
            raise ConfigError("--wrn needs --width (the k multiplier)")
    for key in _CONFIG_KEYS:  # in field order, so --blocks overrides --depth
        value = getattr(args, key)
        if value in (None, ""):  # an empty flag value leaves the setting alone
            continue
        if key == "depth":
            cfg.blocks_per_group = None
        elif key == "blocks_per_group":
            try:  # the flag and the config-file key share one parser
                value = parse_config_value(key, value)
            except ValueError as e:
                raise ConfigError(f"--blocks: {e}") from None
            cfg.depth = None
        setattr(cfg, key, value)
    return cfg


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_build(args) -> int:
    from .analysis import count_params
    from .arch import build, resolve_config

    cfg = _arch_config(args)
    plan = resolve_config(cfg)
    seed = args.seed if args.seed is not None else 0
    graph = build(cfg, seed=seed)
    report = count_params(graph)

    per_level: dict[int, int] = {}
    for ls in plan.level_shortcuts:
        per_level[ls.level] = per_level.get(ls.level, 0) + 1
    print(f"family          {plan.family}")
    size = cfg.depth if cfg.depth is not None else f"groups {[g.blocks for g in plan.groups]}"
    print(f"size            {size}")
    print("blocks          " + ", ".join(
        f"group{i} {g.blocks}x{g.width}ch/stride{g.stride}" for i, g in enumerate(plan.groups, 1)))
    print(f"shortcut levels {cfg.levels_m}")
    print(f"root shortcuts  {per_level.get(1, 0)}")
    print(f"middle shortcuts {per_level.get(2, 0)}")
    for lvl in sorted(k for k in per_level if k > 2):
        print(f"level-{lvl} shortcuts {per_level[lvl]}")
    print(f"block order     {cfg.block_order}")
    print(f"parameters      {report.total:,} ({report.millions():.1f}M)")
    if args.dump_ir:
        Path(args.dump_ir).write_text(graph.to_jsonl())
        print(f"graph IR written to {args.dump_ir}")
    return 0


def cmd_analyze(args) -> int:
    from .analysis import count_params, count_paths, expected_saving_ratio
    from .arch import build, resolve_config
    from .stochastic_depth import survival_schedule

    cfg = _arch_config(args)
    want_all = not (args.params or args.paths or args.expected_depth)
    rows: list[tuple[str, str]] = []

    seed = args.seed if args.seed is not None else 0
    graph = build(cfg, seed=seed) if (args.params or args.paths or want_all) else None
    if args.params or want_all:
        report = count_params(graph)
        for scope, count in report.scopes:
            rows.append((f"params.{scope}", str(count)))
        rows.append(("params.total", str(report.total)))
        rows.append(("params.millions", f"{report.millions():.1f}"))
    if args.paths or want_all:
        stats = count_paths(graph)
        rows.append(("paths.total", str(stats.count)))
        for length, cnt in sorted(stats.length_histogram.items()):
            rows.append((f"paths.length{length}", str(cnt)))
    if args.expected_depth or want_all:
        plan = resolve_config(cfg)
        p_l = args.pL if args.pL is not None else (cfg.sd_p_l or 0.5)
        sched = survival_schedule(plan.num_blocks, p_l)
        rows.append(("expected_depth.blocks", str(plan.num_blocks)))
        rows.append(("expected_depth.active", f"{sched.expected_active:g}"))
        rows.append(("expected_depth.saving", f"{expected_saving_ratio(sched):.6f}"))

    if args.format == "csv":
        print("metric,value")
        for key, value in rows:
            print(f"{key},{value}")
    else:
        width = max(len(k) for k, _ in rows)
        for key, value in rows:
            print(f"{key:<{width}}  {value}")
    return 0


def _load_split(entry: dict, split: str):
    """One split ("train" or "test") of a manifest dataset entry."""
    from .data import load_cifar_split, synthetic_dataset

    if entry["kind"] == "synthetic":
        seed, classes, samples = entry["seed"], entry["classes"], entry["samples"]
        if split == "test":
            seed, samples = seed + 1, max(classes, samples // 5)
        return synthetic_dataset(seed, classes, samples, entry["difficulty"], split=split)
    if not entry.get("path"):
        raise DataError("no dataset: pass --synthetic or --data DIR")
    return load_cifar_split(entry["path"], entry["variant"], split)


def _read_manifest(path: Path) -> dict:
    """A run directory's manifest, checked for the blocks ``rornet eval`` reads."""
    if not path.exists():
        raise DataError(f"no manifest at {path}")
    try:
        manifest = json.loads(path.read_text())
    except ValueError as e:
        raise DataError(f"{path}: not valid JSON ({e})") from e
    for key in ("dataset", "normalization", "train"):
        if not isinstance(manifest, dict) or not isinstance(manifest.get(key), dict):
            raise DataError(f"{path}: missing or malformed {key!r} block")
    return manifest


def cmd_train(args) -> int:
    from dataclasses import asdict

    from .arch import build
    from .data import atomic_write
    from .tensor import worker_count
    from .train import TrainConfig, normalize_dataset, train

    cfg = _arch_config(args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.synthetic:
        entry = {"kind": "synthetic", "seed": args.data_seed, "samples": args.samples,
                 "classes": cfg.num_classes, "difficulty": args.difficulty}
    else:
        entry = {"kind": args.dataset, "path": args.data, "variant": args.dataset}
    train_set, test_set = _load_split(entry, "train"), _load_split(entry, "test")
    data_entry = {**entry, "digests": {"train": train_set.digest, "test": test_set.digest}}
    train_set, test_set, stats = normalize_dataset(train_set, test_set)

    # the defaults, then config-file keys, then flags (each flag's dest is its key)
    settings = {**_TRAIN_DEFAULTS, **(_split_config_file(args.config)[1] if args.config else {})}
    flags = {key: value for key, value in vars(args).items()
             if key in _TRAIN_FILE_KEYS and value not in (None, "")}
    if "milestones" in flags:
        try:  # the flag and the config-file key share one parser
            flags["milestones"] = _TRAIN_FILE_KEYS["milestones"](flags["milestones"])
        except ValueError as e:
            raise ConfigError(f"--milestones: {e}") from None
    if "pad_crop" in flags:
        flags["hflip"] = flags["pad_crop"]  # --augment sets both
    settings.update(flags)
    settings.setdefault("hflip", settings["pad_crop"])
    tc = TrainConfig(**settings, sd_p_l=cfg.sd_p_l)
    graph = build(cfg, seed=tc.seed)

    manifest = {
        "tool_version": __version__,
        "command": "train",
        "arch": asdict(cfg),
        "train": asdict(tc),
        "seed": tc.seed,
        "threads": worker_count(),
        "dataset": data_entry,
        "normalization": stats,
    }
    with atomic_write(out_dir / "manifest.json") as f:
        f.write(json.dumps(manifest, indent=2) + "\n")

    log = train(graph, train_set, test_set, tc, out_dir=out_dir)
    final = log.rows[-1]
    print(f"finished {len(log.rows)} epochs: train_err {final.train_err:.2f}% "
          f"(acc {100 - final.train_err:.2f}%), test_err {final.test_err:.2f}%")
    print(f"metrics: {out_dir / 'metrics.csv'}")
    print(f"checkpoint: {out_dir / 'checkpoint.bin'}")
    return 0


def cmd_eval(args) -> int:
    from .arch import build, config_from_text
    from .data import load_checkpoint
    from .train import evaluate, standardize
    from .stochastic_depth import survival_schedule

    run_dir = Path(args.run_dir)
    manifest = _read_manifest(run_dir / "manifest.json")
    ckpt = Path(args.checkpoint) if args.checkpoint else run_dir / "checkpoint.bin"
    state, config_text = load_checkpoint(ckpt)

    graph = build(config_from_text(config_text))
    graph.load_state(state)

    entry = manifest["dataset"]
    if args.data:
        entry = {**entry, "path": args.data}
    test_set = _load_split(entry, "test")
    test_set = standardize(test_set, manifest["normalization"])

    schedule = None
    if manifest["train"].get("sd_p_l"):
        schedule = survival_schedule(graph.meta["num_blocks"], manifest["train"]["sd_p_l"])
    err = evaluate(graph, test_set, schedule=schedule)
    print(f"test_err {err:.4f}%")
    return 0


def _smooth(values, window: int):
    out = []
    for i in range(len(values)):
        lo = max(0, i - window + 1)
        out.append(sum(values[lo:i + 1]) / (i + 1 - lo))
    return out


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def cmd_plot(args) -> int:
    from .train import MetricsLog

    if args.window < 1:
        raise ConfigError(f"--window must be at least 1, got {args.window}")
    series = []
    for path in args.csvs:
        log = MetricsLog.from_csv(path)
        if not log.rows:
            raise DataError(f"{path}: no metrics rows")
        xs = [r.epoch for r in log.rows]
        ys = _smooth([r.test_err for r in log.rows], args.window)
        series.append((Path(path).stem, xs, ys))
    svg = _render_svg(series, x_label="epoch",
                      y_label=f"test error % (window {args.window})")
    Path(args.output).write_text(svg)
    print(f"wrote {args.output}")
    return 0


def _render_svg(series, x_label: str, y_label: str,
                width: int = 720, height: int = 450) -> str:
    ml, mr, mt, mb = 60, 20, 20, 45
    pw, ph = width - ml - mr, height - mt - mb
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    x0, x1 = min(xs_all), max(xs_all)
    y0, y1 = min(ys_all), max(ys_all)
    if x1 == x0:
        x1 = x0 + 1
    if y1 == y0:
        y1 = y0 + 1

    def px(x):
        return ml + pw * (x - x0) / (x1 - x0)

    def py(y):
        return mt + ph * (1 - (y - y0) / (y1 - y0))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{ml}" y1="{mt + ph}" x2="{ml + pw}" y2="{mt + ph}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + ph}" stroke="black"/>',
    ]
    for i in range(5):
        xv = x0 + (x1 - x0) * i / 4
        yv = y0 + (y1 - y0) * i / 4
        parts.append(f'<text x="{px(xv):.1f}" y="{height - mb + 18}" font-size="11" '
                     f'text-anchor="middle">{xv:.0f}</text>')
        parts.append(f'<text x="{ml - 8}" y="{py(yv):.1f}" font-size="11" '
                     f'text-anchor="end" dominant-baseline="middle">{yv:.2f}</text>')
    parts.append(f'<text x="{ml + pw / 2}" y="{height - 8}" font-size="12" '
                 f'text-anchor="middle">{escape(x_label)}</text>')
    parts.append(f'<text x="14" y="{mt + ph / 2}" font-size="12" text-anchor="middle" '
                 f'transform="rotate(-90 14 {mt + ph / 2})">{escape(y_label)}</text>')
    for i, (label, xs, ys) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                     f'points="{points}"><title>{escape(label)}</title></polyline>')
        ly = mt + 16 + 16 * i
        parts.append(f'<line x1="{ml + pw - 150}" y1="{ly}" x2="{ml + pw - 125}" y2="{ly}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{ml + pw - 118}" y="{ly + 4}" font-size="11">{escape(label)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rornet",
                                     description="Multilevel residual networks: build, analyze, train.")
    parser.add_argument("--threads", type=int, help="BLAS thread count (recorded in the manifest)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="resolve a config and print the graph summary")
    _add_arch_flags(p)
    p.add_argument("--dump-ir", metavar="PATH", help="write the JSON-lines node listing")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("analyze", help="parameter counts, path counts, expected depth")
    _add_arch_flags(p)
    p.add_argument("--params", action="store_true")
    p.add_argument("--paths", action="store_true")
    p.add_argument("--expected-depth", action="store_true")
    p.add_argument("--pL", type=float, help="terminal survival probability")
    p.add_argument("--format", choices=["text", "csv"], default="text")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("train", help="train a model and write metrics/checkpoint/manifest")
    _add_arch_flags(p)
    p.add_argument("--synthetic", action="store_true", help="use the built-in blob dataset")
    p.add_argument("--data-seed", type=int, default=1, help="seed for --synthetic")
    p.add_argument("--samples", type=int, default=500, help="training samples for --synthetic")
    p.add_argument("--difficulty", choices=["easy", "medium", "hard"], default="easy")
    p.add_argument("--data", help="directory with CIFAR binary shards")
    p.add_argument("--dataset", choices=["c10", "c100"], default="c10")
    p.add_argument("--epochs", dest="max_epochs", type=int, help="default 30")
    p.add_argument("--batch-size", type=int, help="default 128")
    p.add_argument("--lr", dest="base_lr", type=float, help="default 0.1")
    p.add_argument("--milestones", help="comma-separated decay epochs, e.g. 250,375")
    p.add_argument("--momentum", type=float, help="default 0.9")
    p.add_argument("--weight-decay", type=float, help="default 1e-4")
    p.add_argument("--augment", dest="pad_crop", action=argparse.BooleanOptionalAction, default=None,
                   help="pad-4 random crop and horizontal flip (default off)")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="top-1 error of a checkpoint on its test split")
    p.add_argument("--run-dir", required=True, help="directory with manifest.json and checkpoint.bin")
    p.add_argument("--checkpoint", help="explicit checkpoint path override")
    p.add_argument("--data", help="dataset directory override")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("plot", help="render smoothed test-error curves to SVG")
    p.add_argument("csvs", nargs="+", help="metrics.csv files")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--window", type=int, default=5, help="smoothing window in epochs")
    p.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.threads is not None:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = str(args.threads)

    import numpy as np  # after the thread setting, which numpy reads as it loads

    try:
        # rornet's own finite checks raise; numpy's warnings would only come first
        with np.errstate(all="ignore"):
            return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 4
    except (DataError, CheckpointError, FileNotFoundError, OSError) as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
