"""Command-line entry points: prepare, train, evaluate, sweep.

Every subcommand takes --config pointing at a key = value file; outputs land
in the config's out_dir unless --out overrides it; main applies --out to the
config and makes the directory, and each cmd_* writes into cfg.out_dir.  A
relative --out resolves against the working directory, like --checkpoint.
All outputs embed the digest of the resolved config.  A sweep point is a
train followed by a test evaluate into out_dir/sweep_<axis>/<value>; points
run in order in this process.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import RunConfig, load_run_config
from .data import (
    Split,
    load_features,
    load_interactions,
    split_cold,
    split_warm,
    write_atomic,
    write_graph_dump,
)
from .errors import CheckpointError, ConfigError, LatticeError
from .evaluation import PARTITIONS, evaluate
from .graph import build_initial_graph
from .model import load_checkpoint, parameter_shapes, save_checkpoint
from .training import fit

CHECKPOINT_NAME = "checkpoint.bin"
TRAIN_LOG_NAME = "train_log.jsonl"
MANIFEST_NAME = "split_manifest.json"

_AXIS_KEYS = {"k": "k", "lambda": "fuse_lambda"}
SWEEP_AXES = tuple(_AXIS_KEYS)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lattice",
        description="Graph-augmented recommendation from multimodal content",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="path to the run config file")
        p.add_argument("--out", default=None, help="override the config's out_dir")

    p = sub.add_parser("prepare", help="split the data and write the manifest")
    common(p)
    p.add_argument(
        "--dump-graphs",
        action="store_true",
        help="also write per-modality content graphs as TSV + JSON",
    )

    p = sub.add_parser("train", help="train a model and write a checkpoint")
    common(p)
    p.add_argument(
        "--checkpoint",
        default=None,
        help="not supported: training always starts fresh and reports an error",
    )

    p = sub.add_parser("evaluate", help="score a checkpoint on held-out data")
    common(p)
    p.add_argument("--checkpoint", default=None, help="checkpoint path (default: out_dir/checkpoint.bin)")
    p.add_argument("--partition", choices=PARTITIONS, default="test")

    p = sub.add_parser(
        "sweep",
        help="train and test-evaluate one point per axis value, in order, "
        "then tabulate the test metrics",
    )
    common(p)
    p.add_argument("--axis", choices=SWEEP_AXES, required=True)
    p.add_argument("--values", required=True, help="comma-separated axis values")
    return parser


def _load_split(cfg: RunConfig) -> tuple[Split, dict]:
    dataset = load_interactions(cfg.interactions_path)
    features = {
        m: load_features(p, dataset.num_items, m)
        for m, p in sorted(cfg.feature_paths.items())
    }
    if cfg["split_mode"] == "warm":
        split = split_warm(dataset, cfg["split_seed"])
    else:
        split = split_cold(dataset, cfg["item_fraction"], cfg["split_seed"])
    return split, features


def _report_path(cfg: RunConfig, partition: str) -> Path:
    return cfg.out_dir / f"report_{partition}.json"


def _write_json(path: Path, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    write_atomic(path, [text.encode("utf-8")])


def _write_manifest(cfg: RunConfig, split: Split) -> Path:
    manifest = split.manifest()
    manifest["config_digest"] = cfg.digest()
    path = cfg.out_dir / MANIFEST_NAME
    _write_json(path, manifest)
    return path


def cmd_prepare(cfg: RunConfig, dump_graphs: bool) -> int:
    split, features = _load_split(cfg)
    path = _write_manifest(cfg, split)
    print(f"wrote {path}")
    if dump_graphs:
        k = cfg["k"]
        n_mod = len(features)
        for m, feats in features.items():
            graph = build_initial_graph(feats.matrix, k)
            meta = {
                "modality": m,
                "k": k,
                "fuse_lambda": cfg["fuse_lambda"],
                "mixture_weights": {name: 1.0 / n_mod for name in features},
                "config_digest": cfg.digest(),
            }
            tsv, _ = write_graph_dump(graph, cfg.out_dir / f"graph_{m}", meta)
            print(f"wrote {tsv}")
    return 0


def cmd_train(cfg: RunConfig, checkpoint_arg: str | None) -> int:
    if checkpoint_arg is not None:
        raise ConfigError(
            "resuming from a checkpoint is not supported; train always starts fresh"
        )
    split, features = _load_split(cfg)
    model_cfg = cfg.model_config()
    result = fit(model_cfg, cfg.train_config(), split, features)
    # checkpoint, then log, then manifest, each replaced whole by write_atomic:
    # a run that fails in fit leaves the previous run's files as they were
    ckpt_path = cfg.out_dir / CHECKPOINT_NAME
    save_checkpoint(
        ckpt_path,
        model_cfg,
        result.params,
        meta={
            "config_digest": cfg.digest(),
            "best_epoch": result.best_epoch,
            "epochs_run": len(result.history),
            "best_val_recall": result.history[result.best_epoch - 1].val_recall,
        },
    )
    log = "".join(json.dumps(r.as_log_entry()) + "\n" for r in result.history)
    write_atomic(cfg.out_dir / TRAIN_LOG_NAME, [log.encode("utf-8")])
    _write_manifest(cfg, split)
    print(f"wrote {ckpt_path} (best epoch {result.best_epoch})")
    return 0


def cmd_evaluate(cfg: RunConfig, checkpoint_arg: str | None, partition: str) -> int:
    ckpt_path = Path(checkpoint_arg) if checkpoint_arg else cfg.out_dir / CHECKPOINT_NAME
    model_cfg, params, _meta = load_checkpoint(ckpt_path)
    if model_cfg != cfg.model_config():
        raise CheckpointError(
            f"{ckpt_path}: checkpoint architecture {model_cfg} "
            f"does not match the config's {cfg.model_config()}"
        )
    split, features = _load_split(cfg)
    expected = parameter_shapes(
        model_cfg,
        split.train.num_users,
        split.train.num_items,
        {m: f.dim for m, f in features.items()},
    )
    actual = {name: arr.shape for name, arr in params.items()}
    if actual != expected:
        raise CheckpointError(
            f"{ckpt_path}: checkpoint parameter shapes {actual} do not match the "
            f"dataset and the config's modalities, which need {expected}"
        )
    report = evaluate(
        params, model_cfg, split, features, partition, cutoffs=cfg["cutoffs"]
    )
    payload = report.as_dict()
    payload["config_digest"] = cfg.digest()
    _write_json(_report_path(cfg, partition), payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _parse_axis_values(axis: str, raw: str) -> list:
    values = []
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            values.append(int(token) if axis == "k" else float(token))
        except ValueError as exc:
            raise ConfigError(f"--values: cannot parse {token!r} for axis {axis}") from exc
    if not values:
        raise ConfigError("--values: no axis values given")
    deduped = list(dict.fromkeys(values))
    if len(deduped) != len(values):
        print("warning: duplicate sweep values ignored", file=sys.stderr)
    return deduped


def cmd_sweep(cfg: RunConfig, axis: str, values_raw: str) -> int:
    values = _parse_axis_values(axis, values_raw)
    # every point's config is checked before any point trains; the point's
    # out_dir is absolute because with_values resolves a relative one again
    sweep_dir = cfg.out_dir.absolute() / f"sweep_{axis}"
    points = [
        cfg.with_values(**{_AXIS_KEYS[axis]: value, "out_dir": str(sweep_dir / str(value))})
        for value in values
    ]
    payloads = []
    for point in points:
        point.out_dir.mkdir(parents=True, exist_ok=True)
        cmd_train(point, None)
        cmd_evaluate(point, None, "test")
        payloads.append(json.loads(_report_path(point, "test").read_text("utf-8")))

    cutoffs = cfg["cutoffs"]
    table_path = cfg.out_dir / f"sweep_{axis}.tsv"
    header = ["value"]
    for c in cutoffs:
        header += [f"recall@{c}", f"precision@{c}", f"ndcg@{c}"]
    rows = [header]
    for value, payload in zip(values, payloads):
        row = [str(value)]
        for c in cutoffs:
            block = payload["metrics"][str(c)]
            row += [repr(block["recall"]), repr(block["precision"]), repr(block["ndcg"])]
        rows.append(row)
    table = "".join("\t".join(row) + "\n" for row in rows)
    write_atomic(table_path, [table.encode("utf-8")])
    print(f"wrote {table_path}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_run_config(args.config)
        if args.out is not None:
            cfg = cfg.with_values(out_dir=str(Path(args.out).absolute()))
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "prepare":
            return cmd_prepare(cfg, args.dump_graphs)
        if args.command == "train":
            return cmd_train(cfg, args.checkpoint)
        if args.command == "evaluate":
            return cmd_evaluate(cfg, args.checkpoint, args.partition)
        if args.command == "sweep":
            return cmd_sweep(cfg, args.axis, args.values)
        raise ConfigError(f"unknown command {args.command!r}")
    except (LatticeError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
