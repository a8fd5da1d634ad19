"""Command-line entry points: prepare, train, evaluate, sweep.

Every subcommand takes --config pointing at a key = value file; outputs land
in the config's out_dir unless --out overrides it.  All outputs embed the
digest of the resolved config.  LATTICE_THREADS caps how many sweep points
run as parallel worker processes (default 1, sequential).  Each worker's
BLAS still starts one thread per core, so with more than one worker set
OPENBLAS_NUM_THREADS=1 as well: on a 2-core box a 2-worker sweep ran slower
than the serial one without it and about 1.5x faster than serial with it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .config import RunConfig, load_run_config
from .data import (
    Split,
    load_features,
    load_interactions,
    split_cold,
    split_warm,
    temp_beside,
    write_atomic,
)
from .errors import CheckpointError, ConfigError, LatticeError
from .evaluation import evaluate
from .graph import build_initial_graph, write_graph_dump
from .model import load_checkpoint, parameter_shapes, save_checkpoint
from .training import fit

CHECKPOINT_NAME = "checkpoint.bin"
TRAIN_LOG_NAME = "train_log.jsonl"
MANIFEST_NAME = "split_manifest.json"

SWEEP_AXES = ("k", "lambda")
_AXIS_KEYS = {"k": "k", "lambda": "fuse_lambda"}


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
    p.add_argument("--partition", choices=("valid", "test"), default="test")

    p = sub.add_parser("sweep", help="retrain across one hyperparameter axis")
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


def _write_json(path: Path, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    write_atomic(path, [text.encode("utf-8")])


def _write_manifest(cfg: RunConfig, split: Split, out_dir: Path) -> Path:
    manifest = split.manifest()
    manifest["config_digest"] = cfg.digest()
    path = out_dir / MANIFEST_NAME
    _write_json(path, manifest)
    return path


def cmd_prepare(cfg: RunConfig, out_dir: Path, dump_graphs: bool) -> int:
    split, features = _load_split(cfg)
    path = _write_manifest(cfg, split, out_dir)
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
            tsv, _ = write_graph_dump(graph, out_dir / f"graph_{m}", meta)
            print(f"wrote {tsv}")
    return 0


def cmd_train(cfg: RunConfig, out_dir: Path, checkpoint_arg: str | None) -> int:
    if checkpoint_arg is not None:
        raise ConfigError(
            "resuming from a checkpoint is not supported; train always starts fresh"
        )
    split, features = _load_split(cfg)
    model_cfg = cfg.model_config()
    # the log streams into a temp file and replaces the old one only once the
    # checkpoint is written, so a failed run leaves the previous run whole
    log_path = out_dir / TRAIN_LOG_NAME
    tmp_log = temp_beside(log_path)
    ckpt_path = out_dir / CHECKPOINT_NAME
    try:
        with open(tmp_log, "w", encoding="utf-8") as log_stream:
            result = fit(model_cfg, cfg.train_config(), split, features, log_stream=log_stream)
            os.fsync(log_stream.fileno())
        best = result.history[result.best_epoch - 1] if result.best_epoch else None
        save_checkpoint(
            ckpt_path,
            model_cfg,
            result.params,
            meta={
                "config_digest": cfg.digest(),
                "best_epoch": result.best_epoch,
                "epochs_run": len(result.history),
                "best_val_recall": best.val_recall if best else 0.0,
            },
        )
        os.replace(tmp_log, log_path)
    except BaseException:
        tmp_log.unlink(missing_ok=True)
        raise
    _write_manifest(cfg, split, out_dir)
    print(f"wrote {ckpt_path} (best epoch {result.best_epoch})")
    return 0


def cmd_evaluate(
    cfg: RunConfig, out_dir: Path, checkpoint_arg: str | None, partition: str
) -> int:
    ckpt_path = Path(checkpoint_arg) if checkpoint_arg else out_dir / CHECKPOINT_NAME
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
    path = out_dir / f"report_{partition}.json"
    _write_json(path, payload)
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


def _sweep_point(cfg: RunConfig, axis: str, value) -> dict:
    """Train and test-evaluate one sweep point, whose config cfg already holds value.

    Runs in a worker process when the sweep is parallel; cfg pickles.
    """
    split, features = _load_split(cfg)
    model_cfg = cfg.model_config()
    result = fit(model_cfg, cfg.train_config(), split, features)
    report = evaluate(
        result.params,
        model_cfg,
        split,
        features,
        "test",
        cutoffs=cfg["cutoffs"],
        inputs=result.inputs,
    )
    point_dir = cfg.out_dir / f"sweep_{axis}" / str(value)
    point_dir.mkdir(parents=True, exist_ok=True)
    save_checkpoint(
        point_dir / CHECKPOINT_NAME,
        model_cfg,
        result.params,
        meta={"config_digest": cfg.digest(), "axis": axis, "value": value},
    )
    payload = report.as_dict()
    payload["config_digest"] = cfg.digest()
    payload["axis"] = axis
    payload["value"] = value
    _write_json(point_dir / "report_test.json", payload)
    return payload


def cmd_sweep(cfg: RunConfig, out_dir: Path, axis: str, values_raw: str) -> int:
    values = _parse_axis_values(axis, values_raw)
    # every point's config is checked before any point trains
    points = [cfg.with_values(**{_AXIS_KEYS[axis]: value}) for value in values]
    axes = [axis] * len(values)
    threads = _worker_count()
    if threads > 1 and len(values) > 1:
        with ProcessPoolExecutor(max_workers=min(threads, len(values))) as pool:
            payloads = list(pool.map(_sweep_point, points, axes, values))
    else:
        payloads = list(map(_sweep_point, points, axes, values))

    cutoffs = cfg["cutoffs"]
    table_path = out_dir / f"sweep_{axis}.tsv"
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


def _worker_count() -> int:
    raw = os.environ.get("LATTICE_THREADS", "1")
    try:
        count = int(raw)
    except ValueError as exc:
        raise ConfigError(f"LATTICE_THREADS must be an integer, got {raw!r}") from exc
    if count < 1:
        raise ConfigError(f"LATTICE_THREADS must be at least 1, got {count}")
    return count


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_run_config(args.config)
        if args.out is not None:
            cfg = cfg.with_values(out_dir=args.out)
        out_dir = cfg.out_dir
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "prepare":
            return cmd_prepare(cfg, out_dir, args.dump_graphs)
        if args.command == "train":
            return cmd_train(cfg, out_dir, args.checkpoint)
        if args.command == "evaluate":
            return cmd_evaluate(cfg, out_dir, args.checkpoint, args.partition)
        if args.command == "sweep":
            return cmd_sweep(cfg, out_dir, args.axis, args.values)
        raise ConfigError(f"unknown command {args.command!r}")
    except (LatticeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())
