"""Workloads of the lattice benchmark: inputs, set-up, timed units, checks.

Every workload generates its inputs from the seed with the clustered
generator, writes them to disk (interactions TSV, LATF features and, for
``catalog_eval``, a checkpoint) and reads them back through the package's
loaders, as ``lattice train`` / ``lattice evaluate`` would.

A run sets up three to ten times, until five seconds of set-up have run
(``setup_s`` is the median), then repeats its unit of work until at least
``seconds`` of units have run and enough steps were timed for a 90th
percentile with ten samples beyond it.  A training
unit is one ``fit`` of one epoch with validation; an evaluation unit is one
``evaluate`` call over the test partition.  Units of one run are identical
computations, so their outputs must agree bit for bit.
"""

from __future__ import annotations

import ctypes
import dataclasses
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from lattice import data, evaluation, graph, model, synthetic, training

import checks
from tracing import Clock, Patches, Tracer, instrument, layer_metrics

ROOT = Path(__file__).resolve().parents[1]

MODALITY = synthetic.DEFAULT_MODALITY
RECALL_CUTOFF = 20
MIN_STEP_SAMPLES = 100  # a p90 with at least ten samples beyond it
SETUP_REPEATS = (3, 10)  # bounds on the count; between them, repeat
SETUP_SECONDS = 5.0  # until this much set-up time has run
COLD_ITEM_FRACTION = 0.2
MAX_UNITS = 200
CHECK_ROWS = 16
CHECK_USERS = 16


@dataclass(frozen=True)
class Workload:
    """Fixed sizes and configs of one workload; the seed is supplied per run."""

    name: str
    generator: dict  # clustered_dataset keyword arguments
    split: str  # "warm" or "cold"
    model: dict  # ModelConfig keyword arguments
    train: dict | None = None  # TrainConfig arguments; None: evaluation only
    cutoffs: tuple = (RECALL_CUTOFF,)

    @property
    def partition(self) -> str:
        return "valid" if self.train is not None else "test"

    def digest(self) -> str:
        blob = json.dumps(dataclasses.asdict(self), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


_GRAPH_MODEL = dict(variant="full", hidden_dim=32, k=10, fuse_lambda=0.7, item_layers=2)

WORKLOADS = {
    w.name: w
    for w in (
        # Every step rebuilds the learned kNN graph.
        Workload(
            name="learned_graph",
            generator=dict(num_clusters=10, items_per_cluster=300, feat_dim=64,
                           num_users=3000, positives_per_user=20),
            split="warm",
            model=dict(backend="mf", embed_dim=64, **_GRAPH_MODEL),
            train=dict(learning_rate=5e-3, batch_size=1024, max_epochs=1,
                       graph_refresh="per_batch"),
        ),
        # The graph is built once per epoch; time goes to the CF tables.
        Workload(
            name="lightgcn_frozen",
            generator=dict(num_clusters=20, items_per_cluster=100, feat_dim=64,
                           num_users=4000, positives_per_user=40),
            split="warm",
            model=dict(backend="lightgcn", embed_dim=64, cf_layers=3, **_GRAPH_MODEL),
            train=dict(learning_rate=5e-3, batch_size=1024, max_epochs=1,
                       graph_refresh="per_epoch"),
        ),
        # The `lattice evaluate` path on a large cold-start catalogue.
        Workload(
            name="catalog_eval",
            generator=dict(num_clusters=20, items_per_cluster=1100, feat_dim=128,
                           num_users=1500, positives_per_user=30),
            split="cold",
            model=dict(backend="mf", embed_dim=64, **_GRAPH_MODEL),
            cutoffs=(10, 20, 50),
        ),
    )
}

E2E_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "step_s_p50": "s",
    "step_s_p90": "s",
    "eval_users_per_s": "1/s",
    "recall_at_20": "ratio",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    name: ("s" if name.endswith("_s") else "ratio" if "_per_" in name else "count")
    for name in (
        "graph.builds", "graph.cosine_s", "graph.scored_pairs", "graph.topk_s",
        "graph.kept_edges", "graph.kept_per_scored", "graph.normalize_s",
        "graph.fuse_mix_s", "graph.sparsegraph_inits", "graph.validate_s",
        "model.build_inputs_s", "model.checkpoint_load_s", "model.forward_s",
        "model.item_graph_s", "model.propagate_s", "model.cf_conv_s",
        "training.steps", "training.grad_s", "training.backward_s",
        "training.adam_s", "training.validation_s",
        "data.load_s", "data.split_s", "data.negative_calls", "data.negative_s",
        "evaluation.users", "evaluation.evaluate_s", "evaluation.rank_s",
        "evaluation.metric_s", "evaluation.sorted_items",
        "evaluation.needed_per_sorted",
    )
}
LAYER_UNITS["trace.overhead_frac"] = "ratio"


# ---------------------------------------------------------------------------
# inputs


@dataclass
class InputFiles:
    interactions: Path
    features: dict
    checkpoint: Path | None = None


def _split(spec: Workload, dataset, seed: int):
    if spec.split == "warm":
        return data.split_warm(dataset, seed)
    return data.split_cold(dataset, COLD_ITEM_FRACTION, seed)


def generate(spec: Workload, seed: int, work_dir: Path) -> InputFiles:
    """Write the workload's inputs; features cover exactly the items that appear."""
    dataset, feats = synthetic.clustered_dataset(**spec.generator, seed=seed)
    work_dir.mkdir(parents=True, exist_ok=True)
    tsv = work_dir / "interactions.tsv"
    users, items = dataset.user_labels, dataset.item_labels
    with open(tsv, "w", encoding="utf-8") as fh:
        fh.writelines(f"{users[u]}\t{items[i]}\n" for u, i in dataset.pairs)
    _, first = np.unique(dataset.pairs[:, 1], return_index=True)
    appearing = dataset.pairs[np.sort(first), 1]
    files = InputFiles(tsv, {})
    for m, feat in feats.items():
        files.features[m] = work_dir / f"features_{m}.latf"
        data.write_features(files.features[m], feat.matrix[appearing])
    if spec.train is None:
        files.checkpoint = work_dir / "checkpoint.bin"
        _write_planted_checkpoint(spec, seed, tsv, files.checkpoint)
    return files


def _write_planted_checkpoint(spec: Workload, seed: int, tsv: Path, path: Path) -> None:
    """A checkpoint whose user vectors are the sums of their test items' vectors.

    Nothing is trained in an evaluation-only workload.  Planting keeps test
    recall far from chance and steady across seeds, so a change in scoring
    or graph numerics shows in ``recall_at_20``.
    """
    dataset = data.load_interactions(tsv)
    split = _split(spec, dataset, seed)
    cfg = model.ModelConfig(**spec.model)
    rng = np.random.default_rng([seed, 2])
    params = training.init_parameters(
        cfg, dataset.num_users, dataset.num_items,
        {MODALITY: spec.generator["feat_dim"]}, rng,
    )
    params.item_emb[:] = rng.standard_normal(params.item_emb.shape) / np.sqrt(cfg.embed_dim)
    params.user_emb[:] = 0.0
    users, items = split.test.pairs[:, 0], split.test.pairs[:, 1]
    np.add.at(params.user_emb, users, params.item_emb[items])
    model.save_checkpoint(path, cfg, params, meta={"planted": "test items"})


# ---------------------------------------------------------------------------
# set-up and units


@dataclass
class Setup:
    cfg: object
    split: object
    features: dict
    inputs: object
    params: object = None  # from the checkpoint; training starts fresh


def setup(spec: Workload, seed: int, files: InputFiles) -> Setup:
    """Load, split and build inputs; read the checkpoint when there is one."""
    cfg = model.ModelConfig(**spec.model)
    params = None
    if files.checkpoint is not None:
        ckpt_cfg, params, _ = model.load_checkpoint(files.checkpoint)
        if ckpt_cfg != cfg:
            raise ValueError(f"checkpoint holds {ckpt_cfg}, workload expects {cfg}")
    dataset = data.load_interactions(files.interactions)
    features = {
        m: data.load_features(path, dataset.num_items, m)
        for m, path in sorted(files.features.items())
    }
    split = _split(spec, dataset, seed)
    inputs = model.build_inputs(cfg, split.train, features)
    return Setup(cfg, split, features, inputs, params)


@dataclass
class Unit:
    wall: float
    step_intervals: list
    eval_seconds: float
    eval_users: int
    recall: float
    digest: str
    losses: list = field(default_factory=list)
    params: object = None
    enhanced: object = None


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for name, arr in arrays:
        h.update(name.encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def run_unit(spec: Workload, seed: int, s: Setup, clock: Clock) -> Unit:
    clock.reset()
    start = time.perf_counter()
    if spec.train is not None:
        train_cfg = training.TrainConfig(**spec.train, seed=seed)
        result = training.fit(s.cfg, train_cfg, s.split, s.features, inputs=s.inputs)
        wall = time.perf_counter() - start
        # one epoch per fit: consecutive adam_step returns bound one step each
        return Unit(
            wall=wall,
            step_intervals=list(np.diff(clock.steps)),
            eval_seconds=sum(end - begin for begin, end, _ in clock.validations),
            eval_users=sum(r.num_users_evaluated for _, _, r in clock.validations),
            recall=max(rec.val_recall for rec in result.history),
            digest=_digest(result.params.named()),
            losses=[rec.train_loss for rec in result.history],
            params=result.params,
            enhanced=clock.enhanced,
        )
    report = evaluation.evaluate(
        s.params, s.cfg, s.split, s.features, "test", cutoffs=spec.cutoffs, inputs=s.inputs
    )
    wall = time.perf_counter() - start
    blob = json.dumps(report.as_dict(), sort_keys=True).encode()
    return Unit(
        wall=wall,
        # the first rank_items return also carries the forward pass
        step_intervals=list(np.diff(clock.ranks)),
        eval_seconds=wall,
        eval_users=report.num_users_evaluated,
        recall=report.metrics[RECALL_CUTOFF]["recall"],
        digest=hashlib.sha256(blob).hexdigest(),
        params=s.params,
        enhanced=clock.enhanced,
    )


# ---------------------------------------------------------------------------
# checks


class Ledger:
    """Operations attempted and failed; failed_frac = failed / attempted."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def record(self, what: str, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.notes.append(f"{what}: {failed} of {attempted} failed")


def _stored_digest(path: Path, key: str, digest: str) -> bool:
    """Compare with the digest an earlier run of this key stored; store if new."""
    stored = json.loads(path.read_text()) if path.is_file() else {}
    if key in stored:
        return stored[key] == digest
    stored[key] = digest
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(stored, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return True


def run_checks(spec: Workload, seed: int, s: Setup, units: list, ledger: Ledger,
               digest_store: Path) -> None:
    rng = np.random.default_rng([seed, 3])
    first = units[0]

    losses = [loss for u in units for loss in u.losses]
    ledger.record("finite loss per epoch", len(losses),
                  sum(not np.isfinite(loss) for loss in losses))
    ledger.record("identical outputs across units", len(units) - 1,
                  sum(u.digest != first.digest for u in units[1:]))
    key = f"{spec.name}|seed={seed}|{spec.digest()}|{_source_digest()[:16]}"
    ledger.record("identical outputs across runs", 1,
                  int(not _stored_digest(digest_store, key, first.digest)))

    feats = s.features[MODALITY].matrix
    n_items = feats.shape[0]
    rows = rng.choice(n_items, size=min(CHECK_ROWS, n_items), replace=False)
    k = s.cfg.k
    ledger.record("initial graph rows", rows.size, checks.graph_row_failures(
        s.inputs.initial_graphs[MODALITY], feats, k, rows, normalized=True))
    if spec.train is not None:
        p = first.params
        h = graph.transform_features(
            s.inputs.features[MODALITY], p.transform_w[MODALITY], p.transform_b[MODALITY]
        )
        ledger.record("learned graph rows", rows.size, checks.graph_row_failures(
            graph.knn_cosine_graph(h, k), h, k, rows, normalized=False))

    part = s.split.valid if spec.partition == "valid" else s.split.test
    held = [u for u in range(part.num_users) if part.user_positives[u].size]
    users = rng.choice(held, size=min(CHECK_USERS, len(held)), replace=False)
    user_vecs, _ = model.cf_forward(s.cfg, first.params, s.inputs)
    ledger.record("ranking and metrics of sampled users", len(users), checks.ranking_failures(
        user_vecs, first.enhanced, s.split, spec.partition, users, spec.cutoffs))


# ---------------------------------------------------------------------------
# provenance


def _blas_threads():
    """Threads of the OpenBLAS numpy loaded, read from the library itself."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "lattice").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(spec: Workload, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
        "workload": dataclasses.asdict(spec),
    }


# ---------------------------------------------------------------------------
# runs


def _end_to_end(spec: Workload, s: Setup, setups: list, units: list) -> dict:
    steps = [x for u in units for x in u.step_intervals]
    if spec.train is not None:
        triples = s.split.train.num_pairs
        throughput = statistics.median(triples / u.wall for u in units)
    else:
        # users per second of the whole `lattice evaluate` replay
        users = units[0].eval_users
        throughput = users / (statistics.median(setups) + statistics.median(u.wall for u in units))
    return {
        "setup_s": statistics.median(setups),
        "throughput_per_s": throughput,
        "step_s_p50": statistics.median(steps),
        "step_s_p90": statistics.quantiles(steps, n=10)[8],
        "eval_users_per_s": statistics.median(u.eval_users / u.eval_seconds for u in units),
        "recall_at_20": units[0].recall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _more_setups(setups: list, trace: bool) -> bool:
    if trace:
        return not setups
    low, high = SETUP_REPEATS
    return len(setups) < low or (len(setups) < high and sum(setups) < SETUP_SECONDS)


def _timed_setup(spec, seed, files):
    start = time.perf_counter()
    s = setup(spec, seed, files)
    return s, time.perf_counter() - start


def _measure(spec, seed, seconds, trace, out_dir, work, run_id, ledger, record) -> dict:
    files = generate(spec, seed, work)
    clock = Clock()
    setups, units = [], []
    with Patches() as patches:
        clock.install(patches)
        while _more_setups(setups, trace):
            s, wall = _timed_setup(spec, seed, files)
            setups.append(wall)
        ledger.record("set-ups", len(setups), 0)
        measured = 0.0
        while len(units) < MAX_UNITS and not (
            units and measured >= seconds
            and sum(len(u.step_intervals) for u in units) >= MIN_STEP_SAMPLES
        ):
            units.append(run_unit(spec, seed, s, clock))
            ledger.record("units", 1, 0)
            measured += units[-1].wall
            if trace:
                break

    if trace:
        tracer = Tracer(run_id)
        with Patches() as patches:
            instrument(tracer, patches)
            start = time.perf_counter()
            traced_setup = tracer.call("bench.setup", setup, spec, seed, files)
            traced_unit = tracer.call("bench.unit", run_unit, spec, seed, traced_setup, Clock())
            traced_wall = time.perf_counter() - start
        ledger.record("traced set-up and unit", 2, 0)
        units.append(traced_unit)
        layers = layer_metrics(tracer)
        layers["trace.overhead_frac"] = traced_wall / (setups[0] + units[0].wall) - 1.0
        tracer.write(out_dir / "traces" / f"{run_id}.jsonl")
        metrics = {name: (layers[name], unit) for name, unit in LAYER_UNITS.items()}
    else:
        e2e = _end_to_end(spec, s, setups, units)
        metrics = {name: (e2e[name], unit) for name, unit in E2E_UNITS.items()}
        record["samples"] = {
            "setup_s": setups, "unit_s": [u.wall for u in units],
            "steps": sum(len(u.step_intervals) for u in units),
        }
    run_checks(spec, seed, s, units, ledger, out_dir / "digests.json")
    record["digest"] = units[0].digest
    return metrics


def run_workload(spec: Workload, seed: int, seconds: float, trace: bool, out_dir: Path):
    """Run one workload; returns (result line, full record).

    The full record is also written to out_dir/results, and with trace the
    spans to out_dir/traces.
    """
    out_dir = Path(out_dir)
    for sub in ("work", "results", "traces"):
        (out_dir / sub).mkdir(parents=True, exist_ok=True)
    run_id = f"{spec.name}-seed{seed}-trace{int(trace)}-pid{os.getpid()}"
    work = out_dir / "work" / run_id
    ledger = Ledger()
    record = {"run": run_id, "provenance": provenance(spec, seed)}
    metrics = {}
    try:
        metrics = _measure(spec, seed, seconds, trace, out_dir, work, run_id, ledger, record)
    except Exception:  # a failed operation is reported in the result, not raised
        ledger.record(traceback.format_exc(limit=-3).strip(), 1, 1)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    line = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {n: {"value": float(v), "unit": u} for n, (v, u) in metrics.items()},
    }
    record.update(line)
    record["failed_frac"] = ledger.failed / ledger.attempted
    record["notes"] = ledger.notes
    path = out_dir / "results" / f"{run_id.rsplit('-pid', 1)[0]}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return line, record
