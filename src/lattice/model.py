"""Model assembly: CF backends, content graphs, and item enhancement.

The forward pass has three stages:
  1. backend embeddings (plain tables, or light graph convolution over the
     normalized user-item graph averaged across layers),
  2. an item-item graph mixed from per-modality cosine kNN graphs, over which
     item vectors are propagated by plain sparse multiplication,
  3. enhancement: each backend item vector plus the L2-normalized propagated
     vector.

forward_pass is the one forward path: training and evaluation both run it.
Beside the output it returns a ForwardCache holding exactly what
backward_pass, the one hand-written backward, reads: the fused and mixed
item graphs, a learned-graph record per modality whose graph was built, the
propagation layers, and the enhancement normalization.  A frozen item graph
is the SparseGraph that build_item_graph returns.

Gradient contract for the learned item graph: which entries survive top-k
selection is a constant of the batch, but gradients flow through the
retained cosine values, the degree normalization, the skip blend, the
softmax mixture weights, and the propagation itself.  The graph built from
raw features is a constant.  Finite-difference tests pin this down.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import struct
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .data import InteractionDataset, ModalityFeatures, build_bipartite_graph, write_atomic
from .errors import CheckpointError
from .graph import (
    SparseGraph,
    aggregate_modalities,
    build_initial_graph,
    fuse_skip,
    knn_cosine_backward,
    knn_cosine_graph,
    normalize_sym,
    normalize_sym_backward,
    softmax,
    transform_features,
    unit_rows,
    unit_rows_backward,
    values_at,
)

BACKENDS = ("mf", "lightgcn")
VARIANTS = ("full", "conv_on_feats", "feats_side_info", "base")

CHECKPOINT_MAGIC = b"LATC"
CHECKPOINT_VERSION = 1


def setting(default, valid):
    """A config field that states its default and its valid values, once.

    valid is a tuple of the accepted values, or a predicate on values of the
    default's type; an int counts as a float, a bool as neither.
    """
    return field(default=default, metadata={"valid": valid})


def check_setting(name: str, f: dataclasses.Field, value) -> None:
    """Raise ValueError naming the setting unless value is valid for field f."""
    valid = f.metadata["valid"]
    if isinstance(valid, tuple):
        if value not in valid:
            raise ValueError(f"{name}: expected one of {valid}, got {value!r}")
        return
    kinds = (int, float) if isinstance(f.default, float) else type(f.default)
    if isinstance(value, bool) or not isinstance(value, kinds) or not valid(value):
        raise ValueError(f"{name}: invalid {type(f.default).__name__} value {value!r}")


class Settings:
    """Base of the config dataclasses: every field is checked at construction."""

    def __post_init__(self):
        for f in dataclasses.fields(self):
            check_setting(f.name, f, getattr(self, f.name))


@dataclass(frozen=True)
class ModelConfig(Settings):
    """Architecture knobs; training hyperparameters live in TrainConfig."""

    backend: str = setting("mf", BACKENDS)
    variant: str = setting("full", VARIANTS)
    embed_dim: int = setting(64, lambda v: v >= 1)
    hidden_dim: int = setting(64, lambda v: v >= 1)
    k: int = setting(10, lambda v: v >= 0)
    fuse_lambda: float = setting(0.5, lambda v: 0.0 <= v <= 1.0)
    item_layers: int = setting(1, lambda v: 0 <= v <= 4)
    cf_layers: int = setting(3, lambda v: v >= 0)

    @property
    def uses_modal_features(self) -> bool:
        return self.variant != "base"

    @property
    def uses_item_graph(self) -> bool:
        return self.variant in ("full", "conv_on_feats")

    @property
    def uses_projection(self) -> bool:
        return self.variant in ("conv_on_feats", "feats_side_info")


class ParameterSet(dict):
    """All trainable arrays, float64, keyed by canonical name in canonical order.

    The names and their order are those of parameter_shapes; checkpoints and
    gradient checks follow it.  The properties are read-only views of the
    parameter roles; an absent optional part reads as None.
    """

    def named(self):
        return self.items()

    def copy(self) -> "ParameterSet":
        """A copy that shares no array with this set."""
        return ParameterSet((name, arr.copy()) for name, arr in self.items())

    def _role(self, prefix: str) -> Mapping[str, np.ndarray]:
        return MappingProxyType(
            {n[len(prefix) :]: arr for n, arr in self.items() if n.startswith(prefix)}
        )

    @property
    def user_emb(self) -> np.ndarray:
        return self["user_emb"]

    @property
    def item_emb(self) -> np.ndarray:
        return self["item_emb"]

    @property
    def transform_w(self) -> Mapping[str, np.ndarray]:
        return self._role("transform_w.")

    @property
    def transform_b(self) -> Mapping[str, np.ndarray]:
        return self._role("transform_b.")

    @property
    def modalities(self) -> tuple:
        return tuple(self.transform_w)

    @property
    def logits(self) -> np.ndarray | None:
        return self.get("modality_logits")

    @property
    def projection(self) -> np.ndarray | None:
        return self.get("projection")


def parameter_shapes(
    cfg: ModelConfig, num_users: int, num_items: int, feat_dims: Mapping[str, int]
) -> dict[str, tuple]:
    """Canonical name -> shape of every trainable array of a config.

    The order is canonical: user and item tables, then per modality (sorted
    by id) transform weight and bias, then mixer logits, then the feature
    projection.  Variants without modal features ignore feat_dims.
    """
    shapes = {"user_emb": (num_users, cfg.embed_dim), "item_emb": (num_items, cfg.embed_dim)}
    if not cfg.uses_modal_features:
        return shapes
    modalities = sorted(feat_dims)
    if not modalities:
        raise ValueError(f"variant {cfg.variant!r} requires content features")
    for m in modalities:
        shapes[f"transform_w.{m}"] = (cfg.hidden_dim, feat_dims[m])
        shapes[f"transform_b.{m}"] = (cfg.hidden_dim,)
    if cfg.uses_item_graph:
        shapes["modality_logits"] = (len(modalities),)
    if cfg.uses_projection:
        shapes["projection"] = (cfg.embed_dim, cfg.hidden_dim * len(modalities))
    return shapes


@dataclass(frozen=True)
class ModelInputs:
    """Constant per-run tensors: features, frozen kNN graphs, user-item graph."""

    num_users: int
    num_items: int
    features: dict
    initial_graphs: dict
    bipartite: SparseGraph | None


def build_inputs(
    cfg: ModelConfig,
    train: InteractionDataset,
    features: Mapping[str, ModalityFeatures],
) -> ModelInputs:
    """Precompute everything the forward pass treats as constant."""
    feats = {m: np.asarray(f.matrix, dtype=np.float64) for m, f in features.items()}
    for m, mat in feats.items():
        if mat.shape[0] != train.num_items:
            raise ValueError(
                f"modality {m!r} has {mat.shape[0]} rows for {train.num_items} items"
            )
    initial = {}
    if cfg.uses_item_graph and cfg.k > 0:
        for m in sorted(feats):
            initial[m] = build_initial_graph(feats[m], cfg.k)
    bipartite = build_bipartite_graph(train) if cfg.backend == "lightgcn" else None
    return ModelInputs(
        num_users=train.num_users,
        num_items=train.num_items,
        features=feats,
        initial_graphs=initial,
        bipartite=bipartite,
    )


@dataclass
class ForwardCache:
    """What the backward pass reads of one forward pass.

    learned[m] = (retained, features) for each modality whose learned graph
    was built from the current parameters: the top-k cosine graph and the
    transformed features it was scored from; k = 0 and fuse_lambda = 1 build
    none.  fused[m] is modality m's fused graph.  A frozen pass records neither.
    """

    learned: dict = field(default_factory=dict)
    fused: dict = field(default_factory=dict)
    graph: SparseGraph | None = None
    feat_concat: np.ndarray | None = None
    h_layers: list | None = None
    enhance_add: np.ndarray | None = None
    enhance_norms: np.ndarray | None = None


@dataclass
class ForwardOutput:
    """Backend user vectors and enhanced item vectors; a score is their dot product."""

    user_vecs: np.ndarray
    enhanced_items: np.ndarray


def _transformed_features(params: ParameterSet, inputs: ModelInputs) -> dict:
    return {
        m: transform_features(inputs.features[m], params.transform_w[m], params.transform_b[m])
        for m in sorted(inputs.features)
    }


def build_item_graph(
    cfg: ModelConfig,
    params: ParameterSet,
    inputs: ModelInputs,
    cache: ForwardCache | None = None,
    h_modal: dict | None = None,
) -> SparseGraph:
    """Mix the per-modality fused graphs into one propagation matrix.

    The learned graph is built only when it carries weight: with k = 0 it
    is empty, and with fuse_lambda = 1 it is scaled by zero.  In both cases
    neither it nor the transformed features it would be built from are
    computed, and each fused graph is the initial graph itself, as fuse_skip
    would return it.  Records the fused graphs and the learned-graph
    records on cache when one is supplied.
    """
    learns = cfg.k > 0 and cfg.fuse_lambda != 1.0
    if learns and h_modal is None:
        h_modal = _transformed_features(params, inputs)
    fused_list = []
    for m in sorted(inputs.features):
        fused = inputs.initial_graphs.get(m)
        if fused is None:
            fused = SparseGraph.empty(inputs.num_items)
        if learns:
            retained = knn_cosine_graph(h_modal[m], cfg.k)
            fused = fuse_skip(fused, normalize_sym(retained), cfg.fuse_lambda)
            if cache is not None:
                cache.learned[m] = (retained, h_modal[m])
        if cache is not None:
            cache.fused[m] = fused
        fused_list.append(fused)
    return aggregate_modalities(fused_list, params.logits)


def propagate_item_graph(
    graph: SparseGraph, h0: np.ndarray, layers: int
) -> list[np.ndarray]:
    """Repeated sparse multiplication, no transforms or nonlinearities.

    Returns all layer outputs [h0, ..., hL]; the last entry is the result.
    """
    if h0.shape[0] != graph.num_nodes:
        raise ValueError(
            f"h0 has {h0.shape[0]} rows, graph has {graph.num_nodes} nodes"
        )
    hs = [h0]
    for _ in range(layers):
        hs.append(graph.csr @ hs[-1])
    return hs


def cf_forward(
    cfg: ModelConfig, params: ParameterSet, inputs: ModelInputs
) -> tuple[np.ndarray, np.ndarray]:
    """Backend user and item vectors.

    mf returns the tables.  lightgcn stacks user and item tables, convolves
    cf_layers times over the normalized user-item graph, and averages all
    layer outputs; cf_layers = 0 reduces to mf exactly.  Only the running
    sum is kept, not the layers.
    """
    if cfg.backend == "mf":
        return params.user_emb, params.item_emb
    if inputs.bipartite is None:
        raise ValueError("lightgcn backend requires the user-item graph")
    z = np.concatenate([params.user_emb, params.item_emb], axis=0)
    mean = z.copy()
    for _ in range(cfg.cf_layers):
        z = inputs.bipartite.csr @ z
        mean += z
    mean /= cfg.cf_layers + 1
    return mean[: inputs.num_users], mean[inputs.num_users :]


def forward_pass(
    cfg: ModelConfig,
    params: ParameterSet,
    inputs: ModelInputs,
    graph: SparseGraph | None = None,
) -> tuple[ForwardOutput, ForwardCache]:
    """Full forward computation for any backend/variant combination.

    When graph is supplied the item graph is taken as a constant instead of
    being rebuilt from the current parameters (per-epoch refresh mode).
    """
    cache = ForwardCache()
    user_vecs, item_vecs = cf_forward(cfg, params, inputs)
    if cfg.variant == "base":
        return ForwardOutput(user_vecs, item_vecs), cache

    h_modal = None
    if cfg.uses_projection:
        h_modal = _transformed_features(params, inputs)
        cache.feat_concat = np.concatenate([h_modal[m] for m in sorted(h_modal)], axis=1)

    if cfg.variant == "full":
        src = params.item_emb
    else:
        src = cache.feat_concat @ params.projection.T
    if cfg.uses_item_graph:
        if graph is None:
            graph = build_item_graph(cfg, params, inputs, cache, h_modal)
        cache.graph = graph
        cache.h_layers = propagate_item_graph(graph, src, cfg.item_layers)
        src = cache.h_layers[-1]

    cache.enhance_add, cache.enhance_norms = unit_rows(src)
    return ForwardOutput(user_vecs, item_vecs + cache.enhance_add), cache


def forward(cfg: ModelConfig, params: ParameterSet, inputs: ModelInputs) -> ForwardOutput:
    return forward_pass(cfg, params, inputs)[0]


# ---------------------------------------------------------------------------
# backward pass


# Edges per slice in _add_edge_products.  A gathered slice of 1,024 rows at
# d = 64 is 512 KiB and stays in cache; gathering all edges at once builds two
# nnz x d arrays (26 MB each for 50,655 edges).  On a 2-core x86-64 box those
# 50,655 products took 22.6 ms unblocked and 7.4 ms in 1,024-edge slices.
_EDGE_BLOCK = 1024


def _add_edge_products(
    out: np.ndarray, g: np.ndarray, h: np.ndarray, rows: np.ndarray, cols: np.ndarray
) -> None:
    """out[e] += g[rows[e]] . h[cols[e]] for every edge e, a slice at a time.

    Each product is the same einsum row reduction as over all edges at once,
    so the result is bitwise that of the unblocked sum.
    """
    for start in range(0, rows.size, _EDGE_BLOCK):
        edges = slice(start, start + _EDGE_BLOCK)
        out[edges] += np.einsum("ed,ed->e", g[rows[edges]], h[cols[edges]])


def cf_backward(
    cfg: ModelConfig, inputs: ModelInputs, grad_users: np.ndarray, grad_items: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Backward of cf_forward; lightgcn scales first, where cf_forward divides last."""
    if cfg.backend == "mf":
        return grad_users, grad_items
    acc = (1.0 / (cfg.cf_layers + 1)) * np.concatenate([grad_users, grad_items], axis=0)
    total = acc.copy()
    for _ in range(cfg.cf_layers):
        acc = inputs.bipartite.csr @ acc
        total += acc
    return total[: inputs.num_users], total[inputs.num_users :]


def backward_pass(
    cfg: ModelConfig,
    params: ParameterSet,
    inputs: ModelInputs,
    cache: ForwardCache,
    grad_users: np.ndarray,
    grad_items: np.ndarray,
) -> dict[str, np.ndarray]:
    """Parameter gradients from the gradients on forward_pass's two outputs.

    cache is that pass's; one that took its item graph as a constant recorded
    no fused graph, so graph-structure parameters are left out.  mf's table
    gradients are grad_users and grad_items themselves.
    """
    frozen = not cache.fused
    grad_user_table, grad_item_table = cf_backward(cfg, inputs, grad_users, grad_items)
    if cfg.variant == "base":
        return {"user_emb": grad_user_table, "item_emb": grad_item_table}
    grads: dict[str, np.ndarray] = {}

    # enhancement: x_hat = x_item + normalize(src)
    grad_src = unit_rows_backward(grad_items, cache.enhance_add, cache.enhance_norms)

    # propagation back to its input src; on a learned graph also the gradient
    # on its edge values
    if cfg.uses_item_graph:
        graph = cache.graph
        if not frozen:
            grad_vals = np.zeros(graph.nnz)
            rows, cols = graph.edge_rows(), graph.indices
        for layer in range(cfg.item_layers, 0, -1):
            if not frozen:
                _add_edge_products(grad_vals, grad_src, cache.h_layers[layer - 1], rows, cols)
            grad_src = graph.csr.T @ grad_src

    # projection and concatenated-feature path
    modalities = sorted(inputs.features)
    grad_h_modal: dict[str, np.ndarray] = {}
    if cfg.uses_projection:
        grads["projection"] = grad_src.T @ cache.feat_concat
        parts = np.split(grad_src @ params.projection, len(modalities), axis=1)
        grad_h_modal = {m: part.copy() for m, part in zip(modalities, parts)}

    # graph-structure path: mixed graph -> retained edges -> normalization ->
    # cosine; a retained edge enters the mix times its softmax weight (the one
    # aggregate_modalities used) and the skip blend's 1 - lambda
    if cfg.uses_item_graph and not frozen:
        alpha = softmax(params.logits)
        grad_alpha = np.zeros(alpha.size)
        for idx, m in enumerate(modalities):
            fused = cache.fused[m]
            grad_alpha[idx] = float(np.dot(values_at(graph, grad_vals, fused), fused.values))
            retained, features = cache.learned.get(m, (None, None))
            if retained is None or retained.nnz == 0:
                continue
            g_mixed = values_at(graph, grad_vals, retained)
            g_learned = (1.0 - cfg.fuse_lambda) * (alpha[idx] * g_mixed)
            g_retained = normalize_sym_backward(g_learned, retained)
            grad_h = knn_cosine_backward(g_retained, retained, features)
            prior = grad_h_modal.get(m)
            grad_h_modal[m] = grad_h if prior is None else prior + grad_h
        grads["modality_logits"] = alpha * (grad_alpha - float(np.dot(alpha, grad_alpha)))

    # transformed features back to the affine maps
    if not (cfg.variant == "full" and frozen):
        for m in params.modalities:
            g_h = grad_h_modal.get(m)
            if g_h is None:
                grads[f"transform_w.{m}"] = np.zeros_like(params.transform_w[m])
                grads[f"transform_b.{m}"] = np.zeros_like(params.transform_b[m])
            else:
                grads[f"transform_w.{m}"] = g_h.T @ inputs.features[m]
                grads[f"transform_b.{m}"] = g_h.sum(axis=0)

    # full's item table is also the propagation's input
    if cfg.variant == "full":
        grad_item_table = grad_item_table + grad_src
    return {**grads, "user_emb": grad_user_table, "item_emb": grad_item_table}


# ---------------------------------------------------------------------------
# checkpoints: JSON header + raw little-endian float32 parameter blocks


def save_checkpoint(
    path,
    cfg: ModelConfig,
    params: ParameterSet,
    meta: Mapping[str, object] | None = None,
) -> None:
    """Write config, shapes, and parameters; block order follows params.

    A parameter that is not finite in float32, NaN or beyond its range,
    raises CheckpointError before anything is written.
    """
    with np.errstate(over="ignore"):
        blocks = [np.ascontiguousarray(arr, dtype="<f4") for arr in params.values()]
    for name, block in zip(params, blocks):
        if not np.all(np.isfinite(block)):
            raise CheckpointError(f"{path}: parameter {name} is not finite in float32")
    header = {
        "config": dataclasses.asdict(cfg),
        "num_users": int(params.user_emb.shape[0]),
        "num_items": int(params.item_emb.shape[0]),
        "modalities": list(params.modalities),
        "parameters": [
            {"name": name, "shape": list(arr.shape)} for name, arr in params.items()
        ],
        "meta": dict(meta or {}),
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    prefix = CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION, len(blob)) + blob
    write_atomic(path, itertools.chain([prefix], (block.tobytes() for block in blocks)))


def load_checkpoint(path) -> tuple[ModelConfig, ParameterSet, dict]:
    """Read a checkpoint; parameters come back as float64.

    The parameter blocks must be exactly those parameter_shapes lists for the
    header's config, user and item counts, and modality widths; any other
    malformed content raises CheckpointError.
    """
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if len(blob) < 12 or blob[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    (version,) = struct.unpack("<I", blob[4:8])
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    (header_len,) = struct.unpack("<I", blob[8:12])
    if len(blob) < 12 + header_len:
        raise CheckpointError(f"{path}: truncated checkpoint header")
    try:
        header = json.loads(blob[12 : 12 + header_len].decode("utf-8"))
        cfg = ModelConfig(**header["config"])
        entries = [(entry["name"], tuple(entry["shape"])) for entry in header["parameters"]]
        if not all(type(d) is int and d >= 0 for _, shape in entries for d in shape):
            raise ValueError("parameter shapes must be lists of non-negative integers")
        widths = {name: shape[-1] for name, shape in entries if shape}
        feat_dims = {m: widths.get(f"transform_w.{m}") for m in header["modalities"]}
        expected = parameter_shapes(cfg, header["num_users"], header["num_items"], feat_dims)
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckpointError(f"{path}: bad checkpoint header: {exc}") from exc
    if entries != list(expected.items()):
        raise CheckpointError(
            f"{path}: parameter blocks {entries} do not match "
            f"{list(expected.items())}, which the header's config needs"
        )
    offset = 12 + header_len
    params = ParameterSet()
    for name, shape in entries:
        end = offset + 4 * math.prod(shape)
        if end > len(blob):
            raise CheckpointError(f"{path}: truncated parameter block {name}")
        try:
            arr = np.frombuffer(blob[offset:end], dtype="<f4").reshape(shape)
        except ValueError as exc:
            raise CheckpointError(f"{path}: bad parameter block {name}: {exc}") from exc
        # checked before the cast, which warns on a signalling NaN
        if not np.all(np.isfinite(arr)):
            raise CheckpointError(f"{path}: parameter block {name} is not finite")
        params[name] = arr.astype(np.float64)
        offset = end
    if offset != len(blob):
        raise CheckpointError(f"{path}: trailing bytes after parameter blocks")
    return cfg, params, header.get("meta", {})
