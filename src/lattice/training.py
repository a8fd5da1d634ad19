"""Pairwise-ranking training with hand-written reverse-mode gradients.

Gradient contract for the learned item graph: which entries survive top-k
selection is treated as a constant of the batch, but gradients flow through
the retained cosine values, the degree normalization, the skip blend, the
softmax mixture weights, and the propagation itself.  The graph built from
raw features is a constant.  Finite-difference checks in the test suite pin
this behaviour down.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass
from typing import Callable, Mapping, TextIO

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from .data import ModalityFeatures, sample_negative
from .errors import GradientError
from .evaluation import evaluate
from .graph import NORM_EPS, SparseGraph, softmax, values_at
from .model import (
    ForwardCache,
    ForwardOutput,
    GraphBundle,
    ModelConfig,
    ModelInputs,
    ParameterSet,
    Settings,
    build_inputs,
    forward_pass,
    parameter_shapes,
    setting,
)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

VALIDATION_CUTOFF = 20


@dataclass(frozen=True)
class TrainConfig(Settings):
    # bounded by the largest float: finite, and comparable with an int of any size
    learning_rate: float = setting(1e-3, lambda v: 0.0 < v <= sys.float_info.max)
    l2_coeff: float = setting(1e-4, lambda v: 0.0 <= v <= sys.float_info.max)
    batch_size: int = setting(1024, lambda v: v >= 1)
    max_epochs: int = setting(100, lambda v: v >= 1)
    patience: int = setting(10, lambda v: v >= 1)
    seed: int = setting(0, lambda v: v >= 0)
    graph_refresh: str = setting("per_batch", ("per_batch", "per_epoch"))


def xavier_init(shape: tuple[int, int], rng: np.random.Generator) -> np.ndarray:
    """Uniform(-a, a) with a = sqrt(6 / (fan_in + fan_out))."""
    if len(shape) != 2:
        raise ValueError("xavier_init expects a 2-D shape")
    bound = np.sqrt(6.0 / (shape[0] + shape[1]))
    return rng.uniform(-bound, bound, size=shape)


def init_parameters(
    cfg: ModelConfig,
    num_users: int,
    num_items: int,
    feat_dims: Mapping[str, int],
    rng: np.random.Generator,
) -> ParameterSet:
    """Draw all trainable arrays, in the canonical order of parameter_shapes.

    Tables, weight matrices and the projection (every 2-D shape) are
    Xavier-initialized; biases and mixture logits start at zero.  Tables are
    drawn first, so configs sharing a seed share their table initializations.
    """
    shapes = parameter_shapes(cfg, num_users, num_items, feat_dims)
    return ParameterSet(
        (name, xavier_init(shape, rng) if len(shape) == 2 else np.zeros(shape))
        for name, shape in shapes.items()
    )


def bpr_loss(pos_scores: np.ndarray, neg_scores: np.ndarray) -> float:
    """Mean softplus(neg - pos), the pairwise ranking loss.

    Computed via logaddexp so large score gaps cannot overflow.
    """
    pos_scores = np.asarray(pos_scores, dtype=np.float64)
    neg_scores = np.asarray(neg_scores, dtype=np.float64)
    if pos_scores.shape != neg_scores.shape or pos_scores.ndim != 1:
        raise ValueError("score arrays must be 1-D and aligned")
    if pos_scores.size == 0:
        raise ValueError("at least one score pair is required")
    return float(np.mean(np.logaddexp(0.0, neg_scores - pos_scores)))


def l2_penalty(
    user_vecs: np.ndarray,
    pos_vecs: np.ndarray,
    neg_vecs: np.ndarray,
    coeff: float,
) -> float:
    """(coeff / 2) * mean over triples of the summed squared embedding norms."""
    if coeff == 0.0:
        return 0.0
    per_triple = (
        np.sum(user_vecs * user_vecs, axis=1)
        + np.sum(pos_vecs * pos_vecs, axis=1)
        + np.sum(neg_vecs * neg_vecs, axis=1)
    )
    return float(0.5 * coeff * np.mean(per_triple))


def _check_batch(batch, num_users: int, num_items: int):
    users, pos, neg = (np.asarray(a, dtype=np.int64) for a in batch)
    if not (users.shape == pos.shape == neg.shape) or users.ndim != 1 or users.size == 0:
        raise ValueError("batch arrays must be non-empty and aligned")
    if users.min() < 0 or users.max() >= num_users:
        raise ValueError("batch user id out of range")
    for arr in (pos, neg):
        if arr.min() < 0 or arr.max() >= num_items:
            raise ValueError("batch item id out of range")
    return users, pos, neg


def _triple_scores(
    out: ForwardOutput, users: np.ndarray, pos: np.ndarray, neg: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    x_u = out.user_vecs[users]
    pos_s = np.einsum("bd,bd->b", x_u, out.enhanced_items[pos])
    neg_s = np.einsum("bd,bd->b", x_u, out.enhanced_items[neg])
    return pos_s, neg_s


def _objective(cfg, train_cfg, params, inputs, batch, graphs):
    """The batch loss, with the forward pass, checked batch and scores it used."""
    users, pos, neg = _check_batch(batch, inputs.num_users, inputs.num_items)
    out, cache = forward_pass(cfg, params, inputs, graphs)
    pos_s, neg_s = _triple_scores(out, users, pos, neg)
    loss = bpr_loss(pos_s, neg_s)
    loss += l2_penalty(
        params.user_emb[users],
        params.item_emb[pos],
        params.item_emb[neg],
        train_cfg.l2_coeff,
    )
    return loss, out, cache, (users, pos, neg), (pos_s, neg_s)


def batch_loss(
    cfg: ModelConfig,
    train_cfg: TrainConfig,
    params: ParameterSet,
    inputs: ModelInputs,
    batch,
    graphs: GraphBundle | None = None,
) -> float:
    """Ranking loss plus embedding penalty of one batch, forward only."""
    return _objective(cfg, train_cfg, params, inputs, batch, graphs)[0]


# ---------------------------------------------------------------------------
# backward pass


def _unit_rows_backward(
    grad_unit: np.ndarray, unit: np.ndarray, norms: np.ndarray
) -> np.ndarray:
    """Backward of graph.unit_rows: v -> v / ||v||, guarded rows get 0.

    unit and norms are the forward outputs of unit_rows.
    """
    dots = np.einsum("nd,nd->n", grad_unit, unit)
    safe = np.where(norms >= NORM_EPS, norms, 1.0)
    grad = (grad_unit - dots[:, None] * unit) / safe[:, None]
    grad[norms < NORM_EPS] = 0.0
    return grad


def _normalize_sym_backward(
    grad_vals: np.ndarray, retained: SparseGraph
) -> np.ndarray:
    """Backward of w_ij -> w_ij / sqrt(d_i d_j) onto the retained weights.

    d is the vector of row sums, so every stored weight in row i moves d_i,
    and every stored weight also moves the degree of its source node as seen
    from column positions.
    """
    degrees = retained.row_sums()
    rows = retained.edge_rows()
    cols = retained.indices
    inv_sqrt = np.where(
        degrees >= NORM_EPS, 1.0 / np.sqrt(np.maximum(degrees, NORM_EPS)), 0.0
    )
    inv_deg = np.where(degrees >= NORM_EPS, 1.0 / np.maximum(degrees, NORM_EPS), 0.0)
    out_vals = retained.values * inv_sqrt[rows] * inv_sqrt[cols]
    prod = grad_vals * out_vals
    row_dot = np.zeros(retained.num_nodes)
    col_dot = np.zeros(retained.num_nodes)
    np.add.at(row_dot, rows, prod)
    np.add.at(col_dot, cols, prod)
    direct = grad_vals * inv_sqrt[rows] * inv_sqrt[cols]
    return direct - 0.5 * (row_dot + col_dot)[rows] * inv_deg[rows]


def _cosine_topk_backward(
    grad_vals: np.ndarray,
    retained: SparseGraph,
    unit: np.ndarray,
    norms: np.ndarray,
) -> np.ndarray:
    """Backward from retained cosine values to the transformed feature rows.

    The support is a constant; each retained value is u_i . u_j with u the
    unit rows.  Diagonal entries fall out of the symmetric accumulation.
    """
    m = sp.csr_matrix(
        (grad_vals, retained.indices, retained.indptr), shape=retained.csr.shape
    )
    return _unit_rows_backward(m @ unit + m.T @ unit, unit, norms)


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


def compute_gradients(
    cfg: ModelConfig,
    train_cfg: TrainConfig,
    params: ParameterSet,
    inputs: ModelInputs,
    batch,
    graphs: GraphBundle | None = None,
) -> tuple[float, dict, ForwardCache]:
    """Loss and analytic gradients of one batch of (user, pos, neg) triples.

    With graphs supplied the item graph is a frozen constant: graph-structure
    parameters are left out of the gradient dict entirely.  Raises
    GradientError if any gradient comes back non-finite.
    """
    loss, out, cache, (users, pos, neg), (pos_s, neg_s) = _objective(
        cfg, train_cfg, params, inputs, batch, graphs
    )
    frozen = graphs is not None

    n_triples = users.size
    # d loss / d neg_s per triple; d loss / d pos_s is its negation
    coef = expit(neg_s - pos_s) / n_triples

    x_u = out.user_vecs[users]
    grad_user_out = np.zeros_like(out.user_vecs)
    np.add.at(
        grad_user_out,
        users,
        coef[:, None] * (out.enhanced_items[neg] - out.enhanced_items[pos]),
    )
    grad_item_out = np.zeros_like(out.enhanced_items)
    np.add.at(grad_item_out, pos, -coef[:, None] * x_u)
    np.add.at(grad_item_out, neg, coef[:, None] * x_u)

    grads: dict[str, np.ndarray] = {}

    # enhancement: x_hat = x_item + normalize(src); the item table gets
    # grad_item_out unchanged, src gets its normalization backward
    grad_src = None
    if cfg.variant != "base":
        grad_src = _unit_rows_backward(grad_item_out, cache.enhance_add, cache.enhance_norms)

    # propagation; on a learned graph also the gradient on its edge values
    grad_h0 = None
    if cfg.uses_item_graph:
        graph = cache.graph
        if not frozen:
            grad_graph_vals = np.zeros(graph.nnz)
            rows = graph.edge_rows()
        g = grad_src
        for layer in range(cfg.item_layers, 0, -1):
            if not frozen:
                _add_edge_products(
                    grad_graph_vals, g, cache.h_layers[layer - 1], rows, graph.indices
                )
            g = graph.rmatmul(g)
        grad_h0 = g
    elif cfg.variant == "feats_side_info":
        grad_h0 = grad_src  # src is the projection output itself

    # projection and concatenated-feature path
    grad_h_modal: dict[str, np.ndarray] = {}
    if cfg.uses_projection:
        grads["projection"] = grad_h0.T @ cache.feat_concat
        grad_concat = grad_h0 @ params.projection
        offset = 0
        for m in sorted(inputs.features):
            width = cfg.hidden_dim
            grad_h_modal[m] = grad_concat[:, offset : offset + width].copy()
            offset += width

    # graph-structure path: mixture -> skip blend -> normalization -> cosine
    if cfg.uses_item_graph and not frozen:
        alpha = cache.alpha
        grad_alpha = np.zeros(alpha.size)
        for idx, m in enumerate(sorted(inputs.features)):
            fused = cache.fused[m]
            g_on_fused = values_at(graph, grad_graph_vals, fused)
            grad_alpha[idx] = float(np.dot(g_on_fused, fused.values))
            if m not in cache.learned:
                continue
            retained, unit, norms = cache.learned[m]
            if retained.nnz == 0:
                continue
            g_learned = (1.0 - cfg.fuse_lambda) * values_at(
                fused, alpha[idx] * g_on_fused, retained
            )
            g_retained = _normalize_sym_backward(g_learned, retained)
            grad_h = _cosine_topk_backward(g_retained, retained, unit, norms)
            if m in grad_h_modal:
                grad_h_modal[m] += grad_h
            else:
                grad_h_modal[m] = grad_h
        # softmax backward
        grads["modality_logits"] = alpha * (grad_alpha - float(np.dot(alpha, grad_alpha)))

    # transformed features back to the affine maps
    if cfg.uses_modal_features and not (cfg.variant == "full" and frozen):
        for m in params.modalities:
            g_h = grad_h_modal.get(m)
            if g_h is None:
                grads[f"transform_w.{m}"] = np.zeros_like(params.transform_w[m])
                grads[f"transform_b.{m}"] = np.zeros_like(params.transform_b[m])
            else:
                grads[f"transform_w.{m}"] = g_h.T @ inputs.features[m]
                grads[f"transform_b.{m}"] = g_h.sum(axis=0)

    # backend back to the tables
    if cfg.backend == "mf":
        grad_user_table = grad_user_out
        grad_item_table = grad_item_out
    else:
        g0 = np.concatenate([grad_user_out, grad_item_out], axis=0)
        scale = 1.0 / (cfg.cf_layers + 1)
        acc = scale * g0
        total = acc.copy()
        for _ in range(cfg.cf_layers):
            acc = inputs.bipartite.matmul(acc)
            total += acc
        grad_user_table = total[: inputs.num_users]
        grad_item_table = total[inputs.num_users :]
    if cfg.variant == "full":
        grad_item_table = grad_item_table + grad_h0

    # embedding penalty acts on the raw tables
    if train_cfg.l2_coeff > 0.0:
        scale = train_cfg.l2_coeff / n_triples
        np.add.at(grad_user_table, users, scale * params.user_emb[users])
        np.add.at(grad_item_table, pos, scale * params.item_emb[pos])
        np.add.at(grad_item_table, neg, scale * params.item_emb[neg])

    grads["user_emb"] = grad_user_table
    grads["item_emb"] = grad_item_table

    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise GradientError(f"non-finite gradient for parameter {name}")
    return loss, grads, cache


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class AdamSlot:
    m: np.ndarray
    v: np.ndarray
    t: int = 0


def adam_step(
    state: dict,
    params: ParameterSet,
    grads: Mapping[str, np.ndarray],
    lr: float,
    beta1: float = ADAM_BETA1,
    beta2: float = ADAM_BETA2,
    eps: float = ADAM_EPS,
) -> None:
    """One Adam update, in place, with bias-corrected moment estimates.

    Each parameter keeps its own step counter, so parameters absent from a
    batch's gradient dict (frozen-graph batches) are simply skipped.
    """
    for name in sorted(grads):
        g = grads[name]
        arr = params[name]
        slot = state.get(name)
        if slot is None:
            slot = AdamSlot(m=np.zeros_like(arr), v=np.zeros_like(arr))
            state[name] = slot
        slot.t += 1
        slot.m *= beta1
        slot.m += (1.0 - beta1) * g
        slot.v *= beta2
        slot.v += (1.0 - beta2) * (g * g)
        m_hat = slot.m / (1.0 - beta1**slot.t)
        v_hat = slot.v / (1.0 - beta2**slot.t)
        arr -= lr * m_hat / (np.sqrt(v_hat) + eps)


# ---------------------------------------------------------------------------
# fit loop


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_recall: float
    val_ndcg: float
    alpha: list
    seconds: float

    def as_log_entry(self) -> dict:
        return {
            "epoch": self.epoch,
            "train_loss": self.train_loss,
            f"val_recall@{VALIDATION_CUTOFF}": self.val_recall,
            f"val_ndcg@{VALIDATION_CUTOFF}": self.val_ndcg,
            "alpha": self.alpha,
            "seconds": self.seconds,
        }


@dataclass
class FitResult:
    params: ParameterSet
    history: list
    best_epoch: int
    inputs: ModelInputs
    model_cfg: ModelConfig
    train_cfg: TrainConfig


def fit(
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    split,
    features: Mapping[str, ModalityFeatures],
    log_stream: TextIO | None = None,
    inputs: ModelInputs | None = None,
    evaluate_fn: Callable | None = None,
) -> FitResult:
    """Train with per-epoch negative resampling and early stopping.

    Stops after `patience` epochs without a strict improvement in validation
    recall and returns the best snapshot seen.  An empty validation partition
    disables early stopping: the run goes the full max_epochs and returns the
    final parameters.  Parameter initialization and the shuffle/negative
    stream use separate generators derived from the seed, so configs that
    share table shapes share their table initializations.
    """
    if split.train.num_pairs == 0:
        raise ValueError("training requires a non-empty train partition")
    if inputs is None:
        inputs = build_inputs(model_cfg, split.train, features)
    eval_fn = evaluate_fn if evaluate_fn is not None else evaluate

    rng_init = np.random.default_rng(train_cfg.seed)
    feat_dims = {m: mat.shape[1] for m, mat in inputs.features.items()}
    params = init_parameters(
        model_cfg, inputs.num_users, inputs.num_items, feat_dims, rng_init
    )
    rng_epoch = np.random.default_rng([train_cfg.seed, 1])

    pairs = split.train.pairs
    pos_sets = split.train.positives_as_sets()
    has_valid = split.valid.num_pairs > 0

    adam_state: dict = {}
    history: list[EpochRecord] = []
    best_params = params.copy()
    best_recall = -np.inf
    best_epoch = 0
    epochs_since_best = 0

    for epoch in range(1, train_cfg.max_epochs + 1):
        started = time.perf_counter()
        perm = rng_epoch.permutation(pairs.shape[0])
        epoch_pairs = pairs[perm]
        negatives = np.fromiter(
            (
                sample_negative(int(u), pos_sets[int(u)], inputs.num_items, rng_epoch)
                for u in epoch_pairs[:, 0]
            ),
            dtype=np.int64,
            count=epoch_pairs.shape[0],
        )
        bundle = None
        loss_sum = 0.0
        for start in range(0, epoch_pairs.shape[0], train_cfg.batch_size):
            stop = start + train_cfg.batch_size
            batch = (
                epoch_pairs[start:stop, 0],
                epoch_pairs[start:stop, 1],
                negatives[start:stop],
            )
            loss, grads, cache = compute_gradients(
                model_cfg, train_cfg, params, inputs, batch, graphs=bundle
            )
            if (
                train_cfg.graph_refresh == "per_epoch"
                and bundle is None
                and model_cfg.uses_item_graph
                and cache.graph is not None
            ):
                bundle = GraphBundle(graph=cache.graph, alpha=cache.alpha)
            adam_step(adam_state, params, grads, train_cfg.learning_rate)
            loss_sum += loss * batch[0].shape[0]
        train_loss = loss_sum / epoch_pairs.shape[0]

        val_recall, val_ndcg = 0.0, 0.0
        if has_valid:
            report = eval_fn(
                params,
                model_cfg,
                split,
                features,
                "valid",
                cutoffs=(VALIDATION_CUTOFF,),
                inputs=inputs,
            )
            val_recall = report.metrics[VALIDATION_CUTOFF]["recall"]
            val_ndcg = report.metrics[VALIDATION_CUTOFF]["ndcg"]
        alpha = (
            [float(a) for a in softmax(params.logits)]
            if params.logits is not None
            else []
        )
        record = EpochRecord(
            epoch=epoch,
            train_loss=train_loss,
            val_recall=val_recall,
            val_ndcg=val_ndcg,
            alpha=alpha,
            seconds=time.perf_counter() - started,
        )
        history.append(record)
        if log_stream is not None:
            log_stream.write(json.dumps(record.as_log_entry()) + "\n")
            log_stream.flush()

        if not has_valid:
            best_epoch = epoch
            continue
        if val_recall > best_recall:
            best_recall = val_recall
            best_params = params.copy()
            best_epoch = epoch
            epochs_since_best = 0
        else:
            epochs_since_best += 1
            if epochs_since_best >= train_cfg.patience:
                break

    if not has_valid:
        best_params = params

    return FitResult(
        params=best_params,
        history=history,
        best_epoch=best_epoch,
        inputs=inputs,
        model_cfg=model_cfg,
        train_cfg=train_cfg,
    )
