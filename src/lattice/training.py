"""Pairwise-ranking training: the BPR loss and its gradients, Adam, and the fit loop.

compute_gradients differentiates the loss onto the model's outputs and hands
those gradients to model.backward_pass, which knows the model's insides.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass
from typing import Mapping

import numpy as np
from scipy.special import expit

from .data import ModalityFeatures, sample_negative
from .errors import ConfigError, GradientError
from .evaluation import evaluate
from .graph import SparseGraph, softmax
from .model import (
    ForwardCache,
    ForwardOutput,
    ModelConfig,
    ModelInputs,
    ParameterSet,
    Settings,
    backward_pass,
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
    A shape too large for a float64 array raises ConfigError before any draw.
    """
    shapes = parameter_shapes(cfg, num_users, num_items, feat_dims)
    for name, shape in shapes.items():
        if math.prod(shape) > np.iinfo(np.intp).max // 8:
            raise ConfigError(f"parameter {name} of shape {shape} is too big for a float64 array")
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


def compute_gradients(
    cfg: ModelConfig,
    train_cfg: TrainConfig,
    params: ParameterSet,
    inputs: ModelInputs,
    batch,
    graph: SparseGraph | None = None,
) -> tuple[float, dict, ForwardCache]:
    """Loss and analytic gradients of one batch of (user, pos, neg) triples.

    The loss is the ranking loss plus the embedding penalty, the objective the
    gradients differentiate.  A supplied graph is frozen (see backward_pass).
    Raises GradientError if any gradient comes back non-finite.
    """
    users, pos, neg = _check_batch(batch, inputs.num_users, inputs.num_items)
    out, cache = forward_pass(cfg, params, inputs, graph)
    pos_s, neg_s = _triple_scores(out, users, pos, neg)
    # the gathered rows are freed before the backward pass, not held through it
    loss = bpr_loss(pos_s, neg_s) + l2_penalty(
        params.user_emb[users], params.item_emb[pos], params.item_emb[neg], train_cfg.l2_coeff
    )

    n_triples = users.size
    # d loss / d neg_s per triple; d loss / d pos_s is its negation
    coef = expit(neg_s - pos_s) / n_triples

    x_u = out.user_vecs[users]
    item_gap = out.enhanced_items[neg] - out.enhanced_items[pos]
    grad_user_out = np.zeros_like(out.user_vecs)
    np.add.at(grad_user_out, users, coef[:, None] * item_gap)
    grad_item_out = np.zeros_like(out.enhanced_items)
    np.add.at(grad_item_out, pos, -coef[:, None] * x_u)
    np.add.at(grad_item_out, neg, coef[:, None] * x_u)

    grads = backward_pass(cfg, params, inputs, cache, grad_user_out, grad_item_out)

    # embedding penalty acts on the raw tables
    if train_cfg.l2_coeff > 0.0:
        scale = train_cfg.l2_coeff / n_triples
        np.add.at(grads["user_emb"], users, scale * params.user_emb[users])
        np.add.at(grads["item_emb"], pos, scale * params.item_emb[pos])
        np.add.at(grads["item_emb"], neg, scale * params.item_emb[neg])

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
        slot.m *= ADAM_BETA1
        slot.m += (1.0 - ADAM_BETA1) * g
        slot.v *= ADAM_BETA2
        slot.v += (1.0 - ADAM_BETA2) * (g * g)
        m_hat = slot.m / (1.0 - ADAM_BETA1**slot.t)
        v_hat = slot.v / (1.0 - ADAM_BETA2**slot.t)
        arr -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


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
    """The best parameters, every epoch's record, and the inputs they were fit on.

    best_epoch is 1-based; the configs are fit's own arguments, so the
    caller already holds them.
    """

    params: ParameterSet
    history: list
    best_epoch: int
    inputs: ModelInputs


def fit(
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    split,
    features: Mapping[str, ModalityFeatures],
    inputs: ModelInputs | None = None,
) -> FitResult:
    """Train with per-epoch negative resampling and early stopping.

    Stops after `patience` epochs without a strict improvement in validation
    recall and returns the best snapshot seen.  An empty validation partition
    disables early stopping: the run goes the full max_epochs and returns the
    final parameters.  Parameter initialization and the shuffle/negative
    stream use separate generators derived from the seed, so configs that
    share table shapes share their table initializations.  history holds
    each epoch's EpochRecord, whose as_log_entry() is its train-log line.
    """
    if split.train.num_pairs == 0:
        raise ValueError("training requires a non-empty train partition")
    if inputs is None:
        inputs = build_inputs(model_cfg, split.train, features)

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
        frozen = None
        loss_sum = 0.0
        for start in range(0, epoch_pairs.shape[0], train_cfg.batch_size):
            stop = start + train_cfg.batch_size
            batch = (
                epoch_pairs[start:stop, 0],
                epoch_pairs[start:stop, 1],
                negatives[start:stop],
            )
            loss, grads, cache = compute_gradients(
                model_cfg, train_cfg, params, inputs, batch, graph=frozen
            )
            if train_cfg.graph_refresh == "per_epoch" and cache.graph is not None:
                frozen = cache.graph
            adam_step(adam_state, params, grads, train_cfg.learning_rate)
            loss_sum += loss * batch[0].shape[0]
        train_loss = loss_sum / epoch_pairs.shape[0]

        val_recall, val_ndcg = 0.0, 0.0
        if has_valid:
            report = evaluate(
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
        alpha = [] if params.logits is None else softmax(params.logits).tolist()
        record = EpochRecord(
            epoch=epoch,
            train_loss=train_loss,
            val_recall=val_recall,
            val_ndcg=val_ndcg,
            alpha=alpha,
            seconds=time.perf_counter() - started,
        )
        history.append(record)

        # without validation every epoch is the best yet; the last one is returned
        if not has_valid or val_recall > best_recall:
            best_recall = val_recall
            best_params = params.copy() if has_valid else params
            best_epoch = epoch
            epochs_since_best = 0
        else:
            epochs_since_best += 1
            if epochs_since_best >= train_cfg.patience:
                break

    return FitResult(params=best_params, history=history, best_epoch=best_epoch, inputs=inputs)
