"""Top-k ranking metrics over held-out interactions.

Candidates for a user are all items minus the user's train positives; test
evaluation additionally excludes the user's validation positives.  Held-out
items always stay in the candidate pool, including cold-start items, which
are ranked against the full catalog.  Score ties resolve toward the smaller
item id.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .data import ModalityFeatures
from .errors import EvaluationError
from .model import ModelConfig, ModelInputs, ParameterSet, build_inputs, forward

PARTITIONS = ("valid", "test")


def rank_items(
    user_vec: np.ndarray,
    enhanced_items: np.ndarray,
    excluded: Sequence[int] | np.ndarray,
) -> np.ndarray:
    """Candidate items sorted by descending score, ties to smaller item id.

    Every item is scored and sorted; excluded ids (in [0, num_items)) are
    dropped from the sorted order.  NaN scores rank last.  Without equal
    scores or NaN the descending order is unique, so the fast unstable sort
    gives it; otherwise a stable sort puts tied items in id order.
    """
    neg = -(enhanced_items @ user_vec)
    keep = np.ones(neg.size, dtype=bool)
    keep[np.asarray(excluded, dtype=np.int64)] = False
    order = np.argsort(neg)
    ordered = neg[order]
    if ordered.size and (np.isnan(ordered[-1]) or np.any(ordered[1:] == ordered[:-1])):
        order = np.argsort(neg, kind="stable")
    return order[keep[order]]


def _hit_positions(ranked: np.ndarray, relevant: set, k: int) -> np.ndarray:
    """1-based positions of the relevant items among the first k ranked."""
    top = ranked[:k]
    hits = np.fromiter((int(i) in relevant for i in top), bool, top.size)
    return np.flatnonzero(hits) + 1


def _metrics_at(hits: np.ndarray, num_relevant: int, k: int) -> dict:
    """Recall, precision and nDCG at k from sorted 1-based hit positions.

    hits may run past k (the positions found up to a larger cutoff); only
    those up to k count.  The one definition of the three metrics.
    """
    if num_relevant == 0:
        raise ValueError("relevant set must be non-empty")
    positions = hits[: np.searchsorted(hits, k, side="right")]
    dcg = float(np.sum(1.0 / np.log2(positions + 1.0)))
    ideal = np.arange(1, min(k, num_relevant) + 1)
    idcg = float(np.sum(1.0 / np.log2(ideal + 1.0)))
    return {
        "recall": positions.size / num_relevant,
        "precision": positions.size / k,
        "ndcg": dcg / idcg,
    }


def recall_at_k(ranked: np.ndarray, relevant: set, k: int) -> float:
    """Fraction of the relevant items appearing in the top k."""
    return _metrics_at(_hit_positions(ranked, relevant, k), len(relevant), k)["recall"]


def precision_at_k(ranked: np.ndarray, relevant: set, k: int) -> float:
    """Fraction of the top k that is relevant."""
    return _metrics_at(_hit_positions(ranked, relevant, k), len(relevant), k)["precision"]


def ndcg_at_k(ranked: np.ndarray, relevant: set, k: int) -> float:
    """Discounted cumulative gain at k against the ideal ordering.

    Binary relevance: a hit at 1-based position p earns 1 / log2(p + 1); the
    ideal places min(k, |relevant|) hits first.
    """
    return _metrics_at(_hit_positions(ranked, relevant, k), len(relevant), k)["ndcg"]


@dataclass(frozen=True)
class EvalReport:
    """Mean metrics over every user holding positives in the partition."""

    partition: str
    cutoffs: tuple
    metrics: dict
    num_users_evaluated: int

    def as_dict(self) -> dict:
        return {
            "partition": self.partition,
            "cutoffs": list(self.cutoffs),
            "metrics": {
                str(c): {k: float(v) for k, v in self.metrics[c].items()}
                for c in self.cutoffs
            },
            "num_users_evaluated": self.num_users_evaluated,
        }


def evaluate(
    params: ParameterSet,
    cfg: ModelConfig,
    split,
    features: Mapping[str, ModalityFeatures],
    partition: str,
    cutoffs: Sequence[int] = (20,),
    inputs: ModelInputs | None = None,
) -> EvalReport:
    """Rank every held-out user's candidates and average the metrics.

    Pass inputs to reuse precomputed graphs (the per-epoch validation path);
    otherwise they are rebuilt from the train partition.
    """
    if partition not in PARTITIONS:
        raise ValueError(f"unknown partition {partition!r}")
    cutoffs = tuple(int(c) for c in cutoffs)
    if not cutoffs or min(cutoffs) < 1:
        raise ValueError("cutoffs must be positive integers")
    part = split.valid if partition == "valid" else split.test
    if inputs is None:
        inputs = build_inputs(cfg, split.train, features)
    out = forward(cfg, params, inputs)

    totals = {c: {"recall": 0.0, "precision": 0.0, "ndcg": 0.0} for c in cutoffs}
    depth = max(cutoffs)
    evaluated = 0
    for u in range(part.num_users):
        held = part.user_positives[u]
        if held.size == 0:
            continue
        relevant = set(held.tolist())
        excluded = split.train.user_positives[u]
        if partition == "test":
            excluded = np.concatenate([excluded, split.valid.user_positives[u]])
        ranked = rank_items(out.user_vecs[u], out.enhanced_items, excluded)
        evaluated += 1
        hits = _hit_positions(ranked, relevant, depth)
        for c in cutoffs:
            for name, value in _metrics_at(hits, len(relevant), c).items():
                totals[c][name] += value
    if evaluated == 0:
        raise EvaluationError(f"no users hold positives in partition {partition!r}")
    metrics = {
        c: {name: value / evaluated for name, value in totals[c].items()}
        for c in cutoffs
    }
    return EvalReport(
        partition=partition,
        cutoffs=cutoffs,
        metrics=metrics,
        num_users_evaluated=evaluated,
    )
