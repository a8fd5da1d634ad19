"""Reference computations the benchmark checks the package's outputs against.

Each check returns the number of sampled items (graph rows, users) that
disagree with a plain dense reference.  The references share no code with
the package: graph rows come from a dense cosine row and a stable sort, and
rankings from one full stable argsort over every item.
"""

from __future__ import annotations

import numpy as np

from lattice import evaluation

# Cosine values computed by a row product and by the package's block product
# may differ in the last bits; columns whose reference similarity lies this
# close to the row's k-th value may be swapped without counting as an error.
TIE_TOLERANCE = 1e-12
VALUE_RTOL = 1e-9


def _unit(features: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(features, axis=1)
    unit = np.zeros_like(features)
    ok = norms >= 1e-12
    unit[ok] = features[ok] / norms[ok, None]
    return unit


def _reference_row(unit: np.ndarray, i: int, k: int):
    """Columns (sorted) and similarities of row i's k largest positive cosines.

    Ties go to the smaller column: a stable sort of the negated row.
    """
    sims = np.maximum(unit @ unit[i], 0.0)
    order = np.argsort(-sims, kind="stable")[:k]
    order = order[sims[order] > 0.0]
    cols = np.sort(order)
    return cols, sims


def graph_row_failures(
    graph, features: np.ndarray, k: int, rows, normalized: bool
) -> int:
    """Count sampled rows of a kNN graph that differ from the dense reference.

    With normalized=True the graph is expected to hold
    s_ij / sqrt(d_i d_j), where d is the sum of a row's kept similarities.
    """
    unit = _unit(np.asarray(features, dtype=np.float64))
    cache: dict = {}

    def ref(i):
        if i not in cache:
            cache[i] = _reference_row(unit, i, k)
        return cache[i]

    def degree(j):
        cols, sims = ref(int(j))
        return float(np.sum(sims[cols]))

    failures = 0
    for i in rows:
        i = int(i)
        got_cols = graph.indices[graph.indptr[i] : graph.indptr[i + 1]]
        got_vals = graph.values[graph.indptr[i] : graph.indptr[i + 1]]
        cols, sims = ref(i)
        if not np.array_equal(got_cols, cols):
            kth = sims[cols].min() if cols.size else 0.0
            swapped = np.setxor1d(got_cols, cols)
            if got_cols.size != cols.size or np.any(
                np.abs(sims[swapped] - kth) > TIE_TOLERANCE
            ):
                failures += 1
                continue
        expected = sims[got_cols]
        if normalized:
            d_i = degree(i)
            expected = np.array(
                [s / np.sqrt(d_i * degree(j)) for s, j in zip(expected, got_cols)]
            )
        if not np.allclose(got_vals, expected, rtol=VALUE_RTOL, atol=TIE_TOLERANCE):
            failures += 1
    return failures


def _reference_metrics(ranked: np.ndarray, relevant: np.ndarray, cutoffs) -> dict:
    rel = set(int(i) for i in relevant)
    out = {}
    for c in cutoffs:
        positions = np.array(
            [p + 1 for p, item in enumerate(ranked[:c]) if int(item) in rel],
            dtype=np.int64,
        )
        ideal = np.arange(1, min(c, len(rel)) + 1)
        out[c] = {
            "recall": positions.size / len(rel),
            "precision": positions.size / c,
            "ndcg": float(np.sum(1.0 / np.log2(positions + 1.0)))
            / float(np.sum(1.0 / np.log2(ideal + 1.0))),
        }
    return out


def ranking_failures(user_vecs, enhanced, split, partition, users, cutoffs) -> int:
    """Count sampled users whose package ranking or metrics differ from the reference.

    The package side ranks with ``rank_items`` and scores with the metric
    functions; the reference masks excluded items with -inf and takes one
    stable argsort over the full catalogue, so ties go to the smaller item.
    """
    part = split.valid if partition == "valid" else split.test
    num_items = enhanced.shape[0]
    failures = 0
    for u in users:
        u = int(u)
        excluded = split.train.user_positives[u]
        if partition == "test":
            excluded = np.concatenate([excluded, split.valid.user_positives[u]])
        held = part.user_positives[u]
        ranked = evaluation.rank_items(user_vecs[u], enhanced, excluded)
        relevant = set(int(i) for i in held)
        got = {
            c: {
                "recall": evaluation.recall_at_k(ranked, relevant, c),
                "precision": evaluation.precision_at_k(ranked, relevant, c),
                "ndcg": evaluation.ndcg_at_k(ranked, relevant, c),
            }
            for c in cutoffs
        }
        candidates = np.setdiff1d(np.arange(num_items), excluded)
        scores = np.full(num_items, -np.inf)
        scores[candidates] = enhanced[candidates] @ user_vecs[u]
        order = np.argsort(-scores, kind="stable")[: candidates.size]
        depth = max(cutoffs)
        if not np.array_equal(ranked[:depth], order[:depth]) or got != _reference_metrics(
            order, held, cutoffs
        ):
            failures += 1
    return failures
