"""Synthetic clustered datasets where content features predict preference.

Items fall into clusters with sign-vector centroids plus Gaussian noise; each
user interacts only within one cluster.  A model that leans on content
features can therefore rank unseen in-cluster items well, which is what the
cold-start recovery checks exercise.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .data import (
    InteractionDataset,
    ModalityFeatures,
    make_dataset,
    write_atomic,
    write_features,
)

DEFAULT_MODALITY = "content"

# Standard deviation of the Gaussian noise around each item's centroid.
NOISE_SCALE = 0.1


def clustered_dataset(
    num_clusters: int = 2,
    items_per_cluster: int = 100,
    feat_dim: int = 16,
    num_users: int = 200,
    positives_per_user: int = 10,
    seed: int = 0,
) -> tuple[InteractionDataset, dict]:
    """Build the clustered interactions plus the one feature modality, DEFAULT_MODALITY.

    Cluster centroids are +-1 sign vectors redrawn until every pair differs
    in at least feat_dim // 3 coordinates, keeping clusters well separated.
    User u belongs to cluster u mod num_clusters and holds
    positives_per_user distinct items drawn from that cluster; the first
    positive walks the cluster round-robin so that every item appears in the
    interactions whenever a cluster has at least as many users as items.
    """
    if positives_per_user > items_per_cluster:
        raise ValueError("positives_per_user cannot exceed items_per_cluster")
    rng = np.random.default_rng(seed)
    min_flips = max(1, feat_dim // 3)
    while True:
        centroids = rng.choice((-1.0, 1.0), size=(num_clusters, feat_dim))
        ok = all(
            np.sum(centroids[a] != centroids[b]) >= min_flips
            for a in range(num_clusters)
            for b in range(a + 1, num_clusters)
        )
        if ok:
            break

    num_items = num_clusters * items_per_cluster
    clusters = np.arange(num_items) // items_per_cluster
    feats = centroids[clusters] + NOISE_SCALE * rng.standard_normal(
        (num_items, feat_dim)
    )

    pair_rows = []
    for u in range(num_users):
        c = u % num_clusters
        pool = np.arange(c * items_per_cluster, (c + 1) * items_per_cluster)
        anchor = int(pool[(u // num_clusters) % items_per_cluster])
        rest = rng.choice(
            pool[pool != anchor], size=positives_per_user - 1, replace=False
        )
        chosen = np.concatenate([[anchor], rest])
        pair_rows.extend((u, int(i)) for i in np.sort(chosen))
    dataset = make_dataset(
        num_users=num_users,
        num_items=num_items,
        pairs=np.asarray(pair_rows, dtype=np.int64),
        user_labels=[f"u{u}" for u in range(num_users)],
        item_labels=[f"i{i}" for i in range(num_items)],
    )
    features = {DEFAULT_MODALITY: ModalityFeatures(matrix=feats)}
    return dataset, features


def write_clustered_dataset(out_dir, **kwargs) -> tuple[Path, dict]:
    """Materialize a clustered dataset as an interactions TSV plus feature files.

    Loading a TSV assigns item ids by first appearance, so feature rows are
    written in that order; the reloaded dataset and features then line up.
    Every file is written atomically.
    Returns the TSV path and a dict of modality -> feature path, ready to be
    referenced from a run config.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dataset, features = clustered_dataset(**kwargs)
    _, first = np.unique(dataset.pairs[:, 1], return_index=True)
    if first.size != dataset.num_items:
        raise ValueError(
            "some items never appear in the interactions; "
            "use at least items_per_cluster users per cluster"
        )
    order = dataset.pairs[np.sort(first), 1]
    tsv_path = out / "interactions.tsv"
    users, items = dataset.user_labels, dataset.item_labels
    text = "".join(f"{users[u]}\t{items[i]}\n" for u, i in dataset.pairs)
    write_atomic(tsv_path, [text.encode("utf-8")])
    feature_paths = {}
    for m, feat in features.items():
        path = out / f"features_{m}.latf"
        write_features(path, feat.matrix[order])
        feature_paths[m] = path
    return tsv_path, feature_paths
