"""Shared builders for the test suite.

The tiny gradient-check instance is deliberately small (4 users, 6 items,
two modalities) and is seed-searched until every learned similarity row has
a clear margin around its top-k boundary, so finite differencing never
straddles a support change.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest

from lattice.data import ModalityFeatures, make_dataset
from lattice.graph import transform_features, unit_rows
from lattice.model import ModelConfig, build_inputs
from lattice.training import batch_loss, init_parameters

TINY_USERS = 4
TINY_ITEMS = 6
TINY_FEAT_DIMS = {"img": 5, "txt": 3}
TINY_K = 2
TINY_LAYERS = 1
TINY_EMBED = 8
TINY_HIDDEN = 4
SUPPORT_MARGIN = 0.05

FD_STEP = 1e-4
FD_RTOL = 1e-4
FD_ATOL = 1e-8  # floor for near-zero gradient pairs, where a ratio is meaningless

TINY_PAIRS = np.array(
    [[0, 0], [0, 1], [1, 2], [1, 3], [2, 4], [2, 5], [3, 0], [3, 5]], dtype=np.int64
)
TINY_BATCH = (
    np.array([0, 1, 2, 3]),
    np.array([0, 2, 4, 0]),
    np.array([3, 5, 1, 2]),
)


def support_margins_ok(features: dict, params, k: int, margin: float) -> bool:
    """True when every learned cosine row clears its top-k boundary by margin."""
    for m in sorted(features):
        h = transform_features(features[m], params.transform_w[m], params.transform_b[m])
        unit, _ = unit_rows(h)
        sims = np.maximum(unit @ unit.T, 0.0)
        for row in sims:
            ordered = np.sort(row)[::-1]
            if ordered[k - 1] < margin or ordered[k - 1] - ordered[k] < margin:
                return False
    return True


@lru_cache(maxsize=None)
def tiny_instance(variant: str, backend: str):
    """A margin-checked gradient-check instance for one variant and backend."""
    cfg = ModelConfig(
        backend=backend,
        variant=variant,
        embed_dim=TINY_EMBED,
        hidden_dim=TINY_HIDDEN,
        k=TINY_K,
        fuse_lambda=0.4,
        item_layers=TINY_LAYERS,
        cf_layers=2,
    )
    dataset = make_dataset(TINY_USERS, TINY_ITEMS, TINY_PAIRS)
    for seed in range(200):
        rng = np.random.default_rng(seed)
        feats = {
            m: ModalityFeatures(rng.standard_normal((TINY_ITEMS, d)))
            for m, d in TINY_FEAT_DIMS.items()
        }
        inputs = build_inputs(cfg, dataset, feats)
        params = init_parameters(
            cfg,
            TINY_USERS,
            TINY_ITEMS,
            {m: d for m, d in TINY_FEAT_DIMS.items()},
            np.random.default_rng(seed + 1000),
        )
        if cfg.uses_item_graph and not support_margins_ok(
            inputs.features, params, TINY_K, SUPPORT_MARGIN
        ):
            continue
        return cfg, inputs, params, TINY_BATCH
    raise AssertionError("no seed produced the required support margin")


def finite_difference_gradients(cfg, train_cfg, params, inputs, batch, step=FD_STEP):
    """Central differences of batch_loss in every parameter coordinate."""
    out = {}
    for name, arr in params.named():
        flat = arr.ravel()
        grad = np.zeros(flat.size)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + step
            lp = batch_loss(cfg, train_cfg, params, inputs, batch)
            flat[idx] = orig - step
            lm = batch_loss(cfg, train_cfg, params, inputs, batch)
            flat[idx] = orig
            grad[idx] = (lp - lm) / (2.0 * step)
        out[name] = grad.reshape(arr.shape)
    return out


def gradient_agreement(analytic: dict, numeric: dict, params) -> tuple[float, str]:
    """Worst relative discrepancy across all parameters, with its location."""
    worst, where = 0.0, ""
    for name, arr in params.named():
        a = analytic.get(name)
        if a is None:
            a = np.zeros_like(arr)
        n = numeric[name]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), FD_ATOL / FD_RTOL)
        rel = np.abs(a - n) / denom
        idx = int(np.argmax(rel))
        if float(rel.ravel()[idx]) > worst:
            worst = float(rel.ravel()[idx])
            where = f"{name}[{idx}]"
    return worst, where


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
