"""Loss, initialization, optimizer, analytic gradients, and the fit loop."""

import mpmath as mp
import numpy as np
import pytest
from scipy.special import expit

from conftest import (
    finite_difference_gradients,
    gradient_agreement,
    tiny_instance,
)
import lattice.training
from lattice.data import make_dataset, split_warm
from lattice.evaluation import EvalReport, evaluate
from lattice.model import BACKENDS, VARIANTS, ModelConfig, parameter_shapes
from lattice.synthetic import clustered_dataset
from lattice.training import (
    _EDGE_BLOCK,
    _add_edge_products,
    TrainConfig,
    adam_step,
    bpr_loss,
    compute_gradients,
    fit,
    init_parameters,
    l2_penalty,
    xavier_init,
)

LN2 = 0.6931471805599453
SOFTPLUS_NEG20 = 2.061153620314381e-09  # log(1 + exp(-20)), 50-digit mpmath


class TestXavierInit:
    def test_bound_for_64_square(self):
        rng = np.random.default_rng(0)
        w = xavier_init((64, 64), rng)
        bound = 0.21650635094610965  # sqrt(6 / 128)
        assert np.abs(w).max() <= bound
        assert np.abs(w).max() > 0.9 * bound  # draws actually fill the range

    def test_deterministic_per_seed(self):
        a = xavier_init((8, 3), np.random.default_rng(5))
        b = xavier_init((8, 3), np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)

    def test_rejects_non_matrix_shapes(self):
        with pytest.raises(ValueError):
            xavier_init((4,), np.random.default_rng(0))


class TestInitParameters:
    def test_shapes_follow_config(self):
        cfg = ModelConfig(
            backend="mf", variant="full", embed_dim=6, hidden_dim=4, k=2
        )
        params = init_parameters(cfg, 3, 5, {"img": 7, "txt": 2}, np.random.default_rng(0))
        assert params.user_emb.shape == (3, 6)
        assert params.item_emb.shape == (5, 6)
        assert params.transform_w["img"].shape == (4, 7)
        assert params.transform_w["txt"].shape == (4, 2)
        assert params.transform_b["img"].shape == (4,)
        assert params.logits.shape == (2,)
        assert params.projection is None

    def test_biases_and_logits_start_at_zero(self):
        cfg = ModelConfig(backend="mf", variant="conv_on_feats", embed_dim=4, hidden_dim=3)
        params = init_parameters(cfg, 2, 4, {"img": 5, "txt": 2}, np.random.default_rng(1))
        assert np.all(params.transform_b["img"] == 0.0)
        assert np.all(params.logits == 0.0)
        assert params.projection.shape == (4, 6)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_arrays_follow_parameter_shapes(self, variant):
        cfg = ModelConfig(backend="mf", variant=variant, embed_dim=6, hidden_dim=4)
        dims = {"txt": 2, "img": 7}
        params = init_parameters(cfg, 3, 5, dims, np.random.default_rng(0))
        shapes = parameter_shapes(cfg, 3, 5, dims)
        assert list(params) == list(shapes)
        assert [arr.shape for arr in params.values()] == list(shapes.values())
        assert all(arr.dtype == np.float64 for arr in params.values())

    def test_tables_shared_across_variants_with_same_seed(self):
        full = ModelConfig(backend="mf", variant="full", embed_dim=8, hidden_dim=4)
        base = ModelConfig(backend="mf", variant="base", embed_dim=8)
        a = init_parameters(full, 6, 9, {"img": 5}, np.random.default_rng(3))
        b = init_parameters(base, 6, 9, {}, np.random.default_rng(3))
        np.testing.assert_array_equal(a.user_emb, b.user_emb)
        np.testing.assert_array_equal(a.item_emb, b.item_emb)


class TestBprLoss:
    def test_tied_scores_give_ln2(self):
        assert bpr_loss(np.array([1.0]), np.array([1.0])) == pytest.approx(
            LN2, abs=1e-15
        )

    def test_wide_margin_tail(self):
        got = bpr_loss(np.array([20.0]), np.array([0.0]))
        assert got == pytest.approx(SOFTPLUS_NEG20, rel=1e-12)

    def test_huge_margin_does_not_overflow(self):
        assert bpr_loss(np.array([-500.0]), np.array([500.0])) == 1000.0
        assert bpr_loss(np.array([500.0]), np.array([-500.0])) == 0.0

    def test_matches_high_precision_reference(self, rng):
        mp.mp.dps = 50
        pos = rng.normal(0.0, 3.0, size=40)
        neg = rng.normal(0.0, 3.0, size=40)
        expected = float(
            sum(mp.log(1 + mp.e ** mp.mpf(n - p)) for p, n in zip(pos, neg))
            / len(pos)
        )
        assert bpr_loss(pos, neg) == pytest.approx(expected, abs=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            bpr_loss(np.ones(3), np.ones(2))


class TestL2Penalty:
    def test_zero_coeff_short_circuits(self):
        assert l2_penalty(np.ones((2, 3)), np.ones((2, 3)), np.ones((2, 3)), 0.0) == 0.0

    def test_unit_vectors_hand_value(self):
        e = np.eye(3)[:1]
        assert l2_penalty(e, e, e, 0.01) == pytest.approx(0.015, abs=1e-15)

    def test_matches_loop(self, rng):
        u = rng.standard_normal((5, 4))
        p = rng.standard_normal((5, 4))
        n = rng.standard_normal((5, 4))
        coeff = 0.3
        expected = 0.0
        for b in range(5):
            expected += np.dot(u[b], u[b]) + np.dot(p[b], p[b]) + np.dot(n[b], n[b])
        expected *= 0.5 * coeff / 5
        assert l2_penalty(u, p, n, coeff) == pytest.approx(expected, abs=1e-12)


class TestAdam:
    def test_first_step_size(self):
        params_cfg, _, params, _ = tiny_instance("base", "mf")
        del params_cfg
        target = params.copy()
        grads = {"user_emb": np.full_like(target.user_emb, 0.5)}
        before = target.user_emb.copy()
        state = {}
        adam_step(state, target, grads, lr=0.1)
        # bias correction makes the first update lr * g / (|g| + eps)
        step = before - target.user_emb
        np.testing.assert_allclose(step, 0.1 * 0.5 / (0.5 + 1e-8), atol=1e-12)

    def test_zero_grad_is_fixed_point(self):
        _, _, params, _ = tiny_instance("base", "mf")
        target = params.copy()
        before = target.user_emb.copy()
        state = {}
        for _ in range(5):
            adam_step(state, target, {"user_emb": np.zeros_like(before)}, lr=0.5)
        np.testing.assert_array_equal(target.user_emb, before)

    def test_missing_names_left_untouched(self):
        _, _, params, _ = tiny_instance("base", "mf")
        target = params.copy()
        before_items = target.item_emb.copy()
        adam_step({}, target, {"user_emb": np.ones_like(target.user_emb)}, lr=0.1)
        np.testing.assert_array_equal(target.item_emb, before_items)

    def test_minimizes_quadratic(self):
        _, _, params, _ = tiny_instance("base", "mf")
        target = params.copy()
        target.user_emb[:] = 3.0
        state = {}
        for _ in range(100):
            adam_step(state, target, {"user_emb": 2.0 * target.user_emb}, lr=0.1)
        assert np.abs(target.user_emb).max() < 0.05


class TestAnalyticGradients:
    def test_single_triple_hand_gradient(self):
        cfg, inputs, params, _ = tiny_instance("base", "mf")
        train_cfg = TrainConfig(l2_coeff=0.0)
        batch = (np.array([1]), np.array([2]), np.array([4]))
        loss, grads, _ = compute_gradients(cfg, train_cfg, params, inputs, batch)
        x_u = params.user_emb[1]
        delta = float(
            np.dot(x_u, params.item_emb[2]) - np.dot(x_u, params.item_emb[4])
        )
        sig = expit(-delta)
        assert loss == pytest.approx(np.logaddexp(0.0, -delta), abs=1e-12)
        expected_user = sig * (params.item_emb[4] - params.item_emb[2])
        np.testing.assert_allclose(grads["user_emb"][1], expected_user, atol=1e-12)
        np.testing.assert_allclose(grads["item_emb"][2], -sig * x_u, atol=1e-12)
        np.testing.assert_allclose(grads["item_emb"][4], sig * x_u, atol=1e-12)
        untouched = np.delete(np.arange(6), [2, 4])
        assert np.all(grads["item_emb"][untouched] == 0.0)

    def test_l2_term_gradient(self):
        cfg, inputs, params, _ = tiny_instance("base", "mf")
        coeff = 0.2
        batch = (np.array([0]), np.array([1]), np.array([3]))
        _, bare, _ = compute_gradients(
            cfg, TrainConfig(l2_coeff=0.0), params, inputs, batch
        )
        _, full, _ = compute_gradients(
            cfg, TrainConfig(l2_coeff=coeff), params, inputs, batch
        )
        np.testing.assert_allclose(
            full["user_emb"][0] - bare["user_emb"][0],
            coeff * params.user_emb[0],
            atol=1e-12,
        )
        np.testing.assert_allclose(
            full["item_emb"][1] - bare["item_emb"][1],
            coeff * params.item_emb[1],
            atol=1e-12,
        )

    def test_repeated_triples_accumulate(self):
        cfg, inputs, params, _ = tiny_instance("base", "mf")
        train_cfg = TrainConfig(l2_coeff=0.0)
        single = (np.array([1]), np.array([2]), np.array([4]))
        double = (np.array([1, 1]), np.array([2, 2]), np.array([4, 4]))
        _, g1, _ = compute_gradients(cfg, train_cfg, params, inputs, single)
        _, g2, _ = compute_gradients(cfg, train_cfg, params, inputs, double)
        # mean over the batch: two copies of the same triple change nothing
        np.testing.assert_allclose(g2["user_emb"], g1["user_emb"], atol=1e-14)

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_matches_finite_differences(self, variant, backend):
        cfg, inputs, params, batch = tiny_instance(variant, backend)
        train_cfg = TrainConfig(l2_coeff=1e-3)
        _, grads, _ = compute_gradients(cfg, train_cfg, params, inputs, batch)
        numeric = finite_difference_gradients(cfg, train_cfg, params, inputs, batch)
        worst, where = gradient_agreement(grads, numeric, params)
        assert worst <= 1e-4, f"gradient mismatch at {where}: rel err {worst:.3e}"

    def test_frozen_graph_omits_structure_parameters(self):
        cfg, inputs, params, batch = tiny_instance("full", "mf")
        train_cfg = TrainConfig(l2_coeff=0.0)
        _, grads, cache = compute_gradients(cfg, train_cfg, params, inputs, batch)
        assert "modality_logits" in grads
        _, frozen, _ = compute_gradients(
            cfg, train_cfg, params, inputs, batch, graphs=(cache.graph, cache.alpha)
        )
        assert "modality_logits" not in frozen
        assert not any(name.startswith("transform") for name in frozen)
        assert "user_emb" in frozen and "item_emb" in frozen


@pytest.mark.parametrize("nnz", [0, 1, _EDGE_BLOCK, 3 * _EDGE_BLOCK + 17])
def test_blocked_edge_products_match_unblocked_einsum(nnz):
    # several full blocks, a partial last one, exactly one block, and no edges
    rng = np.random.default_rng(nnz)
    g = rng.standard_normal((300, 64))
    h = rng.standard_normal((300, 64))
    rows = rng.integers(0, 300, nnz)
    cols = rng.integers(0, 300, nnz)
    start = rng.standard_normal(nnz)
    want = start + np.einsum("ed,ed->e", g[rows], h[cols])
    got = start.copy()
    _add_edge_products(got, g, h, rows, cols)
    assert got.tobytes() == want.tobytes()


def ladder_split(num_users=6, num_items=20, seed=0):
    rng = np.random.default_rng(seed)
    rows = []
    for u in range(num_users):
        for i in rng.choice(num_items, size=10, replace=False):
            rows.append((u, int(i)))
    ds = make_dataset(num_users, num_items, np.array(rows, dtype=np.int64))
    return split_warm(ds, seed=seed)


class TestFitLoop:
    def scripted_eval(self, recalls, calls):
        def fake_evaluate(params, cfg, split, features, partition, cutoffs, inputs):
            calls.append(params.user_emb.copy())
            r = recalls[len(calls) - 1]
            return EvalReport(
                partition=partition,
                cutoffs=tuple(cutoffs),
                metrics={c: {"recall": r, "precision": r, "ndcg": 0.0} for c in cutoffs},
                num_users_evaluated=1,
            )

        return fake_evaluate

    def test_patience_stops_and_restores_best(self, monkeypatch):
        split = ladder_split()
        cfg = ModelConfig(backend="mf", variant="base", embed_dim=4)
        train_cfg = TrainConfig(
            learning_rate=0.05, batch_size=16, max_epochs=10, patience=1, seed=0
        )
        calls = []
        fake = self.scripted_eval([0.5, 0.4, 0.3, 0.2], calls)
        monkeypatch.setattr(lattice.training, "evaluate", fake)
        result = fit(cfg, train_cfg, split, {})
        assert len(result.history) == 2
        assert result.best_epoch == 1
        np.testing.assert_array_equal(result.params.user_emb, calls[0])

    def test_patience_counter_resets_on_improvement(self, monkeypatch):
        split = ladder_split()
        cfg = ModelConfig(backend="mf", variant="base", embed_dim=4)
        train_cfg = TrainConfig(
            learning_rate=0.05, batch_size=16, max_epochs=10, patience=2, seed=0
        )
        calls = []
        fake = self.scripted_eval([0.1, 0.08, 0.2, 0.15, 0.1, 0.05], calls)
        monkeypatch.setattr(lattice.training, "evaluate", fake)
        result = fit(cfg, train_cfg, split, {})
        # dip at epoch 2 is forgiven, the rise at epoch 3 resets the counter
        assert len(result.history) == 5
        assert result.best_epoch == 3
        np.testing.assert_array_equal(result.params.user_emb, calls[2])

    def test_tie_does_not_count_as_improvement(self, monkeypatch):
        split = ladder_split()
        cfg = ModelConfig(backend="mf", variant="base", embed_dim=4)
        train_cfg = TrainConfig(
            learning_rate=0.05, batch_size=16, max_epochs=10, patience=2, seed=0
        )
        calls = []
        fake = self.scripted_eval([0.3, 0.3, 0.3, 0.3], calls)
        monkeypatch.setattr(lattice.training, "evaluate", fake)
        result = fit(cfg, train_cfg, split, {})
        assert len(result.history) == 3
        assert result.best_epoch == 1

    def test_empty_validation_runs_all_epochs(self):
        rng = np.random.default_rng(2)
        rows = [(u, int(i)) for u in range(5) for i in rng.choice(12, 2, replace=False)]
        ds = make_dataset(5, 12, np.array(rows, dtype=np.int64))
        split = split_warm(ds, seed=0)  # two positives per user: nothing held out
        assert split.valid.num_pairs == 0
        cfg = ModelConfig(backend="mf", variant="base", embed_dim=4)
        train_cfg = TrainConfig(batch_size=8, max_epochs=4, patience=1, seed=0)
        result = fit(cfg, train_cfg, split, {})
        assert len(result.history) == 4
        assert result.best_epoch == 4
        assert all(rec.val_recall == 0.0 for rec in result.history)

    def test_returned_params_reproduce_best_recall(self):
        split = ladder_split(num_users=10, num_items=30, seed=4)
        cfg = ModelConfig(backend="mf", variant="base", embed_dim=8)
        train_cfg = TrainConfig(
            learning_rate=0.02, batch_size=32, max_epochs=12, patience=4, seed=1
        )
        result = fit(cfg, train_cfg, split, {})
        best_logged = max(rec.val_recall for rec in result.history)
        report = evaluate(
            result.params, cfg, split, {}, "valid", cutoffs=(20,), inputs=result.inputs
        )
        assert report.metrics[20]["recall"] == pytest.approx(best_logged, abs=1e-12)

    def test_identical_seeds_identical_runs(self):
        split = ladder_split(num_users=8, num_items=25, seed=6)
        cfg = ModelConfig(backend="mf", variant="base", embed_dim=6)
        train_cfg = TrainConfig(
            learning_rate=0.02, batch_size=16, max_epochs=5, patience=10, seed=7
        )
        a = fit(cfg, train_cfg, split, {})
        b = fit(cfg, train_cfg, split, {})
        assert [r.train_loss for r in a.history] == [r.train_loss for r in b.history]
        np.testing.assert_array_equal(a.params.user_emb, b.params.user_emb)
        np.testing.assert_array_equal(a.params.item_emb, b.params.item_emb)

    def test_loss_decreases_on_separable_data(self):
        ds, feats = clustered_dataset(
            num_clusters=2,
            items_per_cluster=10,
            feat_dim=8,
            num_users=20,
            positives_per_user=5,
            seed=0,
        )
        split = split_warm(ds, seed=0)
        cfg = ModelConfig(backend="mf", variant="base", embed_dim=8)
        train_cfg = TrainConfig(
            learning_rate=0.05, batch_size=32, max_epochs=8, patience=8, seed=0
        )
        result = fit(cfg, train_cfg, split, feats)
        first = result.history[0].train_loss
        last = result.history[-1].train_loss
        assert last < 0.6 * first

    def test_log_stream_receives_one_json_line_per_epoch(self, tmp_path):
        import io
        import json

        split = ladder_split()
        cfg = ModelConfig(backend="mf", variant="base", embed_dim=4)
        train_cfg = TrainConfig(batch_size=16, max_epochs=3, patience=10, seed=0)
        stream = io.StringIO()
        result = fit(cfg, train_cfg, split, {}, log_stream=stream)
        lines = [ln for ln in stream.getvalue().splitlines() if ln]
        assert len(lines) == len(result.history)
        entry = json.loads(lines[0])
        assert entry["epoch"] == 1
        assert set(entry) == {
            "epoch",
            "train_loss",
            "val_recall@20",
            "val_ndcg@20",
            "alpha",
            "seconds",
        }

    def test_graph_refresh_modes_share_first_batch(self):
        ds, feats = clustered_dataset(
            num_clusters=2,
            items_per_cluster=8,
            feat_dim=6,
            num_users=12,
            positives_per_user=4,
            seed=3,
        )
        split = split_warm(ds, seed=1)
        cfg = ModelConfig(
            backend="mf", variant="full", embed_dim=6, hidden_dim=4, k=3
        )
        per_batch = TrainConfig(
            batch_size=1024, max_epochs=2, patience=10, seed=2, graph_refresh="per_batch"
        )
        per_epoch = TrainConfig(
            batch_size=1024, max_epochs=2, patience=10, seed=2, graph_refresh="per_epoch"
        )
        a = fit(cfg, per_batch, split, feats)
        b = fit(cfg, per_epoch, split, feats)
        # a single batch per epoch means the frozen graph is never reused, so
        # the two refresh modes must coincide exactly
        assert [r.train_loss for r in a.history] == [r.train_loss for r in b.history]
        np.testing.assert_array_equal(a.params.item_emb, b.params.item_emb)

    def test_per_epoch_refresh_with_multiple_batches(self):
        ds, feats = clustered_dataset(
            num_clusters=2,
            items_per_cluster=8,
            feat_dim=6,
            num_users=12,
            positives_per_user=4,
            seed=3,
        )
        split = split_warm(ds, seed=1)
        cfg = ModelConfig(
            backend="mf", variant="full", embed_dim=6, hidden_dim=4, k=3
        )
        train_cfg = TrainConfig(
            batch_size=8, max_epochs=3, patience=10, seed=2, graph_refresh="per_epoch"
        )
        result = fit(cfg, train_cfg, split, feats)
        assert len(result.history) == 3
        assert all(np.isfinite(r.train_loss) for r in result.history)
