"""Forward pass: propagation, backends, enhancement, scoring, checkpoints."""

import dataclasses
import json
import struct

import numpy as np
import pytest
from test_graph import dense_mixed_graph

from conftest import tiny_instance
from lattice.data import make_dataset
import lattice.model
from lattice.errors import CheckpointError
from lattice.evaluation import rank_items
from lattice.graph import SparseGraph, aggregate_modalities
from lattice.model import (
    ForwardOutput,
    ModelConfig,
    ModelInputs,
    ParameterSet,
    build_inputs,
    cf_forward,
    forward,
    load_checkpoint,
    propagate_item_graph,
    save_checkpoint,
)
from lattice.training import TrainConfig, _triple_scores, compute_gradients, init_parameters


def graph_from_dense(matrix):
    import scipy.sparse as sp

    return SparseGraph.from_scipy(sp.csr_matrix(matrix))


class TestPropagation:
    def test_identity_graph_is_fixed_point(self, rng):
        g = graph_from_dense(np.eye(5))
        h0 = rng.standard_normal((5, 3))
        hs = propagate_item_graph(g, h0, 3)
        for h in hs:
            np.testing.assert_allclose(h, h0, atol=0)

    def test_zero_layers_returns_input_only(self, rng):
        g = graph_from_dense(np.eye(4))
        h0 = rng.standard_normal((4, 2))
        hs = propagate_item_graph(g, h0, 0)
        assert len(hs) == 1
        np.testing.assert_array_equal(hs[0], h0)

    def test_matches_dense_powers(self, rng):
        dense = np.abs(rng.standard_normal((8, 8)))
        dense[dense < 0.8] = 0.0
        g = graph_from_dense(dense)
        h0 = rng.standard_normal((8, 5))
        hs = propagate_item_graph(g, h0, 3)
        expected = h0
        for level in range(1, 4):
            expected = dense @ expected
            np.testing.assert_allclose(hs[level], expected, atol=1e-9)

    def test_linear_in_input(self, rng):
        dense = np.abs(rng.standard_normal((6, 6)))
        g = graph_from_dense(dense)
        a = rng.standard_normal((6, 3))
        b = rng.standard_normal((6, 3))
        left = propagate_item_graph(g, 2.0 * a + b, 2)[-1]
        right = (
            2.0 * propagate_item_graph(g, a, 2)[-1]
            + propagate_item_graph(g, b, 2)[-1]
        )
        np.testing.assert_allclose(left, right, atol=1e-9)

    def test_row_mismatch_rejected(self, rng):
        g = graph_from_dense(np.eye(4))
        with pytest.raises(ValueError, match="rows"):
            propagate_item_graph(g, rng.standard_normal((5, 2)), 1)


class TestBackends:
    def test_mf_returns_tables(self):
        cfg, inputs, params, _ = tiny_instance("base", "mf")
        users, items = cf_forward(cfg, params, inputs)
        assert users is params.user_emb
        assert items is params.item_emb

    def test_lightgcn_hand_case(self):
        # one user, one item, single interaction: the normalized graph is a
        # swap, so layer outputs alternate and the mean is the average of
        # the two stacked tables.
        ds = make_dataset(1, 1, np.array([[0, 0]]))
        cfg = ModelConfig(backend="lightgcn", variant="base", embed_dim=2, cf_layers=1)
        inputs = build_inputs(cfg, ds, {})
        params = init_parameters(cfg, 1, 1, {}, np.random.default_rng(0))
        u = params.user_emb[0].copy()
        v = params.item_emb[0].copy()
        users, items = cf_forward(cfg, params, inputs)
        np.testing.assert_allclose(users[0], (u + v) / 2.0, atol=1e-12)
        np.testing.assert_allclose(items[0], (u + v) / 2.0, atol=1e-12)

    def test_lightgcn_matches_dense_oracle(self):
        cfg, inputs, params, _ = tiny_instance("base", "lightgcn")
        users, items = cf_forward(cfg, params, inputs)
        adj = inputs.bipartite.csr.toarray()
        z = np.concatenate([params.user_emb, params.item_emb], axis=0)
        acc = z.copy()
        cur = z
        for _ in range(cfg.cf_layers):
            cur = adj @ cur
            acc += cur
        acc /= cfg.cf_layers + 1
        np.testing.assert_allclose(users, acc[: inputs.num_users], atol=1e-9)
        np.testing.assert_allclose(items, acc[inputs.num_users :], atol=1e-9)

    def test_zero_conv_layers_equals_mf(self):
        cfg, inputs, params, _ = tiny_instance("base", "lightgcn")
        flat = ModelConfig(
            backend="lightgcn",
            variant="base",
            embed_dim=cfg.embed_dim,
            cf_layers=0,
        )
        users, items = cf_forward(flat, params, inputs)
        np.testing.assert_array_equal(users, params.user_emb)
        np.testing.assert_array_equal(items, params.item_emb)

    def test_missing_bipartite_rejected(self):
        cfg, inputs, params, _ = tiny_instance("base", "lightgcn")
        stripped = ModelInputs(
            num_users=inputs.num_users,
            num_items=inputs.num_items,
            features=inputs.features,
            initial_graphs=inputs.initial_graphs,
            bipartite=None,
        )
        with pytest.raises(ValueError, match="user-item graph"):
            cf_forward(cfg, params, stripped)


def enhanced_items(items, propagated):
    """forward's enhanced items when the enhancement source is exactly propagated.

    feats_side_info with one modality, identity transform and projection and
    zero bias feeds the features through unchanged, so forward adds the unit
    rows of propagated to the mf item table.
    """
    num_items, dim = items.shape
    cfg = ModelConfig(variant="feats_side_info", embed_dim=dim, hidden_dim=dim)
    params = ParameterSet(
        user_emb=np.zeros((1, dim)),
        item_emb=items,
        **{"transform_w.m": np.eye(dim), "transform_b.m": np.zeros(dim)},
        projection=np.eye(dim),
    )
    inputs = ModelInputs(
        num_users=1,
        num_items=num_items,
        features={"m": propagated},
        initial_graphs={},
        bipartite=None,
    )
    return forward(cfg, params, inputs).enhanced_items


class TestEnhancement:
    def test_unit_direction_added(self):
        items = np.zeros((1, 2))
        propagated = np.array([[3.0, 4.0]])
        out = enhanced_items(items, propagated)
        np.testing.assert_allclose(out, [[0.6, 0.8]], atol=1e-12)

    def test_zero_row_adds_nothing(self):
        items = np.array([[1.0, 2.0], [3.0, 4.0]])
        propagated = np.array([[0.0, 0.0], [5.0, 0.0]])
        out = enhanced_items(items, propagated)
        np.testing.assert_array_equal(out[0], items[0])
        np.testing.assert_allclose(out[1], [4.0, 4.0], atol=1e-12)

    def test_added_component_has_unit_or_zero_norm(self, rng):
        items = rng.standard_normal((10, 4))
        propagated = rng.standard_normal((10, 4))
        propagated[3] = 0.0
        out = enhanced_items(items, propagated)
        norms = np.linalg.norm(out - items, axis=1)
        np.testing.assert_allclose(np.delete(norms, 3), 1.0, atol=1e-12)
        assert norms[3] == 0.0


def triple_score(user_vecs, enhanced, u, i):
    """Training's score of user u for item i, as the positive of one triple."""
    out = ForwardOutput(user_vecs, enhanced)
    pos_s, _ = _triple_scores(out, np.array([u]), np.array([i]), np.array([i]))
    return pos_s[0]


class TestScoring:
    def test_orthogonal_scores_zero(self):
        assert triple_score(np.array([[1.0, 0.0]]), np.array([[0.0, 5.0]]), 0, 0) == 0.0

    def test_known_inner_product(self):
        assert triple_score(np.array([[1.0, 2.0]]), np.array([[3.0, 4.0]]), 0, 0) == 11.0

    def test_matrix_matches_pairwise_loop(self, rng):
        users = rng.standard_normal((4, 6))
        items = rng.standard_normal((9, 6))
        for u in range(4):
            for i in range(9):
                assert triple_score(users, items, u, i) == pytest.approx(
                    np.dot(users[u], items[i]), abs=1e-12
                )

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            rank_items(np.ones(3), np.ones((1, 4)), [])


class TestForwardVariants:
    def test_base_mf_scores_are_table_products(self):
        cfg, inputs, params, _ = tiny_instance("base", "mf")
        out = forward(cfg, params, inputs)
        expected = params.user_emb @ params.item_emb.T
        got = out.user_vecs @ out.enhanced_items.T
        np.testing.assert_allclose(got, expected, atol=0)

    @pytest.mark.parametrize("backend", ["mf", "lightgcn"])
    def test_full_with_empty_graph_matches_base(self, backend):
        cfg, inputs, params, _ = tiny_instance("full", backend)
        degenerate = ModelConfig(
            backend=backend,
            variant="full",
            embed_dim=cfg.embed_dim,
            hidden_dim=cfg.hidden_dim,
            k=0,
            fuse_lambda=cfg.fuse_lambda,
            item_layers=cfg.item_layers,
            cf_layers=cfg.cf_layers,
        )
        stripped = ModelInputs(
            num_users=inputs.num_users,
            num_items=inputs.num_items,
            features=inputs.features,
            initial_graphs={},
            bipartite=inputs.bipartite,
        )
        out = forward(degenerate, params, stripped)
        base_cfg = ModelConfig(
            backend=backend,
            variant="base",
            embed_dim=cfg.embed_dim,
            cf_layers=cfg.cf_layers,
        )
        ref = forward(base_cfg, params, stripped)
        np.testing.assert_allclose(
            out.enhanced_items, ref.enhanced_items, atol=1e-12
        )
        np.testing.assert_allclose(out.user_vecs, ref.user_vecs, atol=1e-12)

    @pytest.mark.parametrize("backend", ["mf", "lightgcn"])
    def test_full_matches_dense_reimplementation(self, backend):
        cfg, inputs, params, _ = tiny_instance("full", backend)
        out = forward(cfg, params, inputs)

        mixed, _ = dense_mixed_graph(inputs.features, params, cfg.k, cfg.fuse_lambda)
        h = params.item_emb
        for _ in range(cfg.item_layers):
            h = mixed @ h
        norms = np.linalg.norm(h, axis=1)
        add = np.where(norms[:, None] >= 1e-12, h / np.maximum(norms, 1e-12)[:, None], 0.0)
        if backend == "mf":
            users, items = params.user_emb, params.item_emb
        else:
            adj = inputs.bipartite.csr.toarray()
            z = np.concatenate([params.user_emb, params.item_emb], axis=0)
            acc = z.copy()
            cur = z
            for _ in range(cfg.cf_layers):
                cur = adj @ cur
                acc += cur
            acc /= cfg.cf_layers + 1
            users, items = acc[: inputs.num_users], acc[inputs.num_users :]
        np.testing.assert_allclose(out.user_vecs, users, atol=1e-8)
        np.testing.assert_allclose(out.enhanced_items, items + add, atol=1e-8)

    def test_conv_on_feats_uses_projected_features_as_seed(self):
        cfg, inputs, params, _ = tiny_instance("conv_on_feats", "mf")
        out = forward(cfg, params, inputs)

        mixed, _ = dense_mixed_graph(inputs.features, params, cfg.k, cfg.fuse_lambda)
        blocks = [
            inputs.features[m] @ params.transform_w[m].T + params.transform_b[m]
            for m in sorted(inputs.features)
        ]
        h = np.concatenate(blocks, axis=1) @ params.projection.T
        for _ in range(cfg.item_layers):
            h = mixed @ h
        norms = np.linalg.norm(h, axis=1)
        add = np.where(norms[:, None] >= 1e-12, h / np.maximum(norms, 1e-12)[:, None], 0.0)
        np.testing.assert_allclose(out.enhanced_items, params.item_emb + add, atol=1e-8)

    def test_lambda_one_never_builds_learned_graph(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("learned graph built or features transformed at fuse_lambda = 1")

        monkeypatch.setattr(lattice.model, "knn_cosine_graph", refuse)
        monkeypatch.setattr(lattice.model, "transform_features", refuse)
        for backend in ("mf", "lightgcn"):
            cfg, inputs, params, batch = tiny_instance("full", backend)
            cfg = dataclasses.replace(cfg, fuse_lambda=1.0)
            _, grads, cache = compute_gradients(cfg, TrainConfig(), params, inputs, batch)
            initial = [inputs.initial_graphs[m] for m in sorted(inputs.features)]
            expected, _ = aggregate_modalities(initial, params.logits)
            np.testing.assert_array_equal(cache.graph.csr.toarray(), expected.csr.toarray())
            for m in params.modalities:
                for name in (f"transform_w.{m}", f"transform_b.{m}"):
                    assert grads[name].shape == params.get(name).shape
                    assert not grads[name].any()

    def test_feats_side_info_skips_graph(self):
        cfg, inputs, params, _ = tiny_instance("feats_side_info", "mf")
        out = forward(cfg, params, inputs)
        blocks = [
            inputs.features[m] @ params.transform_w[m].T + params.transform_b[m]
            for m in sorted(inputs.features)
        ]
        h = np.concatenate(blocks, axis=1) @ params.projection.T
        norms = np.linalg.norm(h, axis=1)
        add = np.where(norms[:, None] >= 1e-12, h / np.maximum(norms, 1e-12)[:, None], 0.0)
        np.testing.assert_allclose(out.enhanced_items, params.item_emb + add, atol=1e-8)


def edited_header(blob: bytes, edit) -> bytes:
    """A checkpoint's bytes with edit applied to its decoded JSON header."""
    (header_len,) = struct.unpack("<I", blob[8:12])
    header = json.loads(blob[12 : 12 + header_len])
    edit(header)
    text = json.dumps(header, sort_keys=True).encode("utf-8")
    return blob[:8] + struct.pack("<I", len(text)) + text + blob[12 + header_len :]


class TestCheckpoints:
    def test_failed_save_keeps_previous_checkpoint(self, tmp_path):
        cfg, _, params, _ = tiny_instance("full", "mf")
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, cfg, params)
        previous = path.read_bytes()
        # the logits block cannot be cast to float32
        broken = ParameterSet(params, modality_logits=np.array(["x"], dtype=object))
        with pytest.raises(ValueError):
            save_checkpoint(path, cfg, broken)
        assert path.read_bytes() == previous
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.bin"]

    @pytest.mark.parametrize("value", [1e300, -1e300, np.nan])
    def test_save_rejects_what_float32_cannot_hold(self, tmp_path, value):
        cfg, _, params, _ = tiny_instance("full", "mf")
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, cfg, params)
        previous = path.read_bytes()
        broken = params.copy()
        broken["item_emb"][1, 2] = value
        with pytest.raises(CheckpointError, match="item_emb is not finite"):
            save_checkpoint(path, cfg, broken)
        assert path.read_bytes() == previous
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.bin"]

    def test_quiet_nan_block_rejected(self, tmp_path):
        cfg, _, params, _ = tiny_instance("full", "mf")
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, cfg, params)
        blob = bytearray(path.read_bytes())
        blob[-4:] = np.array([np.nan], dtype="<f4").tobytes()  # last logit
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="modality_logits is not finite"):
            load_checkpoint(path)

    def test_roundtrip_preserves_float32_values(self, tmp_path):
        cfg, _, params, _ = tiny_instance("full", "mf")
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, cfg, params, meta={"note": "roundtrip"})
        loaded_cfg, loaded, meta = load_checkpoint(path)
        assert loaded_cfg == cfg
        assert meta == {"note": "roundtrip"}
        assert list(loaded) == list(params)
        for name, arr in params.named():
            got = loaded.get(name)
            assert got.dtype == np.float64
            np.testing.assert_array_equal(
                got, arr.astype(np.float32).astype(np.float64)
            )

    def test_roundtrip_without_optional_parts(self, tmp_path):
        cfg, _, params, _ = tiny_instance("base", "mf")
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, cfg, params)
        _, loaded, _ = load_checkpoint(path)
        assert loaded.logits is None
        assert loaded.projection is None
        assert list(loaded) == ["user_emb", "item_emb"]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        path.write_bytes(b"XXXX" + b"\x00" * 40)
        with pytest.raises(CheckpointError, match="not a checkpoint"):
            load_checkpoint(path)

    def test_truncated_blocks_rejected(self, tmp_path):
        cfg, _, params, _ = tiny_instance("base", "mf")
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, cfg, params)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        cfg, _, params, _ = tiny_instance("base", "mf")
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, cfg, params)
        path.write_bytes(path.read_bytes() + b"\x00\x00")
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(path)

    def test_corrupt_header_rejected(self, tmp_path):
        cfg, _, params, _ = tiny_instance("base", "mf")
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, cfg, params)
        valid = path.read_bytes()
        blob = bytearray(valid)
        blob[12] ^= 0xFF  # first header byte
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

        def user_rows(rows):
            # the header's user count agrees, so only the shape check can object
            def edit(header):
                header["num_users"] = rows
                header["parameters"][0]["shape"] = [rows, 8]

            return edit

        def huge_but_empty(header):
            header["config"]["embed_dim"] = 2**62
            header["num_users"] = header["num_items"] = 0
            for entry in header["parameters"]:
                entry["shape"] = [0, 2**62]

        bad_entries = [
            user_rows("4"),
            user_rows(4.0),
            user_rows(-4),
            lambda h: h["parameters"][0].update(shape=32),  # not a list
            lambda h: h["parameters"][0].pop("name"),
            huge_but_empty,
            lambda h: h["config"].update(k=True),  # config values meet the field checks
            lambda h: h["config"].update(fuse_lambda=2),
        ]
        for edit in bad_entries:
            path.write_bytes(edited_header(valid, edit))
            with pytest.raises(CheckpointError):
                load_checkpoint(path)

    def test_full_checkpoint_without_logits_rejected(self, tmp_path):
        cfg, _, params, _ = tiny_instance("full", "mf")
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, cfg, ParameterSet(
            (name, arr) for name, arr in params.items() if name != "modality_logits"
        ))
        with pytest.raises(CheckpointError, match="modality_logits"):
            load_checkpoint(path)
