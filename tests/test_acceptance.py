"""Acceptance suite: one test and one printed pass/fail line per criterion.

Each criterion is a single test function that prints

    [PASS] criterion N: <what held>   or   [FAIL] criterion N: <what broke>

directly to the terminal (bypassing capture) before asserting, so a plain
pytest run always shows the eight verdict lines.
"""

import json
import time
import tracemalloc

import numpy as np
import pytest
from test_eval import oracle_metrics
from test_graph import dense_mixed_graph

from conftest import (
    finite_difference_gradients,
    gradient_agreement,
    tiny_instance,
)
from lattice.cli import main
from lattice.data import sample_negative, split_cold, split_warm
from lattice.evaluation import evaluate, ndcg_at_k, precision_at_k, rank_items, recall_at_k
from lattice.graph import build_initial_graph, softmax, transform_features
from lattice.model import (
    BACKENDS,
    VARIANTS,
    ModelConfig,
    ModelInputs,
    build_inputs,
    build_item_graph,
    forward,
)
from lattice.synthetic import clustered_dataset, write_clustered_dataset
from lattice.training import (
    TrainConfig,
    adam_step,
    compute_gradients,
    fit,
    init_parameters,
)

COLD_MODEL = dict(
    backend="mf",
    variant="full",
    embed_dim=32,
    hidden_dim=16,
    k=10,
    fuse_lambda=0.7,
    item_layers=2,
)
COLD_TRAIN = dict(
    learning_rate=5e-3,
    l2_coeff=1e-4,
    batch_size=1024,
    max_epochs=60,
    patience=10,
)
COLD_SEEDS = (1, 2, 3)


@pytest.fixture
def report(capsys):
    def _report(num, ok, text):
        with capsys.disabled():
            print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {text}")

    return _report


def test_criterion_1_gradient_oracle(report):
    worst = 0.0
    worst_at = ""
    for variant in VARIANTS:
        for backend in BACKENDS:
            cfg, inputs, params, batch = tiny_instance(variant, backend)
            train_cfg = TrainConfig(l2_coeff=1e-3)
            _, grads, _ = compute_gradients(cfg, train_cfg, params, inputs, batch)
            numeric = finite_difference_gradients(
                cfg, train_cfg, params, inputs, batch
            )
            rel, where = gradient_agreement(grads, numeric, params)
            if rel > worst:
                worst, worst_at = rel, f"{variant}/{backend}:{where}"
    ok = worst <= 1e-4
    report(
        1,
        ok,
        "analytic gradients match central finite differences on the tiny "
        f"instance for all {len(VARIANTS) * len(BACKENDS)} variant/backend "
        f"pairs (worst rel err {worst:.2e} at {worst_at})",
    )
    assert worst <= 1e-4, f"gradient mismatch at {worst_at}: {worst:.3e}"


def _train_steps(cfg, train_cfg, split, features, epochs):
    """The fit loop's update sequence, recording loss and tables per step."""
    inputs = build_inputs(cfg, split.train, features)
    feat_dims = {m: f.shape[1] for m, f in inputs.features.items()}
    params = init_parameters(
        cfg, inputs.num_users, inputs.num_items, feat_dims,
        np.random.default_rng(train_cfg.seed),
    )
    rng = np.random.default_rng([train_cfg.seed, 1])
    pairs = split.train.pairs
    pos_sets = split.train.positives_as_sets()
    state: dict = {}
    losses = []
    tables = []
    for _ in range(epochs):
        perm = rng.permutation(pairs.shape[0])
        epoch_pairs = pairs[perm]
        negatives = np.array(
            [
                sample_negative(int(u), pos_sets[int(u)], inputs.num_items, rng)
                for u in epoch_pairs[:, 0]
            ],
            dtype=np.int64,
        )
        for start in range(0, epoch_pairs.shape[0], train_cfg.batch_size):
            stop = start + train_cfg.batch_size
            batch = (
                epoch_pairs[start:stop, 0],
                epoch_pairs[start:stop, 1],
                negatives[start:stop],
            )
            loss, grads, _ = compute_gradients(
                cfg, train_cfg, params, inputs, batch
            )
            adam_step(state, params, grads, train_cfg.learning_rate)
            losses.append(loss)
            tables.append((params.user_emb.copy(), params.item_emb.copy()))
    return params, inputs, losses, tables


def test_criterion_2_degeneracy(report):
    ds, feats = clustered_dataset(
        num_clusters=2,
        items_per_cluster=10,
        feat_dim=8,
        num_users=20,
        positives_per_user=10,
        seed=0,
    )
    split = split_warm(ds, seed=0)
    train_cfg = TrainConfig(learning_rate=0.01, batch_size=32, seed=5)

    worst_loss, worst_table, worst_score = 0.0, 0.0, 0.0
    for backend in BACKENDS:
        degenerate = ModelConfig(
            backend=backend, variant="full", embed_dim=16, hidden_dim=8, k=0
        )
        plain = ModelConfig(backend=backend, variant="base", embed_dim=16)
        p_deg, in_deg, l_deg, t_deg = _train_steps(
            degenerate, train_cfg, split, feats, epochs=2
        )
        p_pln, in_pln, l_pln, t_pln = _train_steps(
            plain, train_cfg, split, feats, epochs=2
        )
        worst_loss = max(
            worst_loss, max(abs(a - b) for a, b in zip(l_deg, l_pln))
        )
        for (ud, id_), (up, ip) in zip(t_deg, t_pln):
            worst_table = max(
                worst_table,
                np.abs(ud - up).max(),
                np.abs(id_ - ip).max(),
            )
        out_deg = forward(degenerate, p_deg, in_deg)
        out_pln = forward(plain, p_pln, in_pln)
        worst_score = max(
            worst_score,
            np.abs(
                out_deg.user_vecs @ out_deg.enhanced_items.T
                - out_pln.user_vecs @ out_pln.enhanced_items.T
            ).max(),
        )

    # a convolution-free LightGCN must be MF exactly, not just close
    flat = ModelConfig(backend="lightgcn", variant="base", embed_dim=16, cf_layers=0)
    mf = ModelConfig(backend="mf", variant="base", embed_dim=16)
    fit_cfg = TrainConfig(learning_rate=0.01, batch_size=32, max_epochs=3, seed=5)
    r_flat = fit(flat, fit_cfg, split, feats)
    r_mf = fit(mf, fit_cfg, split, feats)
    exact = np.array_equal(
        r_flat.params.user_emb, r_mf.params.user_emb
    ) and np.array_equal(r_flat.params.item_emb, r_mf.params.item_emb)

    ok = worst_loss <= 1e-12 and worst_table <= 1e-12 and worst_score <= 1e-12 and exact
    report(
        2,
        ok,
        "k=0 graph model walks in lockstep with the graph-free baseline on "
        f"both backends (loss diff {worst_loss:.1e}, table diff "
        f"{worst_table:.1e}, score diff {worst_score:.1e}); zero-layer "
        f"LightGCN {'equals' if exact else 'DIFFERS FROM'} MF exactly",
    )
    assert worst_loss <= 1e-12
    assert worst_table <= 1e-12
    assert worst_score <= 1e-12
    assert exact


def test_criterion_3_graph_pipeline_oracle(report):
    rng = np.random.default_rng(42)
    worst_entry = 0.0
    worst_alpha = 0.0
    budgets_ok = True
    loops_ok = True
    for _ in range(30):
        n = int(rng.integers(5, 26))
        k = int(rng.integers(1, 7))
        lam = float(rng.uniform())
        dims = {"img": int(rng.integers(2, 8)), "txt": int(rng.integers(2, 8))}
        hidden = int(rng.integers(2, 6))
        features = {m: rng.standard_normal((n, d)) for m, d in dims.items()}

        cfg = ModelConfig(
            backend="mf",
            variant="full",
            embed_dim=4,
            hidden_dim=hidden,
            k=k,
            fuse_lambda=lam,
            item_layers=1,
        )
        params = init_parameters(cfg, 2, n, dims, rng=np.random.default_rng(7))
        params.logits[:] = rng.standard_normal(2)
        for m in dims:
            params.transform_w[m][:] = rng.standard_normal(params.transform_w[m].shape)
            params.transform_b[m][:] = rng.standard_normal(hidden)
        inputs = ModelInputs(
            num_users=2,
            num_items=n,
            features=features,
            initial_graphs={m: build_initial_graph(f, k) for m, f in features.items()},
            bipartite=None,
        )
        graph = build_item_graph(cfg, params, inputs)
        alpha = softmax(params.logits)

        expected, exp_alpha = dense_mixed_graph(features, params, k, lam)
        worst_entry = max(worst_entry, np.abs(graph.csr.toarray() - expected).max())
        worst_alpha = max(worst_alpha, abs(float(alpha.sum()) - 1.0))
        np.testing.assert_allclose(alpha, exp_alpha, atol=1e-12)

        for m, f in features.items():
            transformed = transform_features(
                f, params.transform_w[m], params.transform_b[m]
            )
            for g in (
                inputs.initial_graphs[m],
                build_initial_graph(transformed, k),
            ):
                if g.row_counts().max(initial=0) > k:
                    budgets_ok = False
                dense = g.csr.toarray()
                nonempty = np.abs(dense).sum(axis=1) > 0
                if not np.all(dense[nonempty, nonempty] > 0):
                    loops_ok = False
        mixed_dense = graph.csr.toarray()
        nonempty = np.abs(mixed_dense).sum(axis=1) > 0
        if not np.all(mixed_dense[nonempty, nonempty] > 0):
            loops_ok = False

    ok = worst_entry <= 1e-10 and worst_alpha <= 1e-12 and budgets_ok and loops_ok
    report(
        3,
        ok,
        "sparse similarity/top-k/normalize/fuse/mix pipeline matches dense "
        f"brute force over 30 instances (worst entry diff {worst_entry:.1e}, "
        f"row budgets {'held' if budgets_ok else 'VIOLATED'}, self-loops "
        f"{'present' if loops_ok else 'MISSING'}, mixture weight sum off by "
        f"{worst_alpha:.1e})",
    )
    assert worst_entry <= 1e-10
    assert budgets_ok
    assert loops_ok
    assert worst_alpha <= 1e-12


def test_criterion_4_metric_oracle(report):
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(8, 60))
        scores = rng.integers(0, 6, size=n).astype(np.float64) / 5.0
        num_rel = int(rng.integers(1, max(2, n // 3)))
        relevant = set(rng.choice(n, size=num_rel, replace=False).tolist())
        ranked = rank_items(np.array([1.0]), scores[:, None], [])
        for k in (5, 20):
            r, p, g = oracle_metrics(scores.tolist(), relevant, k)
            worst = max(
                worst,
                abs(recall_at_k(ranked, relevant, k) - r),
                abs(precision_at_k(ranked, relevant, k) - p),
                abs(ndcg_at_k(ranked, relevant, k) - g),
            )
    hand = ndcg_at_k(np.array([4, 0, 9]), {4, 9}, 3)
    hand_diff = abs(hand - 0.91972)
    ok = worst <= 1e-12 and hand_diff <= 1e-5
    report(
        4,
        ok,
        "recall/precision/ndcg at k in {5, 20} match a quadratic-time oracle "
        f"on 50 tie-heavy instances (worst diff {worst:.1e}); two-hit NDCG "
        f"hand case = {hand:.5f}",
    )
    assert worst <= 1e-12
    assert hand_diff <= 1e-5


def _cold_run(seed, model_kwargs):
    ds, feats = clustered_dataset(seed=seed)
    split = split_cold(ds, item_fraction=0.2, seed=seed)
    cfg = ModelConfig(**model_kwargs)
    train_cfg = TrainConfig(seed=seed, **COLD_TRAIN)
    result = fit(cfg, train_cfg, split, feats)
    rep = evaluate(
        result.params, cfg, split, feats, "test", cutoffs=(10,), inputs=result.inputs
    )
    return rep.metrics[10]["recall"], split, ds


def _random_ranking_band(split, num_items, cutoff=10):
    """Analytic mean and standard error of recall under a random ranking."""
    mean_sum, var_sum, users = 0.0, 0.0, 0
    for u in range(split.test.num_users):
        held = split.test.user_positives[u].size
        if held == 0:
            continue
        excluded = (
            split.train.user_positives[u].size + split.valid.user_positives[u].size
        )
        c = num_items - excluded
        p = held / c
        mean_sum += min(cutoff, c) / c
        var_hits = cutoff * p * (1.0 - p) * (c - cutoff) / (c - 1.0)
        var_sum += var_hits / held**2
        users += 1
    return mean_sum / users, np.sqrt(var_sum) / users


def test_criterion_5_cold_start_recovery(report):
    ratios = []
    chance_gaps = []
    ok = True
    for seed in COLD_SEEDS:
        full_recall, split, ds = _cold_run(seed, COLD_MODEL)
        base_recall, _, _ = _cold_run(
            seed, dict(backend="mf", variant="base", embed_dim=COLD_MODEL["embed_dim"])
        )
        expectation, se = _random_ranking_band(split, ds.num_items)
        ratios.append(full_recall / base_recall)
        chance_gaps.append(abs(base_recall - expectation) / (3.0 * se))
        if full_recall < 1.5 * base_recall or abs(base_recall - expectation) > 3.0 * se:
            ok = False
    report(
        5,
        ok,
        "content graph lifts cold-item test recall@10 by >= 50% relative on "
        f"every seed (ratios {', '.join(f'{r:.2f}' for r in ratios)}); the "
        "graph-free baseline stays within 3 standard errors of the "
        f"random-ranking expectation (gaps {', '.join(f'{g:.2f}' for g in chance_gaps)}x)",
    )
    assert ok, f"ratios={ratios}, chance_gaps={chance_gaps}"


def test_criterion_6_k_sensitivity_sweep(report, tmp_path):
    recalls = {}
    for seed in COLD_SEEDS:
        ws = tmp_path / f"seed{seed}"
        write_clustered_dataset(ws, seed=seed)
        config_path = ws / "run.cfg"
        config_path.write_text(
            "\n".join(
                [
                    'interactions = "interactions.tsv"',
                    'features = {"content": "features_content.latf"}',
                    'out_dir = "out"',
                    'split_mode = "cold"',
                    "item_fraction = 0.2",
                    f"split_seed = {seed}",
                    f'backend = "{COLD_MODEL["backend"]}"',
                    f'variant = "{COLD_MODEL["variant"]}"',
                    f"embed_dim = {COLD_MODEL['embed_dim']}",
                    f"hidden_dim = {COLD_MODEL['hidden_dim']}",
                    f"fuse_lambda = {COLD_MODEL['fuse_lambda']}",
                    f"item_layers = {COLD_MODEL['item_layers']}",
                    f"learning_rate = {COLD_TRAIN['learning_rate']}",
                    f"batch_size = {COLD_TRAIN['batch_size']}",
                    f"max_epochs = {COLD_TRAIN['max_epochs']}",
                    f"patience = {COLD_TRAIN['patience']}",
                    f"seed = {seed}",
                    "cutoffs = [10]",
                ]
            )
            + "\n",
            encoding="utf-8",
        )
        code = main(
            ["sweep", "--config", str(config_path), "--axis", "k", "--values", "0,5,10"]
        )
        assert code == 0
        lines = (ws / "out" / "sweep_k.tsv").read_text().splitlines()
        header = lines[0].split("\t")
        col = header.index("recall@10")
        recalls[seed] = {
            row.split("\t")[0]: float(row.split("\t")[col]) for row in lines[1:]
        }
        assert set(recalls[seed]) == {"0", "5", "10"}
    ok = all(r["10"] > r["0"] for r in recalls.values())
    summary = "; ".join(
        f"seed {s}: {r['0']:.3f} -> {r['10']:.3f}" for s, r in recalls.items()
    )
    report(
        6,
        ok,
        "sweeping k over {0, 5, 10} on the clustered dataset raises test "
        f"recall@10 strictly from k=0 to k=10 on every seed ({summary})",
    )
    assert ok, recalls


def test_criterion_7_determinism(report, tmp_path):
    write_clustered_dataset(
        tmp_path,
        num_clusters=2,
        items_per_cluster=10,
        feat_dim=8,
        num_users=20,
        positives_per_user=10,
        seed=0,
    )
    config_path = tmp_path / "run.cfg"
    config_path.write_text(
        'interactions = "interactions.tsv"\n'
        'features = {"content": "features_content.latf"}\n'
        'out_dir = "out"\n'
        'variant = "full"\n'
        "embed_dim = 8\n"
        "hidden_dim = 8\n"
        "k = 3\n"
        "learning_rate = 0.01\n"
        "batch_size = 64\n"
        "max_epochs = 3\n"
        "seed = 0\n",
        encoding="utf-8",
    )

    def run_once():
        assert main(["train", "--config", str(config_path)]) == 0
        out = tmp_path / "out"
        return (
            (out / "checkpoint.bin").read_bytes(),
            (out / "train_log.jsonl").read_text().splitlines(),
        )

    ckpt_a, log_a = run_once()
    ckpt_b, log_b = run_once()

    bitwise = ckpt_a == ckpt_b
    worst_log = 0.0
    logs_align = len(log_a) == len(log_b)
    if logs_align:
        for line_a, line_b in zip(log_a, log_b):
            entry_a, entry_b = json.loads(line_a), json.loads(line_b)
            if set(entry_a) != set(entry_b) or entry_a["epoch"] != entry_b["epoch"]:
                logs_align = False
                break
            for key in entry_a:
                if key in ("epoch", "seconds"):
                    continue  # wall time legitimately varies
                a, b = np.asarray(entry_a[key]), np.asarray(entry_b[key])
                worst_log = max(worst_log, float(np.abs(a - b).max(initial=0.0)))
    ok = bitwise and logs_align and worst_log <= 1e-12
    report(
        7,
        ok,
        f"repeated training runs are {'bitwise-identical' if bitwise else 'NOT identical'} "
        f"({len(ckpt_a)}-byte checkpoints) with epoch logs matching to "
        f"{worst_log:.1e} (wall time excluded)",
    )
    assert bitwise
    assert logs_align
    assert worst_log <= 1e-12


def test_criterion_8_scale_smoke(report):
    n, dim, k = 20_000, 128, 10
    features = np.random.default_rng(0).standard_normal((n, dim))
    tracemalloc.start()
    started = time.perf_counter()
    graph = build_initial_graph(features, k)
    elapsed = time.perf_counter() - started
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    peak_mb = peak / 2**20
    dense_mb = n * n * 8 / 2**20
    ok = (
        elapsed < 300.0
        and graph.num_nodes == n
        and graph.nnz <= n * k
        and graph.row_counts().max() <= k
        and peak_mb < 500.0
    )
    report(
        8,
        ok,
        f"{n}-item, {dim}-d graph build took {elapsed:.1f}s with {peak_mb:.0f} "
        f"MiB peak ({graph.nnz} edges, row budget {graph.row_counts().max()} "
        f"<= {k}); a dense item-item matrix would need {dense_mb:.0f} MiB",
    )
    assert elapsed < 300.0
    assert graph.num_nodes == n
    assert graph.nnz <= n * k
    assert graph.row_counts().max() <= k
    assert peak_mb < 500.0
