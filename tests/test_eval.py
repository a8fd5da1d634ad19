"""Ranking, metric, and report-level evaluation behavior."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lattice.evaluation
from lattice.data import make_dataset, split_warm
from lattice.errors import EvaluationError
from lattice.evaluation import (
    evaluate,
    ndcg_at_k,
    precision_at_k,
    rank_items,
    recall_at_k,
)
from lattice.model import ModelConfig
from lattice.training import TrainConfig, fit

NDCG_TWO_OF_TWO_AT_1_AND_3 = 0.9197207891481876


def oracle_metrics(scores, relevant, k):
    """Quadratic-time reference: selection-sort ranking with id tiebreak."""
    items = list(range(len(scores)))
    ranked = []
    remaining = items[:]
    while remaining:
        best = remaining[0]
        for j in remaining[1:]:
            if scores[j] > scores[best]:
                best = j
        ranked.append(best)
        remaining.remove(best)
    hits = [p for p, i in enumerate(ranked[:k], start=1) if i in relevant]
    recall = len(hits) / len(relevant)
    precision = len(hits) / k
    dcg = sum(1.0 / np.log2(p + 1.0) for p in hits)
    idcg = sum(1.0 / np.log2(p + 1.0) for p in range(1, min(k, len(relevant)) + 1))
    return recall, precision, dcg / idcg


class TestRankItems:
    def test_orders_by_score(self):
        items = np.array([[1.0], [3.0], [2.0]])
        ranked = rank_items(np.array([1.0]), items, [])
        assert ranked.tolist() == [1, 2, 0]

    def test_excluded_items_dropped(self):
        items = np.array([[1.0], [3.0], [2.0]])
        ranked = rank_items(np.array([1.0]), items, [1])
        assert ranked.tolist() == [2, 0]

    def test_ties_resolve_to_smaller_id(self):
        items = np.ones((4, 1))
        ranked = rank_items(np.array([1.0]), items, [])
        assert ranked.tolist() == [0, 1, 2, 3]

    def test_negative_scores_rank_last(self):
        items = np.array([[-1.0], [0.0], [-2.0]])
        ranked = rank_items(np.array([1.0]), items, [])
        assert ranked.tolist() == [1, 0, 2]


def gather_rank_reference(user_vec, enhanced_items, excluded):
    """Score only the candidates, then one stable argsort (the former rank_items)."""
    num_items = enhanced_items.shape[0]
    excluded_arr = np.asarray(list(excluded), dtype=np.int64)
    candidates = np.setdiff1d(np.arange(num_items, dtype=np.int64), excluded_arr)
    scores = enhanced_items[candidates] @ user_vec
    order = np.argsort(-scores, kind="stable")
    return candidates[order]


@st.composite
def rank_cases(draw):
    """Scores on a dyadic grid, so every summation order gives the same bits.

    BLAS may sum a row's products in an order that depends on where the row
    sits in the matrix, so arbitrary floats would make the gathered reference
    differ from full-catalogue scoring in the last bit.  Entries are
    multiples of 2^-20 of magnitude at most 1 and d <= 8, so every partial sum
    is exact.  A coarse grid makes ties (the stable fallback); a fine grid
    makes distinct scores (the unstable fast path).
    """
    n = draw(st.integers(1, 600))
    d = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([2, 2**20]))
    items = rng.integers(-scale, scale + 1, size=(n, d)) / 2.0**20
    user_vec = rng.integers(-scale, scale + 1, size=d) / 2.0**20
    special = rng.random(n)
    items[special < draw(st.sampled_from([0.0, 0.05]))] = np.nan
    items[(special > 0.9) & (special < 0.9 + draw(st.sampled_from([0.0, 0.05])))] = 0.0
    items[special > 1.0 - draw(st.sampled_from([0.0, 0.05]))] = -0.0
    mode = draw(st.sampled_from(["none", "some", "duplicated", "all"]))
    if mode == "none":
        excluded = []
    elif mode == "all":
        excluded = list(range(n)) * draw(st.integers(1, 2))
    else:
        excluded = rng.integers(0, n, size=draw(st.integers(1, n))).tolist()
        if mode == "duplicated":
            excluded += excluded
    if draw(st.booleans()):
        excluded = np.asarray(excluded, dtype=np.int64)
    return user_vec, items, excluded


def test_rank_items_matches_gather_reference():
    paths = set()

    @settings(max_examples=300, deadline=None)
    @given(rank_cases())
    def check(case):
        user_vec, items, excluded = case
        expected = gather_rank_reference(user_vec, items, excluded)
        with mock.patch.object(np, "argsort", wraps=np.argsort) as spy:
            got = rank_items(user_vec, items, excluded)
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()
        stable = [c.kwargs.get("kind") == "stable" for c in spy.call_args_list]
        has_nan = bool(np.isnan(items @ user_vec).any())
        # NaN must force the stable sort, which runs only after the fast one
        assert stable in ([False], [False, True])
        assert stable[-1] or not has_nan
        paths.add((stable[-1], has_nan))

    check()
    assert {(False, False), (True, False), (True, True)} <= paths


class TestMetricHandCases:
    def test_recall_basics(self):
        ranked = np.array([5, 2, 8, 1])
        assert recall_at_k(ranked, {5, 1}, 2) == 0.5
        assert recall_at_k(ranked, {5, 1}, 4) == 1.0
        assert recall_at_k(ranked, {9}, 4) == 0.0

    def test_precision_basics(self):
        ranked = np.array([5, 2, 8, 1])
        assert precision_at_k(ranked, {5, 1}, 2) == 0.5
        assert precision_at_k(ranked, {5, 2, 8, 1}, 4) == 1.0

    def test_ndcg_perfect_ranking_is_one(self):
        assert ndcg_at_k(np.array([3, 1, 2]), {3, 1}, 2) == pytest.approx(1.0)

    def test_ndcg_known_two_hit_case(self):
        # hits at ranks 1 and 3 of two relevant items
        got = ndcg_at_k(np.array([7, 0, 9, 4]), {7, 9}, 4)
        expected = (1.0 + 1.0 / np.log2(4.0)) / (1.0 + 1.0 / np.log2(3.0))
        assert got == pytest.approx(expected, abs=1e-15)
        assert got == pytest.approx(NDCG_TWO_OF_TWO_AT_1_AND_3, abs=1e-5)

    def test_ndcg_ideal_truncates_at_k(self):
        # three relevant, cutoff 2, hits at both top slots: ideal also has 2
        assert ndcg_at_k(np.array([1, 2, 3]), {1, 2, 3}, 2) == pytest.approx(1.0)

    def test_empty_relevant_rejected(self):
        for fn in (recall_at_k, precision_at_k, ndcg_at_k):
            with pytest.raises(ValueError):
                fn(np.array([1]), set(), 1)


class TestMetricsAgainstOracle:
    @pytest.mark.parametrize("k", [5, 20])
    def test_random_instances(self, k, rng):
        for _ in range(50):
            n = int(rng.integers(8, 40))
            # coarse score grid forces plenty of ties
            scores = rng.integers(0, 5, size=n).astype(np.float64) / 4.0
            num_rel = int(rng.integers(1, max(2, n // 3)))
            relevant = set(rng.choice(n, size=num_rel, replace=False).tolist())
            ranked = rank_items(
                np.array([1.0]), scores[:, None].astype(np.float64), []
            )
            r, p, g = oracle_metrics(scores.tolist(), relevant, k)
            assert recall_at_k(ranked, relevant, k) == pytest.approx(r, abs=1e-12)
            assert precision_at_k(ranked, relevant, k) == pytest.approx(p, abs=1e-12)
            assert ndcg_at_k(ranked, relevant, k) == pytest.approx(g, abs=1e-12)


def tiny_split():
    rng = np.random.default_rng(0)
    rows = []
    for u in range(8):
        for i in rng.choice(15, size=10, replace=False):
            rows.append((u, int(i)))
    ds = make_dataset(8, 15, np.array(rows, dtype=np.int64))
    return split_warm(ds, seed=0)


class TestEvaluate:
    def run_fit(self, split):
        cfg = ModelConfig(backend="mf", variant="base", embed_dim=6)
        train_cfg = TrainConfig(batch_size=32, max_epochs=2, patience=5, seed=0)
        return fit(cfg, train_cfg, split, {})

    def test_report_shape(self):
        split = tiny_split()
        result = self.run_fit(split)
        report = evaluate(
            result.params, result.model_cfg, split, {}, "valid", cutoffs=(5, 20)
        )
        assert report.partition == "valid"
        assert report.cutoffs == (5, 20)
        assert set(report.metrics[5]) == {"recall", "precision", "ndcg"}
        assert report.num_users_evaluated == 8
        d = report.as_dict()
        assert set(d["metrics"]) == {"5", "20"}

    def test_train_positives_never_ranked(self):
        split = tiny_split()
        result = self.run_fit(split)
        # a model scoring train positives sky-high cannot cheat: recall depends
        # only on the ranking of the held-out candidates
        params = result.params
        for u in range(split.train.num_users):
            for i in split.train.user_positives[u]:
                params.item_emb[i] += 100.0 * params.user_emb[u] / np.linalg.norm(
                    params.user_emb[u]
                )
        report = evaluate(params, result.model_cfg, split, {}, "valid")
        # with 15 items and at most 9 excluded the whole pool fits in top 20
        assert report.metrics[20]["recall"] == 1.0

    def test_valid_positives_excluded_only_for_test(self):
        # one user over ten items; scores are fixed by a handmade model equal
        # to the item id
        ds = make_dataset(1, 10, np.array([[0, i] for i in range(10)]))
        split = split_warm(ds, seed=1)  # 8 train, 1 valid, 1 test
        cfg = ModelConfig(backend="mf", variant="base", embed_dim=1)
        from lattice.model import ParameterSet

        params = ParameterSet(
            user_emb=np.ones((1, 1)),
            item_emb=np.arange(10, dtype=np.float64)[:, None],
        )
        valid_item = int(split.valid.pairs[0, 1])
        test_item = int(split.test.pairs[0, 1])
        rep_valid = evaluate(params, cfg, split, {}, "valid", cutoffs=(1,))
        rep_test = evaluate(params, cfg, split, {}, "test", cutoffs=(1,))
        # valid ranking keeps the test item in the pool and vice versa; with
        # scores equal to item ids the top candidate is just the larger id
        top_valid = max(valid_item, test_item)
        assert rep_valid.metrics[1]["recall"] == (1.0 if top_valid == valid_item else 0.0)
        assert rep_test.metrics[1]["recall"] == 1.0  # valid item is excluded

    def test_users_without_positives_skipped(self):
        rng = np.random.default_rng(3)
        rows = [(0, int(i)) for i in rng.choice(20, size=10, replace=False)]
        rows += [(1, 0), (1, 1)]  # too few positives to hold anything out
        ds = make_dataset(2, 20, np.array(rows, dtype=np.int64))
        split = split_warm(ds, seed=0)
        result = self.run_fit(split)
        report = evaluate(result.params, result.model_cfg, split, {}, "valid")
        assert report.num_users_evaluated == 1

    def test_empty_partition_rejected(self):
        rows = [(u, i) for u in range(3) for i in range(2)]
        ds = make_dataset(3, 2, np.array(rows, dtype=np.int64))
        split = split_warm(ds, seed=0)  # nothing held out anywhere
        cfg = ModelConfig(backend="mf", variant="base", embed_dim=2)
        from lattice.model import ParameterSet

        params = ParameterSet(
            user_emb=np.ones((3, 2)),
            item_emb=np.ones((2, 2)),
        )
        with pytest.raises(EvaluationError, match="no users"):
            evaluate(params, cfg, split, {}, "valid")

    def test_ranks_each_user_with_one_positional_call(self, monkeypatch):
        # perfbench times ranking by wrapping rank_items(user_vec,
        # enhanced_items, excluded); one call per evaluated user keeps its
        # step metrics defined
        split = tiny_split()
        result = self.run_fit(split)
        calls = []

        def recording(*args, **kwargs):
            calls.append((len(args), kwargs))
            return rank_items(*args, **kwargs)

        monkeypatch.setattr(lattice.evaluation, "rank_items", recording)
        for partition in ("valid", "test"):
            calls.clear()
            report = evaluate(result.params, result.model_cfg, split, {}, partition)
            assert calls == [(3, {})] * report.num_users_evaluated

    def test_unknown_partition_rejected(self):
        split = tiny_split()
        result = self.run_fit(split)
        with pytest.raises(ValueError, match="partition"):
            evaluate(result.params, result.model_cfg, split, {}, "train")

    def test_bad_cutoffs_rejected(self):
        split = tiny_split()
        result = self.run_fit(split)
        with pytest.raises(ValueError, match="cutoff"):
            evaluate(result.params, result.model_cfg, split, {}, "valid", cutoffs=())
        with pytest.raises(ValueError, match="cutoff"):
            evaluate(result.params, result.model_cfg, split, {}, "valid", cutoffs=(0,))

    def test_report_equals_a_loop_over_the_public_metrics(self):
        # coarse embeddings tie many scores; each user's hits are found once
        # up to the largest cutoff, and the report must be bitwise what the
        # three public functions give cutoff by cutoff
        from lattice.model import ParameterSet

        rng = np.random.default_rng(5)
        rows = [(u, int(i)) for u in range(12) for i in rng.choice(30, size=12, replace=False)]
        split = split_warm(make_dataset(12, 30, np.array(rows, dtype=np.int64)), seed=2)
        cfg = ModelConfig(backend="mf", variant="base", embed_dim=2)
        params = ParameterSet(
            user_emb=rng.integers(0, 2, (12, 2)).astype(np.float64),
            item_emb=rng.integers(0, 3, (30, 2)) / 2.0,
        )
        cutoffs = (1, 3, 5, 20, 40)
        for partition in ("valid", "test"):
            report = evaluate(params, cfg, split, {}, partition, cutoffs=cutoffs)
            part = split.valid if partition == "valid" else split.test
            totals = {c: {"recall": 0.0, "precision": 0.0, "ndcg": 0.0} for c in cutoffs}
            for u in range(12):
                relevant = set(part.user_positives[u].tolist())
                excluded = split.train.user_positives[u]
                if partition == "test":
                    excluded = np.concatenate([excluded, split.valid.user_positives[u]])
                ranked = rank_items(params.user_emb[u], params.item_emb, excluded)
                for c in cutoffs:
                    totals[c]["recall"] += recall_at_k(ranked, relevant, c)
                    totals[c]["precision"] += precision_at_k(ranked, relevant, c)
                    totals[c]["ndcg"] += ndcg_at_k(ranked, relevant, c)
            assert report.num_users_evaluated == 12
            assert report.metrics == {
                c: {name: v / 12 for name, v in totals[c].items()} for c in cutoffs
            }

    def test_oracle_model_scores_perfect_recall(self):
        split = tiny_split()
        cfg = ModelConfig(backend="mf", variant="base", embed_dim=15)
        from lattice.model import ParameterSet

        user_emb = np.zeros((8, 15))
        for u in range(8):
            user_emb[u, split.valid.user_positives[u]] = 1.0
        params = ParameterSet(
            user_emb=user_emb,
            item_emb=np.eye(15),
        )
        report = evaluate(params, cfg, split, {}, "valid", cutoffs=(1,))
        assert report.metrics[1]["recall"] == 1.0
        assert report.metrics[1]["ndcg"] == 1.0
