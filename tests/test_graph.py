"""Graph construction against a dense brute-force oracle plus edge cases."""

import ast
import os
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lattice import graph
from lattice.data import ModalityFeatures, make_dataset, write_graph_dump
from lattice.graph import (
    SparseGraph,
    aggregate_modalities,
    build_initial_graph,
    fuse_skip,
    iter_cosine_rows,
    knn_cosine_backward,
    knn_cosine_graph,
    normalize_sym,
    normalize_sym_backward,
    softmax,
    topk_sparsify,
    transform_features,
    values_at,
)
from lattice.model import ModelConfig, build_inputs, build_item_graph
from lattice.training import init_parameters


# ---------------------------------------------------------------------------
# dense reference implementations: quadratic loops, no sparse tricks


def dense_cosine(features):
    n = features.shape[0]
    out = np.zeros((n, n))
    norms = [np.sqrt(float(np.dot(f, f))) for f in features]
    for i in range(n):
        for j in range(n):
            if norms[i] < 1e-12 or norms[j] < 1e-12:
                continue
            c = float(np.dot(features[i], features[j])) / (norms[i] * norms[j])
            out[i, j] = max(c, 0.0)
    return out


def dense_topk(sim, k):
    n = sim.shape[0]
    out = np.zeros_like(sim)
    for i in range(n):
        order = sorted(range(n), key=lambda j: (-sim[i, j], j))[:k]
        for j in order:
            out[i, j] = sim[i, j]
    return out


def dense_normalize(matrix):
    n = matrix.shape[0]
    degrees = matrix.sum(axis=1)
    out = np.zeros_like(matrix)
    for i in range(n):
        for j in range(n):
            if degrees[i] > 0 and degrees[j] > 0:
                out[i, j] = matrix[i, j] / np.sqrt(degrees[i] * degrees[j])
    return out


def dense_modality_graph(features, k):
    return dense_normalize(dense_topk(dense_cosine(features), k))


def dense_mixed_graph(features_by_mod, params, k, lam):
    logits = params.logits
    names = sorted(features_by_mod)
    exp = np.exp(logits - logits.max())
    alpha = exp / exp.sum()
    n = next(iter(features_by_mod.values())).shape[0]
    combined = np.zeros((n, n))
    for idx, m in enumerate(names):
        initial = dense_modality_graph(features_by_mod[m], k)
        transformed = features_by_mod[m] @ params.transform_w[m].T + params.transform_b[m]
        learned = dense_modality_graph(transformed, k)
        combined += alpha[idx] * (lam * initial + (1.0 - lam) * learned)
    return combined, alpha


# ---------------------------------------------------------------------------
# the validated boundary: public constructor and from_scipy

# (num_nodes, indptr, indices, values), each breaking one invariant
MALFORMED = {
    "indptr too short": (3, [0, 1, 2], [0, 1], [1.0, 1.0]),
    "indptr not starting at 0": (2, [1, 1, 2], [0, 1], [1.0, 1.0]),
    "indptr end past indices": (2, [0, 1, 3], [0, 1], [1.0, 1.0]),
    "indptr decreasing": (3, [0, 2, 1, 2], [0, 1], [1.0, 1.0]),
    "indptr past indices mid-row": (2, [0, 3, 2], [0, 1], [1.0, 1.0]),
    "indices past indptr end": (2, [0, 1, 1], [0, 1], [1.0, 2.0]),
    "unsorted row": (3, [0, 2, 2, 2], [2, 0], [1.0, 1.0]),
    "duplicate column": (3, [0, 2, 2, 2], [1, 1], [1.0, 1.0]),
    "column out of range": (2, [0, 1, 1], [2], [1.0]),
    "negative column": (2, [0, 1, 1], [-1], [1.0]),
    "negative weight": (2, [0, 1, 1], [1], [-0.5]),
    "nan weight": (2, [0, 1, 1], [1], [np.nan]),
    "inf weight": (2, [0, 1, 1], [1], [np.inf]),
}


class TestBoundaryValidation:
    @pytest.mark.parametrize("case", list(MALFORMED))
    def test_constructor_rejects(self, case):
        n, indptr, indices, values = MALFORMED[case]
        with pytest.raises(ValueError):
            SparseGraph(n, np.array(indptr), np.array(indices), np.array(values))

    # from_scipy sorts an unsorted row; scipy prunes indices past indptr's
    # end itself, and would read past indices sorting a mid-row overshoot
    @pytest.mark.parametrize("case", [
        c for c in MALFORMED
        if c not in ("unsorted row", "indices past indptr end", "indptr past indices mid-row")
    ])
    def test_from_scipy_rejects(self, case):
        n, indptr, indices, values = MALFORMED[case]
        # scipy's own constructor rejects the other malformed indptr cases first
        with pytest.raises(ValueError):
            SparseGraph.from_scipy(sp.csr_matrix((values, indices, indptr), shape=(n, n)))

    def test_from_scipy_sorts_rows_and_checks_node_count(self):
        n, indptr, indices, values = MALFORMED["unsorted row"]
        matrix = sp.csr_matrix((np.array([1.0, 2.0]), indices, indptr), shape=(n, n))
        g = SparseGraph.from_scipy(matrix)
        assert g.indices.tolist() == [0, 2] and g.values.tolist() == [2.0, 1.0]
        # the argument keeps its own order
        assert matrix.indices.tolist() == [2, 0] and matrix.data.tolist() == [1.0, 2.0]
        with pytest.raises(ValueError, match="square"):
            SparseGraph.from_scipy(sp.csr_matrix(np.ones((2, 3))))

    def test_graphs_compare_and_hash_by_identity(self):
        g = random_graph(6, 0.4, seed=0)
        h = SparseGraph(g.num_nodes, g.indptr.copy(), g.indices.copy(), g.values.copy())
        assert g == g
        assert g != h
        assert len({g, h}) == 2
        assert g in [h, g]
        assert h not in [g]


# ---------------------------------------------------------------------------
# values at another graph's entries, against the scipy fancy indexing oracle


def random_graph(n, density, seed):
    matrix = sp.random(n, n, density=density, random_state=seed, format="csr")
    return SparseGraph.from_scipy(matrix)


@pytest.mark.parametrize(
    "source_density,target_density",
    [(0.2, 0.2), (0.0, 0.3), (0.3, 0.0), (0.0, 0.0), (0.25, None), (0.2, "subset")],
    ids=["partial-overlap", "empty-source", "empty-target", "both-empty",
         "identical-pattern", "target-inside-source"],
)
def test_values_at_matches_scipy_fancy_indexing(source_density, target_density):
    n = 40
    source = random_graph(n, source_density, seed=1)
    if target_density is None:
        target = source
    elif target_density == "subset":
        target = source
        source = SparseGraph.from_scipy(source.csr + random_graph(n, 0.2, seed=2).csr)
    else:
        target = random_graph(n, target_density, seed=2)
    values = np.random.default_rng(3).standard_normal(source.nnz)
    got = values_at(source, values, target)
    rows, cols = target.edge_rows(), target.indices
    oracle = sp.csr_matrix((values, source.indices, source.indptr), shape=(n, n))
    want = np.zeros(0) if rows.size == 0 else np.asarray(oracle[rows, cols]).ravel()
    assert got.dtype == np.float64
    assert got.tobytes() == want.astype(np.float64).tobytes()


@pytest.mark.parametrize("density", [0.0, 0.05, 0.5])
def test_row_sums_add_in_entry_order(density):
    # the sums are bitwise those of np.add.at into zeros, entry by entry
    g = random_graph(60, density, seed=4)
    want = np.zeros(g.num_nodes)
    np.add.at(want, g.edge_rows(), g.values)
    assert g.row_sums().dtype == np.float64
    assert g.row_sums().tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# cosine similarity


def copied_blocks(features):
    """Copies of the blocks iter_cosine_rows yields; each block it yields
    is overwritten by the next."""
    return [block.copy() for block in iter_cosine_rows(features)]


def cosine_rows(features):
    """The cosine matrix of iter_cosine_rows, clamped at 0 like the dense oracles."""
    return np.maximum(np.vstack(copied_blocks(features)), 0.0)


class TestCosine:
    def test_orthogonal_rows_score_zero(self):
        feats = np.array([[1.0, 0.0], [0.0, 1.0]])
        row = cosine_rows(feats)[0]
        np.testing.assert_allclose(row, [1.0, 0.0], atol=1e-15)

    def test_known_angle(self):
        feats = np.array([[1.0, 1.0], [1.0, 0.0]])
        row = cosine_rows(feats)[0]
        assert row[1] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)

    @pytest.mark.parametrize("k", [2, 10])  # below and above n // 16 = 3
    def test_anti_parallel_pair_is_never_an_edge(self, rng, k):
        # blocks hold raw cosines; only the top-k threshold keeps negatives
        # out.  Item 0's only positive cosine is its own, so its row has
        # fewer than k positive entries at both k
        feats = np.column_stack([-np.ones(48), rng.uniform(-1.0, 1.0, 48)])
        feats[0] = [1.0, 0.0]
        feats[1] = [-1.0, 0.0]
        g = knn_cosine_graph(feats, k)
        dense = g.csr.toarray()
        assert dense[0, 1] == 0.0 and dense[1, 0] == 0.0
        assert g.indices[g.indptr[0] : g.indptr[1]].tolist() == [0]
        assert g.values.min() > 0.0

    def test_zero_norm_row_guarded(self):
        feats = np.array([[0.0, 0.0], [1.0, 2.0]])
        assert cosine_rows(feats)[0].tolist() == [0.0, 0.0]
        assert cosine_rows(feats)[1][0] == 0.0

    def test_chunked_rows_match_dense(self, rng, monkeypatch):
        feats = rng.standard_normal((23, 7))
        dense = dense_cosine(feats)
        # the byte budget alone sets the rows once the floor is lifted
        monkeypatch.setattr(graph, "_MIN_BLOCK_ROWS", 1)
        monkeypatch.setattr(graph, "_BLOCK_BYTES", 5 * 8 * 23)  # 5-row blocks
        blocks = copied_blocks(feats)
        assert [b.shape[0] for b in blocks] == [5, 5, 5, 5, 3]
        np.testing.assert_allclose(np.maximum(np.vstack(blocks), 0.0), dense, atol=1e-12)


# ---------------------------------------------------------------------------
# top-k sparsification


class TestTopK:
    def mk(self, rows, k):
        arr = np.asarray(rows, dtype=np.float64)
        return topk_sparsify([arr], k)

    def test_keeps_largest_entries(self):
        g = self.mk([[0.9, 0.5, 0.7, 0.1]] * 4, 2)
        assert g.csr.toarray()[0].tolist() == [0.9, 0.0, 0.7, 0.0]

    def test_tie_resolves_to_smaller_column(self):
        g = self.mk([[0.5, 0.5, 0.2], [0.2, 0.5, 0.5], [0.5, 0.2, 0.5]], 1)
        dense = g.csr.toarray()
        assert dense[0].tolist() == [0.5, 0.0, 0.0]
        assert dense[1].tolist() == [0.0, 0.5, 0.0]
        assert dense[2].tolist() == [0.5, 0.0, 0.0]

    def test_zero_entries_dropped(self):
        g = self.mk([[0.0, 0.4, 0.0], [0.0, 0.0, 0.0], [0.1, 0.2, 0.3]], 2)
        assert g.row_counts().tolist() == [1, 0, 2]

    def test_k_zero_gives_empty_graph(self):
        g = self.mk([[0.9, 0.5], [0.5, 0.9]], 0)
        assert g.nnz == 0

    def test_k_at_least_n_keeps_positive_entries(self):
        g = self.mk([[0.9, 0.5], [0.5, 0.9]], 5)
        assert g.nnz == 4

    def test_matches_dense_oracle(self, rng):
        for _ in range(10):
            sim = np.maximum(rng.standard_normal((12, 12)), 0.0)
            k = int(rng.integers(1, 6))
            got = topk_sparsify([sim], k).csr.toarray()
            np.testing.assert_allclose(got, dense_topk(sim, k), atol=0)

    def test_support_invariant_under_monotone_value_transform(self, rng):
        sim = np.maximum(rng.standard_normal((10, 10)), 0.0)
        squashed = np.sqrt(sim)  # strictly monotone on [0, inf)
        a = topk_sparsify([sim], 3)
        b = topk_sparsify([squashed], 3)
        assert a.indices.tolist() == b.indices.tolist()
        assert a.indptr.tolist() == b.indptr.tolist()
        np.testing.assert_allclose(np.sqrt(a.values), b.values, atol=1e-12)

    def test_top_k_only_in_tail_columns(self, rng):
        # 45 columns: g = 2 groups of 16 strided columns, then 13 tail
        # columns no group covers; every row's two largest lie in the tail
        sim = rng.uniform(0.1, 0.5, (45, 45))
        sim[:, 33] = 0.9
        sim[:, 40] = 0.8
        got = topk_sparsify([sim], 2)
        assert np.all(got.indices.reshape(45, 2) == [33, 40])
        np.testing.assert_array_equal(got.csr.toarray(), dense_topk(sim, 2))

    @pytest.mark.parametrize("tied", [(5, 8), (4, 9)], ids=["odd-first", "even-first"])
    def test_tied_group_maxima_keep_smaller_column(self, tied):
        # 32 columns, k = 1: group 0 holds the even columns, group 1 the odd
        # ones, and both maxima tie at the bound.  Whichever of the two
        # groups a one-way selection kept, one case puts the smaller tied
        # column in the other
        sim = np.full((32, 32), 0.1)
        sim[:, list(tied)] = 0.5
        got = topk_sparsify([sim], 1)
        assert got.indices.tolist() == [tied[0]] * 32
        np.testing.assert_array_equal(got.csr.toarray(), dense_topk(sim, 1))

    @pytest.mark.parametrize("k", [1, 5, 40])  # g = 4: k <= g and k > g
    def test_wide_ties_keep_smallest_columns(self, k):
        # three levels tie many candidates at each row's k-th value; on rows
        # this long an unstable sort reorders them (numpy's does at k = 40)
        cols = np.arange(64)
        sim = 0.1 * (1 + (7 * cols[None, :] + cols[:, None]) % 3)
        got = topk_sparsify([sim], k)
        np.testing.assert_array_equal(got.csr.toarray(), dense_topk(sim, k))

    @pytest.mark.parametrize("k", [2, 5])  # g = 3: k <= g and k > g
    def test_rows_with_fewer_than_k_positive_entries(self, rng, k):
        sim = rng.uniform(-1.0, -0.1, (48, 48))
        sim[::2] = rng.uniform(0.1, 1.0, (24, 48))  # even rows all positive
        sim[1::2, 7] = 0.3  # odd rows: one positive entry
        sim[3, 40] = 0.2  # and row 3 a second one
        got = topk_sparsify([sim], k)
        counts = got.row_counts()
        assert np.all(counts[::2] == k)
        assert counts[1] == 1 and counts[3] == 2
        np.testing.assert_array_equal(got.csr.toarray(), dense_topk(np.maximum(sim, 0.0), k))

    @pytest.mark.parametrize("k", [0, 1, 3, 30])
    def test_block_topk_returns_no_view_of_its_block(self, rng, k):
        # topk_sparsify keeps these arrays while the next block overwrites
        # this one; k = 1 and 3 take the group gate, k = 30 the full scan
        block = rng.uniform(-1.0, 1.0, (20, 50))
        for arr in graph._block_topk(block, k):
            assert not np.shares_memory(arr, block)

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="more similarity rows than nodes"):
            topk_sparsify([np.ones((2, 3)), np.ones((2, 3))], 1)
        with pytest.raises(ValueError, match="expected 3 similarity rows, got 2"):
            topk_sparsify([np.ones((2, 3))], 1)

    def test_node_count_is_block_width(self):
        # a 3 x 2 block is no row block of a square matrix
        with pytest.raises(ValueError, match="more similarity rows than nodes"):
            topk_sparsify([np.ones((3, 2))], 1)
        with pytest.raises(ValueError, match="block width 4 is not 3"):
            topk_sparsify([np.ones((1, 3)), np.ones((2, 4))], 1)

    def test_no_blocks_give_empty_graph(self):
        g = topk_sparsify([], 2)
        assert g.num_nodes == 0 and g.nnz == 0
        assert g.indptr.tolist() == [0]

    @pytest.mark.parametrize("n", [1, 15, 40])  # g = 0, 0 and 2
    def test_k_past_int64_equals_k_of_node_count(self, rng, n):
        feats = rng.standard_normal((n, 3))
        got = knn_cosine_graph(feats, 2**63)
        want = knn_cosine_graph(feats, n)
        for a, b in [(got.indptr, want.indptr), (got.indices, want.indices), (got.values, want.values)]:
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def stable_topk_reference(sim, k):
    """CSR arrays of each row's stable-argsort top k, zeros dropped, columns sorted."""
    indptr, indices, values = [0], [], []
    for row in sim:
        cols = np.sort(np.argsort(-row, kind="stable")[:k])
        cols = cols[row[cols] > 0.0]
        indptr.append(indptr[-1] + cols.size)
        indices.append(cols)
        values.append(row[cols])
    return np.array(indptr), np.concatenate(indices), np.concatenate(values)


@st.composite
def topk_cases(draw):
    """Features, k and block rows at sizes of g >= 1 groups (the examples below g = 0).

    Block rows cover every layout, from one row per block to one block.
    """
    n = draw(st.integers(16, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    feats = rng.standard_normal((n, draw(st.integers(1, 6))))
    if draw(st.booleans()):
        feats = np.round(feats)  # quantized: heavy ties at the boundary
    feats[rng.random(n) < draw(st.sampled_from([0.0, 0.2]))] = 0.0
    g = n // 16
    k = draw(st.sampled_from([0, 1, g, g + 1, n - 1, n, n + 3]))
    return feats, k, draw(st.integers(1, n + 1))


def small_catalogue(n, seed):
    """Rounded features of n < 16 items, so g = 0: ties, a zero row, opposite rows."""
    feats = np.round(np.random.default_rng(seed).standard_normal((n, 2)))
    feats[0] = 0.0
    return feats


@settings(max_examples=150, deadline=None)
@given(topk_cases())
@example((np.array([[1.0, -2.0]]), 1, 1))
@example((small_catalogue(15, 0), 1, 4))
@example((small_catalogue(15, 1), 3, 15))
@example((small_catalogue(15, 2), 14, 16))
@example((small_catalogue(15, 3), 18, 7))
@example((small_catalogue(15, 4), 2**63, 15))
def test_topk_matches_stable_argsort_reference(case):
    # few feature dims leave rows with fewer than k positive similarities
    feats, k, rows = case
    n = feats.shape[0]
    # the floor alone sets the rows once the byte budget is zero
    with (
        mock.patch.object(graph, "_BLOCK_BYTES", 0),
        mock.patch.object(graph, "_MIN_BLOCK_ROWS", rows),
    ):
        got = topk_sparsify(iter_cosine_rows(feats), k)
        blocks = copied_blocks(feats)
    assert [b.shape[0] for b in blocks] == [min(rows, n - s) for s in range(0, n, rows)]
    indptr, indices, values = stable_topk_reference(np.vstack(blocks), k)
    assert np.array_equal(got.indptr, indptr)
    assert np.array_equal(got.indices, indices)
    assert got.values.tobytes() == values.tobytes()


class TestDefaultBlocks:
    """Default blocks at a multi-block size: 5,000 items, 2-d features.

    A block holds as many rows as fit in 8 MiB, but at least 128.  Below
    8,192 items the byte budget sets the rows; here it gives 209.
    """

    n, k = 5000, 10

    def features(self):
        return np.random.default_rng(4).standard_normal((self.n, 2))

    def test_blocks_stay_within_byte_budget_and_cover_rows(self):
        sizes = [(b.shape, b.nbytes) for b in iter_cosine_rows(self.features())]
        assert [shape for shape, _ in sizes] == [(209, self.n)] * 23 + [(193, self.n)]
        assert all(nbytes <= graph._BLOCK_BYTES for _, nbytes in sizes)
        assert 209 * self.n * 8 <= graph._BLOCK_BYTES < 210 * self.n * 8

    def test_blocks_reuse_one_buffer_within_byte_budget(self):
        blocks = list(iter_cosine_rows(self.features()))
        assert all(np.shares_memory(a, b) for a, b in zip(blocks, blocks[1:]))
        assert blocks[0].base.nbytes <= graph._BLOCK_BYTES

    def test_graph_matches_topk_of_copied_blocks(self):
        feats = self.features()
        got = knn_cosine_graph(feats, self.k)
        want = topk_sparsify(copied_blocks(feats), self.k)
        assert got.indptr.tobytes() == want.indptr.tobytes()
        assert got.indices.tobytes() == want.indices.tobytes()
        assert got.values.tobytes() == want.values.tobytes()

    def test_graph_matches_dense_oracle(self):
        # the oracle forms each score as an explicit two-term sum, so its last
        # bits may differ from the block products: the support may differ
        # from the exact top k only where scores lie within 1e-12 of a row's
        # k-th largest, which makes the tie order of the oracle moot
        feats = self.features()
        got = knn_cosine_graph(feats, self.k)
        assert np.all(got.row_counts() == self.k)
        got_cols = got.indices.reshape(self.n, self.k)
        got_vals = got.values.reshape(self.n, self.k)
        unit = feats / np.linalg.norm(feats, axis=1, keepdims=True)
        for start in range(0, self.n, 500):
            rows = slice(start, start + 500)
            u = unit[rows]
            sim = np.outer(u[:, 0], unit[:, 0]) + np.outer(u[:, 1], unit[:, 1])
            sim = np.maximum(sim, 0.0)
            kth = np.partition(sim, self.n - self.k, axis=1)[:, self.n - self.k, None]
            at_got = np.take_along_axis(sim, got_cols[rows], axis=1)
            np.testing.assert_allclose(got_vals[rows], at_got, rtol=0, atol=1e-12)
            assert np.all(at_got >= kth - 1e-12)
            # every clearly-above-the-cut column is kept (kept columns are distinct)
            clear = sim > kth + 1e-12
            assert np.array_equal(clear.sum(axis=1), (at_got > kth + 1e-12).sum(axis=1))


class TestFlooredBlocks:
    """Default blocks past the crossover: 8,200 items, 2-d features.

    The byte budget gives 127 rows here, so the 128-row floor sets them.
    """

    n, k = 8200, 10

    def features(self):
        return np.random.default_rng(5).standard_normal((self.n, 2))

    def test_floor_sets_rows_past_byte_budget(self):
        assert graph._BLOCK_BYTES // (8 * self.n) == 127
        blocks = list(iter_cosine_rows(self.features()))
        assert [b.shape for b in blocks] == [(128, self.n)] * 64 + [(8, self.n)]
        assert all(np.shares_memory(a, b) for a, b in zip(blocks, blocks[1:]))
        assert blocks[0].base.nbytes == 128 * self.n * 8

    def test_graph_matches_topk_of_copied_blocks(self):
        # copied one at a time: the whole matrix would be 538 MB
        feats = self.features()
        got = knn_cosine_graph(feats, self.k)
        want = topk_sparsify(
            (block.copy() for block in iter_cosine_rows(feats)), self.k
        )
        assert got.indptr.tobytes() == want.indptr.tobytes()
        assert got.indices.tobytes() == want.indices.tobytes()
        assert got.values.tobytes() == want.values.tobytes()


# ---------------------------------------------------------------------------
# symmetric normalization


class TestNormalize:
    def test_uniform_block(self):
        g = SparseGraph.from_scipy(
            sp.csr_matrix(np.ones((2, 2)))
        )
        np.testing.assert_allclose(normalize_sym(g).csr.toarray(), np.full((2, 2), 0.5))

    def test_single_edge_row(self):
        dense = np.array([[1.0, 0.0], [0.0, 0.0]])
        g = SparseGraph.from_scipy(
            sp.csr_matrix(dense)
        )
        np.testing.assert_allclose(normalize_sym(g).csr.toarray(), dense)

    def test_matches_dense_oracle(self, rng):
        for _ in range(10):
            dense = np.maximum(rng.standard_normal((9, 9)), 0.0)
            dense[rng.integers(9)] = 0.0  # force an empty row
            g = SparseGraph.from_scipy(
                sp.csr_matrix(dense)
            )
            np.testing.assert_allclose(
                normalize_sym(g).csr.toarray(), dense_normalize(dense), atol=1e-12
            )

    def test_invariant_to_uniform_weight_scaling(self, rng):
        dense = np.maximum(rng.standard_normal((8, 8)), 0.0)
        a = normalize_sym(SparseGraph.from_scipy(sp.csr_matrix(dense)))
        b = normalize_sym(SparseGraph.from_scipy(sp.csr_matrix(dense * 7.25)))
        np.testing.assert_allclose(a.csr.toarray(), b.csr.toarray(), atol=1e-12)


# ---------------------------------------------------------------------------
# stage backwards against central differences of their forwards

STAGE_FD_STEP = 1e-6


def central_differences(loss, x):
    """d loss / d x, one entry of x at a time."""
    grad = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        saved = x[idx]
        x[idx] = saved + STAGE_FD_STEP
        up = loss(x)
        x[idx] = saved - STAGE_FD_STEP
        down = loss(x)
        x[idx] = saved
        grad[idx] = (up - down) / (2 * STAGE_FD_STEP)
    return grad


def test_normalize_sym_backward_matches_central_differences():
    rng = np.random.default_rng(7)
    n, empty, stored_zero = 9, 4, 7
    dense = np.where(rng.random((n, n)) < 0.5, rng.uniform(0.5, 1.5, (n, n)), 0.0)
    # zero-degree rows, so entries in their columns are dropped: one empty,
    # one holding a single stored zero weight
    dense[:, [empty, stored_zero]] = np.where(np.arange(n) % 2 == 0, 0.7, 0.0)[:, None]
    dense[[empty, stored_zero]] = 0.0
    dense[stored_zero, 0] = -1.0
    matrix = sp.csr_matrix(dense)
    matrix.data[matrix.data < 0.0] = 0.0
    g = SparseGraph.from_scipy(matrix)
    assert np.count_nonzero(np.isin(g.indices, [empty, stored_zero])) > 2
    assert not np.any(np.isin(normalize_sym(g).indices, [empty, stored_zero]))
    upstream = rng.standard_normal(g.nnz)
    live = g.values > 0.0

    def loss(live_values):
        values = g.values.copy()
        values[live] = live_values
        out = normalize_sym(SparseGraph(n, g.indptr, g.indices, values))
        return float(np.dot(upstream, values_at(out, out.values, g)))  # pre-prune

    with np.errstate(divide="raise", invalid="raise"):
        got = normalize_sym_backward(upstream, g)
        want = central_differences(loss, g.values[live])
    np.testing.assert_allclose(got[live], want, rtol=1e-6, atol=1e-8)


def test_knn_cosine_backward_matches_central_differences():
    rng = np.random.default_rng(8)
    n, zero, tiny = 10, 3, 6
    guarded = [zero, tiny]
    features = rng.uniform(0.1, 1.0, (n, 5))  # every cosine positive: no clamp
    features[zero] = 0.0
    features[tiny] = 1e-14  # nonzero, but its norm is below NORM_EPS
    kept = knn_cosine_graph(features, 3)
    # hold the kept support fixed, plus every entry in a guarded row or
    # column, whose kept cosines read 0
    pattern = kept.csr.toarray() > 0
    pattern[guarded] = True
    pattern[:, guarded] = True
    support = SparseGraph.from_scipy(sp.csr_matrix(pattern.astype(np.float64)))
    rows, cols = support.edge_rows(), support.indices
    upstream = rng.standard_normal(support.nnz)

    def loss(feats):
        unit, _ = graph.unit_rows(feats)
        return float(np.dot(upstream, np.einsum("ed,ed->e", unit[rows], unit[cols])))

    with np.errstate(divide="raise", invalid="raise"):
        assert not np.any(graph.unit_rows(features)[0][guarded])
        got = knn_cosine_backward(upstream, support, features)
        want = central_differences(loss, features.copy())
    assert not np.any(got[guarded])
    others = np.setdiff1d(np.arange(n), guarded)
    np.testing.assert_allclose(got[others], want[others], rtol=1e-6, atol=1e-8)


# ---------------------------------------------------------------------------
# full per-modality pipeline


class TestInitialGraph:
    def test_identical_rows_full_k(self):
        feats = np.tile([[1.0, 2.0, 3.0]], (3, 1))
        g = build_initial_graph(feats, 3)
        np.testing.assert_allclose(g.csr.toarray(), np.full((3, 3), 1.0 / 3.0), atol=1e-12)

    def test_k_one_keeps_self_loops(self, rng):
        feats = rng.standard_normal((6, 4))
        g = build_initial_graph(feats, 1)
        np.testing.assert_allclose(g.csr.toarray(), np.eye(6), atol=1e-12)

    def test_matches_dense_oracle(self, rng):
        feats = rng.standard_normal((20, 5))
        got = build_initial_graph(feats, 5).csr.toarray()
        np.testing.assert_allclose(got, dense_modality_graph(feats, 5), atol=1e-10)

    def test_row_budget_respected(self, rng):
        feats = rng.standard_normal((15, 3))
        g = build_initial_graph(feats, 4)
        assert g.row_counts().max() <= 4

    def test_permuting_items_permutes_graph(self, rng):
        feats = rng.standard_normal((11, 4))
        perm = rng.permutation(11)
        base = build_initial_graph(feats, 3).csr.toarray()
        permuted = build_initial_graph(feats[perm], 3).csr.toarray()
        np.testing.assert_allclose(permuted, base[np.ix_(perm, perm)], atol=1e-12)


class TestTransform:
    def test_identity(self):
        feats = np.arange(6.0).reshape(2, 3)
        out = transform_features(feats, np.eye(3), np.zeros(3))
        np.testing.assert_allclose(out, feats)

    def test_zero_weight_gives_bias(self):
        out = transform_features(
            np.ones((2, 3)), np.zeros((4, 3)), np.array([1.0, 2.0, 3.0, 4.0])
        )
        np.testing.assert_allclose(out, np.tile([1.0, 2.0, 3.0, 4.0], (2, 1)))

    def test_matches_loop_oracle(self, rng):
        feats = rng.standard_normal((5, 7))
        w = rng.standard_normal((3, 7))
        b = rng.standard_normal(3)
        got = transform_features(feats, w, b)
        want = np.array([[np.dot(w[o], f) + b[o] for o in range(3)] for f in feats])
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            transform_features(np.ones((2, 3)), np.ones((4, 5)), np.zeros(4))


class TestLearnedGraph:
    def test_identity_transform_matches_initial(self, rng):
        feats = rng.standard_normal((9, 4))
        transformed = transform_features(feats, np.eye(4), np.zeros(4))
        a = build_initial_graph(feats, 3).csr.toarray()
        b = build_initial_graph(transformed, 3).csr.toarray()
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_k_zero_empty(self, rng):
        assert build_initial_graph(rng.standard_normal((5, 3)), 0).nnz == 0


class TestFuseAndMix:
    def test_lambda_one_keeps_initial(self, rng):
        feats = rng.standard_normal((7, 3))
        initial = build_initial_graph(feats, 2)
        learned = build_initial_graph(rng.standard_normal((7, 3)), 2)
        fused = fuse_skip(initial, learned, 1.0)
        np.testing.assert_allclose(fused.csr.toarray(), initial.csr.toarray(), atol=1e-15)

    def test_lambda_zero_keeps_learned(self, rng):
        initial = build_initial_graph(rng.standard_normal((7, 3)), 2)
        learned = build_initial_graph(rng.standard_normal((7, 3)), 2)
        fused = fuse_skip(initial, learned, 0.0)
        np.testing.assert_allclose(fused.csr.toarray(), learned.csr.toarray(), atol=1e-15)

    def test_blend_entrywise(self, rng):
        initial = build_initial_graph(rng.standard_normal((6, 3)), 2)
        learned = build_initial_graph(rng.standard_normal((6, 3)), 2)
        fused = fuse_skip(initial, learned, 0.3)
        want = 0.3 * initial.csr.toarray() + 0.7 * learned.csr.toarray()
        np.testing.assert_allclose(fused.csr.toarray(), want, atol=1e-14)

    def test_node_count_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            fuse_skip(
                build_initial_graph(rng.standard_normal((5, 3)), 2),
                build_initial_graph(rng.standard_normal((6, 3)), 2),
                0.5,
            )

    def test_softmax_known_values(self):
        np.testing.assert_allclose(
            softmax(np.array([np.log(3.0), 0.0])), [0.75, 0.25], atol=1e-12
        )

    def test_single_modality_mix_is_identity(self, rng):
        g = build_initial_graph(rng.standard_normal((6, 3)), 2)
        mixed = aggregate_modalities([g], np.zeros(1))
        np.testing.assert_allclose(mixed.csr.toarray(), g.csr.toarray(), atol=1e-15)
        assert softmax(np.zeros(1)).tolist() == [1.0]

    def test_equal_logits_average(self, rng):
        a = build_initial_graph(rng.standard_normal((6, 3)), 2)
        b = build_initial_graph(rng.standard_normal((6, 3)), 2)
        mixed = aggregate_modalities([a, b], np.zeros(2))
        want = 0.5 * a.csr.toarray() + 0.5 * b.csr.toarray()
        np.testing.assert_allclose(mixed.csr.toarray(), want, atol=1e-14)
        np.testing.assert_allclose(softmax(np.zeros(2)), [0.5, 0.5], atol=1e-15)

    def test_empty_modality_list_rejected(self):
        with pytest.raises(ValueError):
            aggregate_modalities([], np.zeros(0))


class TestFullPipelineAgainstOracle:
    def test_learned_mixed_graph_matches_dense(self, rng):
        for trial in range(5):
            n = int(rng.integers(8, 20))
            k = int(rng.integers(1, 5))
            lam = float(rng.uniform(0.0, 1.0))
            feats = {
                "img": ModalityFeatures(rng.standard_normal((n, 6))),
                "txt": ModalityFeatures(rng.standard_normal((n, 4))),
            }
            cfg = ModelConfig(
                variant="full", embed_dim=5, hidden_dim=3, k=k, fuse_lambda=lam,
            )
            pairs = np.column_stack(
                [np.arange(n) % 3, np.arange(n, dtype=np.int64)]
            )
            ds = make_dataset(3, n, pairs)
            inputs = build_inputs(cfg, ds, feats)
            params = init_parameters(
                cfg, 3, n, {"img": 6, "txt": 4}, np.random.default_rng(trial)
            )
            params.logits[:] = rng.standard_normal(2)
            graph = build_item_graph(cfg, params, inputs)
            alpha = softmax(params.logits)
            want, want_alpha = dense_mixed_graph(inputs.features, params, k, lam)
            np.testing.assert_allclose(graph.csr.toarray(), want, atol=1e-10)
            np.testing.assert_allclose(alpha, want_alpha, atol=1e-12)
            assert abs(alpha.sum() - 1.0) <= 1e-12


def test_learned_graph_build_checks_every_graph(rng, monkeypatch):
    # topk_sparsify, normalize_sym, fuse_skip and aggregate_modalities each
    # build their output through the checked constructor
    n = 12
    feats = {"img": ModalityFeatures(rng.standard_normal((n, 6)))}
    cfg = ModelConfig(variant="full", embed_dim=5, hidden_dim=3, k=3, fuse_lambda=0.5)
    inputs = build_inputs(
        cfg, make_dataset(3, n, np.column_stack([np.arange(n) % 3, np.arange(n)])), feats
    )
    params = init_parameters(cfg, 3, n, {"img": 6}, np.random.default_rng(0))
    checked = []
    check = SparseGraph.__post_init__

    def counted(self):
        check(self)
        checked.append(self)

    monkeypatch.setattr(SparseGraph, "__post_init__", counted)
    mixed = build_item_graph(cfg, params, inputs)
    # the one modality's initial graph was checked in build_inputs, and no
    # empty stand-in for it is built
    assert len(checked) == 4
    assert all(g.nnz > 0 for g in checked)
    assert mixed in checked


def test_graph_module_imports_no_package_module():
    # the pipeline sits below every other module, so none of them is imported
    tree = ast.parse(Path(graph.__file__).read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    assert imported and not [m for m in imported if m.startswith((".", "lattice"))]


class TestGraphDump:
    def test_roundtrip(self, tmp_path, rng):
        g = build_initial_graph(rng.standard_normal((8, 3)), 3)
        meta = {"k": 3, "fuse_lambda": 0.5}
        tsv, js = write_graph_dump(g, tmp_path / "graph", meta)
        assert Path(tsv).read_text(encoding="utf-8").startswith("src\tdst\tweight\n")
        src, dst, wgt = np.loadtxt(tsv, delimiter="\t", skiprows=1, ndmin=2).T
        np.testing.assert_array_equal(src, g.edge_rows())
        np.testing.assert_array_equal(dst, g.indices)
        np.testing.assert_allclose(wgt, g.values, rtol=0, atol=0)
        import json

        assert json.loads(Path(js).read_text(encoding="utf-8"))["k"] == 3

    @pytest.mark.parametrize("failure", [".tsv", ".json", "unencodable meta"])
    def test_failed_rewrite_keeps_previous_dump(self, tmp_path, rng, monkeypatch, failure):
        paths = write_graph_dump(
            build_initial_graph(rng.standard_normal((8, 3)), 3), tmp_path / "graph", {"k": 3}
        )
        previous = [Path(p).read_bytes() for p in paths]
        meta = {"k": 2}
        if failure.startswith("."):
            real_replace = os.replace

            def crash_on_target(src, dst):
                if str(dst).endswith(failure):
                    raise OSError("simulated crash before rename")
                real_replace(src, dst)

            monkeypatch.setattr(os, "replace", crash_on_target)
        else:
            meta = {"k": object()}
        with pytest.raises((OSError, TypeError)):
            write_graph_dump(
                build_initial_graph(rng.standard_normal((8, 3)), 2), tmp_path / "graph", meta
            )
        kept = [Path(p).read_bytes() == old for p, old in zip(paths, previous)]
        # each file is replaced on its own: the edges land before a failed sidecar rename
        assert kept == [failure != ".json", True]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["graph.json", "graph.tsv"]


# ---------------------------------------------------------------------------
# invariants of every pipeline stage, fuzzed


def assert_canonical(g):
    """Strictly increasing in-range columns per row, finite non-negative weights."""
    assert g.indptr.shape == (g.num_nodes + 1,)
    assert g.indptr[0] == 0 and g.indptr[-1] == g.indices.size == g.values.size
    for row in range(g.num_nodes):
        cols = g.indices[g.indptr[row] : g.indptr[row + 1]]
        assert np.all(np.diff(cols) > 0)
        assert np.all((cols >= 0) & (cols < g.num_nodes))
    assert np.all(np.isfinite(g.values)) and np.all(g.values >= 0.0)


@st.composite
def pipeline_inputs(draw):
    n = draw(st.integers(1, 10))
    d = draw(st.integers(1, 4))
    feats = arrays(np.float64, (n, d), elements=st.floats(-10.0, 10.0))
    return (
        draw(feats),
        draw(feats),
        draw(st.integers(0, n + 1)),
        draw(st.floats(0.0, 1.0)),
        draw(arrays(np.float64, 2, elements=st.floats(-5.0, 5.0))),
    )


@settings(max_examples=60, deadline=None)
@given(pipeline_inputs())
def test_pipeline_stages_keep_graph_invariants(inputs):
    raw, transformed, k, lam, logits = inputs
    initial = build_initial_graph(raw, k)
    knn = knn_cosine_graph(transformed, k)
    learned = normalize_sym(knn)
    fused = fuse_skip(initial, learned, lam)
    mixed = aggregate_modalities([fused, initial], logits)
    for g in (knn, learned):
        assert g.row_counts().max(initial=0) <= k
    for g in (knn, learned, fused, mixed):
        assert_canonical(g)
    kept = fuse_skip(initial, learned, 1.0)
    assert np.array_equal(kept.indptr, initial.indptr)
    assert np.array_equal(kept.indices, initial.indices)
    assert kept.values.tobytes() == initial.values.tobytes()
