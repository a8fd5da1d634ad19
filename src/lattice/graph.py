"""Item-item graph construction from content features.

The pipeline per modality: cosine similarities, per-row top-k of the
positive ones, symmetric degree normalization.  A learned variant runs the
same pipeline on linearly transformed features, gets blended with the frozen
initial graph, and the per-modality results are mixed with softmax weights.

Similarity matrices are never materialized densely; rows are produced in
blocks and reduced to top-k immediately, so memory stays the unit rows, one
block and the O(num_nodes * k) result.  A block holds as many rows as fit in
8 MiB, but never fewer than 128, so it is at most max(8 MiB, 1 KiB per
item): BLAS packs the whole column operand (all unit rows) on every product,
which pays off only over enough rows (at 19k items × 128 dims, the 54-row
blocks of the byte budget alone spent a third of their product time on
packing).  Every block of a build is written into one buffer, allocated
once: a fresh allocation per block would be page-faulted in anew each time.
Blocks hold raw cosines; negative ones are never kept because the top-k
candidate threshold is at least the smallest positive float, so no clamp
pass is needed.  Each block is read in full once: the maxima over strided
column groups give each row a lower bound on its k-th largest value, and
only the groups whose maximum reaches it are gathered for the exact cut.

Each differentiable stage's backward sits beside its forward and shares its
guards: unit_rows_backward, normalize_sym_backward, and knn_cosine_backward,
which treats the kept top-k support as a constant.

Every stage builds its output through the one SparseGraph constructor, so
every graph that training and evaluation see has been checked: scipy's CSR
constructor and its canonical-format scan do most of the work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np
import scipy.sparse as sp

# Row norms below this are treated as zero (cosine guard, degree guard).
NORM_EPS = 1e-12

# Bytes of one similarity block during graph builds, and the fewest rows a
# block holds whatever its bytes; see the module docstring.
_BLOCK_BYTES = 8 << 20
_MIN_BLOCK_ROWS = 128


@dataclass(frozen=True, eq=False)
class SparseGraph:
    """Directed weighted graph held as one scipy CSR with non-negative weights.

    Column indices are sorted within each row and hold no duplicates, and
    weights are finite.  Every graph is checked when it is built, the outputs
    of the pipeline stages included.  indptr, indices and values are the
    arrays of csr itself; the index dtype is the one scipy picks for the
    graph's size.  Graphs compare and hash by identity.
    """

    num_nodes: int
    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray
    csr: sp.csr_matrix = field(init=False, repr=False)

    def __post_init__(self):
        n = self.num_nodes
        values = np.asarray(self.values, dtype=np.float64)
        # scipy rejects an indptr of the wrong length, not starting at 0 or
        # ending past indices, and indices and values of unequal length
        csr = sp.csr_matrix((values, self.indices, self.indptr), shape=(n, n))
        if csr.nnz != len(self.indices):
            # scipy silently drops the entries past indptr's end
            raise ValueError("indptr must end at the number of indices")
        if csr.nnz:
            if csr.indices.min() < 0 or csr.indices.max() >= n:
                raise ValueError("column index out of range")
            if not np.all(np.isfinite(csr.data)):
                raise ValueError("graph weights must be finite")
            if csr.data.min() < 0.0:
                raise ValueError("graph weights must be non-negative")
        # indptr ends at nnz, so an entry above it is out of order; checked
        # first because scipy's canonical scan would read past indices there
        if csr.indptr.max() > csr.nnz or not csr.has_canonical_format:
            raise ValueError("indptr must not decrease; row columns must increase")
        object.__setattr__(self, "csr", csr)
        object.__setattr__(self, "indptr", csr.indptr)
        object.__setattr__(self, "indices", csr.indices)
        object.__setattr__(self, "values", csr.data)

    @classmethod
    def empty(cls, num_nodes: int) -> "SparseGraph":
        return cls(
            num_nodes,
            np.zeros(num_nodes + 1, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
        )

    @classmethod
    def from_scipy(cls, matrix: sp.spmatrix) -> "SparseGraph":
        """A graph of a square sparse matrix; the matrix itself is left as it is."""
        if matrix.shape[0] != matrix.shape[1]:
            raise ValueError("graph matrix must be square")
        csr = sp.csr_matrix(matrix, copy=True)
        csr.sort_indices()
        return cls(csr.shape[0], csr.indptr, csr.indices, csr.data)

    @property
    def nnz(self) -> int:
        return int(self.values.size)

    def row_counts(self) -> np.ndarray:
        return np.diff(self.indptr)

    def row_sums(self) -> np.ndarray:
        # bincount returns int zeros when there is no entry to weigh
        sums = np.bincount(self.edge_rows(), weights=self.values, minlength=self.num_nodes)
        return sums.astype(np.float64, copy=False)

    def edge_rows(self) -> np.ndarray:
        """Row index of every stored entry, aligned with indices/values."""
        return np.repeat(np.arange(self.num_nodes, dtype=np.int64), self.row_counts())


def values_at(graph: SparseGraph, values: np.ndarray, target: SparseGraph) -> np.ndarray:
    """values, aligned with graph's entries, read at target's (row, col) entries.

    Entries of target that graph does not store read 0.0.
    """
    n = graph.num_nodes
    keys = graph.edge_rows() * n + graph.indices
    wanted = target.edge_rows() * n + target.indices
    pos = np.searchsorted(keys, wanted)
    hit = pos < keys.size
    hit[hit] = keys[pos[hit]] == wanted[hit]
    out = np.zeros(wanted.size, dtype=np.float64)
    out[hit] = values[pos[hit]]
    return out


def unit_rows(features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """L2-normalize rows; rows with norm below NORM_EPS map to zero vectors.

    Returns (normalized rows, original row norms).
    """
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2:
        raise ValueError("feature matrix must be 2-D")
    norms = np.linalg.norm(feats, axis=1)
    safe, zero = _norm_guard(norms)
    unit = feats / safe[:, None]
    unit[zero] = 0.0
    return unit, norms


def _norm_guard(norms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row divisors (norms, 1.0 below NORM_EPS) and the mask of rows below it."""
    return np.where(norms >= NORM_EPS, norms, 1.0), norms < NORM_EPS


def unit_rows_backward(
    grad_unit: np.ndarray, unit: np.ndarray, norms: np.ndarray
) -> np.ndarray:
    """Backward of unit_rows onto its input rows; guarded rows get 0.

    unit and norms are the forward outputs of unit_rows.
    """
    dots = np.einsum("nd,nd->n", grad_unit, unit)
    safe, zero = _norm_guard(norms)
    grad = (grad_unit - dots[:, None] * unit) / safe[:, None]
    grad[zero] = 0.0
    return grad


def iter_cosine_rows(features: np.ndarray) -> Iterator[np.ndarray]:
    """Yield blocks of the cosine matrix, consecutive rows at a time.

    Entries are raw cosines, negative ones included.  A block holds as many
    rows as fit in _BLOCK_BYTES, but at least _MIN_BLOCK_ROWS; the last block
    holds the rows left.  Every block is a view of one buffer allocated per
    call, so a block is valid only until the next one is drawn: copy it to
    keep it.  The row count of a block can move the last bits of its entries
    (BLAS picks its kernels by shape), so the layout is fixed here and no
    caller chooses it.
    """
    unit, _ = unit_rows(features)
    n = unit.shape[0]
    chunk_rows = max(_MIN_BLOCK_ROWS, _BLOCK_BYTES // (unit.itemsize * max(n, 1)))
    buffer = np.empty((min(chunk_rows, n), n))
    for start in range(0, n, chunk_rows):
        rows = unit[start : start + chunk_rows]
        block = buffer[: rows.shape[0]]
        np.matmul(rows, unit.T, out=block)
        yield block


def topk_sparsify(sim_blocks: Iterable[np.ndarray], k: int) -> SparseGraph:
    """Keep the k largest entries of each row of a square similarity matrix.

    The blocks are its consecutive rows, so their width is the node count
    (no blocks give 0 nodes).  Ties on the boundary value resolve toward
    smaller column indices.  Kept entries that are exactly zero are dropped
    (as are negative ones), so rows may hold fewer than k edges.  k = 0
    yields an empty graph.

    Blocks are consumed one at a time and each is selected with whole-block
    array calls: a group-max lower bound on every row's k-th largest value
    leaves a few candidates per row for the exact cut (see _block_topk).
    Kept values are copied from the block, never recomputed, and nothing
    kept refers to it, so a block may be overwritten once the next is drawn.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    # (kept entries per row, columns, values) per block; the leading 0 of the
    # seed part makes the cumulative counts the indptr
    parts = [(np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0))]
    num_nodes, row_index = None, 0
    for block in sim_blocks:
        num_nodes = block.shape[1] if num_nodes is None else num_nodes
        if block.shape[1] != num_nodes:
            raise ValueError(f"similarity block width {block.shape[1]} is not {num_nodes}")
        if row_index + block.shape[0] > num_nodes:
            raise ValueError("more similarity rows than nodes")
        parts.append(_block_topk(block, k))
        row_index += block.shape[0]
    num_nodes = num_nodes or 0
    if row_index != num_nodes:
        raise ValueError(f"expected {num_nodes} similarity rows, got {row_index}")
    counts, cols, vals = (np.concatenate(arrays) for arrays in zip(*parts))
    return SparseGraph(num_nodes, np.cumsum(counts), cols, vals)


# Columns per group of the top-k bound.  Every block runs the gate; with
# fewer than k groups the bound is 0, so every positive entry is a candidate.
_GROUP_SPAN = 16

# The smallest positive float: candidates must be >= it, so zero and
# negative similarities are never kept.
_TINY = np.nextafter(0.0, 1.0)


def _block_topk(block: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A block's top-k as (kept entries per row, columns, values), row-major.

    A row holds at most n entries, so k is cut to n first.  Columns split
    into g = n // 16 strided groups (group j holds columns j, j + g, ...,
    j + 15g) and a tail of the last n - 16g columns.  k distinct groups reach
    the k-th largest group maximum, so it bounds each row's k-th largest
    value from below; with fewer than k groups the bound is 0.  Floored at
    the smallest positive float it becomes the candidate threshold, which
    every block gates on: an entry at or above it lies in the tail or in a
    group whose maximum reaches it, so only those are gathered.  Every kept
    entry is a candidate.  A stable sort cuts each row's candidates to the k
    largest, boundary ties to the smallest columns.  The returned arrays are
    copies, never views of the block.
    """
    r, n = block.shape
    k = min(k, n)
    if k == 0 or r == 0:
        empty_cols = np.empty(0, dtype=np.int64)
        return np.zeros(r, dtype=np.int64), empty_cols, np.empty(0, dtype=block.dtype)
    g = n // _GROUP_SPAN
    span = _GROUP_SPAN * g
    group_max = block[:, :span].reshape(r, _GROUP_SPAN, g).max(axis=1)
    bound = np.partition(group_max, g - k, axis=1)[:, g - k] if g >= k else np.zeros(r)
    thr = np.maximum(bound, _TINY)[:, None]
    # flat indices of the gated groups' columns, then the tail's hits
    rows, groups = np.nonzero(group_max >= thr)
    gated = (rows * n + groups)[:, None] + g * np.arange(_GROUP_SPAN)
    hit = block.ravel()[gated] >= thr[rows]
    tail_rows, tail_cols = np.nonzero(block[:, span:] >= thr)
    flat = np.concatenate([gated[hit], tail_rows * n + (span + tail_cols)])
    flat.sort()
    rows, cols = np.divmod(flat, n)
    vals = block.ravel()[flat]
    counts = np.bincount(rows, minlength=r)
    # each row's candidates, negated, in column order and padded with +inf:
    # a stable sort puts the k largest first, ties in column order
    starts = np.cumsum(counts) - counts
    padded = np.full((r, counts.max()), np.inf)
    padded[rows, np.arange(flat.size) - starts[rows]] = -vals
    slots = np.argsort(padded, axis=1, kind="stable")[:, :k]
    keep = np.sort((starts[:, None] + slots)[slots < counts[:, None]])
    return np.minimum(counts, k), cols[keep], vals[keep]


def normalize_sym(graph: SparseGraph) -> SparseGraph:
    """Symmetric degree normalization: w_ij / sqrt(d_i * d_j).

    Degrees are out-degree weight sums of the directed graph.  An entry whose
    target column has zero degree becomes 0 and is dropped; rows with zero
    degree stay empty.
    """
    _, inv_sqrt, rows = _degree_scales(graph)
    values = graph.values * inv_sqrt[rows] * inv_sqrt[graph.indices]
    return prune_zeros(SparseGraph(graph.num_nodes, graph.indptr, graph.indices, values))


def _degree_scales(graph: SparseGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(degrees, 1 / sqrt(degrees) or 0 below NORM_EPS, row of every entry)."""
    degrees = graph.row_sums()
    inv_sqrt = np.where(degrees >= NORM_EPS, 1.0 / np.sqrt(np.maximum(degrees, NORM_EPS)), 0.0)
    return degrees, inv_sqrt, graph.edge_rows()


def normalize_sym_backward(grad_vals: np.ndarray, graph: SparseGraph) -> np.ndarray:
    """Backward of normalize_sym onto graph's weights.

    grad_vals is aligned with graph's entries, i.e. with the outputs before
    zeros are pruned; a pruned entry's gradient is simply never read.  Every
    weight in row i moves the degree d_i, which scales row i's outputs and
    column i's outputs alike.
    """
    degrees, inv_sqrt, rows = _degree_scales(graph)
    cols = graph.indices
    # a row below NORM_EPS has all-zero outputs, so its row and column dots
    # are 0 and need no guard beyond a finite 1 / degree
    inv_deg = 1.0 / np.maximum(degrees, NORM_EPS)
    prod = grad_vals * (graph.values * inv_sqrt[rows] * inv_sqrt[cols])
    row_dot = np.bincount(rows, weights=prod, minlength=graph.num_nodes)
    col_dot = np.bincount(cols, weights=prod, minlength=graph.num_nodes)
    direct = grad_vals * inv_sqrt[rows] * inv_sqrt[cols]
    return direct - 0.5 * (row_dot + col_dot)[rows] * inv_deg[rows]


def prune_zeros(graph: SparseGraph) -> SparseGraph:
    """Drop stored entries whose weight is exactly zero."""
    if graph.nnz == 0 or graph.values.min() > 0.0:
        return graph
    csr = graph.csr.copy()
    csr.eliminate_zeros()
    return SparseGraph(graph.num_nodes, csr.indptr, csr.indices, csr.data)


def knn_cosine_graph(features: np.ndarray, k: int) -> SparseGraph:
    """Top-k clamped-cosine graph of the feature rows, unnormalized."""
    return topk_sparsify(iter_cosine_rows(features), k)


def knn_cosine_backward(
    grad_vals: np.ndarray, graph: SparseGraph, features: np.ndarray
) -> np.ndarray:
    """Backward of knn_cosine_graph(features, k) from its kept values to features.

    The kept support is a constant; each kept value is u_i . u_j with u the
    unit rows of features.  Diagonal entries fall out of the symmetric
    accumulation.
    """
    unit, norms = unit_rows(features)
    grad = sp.csr_matrix((grad_vals, graph.indices, graph.indptr), shape=graph.csr.shape)
    return unit_rows_backward(grad @ unit + grad.T @ unit, unit, norms)


def build_initial_graph(features: np.ndarray, k: int) -> SparseGraph:
    """Normalized top-k cosine graph over feature rows (raw or transformed)."""
    return normalize_sym(knn_cosine_graph(features, k))


def transform_features(
    features: np.ndarray, weight: np.ndarray, bias: np.ndarray
) -> np.ndarray:
    """Affine map of feature rows: features @ weight.T + bias."""
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2 or weight.ndim != 2:
        raise ValueError("features and weight must be 2-D")
    if feats.shape[1] != weight.shape[1]:
        raise ValueError(
            f"feature dim {feats.shape[1]} does not match weight columns {weight.shape[1]}"
        )
    if bias.shape != (weight.shape[0],):
        raise ValueError("bias length must match weight rows")
    return feats @ weight.T + bias


def fuse_skip(initial: SparseGraph, learned: SparseGraph, lam: float) -> SparseGraph:
    """Blend frozen and learned graphs: lam * initial + (1 - lam) * learned."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lam must lie in [0, 1]")
    if initial.num_nodes != learned.num_nodes:
        raise ValueError("graphs must share the node count")
    fused = lam * initial.csr + (1.0 - lam) * learned.csr
    return SparseGraph(initial.num_nodes, fused.indptr, fused.indices, fused.data)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax of a 1-D array."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def aggregate_modalities(graphs: Sequence[SparseGraph], logits: np.ndarray) -> SparseGraph:
    """Sum of per-modality graphs weighted by softmax(logits)."""
    if len(graphs) == 0:
        raise ValueError("at least one modality graph is required")
    if len(graphs) != np.asarray(logits).size:
        raise ValueError("one logit per modality graph is required")
    nodes = graphs[0].num_nodes
    if any(g.num_nodes != nodes for g in graphs):
        raise ValueError("graphs must share the node count")
    weights = softmax(logits)
    combined = weights[0] * graphs[0].csr
    for w, g in zip(weights[1:], graphs[1:]):
        combined = combined + w * g.csr
    return SparseGraph(nodes, combined.indptr, combined.indices, combined.data)

