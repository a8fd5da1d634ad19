"""Item-item graph construction from content features.

The pipeline per modality: clamped cosine similarities, per-row top-k
sparsification, symmetric degree normalization.  A learned variant runs the
same pipeline on linearly transformed features, gets blended with the frozen
initial graph, and the per-modality results are mixed with softmax weights.

Similarity matrices are never materialized densely; rows are produced in
blocks of at most about 8 MiB and reduced to top-k immediately, so memory
stays that block plus the O(num_nodes * k) result.  The bound is in bytes,
not rows: glibc serves allocations above its 32 MiB mmap threshold with a
fresh mapping each time, so a block that large (256 rows at 19k items is
37.7 MiB) would be page-faulted in anew for every block of every build.
Each block is reduced with whole-block array calls: the k-th largest maximum
over strided column groups bounds each row's k-th largest value from below,
leaving a handful of candidates per row for the exact cut.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import DataFormatError

# Row norms below this are treated as zero (cosine guard, degree guard).
NORM_EPS = 1e-12

# Bytes of one similarity block during graph builds; see the module docstring.
_BLOCK_BYTES = 8 << 20


@dataclass(frozen=True)
class SparseGraph:
    """Directed weighted graph held as one scipy CSR with non-negative weights.

    Column indices are sorted within each row and hold no duplicates.
    indptr, indices and values are the arrays of csr itself; the index dtype
    is the one scipy picks for the graph's size.  The constructor and
    from_scipy validate their input; graphs built inside this module hold
    the invariants by construction and skip the check.
    """

    num_nodes: int
    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray
    csr: sp.csr_matrix = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        indptr = np.ascontiguousarray(self.indptr, dtype=np.int64)
        indices = np.ascontiguousarray(self.indices, dtype=np.int64)
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        if indptr.shape != (self.num_nodes + 1,):
            raise ValueError("indptr length must be num_nodes + 1")
        if indptr[0] != 0 or indptr[-1] != indices.size:
            raise ValueError("indptr endpoints do not match indices")
        if np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if indices.shape != values.shape:
            raise ValueError("indices and values must align")
        if indices.size:
            if indices.min() < 0 or indices.max() >= self.num_nodes:
                raise ValueError("column index out of range")
            # Sorted, duplicate-free columns within each row: the diff is
            # positive everywhere except at row boundaries.
            interior = np.ones(indices.size, dtype=bool)
            boundaries = indptr[1:-1]
            interior[boundaries[boundaries < indices.size]] = False
            bad = (np.diff(indices) <= 0) & interior[1:]
            if np.any(bad):
                raise ValueError("row columns must be strictly increasing")
            if not np.all(np.isfinite(values)):
                raise ValueError("graph weights must be finite")
            if values.min() < 0.0:
                raise ValueError("graph weights must be non-negative")
        self._hold(indptr, indices, values)

    def _hold(self, indptr, indices, values) -> None:
        """Build the one CSR; indptr, indices and values become its arrays."""
        csr = sp.csr_matrix(
            (values, indices, indptr), shape=(self.num_nodes, self.num_nodes)
        )
        object.__setattr__(self, "csr", csr)
        object.__setattr__(self, "indptr", csr.indptr)
        object.__setattr__(self, "indices", csr.indices)
        object.__setattr__(self, "values", csr.data)

    @classmethod
    def empty(cls, num_nodes: int) -> "SparseGraph":
        return _trusted(
            num_nodes,
            np.zeros(num_nodes + 1, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
        )

    @classmethod
    def from_scipy(cls, matrix: sp.spmatrix, num_nodes: int | None = None) -> "SparseGraph":
        csr = sp.csr_matrix(matrix, copy=False)
        if num_nodes is None:
            if csr.shape[0] != csr.shape[1]:
                raise ValueError("graph matrix must be square")
            num_nodes = csr.shape[0]
        csr.sort_indices()
        return cls(num_nodes, csr.indptr, csr.indices, csr.data)

    def to_dense(self) -> np.ndarray:
        return self.csr.toarray()

    @property
    def nnz(self) -> int:
        return int(self.values.size)

    def row_counts(self) -> np.ndarray:
        return np.diff(self.indptr)

    def row_sums(self) -> np.ndarray:
        sums = np.zeros(self.num_nodes, dtype=np.float64)
        np.add.at(sums, self.edge_rows(), self.values)
        return sums

    def edge_rows(self) -> np.ndarray:
        """Row index of every stored entry, aligned with indices/values."""
        return np.repeat(np.arange(self.num_nodes, dtype=np.int64), self.row_counts())

    def matmul(self, dense: np.ndarray) -> np.ndarray:
        """Multiply this graph (as a matrix) against dense rows."""
        if dense.shape[0] != self.num_nodes:
            raise ValueError(
                f"matrix has {dense.shape[0]} rows, graph has {self.num_nodes} nodes"
            )
        return self.csr @ dense

    def rmatmul(self, dense: np.ndarray) -> np.ndarray:
        """Multiply the transpose of this graph against dense rows."""
        if dense.shape[0] != self.num_nodes:
            raise ValueError(
                f"matrix has {dense.shape[0]} rows, graph has {self.num_nodes} nodes"
            )
        return self.csr.T @ dense


def _trusted(num_nodes: int, indptr, indices, values) -> SparseGraph:
    """A graph whose invariants hold by construction, built without validation."""
    graph = object.__new__(SparseGraph)
    object.__setattr__(graph, "num_nodes", num_nodes)
    graph._hold(indptr, indices, values)
    return graph


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
    safe = np.where(norms >= NORM_EPS, norms, 1.0)
    unit = feats / safe[:, None]
    unit[norms < NORM_EPS] = 0.0
    return unit, norms


def iter_cosine_rows(
    features: np.ndarray, chunk_rows: int | None = None
) -> Iterator[np.ndarray]:
    """Yield blocks of the clamped cosine matrix, chunk_rows rows at a time.

    By default a block holds as many rows as fit in _BLOCK_BYTES, and at
    least one.  Only one (chunk_rows x num_items) block is alive at a time.
    """
    unit, _ = unit_rows(features)
    n = unit.shape[0]
    if chunk_rows is None:
        chunk_rows = max(1, _BLOCK_BYTES // (unit.itemsize * max(n, 1)))
    for start in range(0, n, chunk_rows):
        block = unit[start : start + chunk_rows] @ unit.T
        np.maximum(block, 0.0, out=block)
        yield block


def topk_sparsify(
    sim_blocks: Iterable[np.ndarray], k: int, num_nodes: int
) -> SparseGraph:
    """Keep the k largest entries of each similarity row.

    Ties on the boundary value resolve toward smaller column indices.  Kept
    entries that are exactly zero are dropped (as are negative ones), so rows
    may hold fewer than k edges.  k = 0 yields an empty graph.

    Blocks are consumed one at a time and each is selected with whole-block
    array calls: a group-max lower bound on every row's k-th largest value
    leaves a few candidates per row for the exact cut (see _block_topk).
    Kept values are read from the block, never recomputed.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    cols_per_block: list[np.ndarray] = []
    vals_per_block: list[np.ndarray] = []
    counts_per_block: list[np.ndarray] = []
    row_index = 0
    for block in sim_blocks:
        if row_index + block.shape[0] > num_nodes:
            raise ValueError("more similarity rows than nodes")
        counts, cols, vals = _block_topk(block, k)
        counts_per_block.append(counts)
        cols_per_block.append(cols)
        vals_per_block.append(vals)
        row_index += block.shape[0]
    if row_index != num_nodes:
        raise ValueError(f"expected {num_nodes} similarity rows, got {row_index}")
    if not counts_per_block:
        return SparseGraph.empty(num_nodes)
    indptr = np.concatenate([[0], np.cumsum(np.concatenate(counts_per_block))])
    return _trusted(
        num_nodes, indptr, np.concatenate(cols_per_block), np.concatenate(vals_per_block)
    )


# Columns per group of the top-k bound.  The group maxima cost one pass over
# the block; with fewer than k groups every positive entry is a candidate.
_GROUP_SPAN = 16

# The smallest positive float: candidates must be >= it, so zero and
# negative similarities are never kept.
_TINY = np.nextafter(0.0, 1.0)


def _block_topk(block: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A block's top-k as (kept entries per row, columns, values), row-major.

    Columns split into g = n // 16 strided groups (group j holds columns j,
    j + g, ..., j + 15g).  k distinct groups reach the k-th largest group
    maximum, so it bounds each row's k-th largest value from below; floored
    at the smallest positive float it becomes the candidate threshold.  Every
    kept entry is a candidate.  Rows with more than k candidates are cut to
    the k largest, boundary ties to the smallest columns.
    """
    r, n = block.shape
    if k == 0 or r == 0 or n == 0:
        empty_cols = np.empty(0, dtype=np.int64)
        return np.zeros(r, dtype=np.int64), empty_cols, np.empty(0, dtype=block.dtype)
    g = n // _GROUP_SPAN
    if g >= k:
        group_max = block[:, :g].copy()
        for t in range(1, _GROUP_SPAN):
            np.maximum(group_max, block[:, t * g : (t + 1) * g], out=group_max)
        group_max.partition(g - k, axis=1)
        thr = np.maximum(group_max[:, g - k], _TINY)[:, None]
    else:
        thr = _TINY
    flat = np.flatnonzero(block >= thr)
    rows, cols = np.divmod(flat, n)
    vals = block.ravel()[flat]
    counts = np.bincount(rows, minlength=r)
    width = int(counts.max())
    if width <= k:
        return counts, cols, vals
    # pad each row's candidates into one row of a -inf matrix to find the
    # k-th largest; rows with at most k candidates keep them all, the others
    # keep exactly k
    starts = np.cumsum(counts) - counts
    slot = np.arange(flat.size) - starts[rows]
    padded = np.full((r, width), -np.inf)
    padded[rows, slot] = vals
    padded.partition(width - k, axis=1)
    kth = padded[:, width - k][rows]
    above = vals > kth
    at_kth = vals == kth
    # 1-based rank of each boundary tie within its row, in column order
    tie_rank = np.cumsum(at_kth)
    tie_rank -= np.concatenate([[0], tie_rank])[starts][rows]
    slots = k - np.bincount(rows[above], minlength=r)
    keep = above | (at_kth & (tie_rank <= slots[rows]))
    return np.minimum(counts, k), cols[keep], vals[keep]


def normalize_sym(graph: SparseGraph) -> SparseGraph:
    """Symmetric degree normalization: w_ij / sqrt(d_i * d_j).

    Degrees are out-degree weight sums of the directed graph.  An entry whose
    target column has zero degree becomes 0 and is dropped; rows with zero
    degree stay empty.
    """
    degrees = graph.row_sums()
    inv_sqrt = np.where(degrees >= NORM_EPS, 1.0 / np.sqrt(np.maximum(degrees, NORM_EPS)), 0.0)
    rows = graph.edge_rows()
    values = graph.values * inv_sqrt[rows] * inv_sqrt[graph.indices]
    return prune_zeros(_trusted(graph.num_nodes, graph.indptr, graph.indices, values))


def prune_zeros(graph: SparseGraph) -> SparseGraph:
    """Drop stored entries whose weight is exactly zero."""
    if graph.nnz == 0 or graph.values.min() > 0.0:
        return graph
    keep = graph.values > 0.0
    counts = np.zeros(graph.num_nodes, dtype=np.int64)
    np.add.at(counts, graph.edge_rows()[keep], 1)
    return _trusted(
        graph.num_nodes,
        np.concatenate([[0], np.cumsum(counts)]),
        graph.indices[keep],
        graph.values[keep],
    )


def knn_cosine_graph(features: np.ndarray, k: int) -> SparseGraph:
    """Top-k clamped-cosine graph of the feature rows, unnormalized."""
    n = np.asarray(features).shape[0]
    return topk_sparsify(iter_cosine_rows(features), k, n)


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
    return _trusted(initial.num_nodes, fused.indptr, fused.indices, fused.data)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax of a 1-D array."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def aggregate_modalities(
    graphs: Sequence[SparseGraph], logits: np.ndarray
) -> tuple[SparseGraph, np.ndarray]:
    """Softmax-weighted sum of per-modality graphs.

    Returns the combined graph and the weights (which sum to 1).
    """
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
    return _trusted(nodes, combined.indptr, combined.indices, combined.data), weights


def write_graph_dump(
    graph: SparseGraph, base_path, meta: Mapping[str, object]
) -> tuple[str, str]:
    """Write edges as src/dst/weight TSV plus a JSON sidecar of parameters.

    base_path gets .tsv and .json suffixes appended; paths are returned.
    Each file is replaced atomically, and the sidecar is encoded before
    either is written.
    """
    from .data import write_atomic  # data imports this module

    tsv_path = f"{base_path}.tsv"
    json_path = f"{base_path}.json"
    sidecar = (json.dumps(dict(meta), indent=2, sort_keys=True) + "\n").encode("utf-8")
    edges = zip(graph.edge_rows(), graph.indices, graph.values)
    lines = (f"{r}\t{c}\t{float(v)!r}\n".encode("utf-8") for r, c, v in edges)
    write_atomic(tsv_path, itertools.chain([b"src\tdst\tweight\n"], lines))
    write_atomic(json_path, [sidecar])
    return tsv_path, json_path


def read_graph_dump(tsv_path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read a graph dump TSV back as (src, dst, weight) arrays.

    Malformed content raises DataFormatError naming the line.
    """
    try:
        with open(tsv_path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataFormatError(f"cannot read graph dump {tsv_path}: {exc}") from exc
    if lines[0] != "src\tdst\tweight":
        raise DataFormatError(f"{tsv_path}: unexpected header {lines[0]!r}")
    src, dst, wgt = [], [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise DataFormatError(f"{tsv_path}: line {lineno}: expected 3 fields")
        try:
            s, d, w = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as exc:
            raise DataFormatError(f"{tsv_path}: line {lineno}: {exc}") from exc
        if not (0 <= s < 2**63 and 0 <= d < 2**63):
            raise DataFormatError(f"{tsv_path}: line {lineno}: node id out of range")
        src.append(s)
        dst.append(d)
        wgt.append(w)
    return (
        np.asarray(src, dtype=np.int64),
        np.asarray(dst, dtype=np.int64),
        np.asarray(wgt, dtype=np.float64),
    )
