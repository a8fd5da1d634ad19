"""Interaction data, train/valid/test splits, and content-feature IO.

External formats:
  * interactions: UTF-8 TSV, one "user<TAB>item" pair per line
  * features: binary container, magic "LATF", little-endian u32 version,
    u64 rows, u64 cols, then float32 row-major payload
"""

from __future__ import annotations

import dataclasses
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, DataFormatError
from .graph import SparseGraph

FEATURE_MAGIC = b"LATF"
FEATURE_VERSION = 1

WARM_HOLDOUT_FRACTION = 0.1  # per-user share for validation and again for test
MIN_POSITIVES_FOR_HOLDOUT = 3


@dataclass(frozen=True)
class InteractionDataset:
    """Deduplicated user-item interactions with dense integer ids.

    pairs is a (P, 2) int64 array of (user, item) rows; user_positives[u] is
    the sorted item array for user u and is always consistent with pairs.
    Label tables map dense ids back to the raw tokens they came from.
    """

    num_users: int
    num_items: int
    pairs: np.ndarray
    user_positives: tuple
    user_labels: tuple | None = None
    item_labels: tuple | None = None

    @property
    def num_pairs(self) -> int:
        return int(self.pairs.shape[0])

    def positives_as_sets(self) -> list[set]:
        return [set(int(i) for i in items) for items in self.user_positives]


def _positives_per_user(num_users: int, pairs: np.ndarray) -> tuple[tuple, bool]:
    """Each user's items in ascending order, one int64 array per user id.

    Also says whether some user holds an item twice: equal neighbours
    within one user's sorted items.
    """
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    users = pairs[order, 0]
    items = pairs[order, 1]
    repeated = bool(np.any((items[1:] == items[:-1]) & (users[1:] == users[:-1])))
    bounds = np.searchsorted(users, np.arange(num_users + 1))
    return tuple(items[a:b] for a, b in zip(bounds[:-1], bounds[1:])), repeated


def make_dataset(
    num_users: int,
    num_items: int,
    pairs: np.ndarray,
    user_labels: Sequence[str] | None = None,
    item_labels: Sequence[str] | None = None,
) -> InteractionDataset:
    """Validate raw pairs and build an InteractionDataset.

    Ids must be in range, pairs distinct, and every user must have at least
    one positive.  Split partitions, which may leave a user without one, are
    built from their checked source dataset instead.
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if pairs.size:
        if pairs[:, 0].min() < 0 or pairs[:, 0].max() >= num_users:
            raise DataFormatError("user id out of range")
        if pairs[:, 1].min() < 0 or pairs[:, 1].max() >= num_items:
            raise DataFormatError("item id out of range")
    positives, repeated = _positives_per_user(num_users, pairs)
    if repeated:
        raise DataFormatError("duplicate user-item pairs")
    if any(p.size == 0 for p in positives):
        raise DataFormatError("every user must have at least one interaction")
    return InteractionDataset(
        num_users=num_users,
        num_items=num_items,
        pairs=pairs,
        user_positives=positives,
        user_labels=tuple(user_labels) if user_labels is not None else None,
        item_labels=tuple(item_labels) if item_labels is not None else None,
    )


def load_interactions(path) -> InteractionDataset:
    """Read a user<TAB>item TSV; ids are assigned in order of first appearance.

    Repeated pairs collapse to one interaction.  Malformed lines raise
    DataFormatError with the offending line number; an empty file is an error.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataFormatError(f"cannot read interactions {path}: {exc}") from exc
    lines = raw.split("\n")
    while lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise DataFormatError(f"{path}: no interactions")
    user_ids: dict[str, int] = {}
    item_ids: dict[str, int] = {}
    seen: set[tuple[int, int]] = set()
    pair_list: list[tuple[int, int]] = []
    for lineno, line in enumerate(lines, start=1):
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise DataFormatError(
                f"{path}: line {lineno}: expected 'user<TAB>item', got {line!r}"
            )
        user, item = parts
        u = user_ids.setdefault(user, len(user_ids))
        i = item_ids.setdefault(item, len(item_ids))
        if (u, i) not in seen:
            seen.add((u, i))
            pair_list.append((u, i))
    pairs = np.asarray(pair_list, dtype=np.int64)
    return make_dataset(
        num_users=len(user_ids),
        num_items=len(item_ids),
        pairs=pairs,
        user_labels=list(user_ids),
        item_labels=list(item_ids),
    )


@dataclass(frozen=True)
class Split:
    """Train/valid/test partition of one dataset.

    The three parts share the full id space and label tables; their pair sets
    are disjoint and union back to the source dataset.  cold_items is empty
    for warm splits.
    """

    mode: str
    seed: int
    train: InteractionDataset
    valid: InteractionDataset
    test: InteractionDataset
    cold_items: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    def manifest(self) -> dict:
        out = {
            "mode": self.mode,
            "seed": self.seed,
            "num_users": self.train.num_users,
            "num_items": self.train.num_items,
            "pairs": {
                "train": self.train.num_pairs,
                "valid": self.valid.num_pairs,
                "test": self.test.num_pairs,
            },
        }
        if self.mode == "cold":
            out["cold_items"] = [int(i) for i in self.cold_items]
        return out


def _subset(ds: InteractionDataset, pairs: np.ndarray) -> InteractionDataset:
    """The partition of a checked dataset holding some of its pairs."""
    positives, _ = _positives_per_user(ds.num_users, pairs)
    return dataclasses.replace(ds, pairs=pairs, user_positives=positives)


def split_warm(ds: InteractionDataset, seed: int) -> Split:
    """Per-user 80/10/10 split.

    For a user with n positives, floor(0.1 n) shuffled positives go to
    validation, the next floor(0.1 n) to test, the rest to train.  Users with
    fewer than 3 positives keep everything in train.
    """
    rng = np.random.default_rng(seed)
    counts = np.array([items.size for items in ds.user_positives], dtype=np.int64)
    holds = counts >= MIN_POSITIVES_FOR_HOLDOUT
    # one permutation per holding user, drawn in user order
    shuffled = [rng.permutation(p) if h else p for p, h in zip(ds.user_positives, holds)]
    users = np.repeat(np.arange(ds.num_users, dtype=np.int64), counts)
    rows = np.column_stack([users, np.concatenate([np.empty(0, np.int64), *shuffled])])
    # each pair's position among its user's shuffled items, and that user's
    # hold-out size
    rank = np.arange(users.size) - np.repeat(np.cumsum(counts) - counts, counts)
    n_hold = np.where(holds, np.floor(WARM_HOLDOUT_FRACTION * counts), 0).astype(np.int64)[users]
    return Split(
        mode="warm",
        seed=seed,
        train=_subset(ds, rows[rank >= 2 * n_hold]),
        valid=_subset(ds, rows[rank < n_hold]),
        test=_subset(ds, rows[(rank >= n_hold) & (rank < 2 * n_hold)]),
    )


def split_cold(ds: InteractionDataset, item_fraction: float, seed: int) -> Split:
    """Cold-start split: hold out whole items.

    floor(item_fraction * num_items) items are sampled without replacement;
    half of them form the validation group, the rest the test group.  Every
    pair touching a group's item lands in that partition; train keeps only
    pairs with no cold item.  Raises ConfigError when the fraction selects
    fewer than 2 items.
    """
    if not 0.0 < item_fraction < 1.0:
        raise ValueError("item_fraction must lie strictly between 0 and 1")
    rng = np.random.default_rng(seed)
    n_cold = int(np.floor(item_fraction * ds.num_items))
    if n_cold < 2:
        raise ConfigError(
            f"item_fraction {item_fraction} selects fewer than 2 of "
            f"{ds.num_items} items"
        )
    cold = rng.choice(ds.num_items, size=n_cold, replace=False).astype(np.int64)
    items = ds.pairs[:, 1]
    in_valid = np.isin(items, cold[: n_cold // 2])
    in_test = np.isin(items, cold[n_cold // 2 :])
    return Split(
        mode="cold",
        seed=seed,
        train=_subset(ds, ds.pairs[~in_valid & ~in_test]),
        valid=_subset(ds, ds.pairs[in_valid]),
        test=_subset(ds, ds.pairs[in_test]),
        cold_items=np.sort(cold),
    )


def sample_negative(user: int, positives, num_items: int, rng) -> int:
    """Draw one item the user has not interacted with, uniformly, by rejection.

    Raises DataFormatError when the user has interacted with every item.
    """
    if len(positives) >= num_items:
        raise DataFormatError(f"user {user} has no negative items to sample")
    while True:
        j = int(rng.integers(num_items))
        if j not in positives:
            return j


def build_bipartite_graph(train: InteractionDataset) -> SparseGraph:
    """Symmetrically normalized user-item graph over num_users + num_items nodes.

    Users occupy node ids [0, num_users); item i maps to num_users + i.  Each
    train pair contributes both directed edges with weight
    1 / sqrt(deg(u) * deg(i)).
    """
    if train.num_pairs == 0:
        raise ValueError("bipartite graph requires a non-empty train set")
    users = train.pairs[:, 0]
    items = train.pairs[:, 1]
    deg_u = np.bincount(users, minlength=train.num_users).astype(np.float64)
    deg_i = np.bincount(items, minlength=train.num_items).astype(np.float64)
    weights = 1.0 / np.sqrt(deg_u[users] * deg_i[items])
    n = train.num_users + train.num_items
    rows = np.concatenate([users, train.num_users + items])
    cols = np.concatenate([train.num_users + items, users])
    vals = np.concatenate([weights, weights])
    matrix = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    return SparseGraph.from_scipy(matrix)


@dataclass(frozen=True)
class ModalityFeatures:
    """Per-item content features for one modality, upcast to float64.

    The modality's id is the key it is held under, as in a config's features.
    """

    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[1])


def temp_beside(path: Path) -> Path:
    """The temp file an atomic write of path goes to before it is renamed."""
    return path.with_name(f".{path.name}.{os.getpid()}.tmp")


def write_atomic(path, chunks: Iterable[bytes]) -> None:
    """Replace path with the concatenated chunks, or leave it untouched.

    The chunks go to a temp file in path's directory, which is synced and
    then renamed over path; a failure before the rename removes the temp
    file, so readers see either the previous file or the complete new one.
    """
    path = Path(path)
    tmp = temp_beside(path)
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_features(path, matrix: np.ndarray) -> None:
    """Serialize a feature matrix to the binary container (float32 payload).

    Written atomically: path holds the previous file or the whole new one.
    """
    mat = np.ascontiguousarray(matrix, dtype=np.float32)
    if mat.ndim != 2:
        raise ValueError("feature matrix must be 2-D")
    if not np.all(np.isfinite(mat)):
        raise ValueError("feature values must be finite")
    header = FEATURE_MAGIC + struct.pack("<IQQ", FEATURE_VERSION, *mat.shape)
    write_atomic(path, [header, mat.tobytes(order="C")])


def load_features(path, num_items: int, modality_id: str) -> ModalityFeatures:
    """Read a feature container and check it covers exactly num_items rows.

    modality_id names the modality in the row-count error.
    """
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise DataFormatError(f"cannot read features {path}: {exc}") from exc
    header_len = 4 + 4 + 16
    if len(blob) < header_len:
        raise DataFormatError(f"{path}: truncated feature header")
    if blob[:4] != FEATURE_MAGIC:
        raise DataFormatError(f"{path}: bad magic {blob[:4]!r}")
    (version,) = struct.unpack("<I", blob[4:8])
    if version != FEATURE_VERSION:
        raise DataFormatError(f"{path}: unsupported feature version {version}")
    rows, cols = struct.unpack("<QQ", blob[8:24])
    expected = header_len + rows * cols * 4
    if len(blob) != expected:
        raise DataFormatError(
            f"{path}: payload holds {len(blob) - header_len} bytes, "
            f"expected {rows * cols * 4}"
        )
    if rows != num_items:
        raise DataFormatError(
            f"{path}: modality {modality_id!r} has {rows} feature rows for {num_items} items"
        )
    try:
        mat = np.frombuffer(blob, dtype="<f4", offset=header_len).reshape(rows, cols)
    except ValueError as exc:  # an empty payload of more columns than numpy can shape
        raise DataFormatError(f"{path}: cannot shape {rows} x {cols} features: {exc}") from exc
    if not np.all(np.isfinite(mat)):
        raise DataFormatError(f"{path}: non-finite feature values")
    return ModalityFeatures(matrix=mat.astype(np.float64))
