"""Interaction loading, splits, negative sampling, feature IO, bipartite graph."""

import os
import struct
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lattice.data import (
    FEATURE_MAGIC,
    InteractionDataset,
    _positives_per_user,
    build_bipartite_graph,
    load_features,
    load_interactions,
    make_dataset,
    sample_negative,
    split_cold,
    split_warm,
    write_atomic,
    write_features,
)
from lattice.errors import DataFormatError
from lattice.synthetic import clustered_dataset, write_clustered_dataset


def write_tsv(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for user, item in rows:
            fh.write(f"{user}\t{item}\n")
    return path


class TestLoadInteractions:
    def test_counts_and_first_appearance_ids(self, tmp_path):
        path = write_tsv(tmp_path / "x.tsv", [("a", "x"), ("a", "y"), ("b", "x")])
        ds = load_interactions(path)
        assert (ds.num_users, ds.num_items, ds.num_pairs) == (2, 2, 3)
        assert ds.user_labels == ("a", "b")
        assert ds.item_labels == ("x", "y")
        assert ds.pairs.tolist() == [[0, 0], [0, 1], [1, 0]]

    def test_duplicates_collapse(self, tmp_path):
        path = write_tsv(tmp_path / "x.tsv", [("a", "x"), ("a", "x"), ("b", "y")])
        ds = load_interactions(path)
        assert ds.num_pairs == 2

    def test_positives_match_pairs(self, tmp_path):
        path = write_tsv(
            tmp_path / "x.tsv", [("a", "x"), ("b", "y"), ("a", "z"), ("b", "x")]
        )
        ds = load_interactions(path)
        assert ds.user_positives[0].tolist() == [0, 2]
        assert ds.user_positives[1].tolist() == [0, 1]

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\tx\nnot-a-pair\nb\ty\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="line 2"):
            load_interactions(path)

    def test_empty_field_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\t\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="line 1"):
            load_interactions(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(DataFormatError, match="no interactions"):
            load_interactions(path)

    def test_non_utf8_rejected(self, tmp_path):
        path = tmp_path / "latin1.tsv"
        path.write_bytes("usu\u00e1rio\tlibro\n".encode("latin-1"))
        with pytest.raises(DataFormatError, match="cannot read interactions"):
            load_interactions(path)

    def test_unicode_tokens_roundtrip(self, tmp_path):
        path = write_tsv(tmp_path / "x.tsv", [("usuário", "libro"), ("б", "ч")])
        ds = load_interactions(path)
        assert ds.user_labels == ("usuário", "б")


    def test_line_with_two_tabs_rejected_despite_tab_total(self, tmp_path):
        # two lines, two tabs: only a per-line count catches line 1
        path = tmp_path / "bad.tsv"
        path.write_text("a\nb\tc\td\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="line 1: expected"):
            load_interactions(path)

    def test_trailing_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "x.tsv"
        path.write_bytes(b"a\tx\r\nb\ty\n\r\n\n")
        ds = load_interactions(path)
        assert ds.pairs.tolist() == [[0, 0], [1, 1]]

    def test_blank_middle_line_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\tx\n\nb\ty\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="line 2: expected"):
            load_interactions(path)

    def test_lone_carriage_return_ends_a_line(self, tmp_path):
        path = tmp_path / "x.tsv"
        path.write_bytes(b"a\tx\rb\ty\r\na\ty")
        ds = load_interactions(path)
        assert ds.user_labels == ("a", "b")
        assert ds.pairs.tolist() == [[0, 0], [1, 1], [0, 1]]

    def test_byte_order_mark_dropped(self, tmp_path):
        rows = [("u1", "x"), ("u2", "y"), ("u1", "y")]
        plain = load_interactions(write_tsv(tmp_path / "plain.tsv", rows))
        marked_path = tmp_path / "marked.tsv"
        marked_path.write_bytes(b"\xef\xbb\xbf" + (tmp_path / "plain.tsv").read_bytes())
        marked = load_interactions(marked_path)
        assert marked.user_labels == plain.user_labels == ("u1", "u2")
        assert np.array_equal(marked.pairs, plain.pairs)

    # whole lines, with repeats and every line ending, and loose pieces
    LINES = ["a\tb\n", "a\tb\r\n", "b\t\u00e9\r", "\u00e9 \ta\n", "b\tb\n", "\n", "\r\n"]
    PIECES = ["a", "b", "\u00e9", " ", "\t", "\n", "\r\n", "\r"]

    @settings(
        max_examples=400,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        pieces=st.one_of(
            st.lists(st.sampled_from(LINES), max_size=12),
            st.lists(st.sampled_from(LINES + PIECES), max_size=16),
        ),
        bom=st.booleans(),
    )
    def test_matches_loop(self, tmp_path, pieces, bom):
        path = tmp_path / "x.tsv"
        path.write_bytes(("\ufeff" * bom + "".join(pieces)).encode("utf-8"))
        outcomes = []
        for load in (load_interactions, loop_load_interactions):
            try:
                outcomes.append(load(path))
            except DataFormatError as exc:
                outcomes.append(str(exc))
        got, want = outcomes
        if isinstance(want, str) or isinstance(got, str):
            assert got == want
            return
        assert (got.num_users, got.num_items) == (want.num_users, want.num_items)
        assert got.user_labels == want.user_labels
        assert got.item_labels == want.item_labels
        assert got.pairs.dtype == want.pairs.dtype == np.int64
        assert np.array_equal(got.pairs, want.pairs)
        assert len(got.user_positives) == len(want.user_positives)
        for g, w in zip(got.user_positives, want.user_positives):
            assert g.dtype == np.int64
            assert np.array_equal(g, w)


class TestMakeDataset:
    def test_out_of_range_item_rejected(self):
        with pytest.raises(DataFormatError, match="item id"):
            make_dataset(2, 2, np.array([[0, 2]]))

    def test_duplicate_pairs_rejected(self):
        with pytest.raises(DataFormatError, match="duplicate"):
            make_dataset(2, 2, np.array([[0, 0], [0, 0], [1, 1]]))

    def test_user_without_positives_rejected(self):
        with pytest.raises(DataFormatError, match="at least one"):
            make_dataset(3, 2, np.array([[0, 0], [1, 1]]))

    @settings(max_examples=200, deadline=None)
    @given(
        num_users=st.integers(1, 5),
        num_items=st.integers(1, 5),
        cells=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=30),
    )
    def test_duplicate_verdict_matches_unique(self, num_users, num_items, cells):
        # equal items under different users are not duplicates; users may
        # have no pairs, which is rejected only after the duplicate check
        pairs = np.array(
            [(u % num_users, i % num_items) for u, i in cells], dtype=np.int64
        ).reshape(-1, 2)
        duplicated = np.unique(pairs, axis=0).shape[0] != pairs.shape[0]
        empty_user = np.setdiff1d(np.arange(num_users), pairs[:, 0]).size > 0
        if duplicated:
            with pytest.raises(DataFormatError, match="duplicate"):
                make_dataset(num_users, num_items, pairs)
        elif empty_user:
            with pytest.raises(DataFormatError, match="at least one"):
                make_dataset(num_users, num_items, pairs)
        else:
            assert make_dataset(num_users, num_items, pairs).num_pairs == pairs.shape[0]


class TestWarmSplit:
    def make(self, sizes, num_items=50, seed=0):
        rows = []
        rng = np.random.default_rng(7)
        for u, n in enumerate(sizes):
            items = rng.choice(num_items, size=n, replace=False)
            rows.extend((u, int(i)) for i in items)
        return make_dataset(len(sizes), num_items, np.array(rows, dtype=np.int64))

    def test_ten_positives_split_8_1_1(self):
        ds = self.make([10])
        split = split_warm(ds, seed=3)
        assert split.train.num_pairs == 8
        assert split.valid.num_pairs == 1
        assert split.test.num_pairs == 1

    def test_tiny_users_stay_in_train(self):
        ds = self.make([2, 1, 10])
        split = split_warm(ds, seed=0)
        assert split.train.user_positives[0].size == 2
        assert split.valid.user_positives[0].size == 0
        assert split.test.user_positives[1].size == 0

    def test_partitions_disjoint_and_cover(self):
        ds = self.make([10, 23, 7, 3, 40], num_items=120)
        split = split_warm(ds, seed=11)
        parts = [split.train.pairs, split.valid.pairs, split.test.pairs]
        merged = np.vstack(parts)
        assert merged.shape[0] == ds.num_pairs
        merged_set = {(int(u), int(i)) for u, i in merged}
        orig_set = {(int(u), int(i)) for u, i in ds.pairs}
        assert merged_set == orig_set

    def test_per_user_floor_rule(self):
        sizes = [3, 9, 10, 19, 20, 33]
        ds = self.make(sizes, num_items=200)
        split = split_warm(ds, seed=5)
        for u, n in enumerate(sizes):
            hold = int(np.floor(0.1 * n))
            assert split.valid.user_positives[u].size == hold
            assert split.test.user_positives[u].size == hold
            assert split.train.user_positives[u].size == n - 2 * hold

    def test_deterministic_given_seed(self):
        ds = self.make([10, 15, 8], num_items=60)
        a = split_warm(ds, seed=9)
        b = split_warm(ds, seed=9)
        np.testing.assert_array_equal(a.train.pairs, b.train.pairs)
        np.testing.assert_array_equal(a.valid.pairs, b.valid.pairs)
        np.testing.assert_array_equal(a.test.pairs, b.test.pairs)
        c = split_warm(ds, seed=10)
        assert not np.array_equal(a.train.pairs, c.train.pairs)

    def test_manifest_counts(self):
        ds = self.make([10, 20], num_items=60)
        split = split_warm(ds, seed=0)
        m = split.manifest()
        assert m["mode"] == "warm"
        assert m["pairs"]["train"] == split.train.num_pairs
        assert "cold_items" not in m


def loop_positives(num_users, pairs):
    """Each user's sorted items, bucketed pair by pair: the reference."""
    buckets = [[] for _ in range(num_users)]
    for u, i in pairs:
        buckets[int(u)].append(int(i))
    return [np.array(sorted(b), dtype=np.int64) for b in buckets]


def loop_load_interactions(path):
    """The per-line parse and dedup load_interactions is defined by: the reference."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            raw = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataFormatError(f"cannot read interactions {path}: {exc}") from exc
    lines = raw.split("\n")
    while lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise DataFormatError(f"{path}: no interactions")
    user_ids, item_ids = {}, {}
    seen, pair_list = set(), []
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
    return InteractionDataset(
        len(user_ids),
        len(item_ids),
        pairs,
        tuple(loop_positives(len(user_ids), pairs)),
        user_labels=tuple(user_ids),
        item_labels=tuple(item_ids),
    )


def loop_split_warm(ds, seed):
    """The per-user, per-pair loop split_warm is defined by: the reference."""
    rng = np.random.default_rng(seed)
    parts = {"train": [], "valid": [], "test": []}
    for u in range(ds.num_users):
        items = ds.user_positives[u]
        if items.size < 3:
            parts["train"].extend((u, int(i)) for i in items)
            continue
        shuffled = rng.permutation(items)
        n_hold = int(np.floor(0.1 * items.size))
        parts["valid"].extend((u, int(i)) for i in shuffled[:n_hold])
        parts["test"].extend((u, int(i)) for i in shuffled[n_hold : 2 * n_hold])
        parts["train"].extend((u, int(i)) for i in shuffled[2 * n_hold :])
    return {k: np.array(v, dtype=np.int64).reshape(-1, 2) for k, v in parts.items()}


class TestAgainstLoops:
    """The array-built positives and warm split against the loops they replaced."""

    def datasets(self):
        rng = np.random.default_rng(12)
        for num_users, num_items, density in ((1, 1, 1.0), (7, 5, 0.0), (40, 60, 0.06), (25, 30, 0.6)):
            mask = rng.random((num_users, num_items)) < density
            mask[rng.random(num_users) < 0.3] = False  # users with no positives
            pairs = np.argwhere(mask).astype(np.int64)
            pairs = pairs[rng.permutation(len(pairs))]  # unsorted input order
            positives, _ = _positives_per_user(num_users, pairs)
            yield InteractionDataset(
                num_users,
                num_items,
                pairs,
                positives,
                user_labels=tuple(f"u{u}" for u in range(num_users)),
                item_labels=tuple(f"i{i}" for i in range(num_items)),
            )

    def test_positives_per_user_match_loop(self):
        for ds in self.datasets():
            want = loop_positives(ds.num_users, ds.pairs)
            assert len(ds.user_positives) == len(want)
            for got, ref in zip(ds.user_positives, want):
                assert got.dtype == np.int64
                assert np.array_equal(got, ref)

    def test_positives_of_no_pairs(self):
        positives, repeated = _positives_per_user(3, np.empty((0, 2), dtype=np.int64))
        assert not repeated
        assert len(positives) == 3
        assert all(p.dtype == np.int64 and p.size == 0 for p in positives)

    @pytest.mark.parametrize("seed", range(6))
    def test_positives_with_ids_past_an_int64_key(self, seed):
        # num_users * (largest item + 1) exceeds int64, so a key of
        # user * width + item would wrap
        big = np.iinfo(np.int64).max
        pool = np.array([0, 1, 2**31, 2**62, big - 2, big - 1], dtype=np.int64)
        rng = np.random.default_rng(seed)
        pairs = np.column_stack([rng.permutation(np.arange(8) % 4), rng.choice(pool, 8)])
        positives, repeated = _positives_per_user(4, pairs)
        assert repeated == (np.unique(pairs, axis=0).shape[0] != pairs.shape[0])
        for got, ref in zip(positives, loop_positives(4, pairs), strict=True):
            assert got.dtype == np.int64
            assert np.array_equal(got, ref)
        if repeated:
            with pytest.raises(DataFormatError, match="duplicate"):
                make_dataset(4, big, pairs)
        else:
            assert make_dataset(4, big, pairs).num_pairs == 8

    def test_split_warm_matches_loop(self):
        for ds in self.datasets():
            for seed in (0, 3):
                split = split_warm(ds, seed)
                want = loop_split_warm(ds, seed)
                for name in ("train", "valid", "test"):
                    got = getattr(split, name).pairs
                    assert got.dtype == np.int64
                    assert np.array_equal(got, want[name])

    def test_split_partitions_match_loop(self):
        # every partition: the source's id space and labels, and positives
        # bucketed from its own pairs
        for ds in self.datasets():
            if ds.num_items < 2:
                continue
            splits = [split_warm(ds, 1), split_cold(ds, 0.5, 2)]
            for split in splits:
                for name in ("train", "valid", "test"):
                    part = getattr(split, name)
                    assert (part.num_users, part.num_items) == (ds.num_users, ds.num_items)
                    assert part.user_labels == ds.user_labels
                    assert part.item_labels == ds.item_labels
                    want = loop_positives(ds.num_users, part.pairs)
                    assert len(part.user_positives) == len(want)
                    for got, ref in zip(part.user_positives, want):
                        assert np.array_equal(got, ref)


class TestColdSplit:
    def make(self, num_users=30, num_items=10, per_user=6, seed=1):
        rng = np.random.default_rng(seed)
        rows = []
        for u in range(num_users):
            for i in rng.choice(num_items, size=per_user, replace=False):
                rows.append((u, int(i)))
        return make_dataset(num_users, num_items, np.array(rows, dtype=np.int64))

    def test_cold_item_count_and_groups(self):
        ds = self.make()
        split = split_cold(ds, item_fraction=0.2, seed=4)
        assert split.cold_items.size == 2
        m = split.manifest()
        assert m["mode"] == "cold"
        assert sorted(m["cold_items"]) == split.cold_items.tolist()

    def test_no_cold_item_in_train(self):
        ds = self.make(num_items=20)
        split = split_cold(ds, item_fraction=0.3, seed=2)
        cold = set(split.cold_items.tolist())
        assert not cold & {int(i) for i in split.train.pairs[:, 1]}
        held = {int(i) for i in split.valid.pairs[:, 1]} | {
            int(i) for i in split.test.pairs[:, 1]
        }
        assert held <= cold

    def test_valid_and_test_touch_disjoint_item_groups(self):
        ds = self.make(num_items=20, num_users=60)
        split = split_cold(ds, item_fraction=0.3, seed=2)
        vi = {int(i) for i in split.valid.pairs[:, 1]}
        ti = {int(i) for i in split.test.pairs[:, 1]}
        assert not vi & ti

    def test_partitions_cover_all_pairs(self):
        ds = self.make(num_items=15)
        split = split_cold(ds, item_fraction=0.4, seed=8)
        total = (
            split.train.num_pairs + split.valid.num_pairs + split.test.num_pairs
        )
        assert total == ds.num_pairs

    def test_deterministic(self):
        ds = self.make()
        a = split_cold(ds, 0.2, seed=5)
        b = split_cold(ds, 0.2, seed=5)
        np.testing.assert_array_equal(a.cold_items, b.cold_items)
        np.testing.assert_array_equal(a.train.pairs, b.train.pairs)

    def test_bad_fraction_rejected(self):
        ds = self.make()
        with pytest.raises(ValueError):
            split_cold(ds, 0.0, seed=0)
        with pytest.raises(ValueError):
            split_cold(ds, 1.0, seed=0)


class TestSampleNegative:
    def test_only_free_item_returned(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert sample_negative(0, {0, 1}, 3, rng) == 2

    def test_all_items_positive_rejected(self):
        with pytest.raises(DataFormatError, match="user 0 "):
            sample_negative(0, {0, 1, 2}, 3, np.random.default_rng(0))

    def test_never_returns_positive(self):
        rng = np.random.default_rng(1)
        positives = {1, 3, 5, 7}
        draws = {sample_negative(0, positives, 9, rng) for _ in range(500)}
        assert not draws & positives

    def test_uniform_over_negatives(self):
        rng = np.random.default_rng(2026)
        counts = np.zeros(4, dtype=np.int64)
        n = 300_000
        for _ in range(n):
            counts[sample_negative(0, {2}, 4, rng)] += 1
        assert counts[2] == 0
        expected = n / 3.0
        sigma = np.sqrt(n * (1.0 / 3.0) * (2.0 / 3.0))
        for i in (0, 1, 3):
            assert abs(counts[i] - expected) < 5.0 * sigma


class TestBipartite:
    def test_single_pair(self):
        ds = make_dataset(1, 1, np.array([[0, 0]]))
        g = build_bipartite_graph(ds)
        np.testing.assert_allclose(g.csr.toarray(), [[0.0, 1.0], [1.0, 0.0]])

    def test_degree_two_weight(self):
        ds = make_dataset(1, 2, np.array([[0, 0], [0, 1]]))
        g = build_bipartite_graph(ds)
        dense = g.csr.toarray()
        assert dense[0, 1] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)
        assert dense[0, 2] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)

    def test_symmetric_and_normalized(self):
        rng = np.random.default_rng(3)
        rows = sorted(
            {(int(rng.integers(6)), int(rng.integers(9))) for _ in range(25)}
        )
        # ensure every user appears
        rows = sorted(set(rows) | {(u, u) for u in range(6)})
        ds = make_dataset(6, 9, np.array(rows, dtype=np.int64))
        g = build_bipartite_graph(ds)
        dense = g.csr.toarray()
        np.testing.assert_allclose(dense, dense.T, atol=0)
        deg_u = np.bincount(ds.pairs[:, 0], minlength=6)
        deg_i = np.bincount(ds.pairs[:, 1], minlength=9)
        for u, i in ds.pairs:
            got = dense[u, 6 + i] * np.sqrt(deg_u[u] * deg_i[i])
            assert got == pytest.approx(1.0, abs=1e-12)

    def test_unconnected_item_has_empty_row(self):
        ds = make_dataset(2, 3, np.array([[0, 0], [1, 1]]))
        g = build_bipartite_graph(ds)
        dense = g.csr.toarray()
        assert np.all(dense[2 + 2] == 0.0)
        assert np.all(dense[:, 2 + 2] == 0.0)


class TestFeatureIO:
    def test_roundtrip(self, tmp_path, rng):
        mat = rng.standard_normal((5, 3)).astype(np.float32)
        path = tmp_path / "f.latf"
        write_features(path, mat)
        feats = load_features(path, 5, "img")
        assert feats.dim == 3
        assert feats.matrix.dtype == np.float64
        np.testing.assert_array_equal(feats.matrix.astype(np.float32), mat)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "f.latf"
        write_features(path, np.zeros((2, 4), dtype=np.float32))
        blob = path.read_bytes()
        assert blob[:4] == FEATURE_MAGIC
        assert struct.unpack("<I", blob[4:8])[0] == 1
        assert struct.unpack("<QQ", blob[8:24]) == (2, 4)
        assert len(blob) == 24 + 2 * 4 * 4

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "f.latf"
        path.write_bytes(b"NOPE" + b"\x00" * 30)
        with pytest.raises(DataFormatError, match="magic"):
            load_features(path, 2, "img")

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "f.latf"
        path.write_bytes(FEATURE_MAGIC + struct.pack("<I", 9) + struct.pack("<QQ", 0, 0))
        with pytest.raises(DataFormatError, match="version"):
            load_features(path, 0, "img")

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "f.latf"
        write_features(path, np.zeros((3, 3), dtype=np.float32))
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(DataFormatError, match="payload"):
            load_features(path, 3, "img")

    def test_row_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "f.latf"
        write_features(path, np.zeros((3, 2), dtype=np.float32))
        with pytest.raises(DataFormatError, match="modality 'img' has 3 feature rows for 4 items"):
            load_features(path, 4, "img")

    def test_non_finite_rejected_on_write(self, tmp_path):
        with pytest.raises(ValueError, match="finite"):
            write_features(tmp_path / "f.latf", np.array([[np.nan]]))

    @pytest.mark.parametrize("value", [1e300, -1e300])
    def test_beyond_float32_rejected_without_warning(self, tmp_path, value):
        # the suite turns warnings into errors, so an overflow warning fails here
        path = tmp_path / "f.latf"
        write_features(path, np.ones((1, 2)))
        previous = path.read_bytes()
        with pytest.raises(ValueError, match="finite"):
            write_features(path, np.array([[1.0, value]]))
        assert path.read_bytes() == previous

    def test_non_finite_rejected_on_load(self, tmp_path):
        path = tmp_path / "f.latf"
        payload = np.array([[np.inf]], dtype="<f4")
        path.write_bytes(
            FEATURE_MAGIC
            + struct.pack("<I", 1)
            + struct.pack("<QQ", 1, 1)
            + payload.tobytes()
        )
        with pytest.raises(DataFormatError, match="non-finite"):
            load_features(path, 1, "img")


class TestWriteAtomic:
    def test_replaces_previous_file(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(b"previous")
        write_atomic(path, [b"new ", b"bytes"])
        assert path.read_bytes() == b"new bytes"
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]

    def test_failure_midway_keeps_previous_file(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(b"previous")

        def chunks():
            yield b"half of the new"
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            write_atomic(path, chunks())
        assert path.read_bytes() == b"previous"
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


def refuse_replace(*args, **kwargs):
    raise OSError("rename refused")


class TestWritersAreAtomic:
    """A failed rename leaves every previous file, and no temp file."""

    def test_features_kept_on_failed_replace(self, tmp_path, monkeypatch):
        path = tmp_path / "f.latf"
        write_features(path, np.zeros((2, 3)))
        before = path.read_bytes()
        monkeypatch.setattr(os, "replace", refuse_replace)
        with pytest.raises(OSError, match="rename refused"):
            write_features(path, np.ones((4, 3)))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["f.latf"]

    def test_synthetic_files_kept_on_failed_replace(self, tmp_path, monkeypatch):
        kwargs = dict(items_per_cluster=5, feat_dim=4, num_users=10, positives_per_user=2)
        tsv, features = write_clustered_dataset(tmp_path, seed=0, **kwargs)
        paths = [tsv, *features.values()]
        before = [p.read_bytes() for p in paths]
        monkeypatch.setattr(os, "replace", refuse_replace)
        with pytest.raises(OSError, match="rename refused"):
            write_clustered_dataset(tmp_path, seed=1, **kwargs)
        assert [p.read_bytes() for p in paths] == before
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(p.name for p in paths)


class TestClusteredCentroids:
    def test_more_clusters_than_sign_vectors_rejected_at_once(self):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="num_clusters=3 .* feat_dim=1"):
            clustered_dataset(num_clusters=3, feat_dim=1)
        assert time.perf_counter() - start < 1.0

    def test_unlucky_centroid_draws_give_up(self):
        # feasible, but a draw of 40 centroids 5 coordinates apart in 16
        # dimensions practically never comes up
        start = time.perf_counter()
        with pytest.raises(ValueError, match="num_clusters=40 .* feat_dim=16"):
            clustered_dataset(num_clusters=40)
        assert time.perf_counter() - start < 20.0

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"num_clusters": 0}, "num_clusters"),
            ({"items_per_cluster": 0, "positives_per_user": 0}, "items_per_cluster"),
            ({"positives_per_user": 0}, "positives_per_user"),
        ],
        ids=["num_clusters", "items_per_cluster", "positives_per_user"],
    )
    def test_zero_counts_rejected_by_name(self, kwargs, name):
        with pytest.raises(ValueError, match=f"^{name} must be at least 1, got 0$"):
            clustered_dataset(**kwargs)
