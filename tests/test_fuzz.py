"""Loaders and the config parser fed truncated, bit-flipped and random bytes.

Each input either loads or raises the package's error for its format, which
the command line prints as one `error:` line; any other exception would
surface as a traceback.
"""

import tempfile
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import tiny_instance
from lattice.config import SCHEMA, parse_config_text
from lattice.data import load_features, load_interactions, write_features
from lattice.errors import CheckpointError, ConfigError, DataFormatError
from lattice.graph import build_initial_graph, read_graph_dump, write_graph_dump
from lattice.model import load_checkpoint, save_checkpoint

FEATURE_ROWS = 3


def _flip(blob: bytes, flips) -> bytes:
    out = bytearray(blob)
    for pos, bit in flips:
        out[pos % len(out)] ^= 1 << bit
    return bytes(out)


def corruptions(valid: bytes):
    """Truncations and bit flips of a valid file, and random bytes."""
    flips = st.lists(st.tuples(st.integers(0, len(valid) - 1), st.integers(0, 7)),
                     min_size=1, max_size=4)
    return st.one_of(
        st.integers(0, len(valid) - 1).map(lambda n: valid[:n]),
        flips.map(lambda f: _flip(valid, f)),
        st.binary(max_size=300),
        st.binary(max_size=300).map(lambda tail: valid[:8] + tail),
    )


@lru_cache(maxsize=None)
def valid_file(kind: str) -> bytes:
    """The bytes of one small valid file of a format."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / kind
        if kind == "checkpoint":
            cfg, _, params, _ = tiny_instance("full", "mf")
            save_checkpoint(path, cfg, params, meta={"note": "fuzz"})
        elif kind == "features":
            write_features(path, np.arange(12.0).reshape(FEATURE_ROWS, 4))
        elif kind == "interactions":
            path.write_text("u1\ti1\nu1\ti2\nu2\ti1\n", encoding="utf-8")
        else:
            graph = build_initial_graph(np.random.default_rng(0).standard_normal((6, 3)), 2)
            path = Path(write_graph_dump(graph, path, {"k": 2})[0])
        return path.read_bytes()


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


def _loads_or_raises(path, blob: bytes, load, error) -> None:
    path.write_bytes(blob)
    try:
        load(path)
    except error:
        pass


LOADERS = {
    "checkpoint": (load_checkpoint, CheckpointError),
    "features": (lambda p: load_features(p, FEATURE_ROWS, "img"), DataFormatError),
    "interactions": (load_interactions, DataFormatError),
    "graph": (read_graph_dump, DataFormatError),
}


@pytest.mark.parametrize("kind", sorted(LOADERS))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_corrupted_file_raises_only_format_error(kind, fuzz_path, data):
    blob = data.draw(corruptions(valid_file(kind)))
    load, error = LOADERS[kind]
    _loads_or_raises(fuzz_path, blob, load, error)


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(0, 2**64 - 1), cols=st.integers(0, 2**64 - 1),
       payload=st.binary(max_size=64), num_items=st.sampled_from([FEATURE_ROWS, 0]))
# empty payloads numpy cannot shape
@example(rows=2**63, cols=0, payload=b"", num_items=FEATURE_ROWS)
@example(rows=0, cols=2**63, payload=b"", num_items=0)
def test_feature_header_with_any_shape_raises_only_format_error(
    fuzz_path, rows, cols, payload, num_items
):
    blob = b"LATF" + (1).to_bytes(4, "little") + rows.to_bytes(8, "little")
    blob += cols.to_bytes(8, "little") + payload
    _loads_or_raises(
        fuzz_path, blob, lambda p: load_features(p, num_items, "img"),
        DataFormatError,
    )


TSV_CHARS = "0123456789-.e\tx\n"


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet=TSV_CHARS, max_size=200))
def test_graph_dump_lines_raise_only_format_error(fuzz_path, body):
    blob = ("src\tdst\tweight\n" + body).encode("utf-8")
    _loads_or_raises(fuzz_path, blob, read_graph_dump, DataFormatError)


JSON_VALUES = ["0", "1", "-1", "0.5", "1e400", "NaN", "true", "null", '"mf"', '"full"',
               '"cold"', "[5, 20]", "[]", "{}", '{"img": "f.latf"}', '"x.tsv"',
               "1" * 5000, "[" * 5000]
config_lines = st.lists(
    st.tuples(
        st.sampled_from(sorted(SCHEMA) + ["bogus", ""]),
        st.sampled_from(JSON_VALUES) | st.text(max_size=20),
    ).map(lambda kv: f"{kv[0]} = {kv[1]}")
    | st.text(max_size=40),
    max_size=12,
)


@settings(max_examples=300, deadline=None)
@given(config_lines)
def test_config_text_raises_only_config_error(lines):
    try:
        parse_config_text("\n".join(lines), base_dir=".")
    except ConfigError:
        pass
