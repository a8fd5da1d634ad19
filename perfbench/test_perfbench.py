"""Tests of the benchmark itself, at tiny sizes.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lattice
from lattice import data, evaluation, graph, model, training

import checks
import workloads

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny(name: str) -> workloads.Workload:
    spec = workloads.WORKLOADS[name]
    users = 80 if spec.train is not None else 60
    gen = dict(spec.generator, num_clusters=2, items_per_cluster=40, feat_dim=8,
               num_users=users, positives_per_user=10)
    train = None if spec.train is None else dict(spec.train, batch_size=64)
    small = dict(spec.model, embed_dim=8, hidden_dim=4, k=3)
    return dataclasses.replace(spec, generator=gen, train=train, model=small)


def run(name, tmp_path, trace):
    return workloads.run_workload(tiny(name), 1, 0.05, trace, tmp_path)


def test_declared_workloads_and_units_match_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == workloads.E2E_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == workloads.LAYER_UNITS
    rules = json.loads((HERE / "layers.json").read_text())["rules"]
    mapped = [m for rule in rules for m in rule["layer_metrics"]]
    assert sorted(mapped) == sorted(workloads.LAYER_UNITS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(name, trace, tmp_path):
    line, record = run(name, tmp_path, trace)
    assert line["correct"], record["notes"]
    assert line["failed"] == 0 and line["attempted"] > 0
    expected = workloads.LAYER_UNITS if trace else workloads.E2E_UNITS
    assert {n: m["unit"] for n, m in line["metrics"].items()} == expected
    assert all(np.isfinite(m["value"]) for m in line["metrics"].values())
    assert record["provenance"]["seed"] == 1


def test_graph_builds_match_what_fit_implies(tmp_path):
    line, _ = run("learned_graph", tmp_path, True)
    m = {n: v["value"] for n, v in line["metrics"].items()}
    # one build per step, one for the validation forward, one initial graph
    assert m["graph.builds"] == m["training.steps"] + 1 + 1
    line, _ = run("lightgcn_frozen", tmp_path, True)
    m = {n: v["value"] for n, v in line["metrics"].items()}
    assert m["graph.builds"] == 3


def test_same_seed_gives_identical_outputs_across_runs(tmp_path):
    first, rec1 = run("learned_graph", tmp_path, False)
    second, rec2 = run("learned_graph", tmp_path, False)
    assert rec1["digest"] == rec2["digest"]
    assert first["metrics"]["recall_at_20"] == second["metrics"]["recall_at_20"]
    assert second["correct"]


def _public_objects():
    objs = {}
    for mod in (lattice, data, evaluation, graph, model, training):
        for attr, value in vars(mod).items():
            if callable(value):
                objs[(mod.__name__, attr)] = value
    objs[("SparseGraph", "__post_init__")] = graph.SparseGraph.__post_init__
    return objs


def test_traced_run_restores_every_wrapped_function(tmp_path):
    before = _public_objects()
    for name in workloads.WORKLOADS:
        run(name, tmp_path, True)
    after = _public_objects()
    assert before.keys() == after.keys()
    assert all(after[key] is obj for key, obj in before.items())


def test_wrong_graph_row_is_caught(tmp_path, monkeypatch):
    original = graph.knn_cosine_graph

    def wrong(features, k, *args, **kwargs):
        g = original(features, k, *args, **kwargs)
        indices = g.indices.copy()
        for row in range(g.num_nodes):  # move each row's first edge off target
            lo, hi = g.indptr[row], g.indptr[row + 1]
            missing = np.setdiff1d(np.arange(g.num_nodes), indices[lo:hi])
            if hi > lo and missing.size:
                indices[lo] = missing[0]
                indices[lo:hi].sort()
        return graph.SparseGraph(g.num_nodes, g.indptr, indices, g.values)

    monkeypatch.setattr(graph, "knn_cosine_graph", wrong)
    monkeypatch.setattr(model, "knn_cosine_graph", wrong)
    line, record = run("learned_graph", tmp_path, False)
    assert not line["correct"] and line["failed"] > 0
    assert any("graph rows" in note for note in record["notes"])


def test_wrong_ranking_is_caught(tmp_path, monkeypatch):
    original = evaluation.rank_items

    def swapped(user_vec, enhanced_items, excluded):
        ranked = original(user_vec, enhanced_items, excluded).copy()
        ranked[[0, 1]] = ranked[[1, 0]]
        return ranked

    monkeypatch.setattr(evaluation, "rank_items", swapped)
    line, record = run("catalog_eval", tmp_path, False)
    assert not line["correct"] and record["failed_frac"] > 0
    assert any("ranking" in note for note in record["notes"])


def test_reference_graph_rows_accept_the_package_graph():
    rng = np.random.default_rng(0)
    feats = rng.standard_normal((50, 6))
    rows = np.arange(50)
    assert checks.graph_row_failures(graph.knn_cosine_graph(feats, 4), feats, 4, rows, False) == 0
    assert checks.graph_row_failures(graph.build_initial_graph(feats, 4), feats, 4, rows, True) == 0


def test_without_package_sources_the_command_fails_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    (bench / "run.py").write_bytes((HERE / "run.py").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "catalog_eval",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
