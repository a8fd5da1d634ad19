"""The names the benchmark under perfbench/ patches and reads must exist.

perfbench times the package by replacing functions at the attributes their
callers resolve, and reads parameters by role.  This suite does not collect
perfbench's own tests, so a rename would otherwise fail only in the
benchmark; here its patching module is loaded from the checkout, every
wrapper it uses is installed and removed, and the parameter roles it reads
are checked.
"""

import importlib.util
from pathlib import Path

import numpy as np

from lattice import data, evaluation, graph, model, training
from lattice.data import make_dataset
from lattice.model import ModelConfig
from lattice.training import init_parameters

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_patch_points_install_and_restore():
    tracing = load_tracing()
    owners = (data, evaluation, graph, model, training, graph.SparseGraph)
    before = [dict(vars(owner)) for owner in owners]
    patches = tracing.Patches()
    try:
        tracing.instrument(tracing.Tracer("tier-1"), patches)
        tracing.Clock().install(patches)
        assert model.knn_cosine_graph is not before[3]["knn_cosine_graph"]
    finally:
        patches.restore()
    for owner, saved in zip(owners, before):
        assert all(vars(owner)[name] is value for name, value in saved.items())


def test_cf_forward_takes_the_three_arguments_perfbench_passes():
    # perfbench's checks call cf_forward(cfg, params, inputs) positionally
    cfg = ModelConfig(backend="lightgcn", variant="base", embed_dim=4, cf_layers=2)
    ds = make_dataset(3, 4, np.array([[0, 0], [1, 1], [2, 3]]))
    inputs = model.build_inputs(cfg, ds, {})
    params = init_parameters(cfg, 3, 4, {}, np.random.default_rng(0))
    user_vecs, item_vecs = model.cf_forward(cfg, params, inputs)
    assert user_vecs.shape == (3, 4)
    assert item_vecs.shape == (4, 4)


def test_parameter_set_exposes_what_perfbench_reads():
    cfg = ModelConfig(backend="mf", variant="full", embed_dim=4, hidden_dim=3)
    params = init_parameters(cfg, 5, 6, {"content": 7}, np.random.default_rng(0))
    assert [name for name, _ in params.named()] == params.names()
    assert params.user_emb is params["user_emb"]
    assert params.item_emb is params["item_emb"]
    assert params.transform_w["content"] is params["transform_w.content"]
    assert params.transform_b["content"] is params["transform_b.content"]
    # the planted evaluation checkpoint is written through the table roles in place
    params.item_emb[:] = 1.0
    params.user_emb[:] = 0.0
    np.add.at(params.user_emb, [0, 0], params.item_emb[[1, 2]])
    assert np.all(params["item_emb"] == 1.0)
    assert params["user_emb"].sum() == 2.0 * cfg.embed_dim
