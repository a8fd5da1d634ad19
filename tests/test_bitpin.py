"""Bit pins: fixed small trainings must reproduce recorded digests exactly.

Each case trains one backend x variant x refresh combination for 3 epochs on
a fixed two-modality instance and compares three values against the table
below: the sha256 of the checkpoint bytes, the sha256 of every parameter as
float64 (checkpoints store float32, which would hide small drift), and the
repr of the last epoch's train loss.  A refactor that keeps the arithmetic
must keep all three.  One extra case trains with fuse_lambda = 1.0, where the
learned graph carries zero weight.

The digests depend on the numpy/BLAS build.  On a new platform, print the
table with ``PYTHONPATH=src python tests/test_bitpin.py`` from the parent
commit and paste it here; never regenerate it to absorb a code change.
"""

import hashlib

import numpy as np
import pytest

from lattice.data import ModalityFeatures, split_cold
from lattice.model import BACKENDS, VARIANTS, ModelConfig, save_checkpoint
from lattice.synthetic import clustered_dataset
from lattice.training import TrainConfig, fit

REFRESH = ("per_batch", "per_epoch")

PINNED = {
    ('mf', 'full', 'per_batch'): ('e448a2ca24af95d4842125adb7d46027f5c67fb6a1ee2aff059b738223dfc086', '71e404c36050f9e6a121b7ee33de65f219e643444b90c5cae25e099b973243db', '0.618252762473812'),
    ('mf', 'full', 'per_epoch'): ('6950cf5cf9a12e75f1704bc7aa601745602ad3afdb5928f99ad9c5a1af43ec27', '24116339216dec3569e41dcb46df03501693e255c864d9966cf6f75454043708', '0.6179824919930986'),
    ('mf', 'conv_on_feats', 'per_batch'): ('2d5bdc4f0ccdb4aa385a503f80acd814aa95bde20a44f9597bb55d16cd673fba', '28c5b942f4d724b522edc49512e8e3997d4d340ca67a84ebbdb47e7faca55a5e', '0.5875016585820195'),
    ('mf', 'conv_on_feats', 'per_epoch'): ('f0e5708ce7d0d1f408500feb6f97bc0c51343bdaf882375404be41385e601659', '68b53f179f75cf614a87b606a51e2c09da683f9e9dacec58eecfbe871b1b9986', '0.5875132737993604'),
    ('mf', 'feats_side_info', 'per_batch'): ('84a52c749223e405f1a5bf3f57215e7f8adeb561405425771afc6d456f88ca85', 'bc7fd2b2cf70b1a4f9ac9f7d1ba3e3a0a4d064c9326f85f0391b6f9e9adfc027', '0.5887648709633794'),
    ('mf', 'feats_side_info', 'per_epoch'): ('84a52c749223e405f1a5bf3f57215e7f8adeb561405425771afc6d456f88ca85', 'bc7fd2b2cf70b1a4f9ac9f7d1ba3e3a0a4d064c9326f85f0391b6f9e9adfc027', '0.5887648709633794'),
    ('mf', 'base', 'per_batch'): ('72536c029e7ba83f57dea881281cae94b979685ea870243c2c611376e8d8cf65', '9b249eaee48444d058a3ad12592399757f74df76df3e49af958015fb2cbf98f4', '0.6691353428460112'),
    ('mf', 'base', 'per_epoch'): ('72536c029e7ba83f57dea881281cae94b979685ea870243c2c611376e8d8cf65', '9b249eaee48444d058a3ad12592399757f74df76df3e49af958015fb2cbf98f4', '0.6691353428460112'),
    ('lightgcn', 'full', 'per_batch'): ('92c565e4131692c3214e7b85d8ecde497e8056726684eef43a3127c57074c227', '16346a323634e6bd4809dda8c5e3199096782e087e5c86196c2fb7dc978ada3f', '0.5438949413671778'),
    ('lightgcn', 'full', 'per_epoch'): ('bec5d34e52a57e1a532dc9aad0e1528a026df4d275a4a3878f71ce2726718c69', '76547d5ddfab85ef44433c8024e4ac44b8e899e8a25e5dd642797157264e3361', '0.5432287744500887'),
    ('lightgcn', 'conv_on_feats', 'per_batch'): ('9300000430720b31872791afb5e350eb0b6d940a78f2c8cba59fa8b2eb3febfb', '6fa152b9ff31b56266f25976cb1fe5b3ffb31da350ad224fce5ab8306ab26b13', '0.5376823211246683'),
    ('lightgcn', 'conv_on_feats', 'per_epoch'): ('f2be4e77466ce5a266a9d8fccf971c7de86aba6453f63e152c66983c66b4fc70', 'd771724daa058a3175c15bcff92a666d3ab6cf993c6e54e38b8cb472d00adcbd', '0.5377173955675759'),
    ('lightgcn', 'feats_side_info', 'per_batch'): ('59affc0a911267774e9521cb2dde32af60a020512ee3e95e021f396d0ed16d7e', '118558282462044b1dec088bb39b9077c3834f2d71e641f23b56c33207fc7903', '0.5380697351928312'),
    ('lightgcn', 'feats_side_info', 'per_epoch'): ('59affc0a911267774e9521cb2dde32af60a020512ee3e95e021f396d0ed16d7e', '118558282462044b1dec088bb39b9077c3834f2d71e641f23b56c33207fc7903', '0.5380697351928312'),
    ('lightgcn', 'base', 'per_batch'): ('e0f473322910231b1001f9b253b5d8b04cfe1af9322e8e0a7575bcd127cbe0fd', 'b3ddfbc8d06e61824b070c257ba4297d81e8c87024523dacec1182ed9e229f73', '0.6443296118870052'),
    ('lightgcn', 'base', 'per_epoch'): ('e0f473322910231b1001f9b253b5d8b04cfe1af9322e8e0a7575bcd127cbe0fd', 'b3ddfbc8d06e61824b070c257ba4297d81e8c87024523dacec1182ed9e229f73', '0.6443296118870052'),
}

CASES = [(b, v, r) for b in BACKENDS for v in VARIANTS for r in REFRESH]

# (backend, variant, refresh, fuse_lambda) -> digests, as in PINNED
PINNED_LAMBDA = {
    ('mf', 'full', 'per_batch', 1.0): ('955e29cf366feb736b66cba6556673401223c34723823c01313e305be5960145', '14c2188366eef0850ca023197894f735e2c9d34043a6a9c2baf7dc4e18f75d36', '0.6324839413326927'),
}


def _instance():
    dataset, features = clustered_dataset(
        num_clusters=3,
        items_per_cluster=20,
        feat_dim=8,
        num_users=30,
        positives_per_user=5,
        seed=3,
    )
    (content,) = features.values()
    projection = np.random.default_rng(7).standard_normal((8, 5))
    features["proj"] = ModalityFeatures(content.matrix @ projection)
    return split_cold(dataset, 0.2, seed=3), features


def run_case(backend, variant, refresh, tmp_dir, fuse_lambda=0.6):
    """Train one case and return (checkpoint sha256, float64 sha256, loss repr)."""
    split, features = _instance()
    cfg = ModelConfig(
        backend=backend,
        variant=variant,
        embed_dim=8,
        hidden_dim=4,
        k=3,
        fuse_lambda=fuse_lambda,
        item_layers=2,
        cf_layers=2,
    )
    train_cfg = TrainConfig(
        learning_rate=0.01, batch_size=32, max_epochs=3, seed=5, graph_refresh=refresh
    )
    result = fit(cfg, train_cfg, split, features)
    path = tmp_dir / f"{backend}_{variant}_{refresh}_{fuse_lambda}.bin"
    save_checkpoint(path, cfg, result.params)
    ckpt = hashlib.sha256(path.read_bytes()).hexdigest()
    exact = hashlib.sha256()
    for name, arr in result.params.named():
        exact.update(name.encode("utf-8"))
        exact.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return ckpt, exact.hexdigest(), repr(result.history[-1].train_loss)


@pytest.mark.parametrize("backend,variant,refresh", CASES)
def test_training_reproduces_pinned_bits(backend, variant, refresh, tmp_path):
    got = run_case(backend, variant, refresh, tmp_path)
    assert got == PINNED[(backend, variant, refresh)]


@pytest.mark.parametrize(
    "case", sorted(PINNED_LAMBDA), ids=lambda c: "-".join(map(str, c))
)
def test_training_at_fuse_lambda_reproduces_pinned_bits(case, tmp_path):
    got = run_case(*case[:3], tmp_path, fuse_lambda=case[3])
    assert got == PINNED_LAMBDA[case]


if __name__ == "__main__":
    import pathlib
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        print("PINNED = {")
        for case in CASES:
            print(f"    {case!r}: {run_case(*case, pathlib.Path(tmp))!r},")
        print("}")
        print("PINNED_LAMBDA = {")
        for case in sorted(PINNED_LAMBDA):
            got = run_case(*case[:3], pathlib.Path(tmp), fuse_lambda=case[3])
            print(f"    {case!r}: {got!r},")
        print("}")
