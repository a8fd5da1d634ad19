"""Config parsing and the prepare/train/evaluate/sweep command flows."""

import json
import math
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import lattice.cli
from lattice.cli import main
from lattice.config import _REQUIRED, SCHEMA, load_run_config, parse_config_text
from lattice.data import load_interactions, write_features
from lattice.errors import ConfigError, GradientError
from lattice.model import VARIANTS, ModelConfig
from lattice.synthetic import write_clustered_dataset
from lattice.training import TrainConfig

BASE_CONFIG = """\
# two content clusters, small enough for fast end-to-end runs
interactions = "interactions.tsv"
features = {"content": "features_content.latf"}
out_dir = "run"
backend = "mf"
variant = "full"
embed_dim = 8
hidden_dim = 8
k = 3
item_layers = 1
learning_rate = 0.01
batch_size = 64
max_epochs = 3
patience = 5
seed = 0
cutoffs = [5, 20]
"""

# what train plus a test evaluate leave in a sweep point's directory
POINT_FILES = ["checkpoint.bin", "report_test.json", "split_manifest.json", "train_log.jsonl"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    ws = tmp_path_factory.mktemp("cli_ws")
    write_clustered_dataset(
        ws,
        num_clusters=2,
        items_per_cluster=10,
        feat_dim=8,
        num_users=20,
        positives_per_user=10,
        seed=0,
    )
    config_path = ws / "run.cfg"
    config_path.write_text(BASE_CONFIG, encoding="utf-8")
    return ws


@pytest.fixture(scope="module")
def trained(workspace):
    out = workspace / "trained"
    code = main(
        ["train", "--config", str(workspace / "run.cfg"), "--out", str(out)]
    )
    assert code == 0
    return out


class TestConfigParsing:
    def test_defaults_fill_optional_keys(self, tmp_path):
        cfg = parse_config_text(
            'interactions = "a.tsv"\n'
            'features = {"img": "b.latf"}\n'
            'out_dir = "out"\n',
            tmp_path,
        )
        assert cfg["backend"] == "mf"
        assert cfg["k"] == 10
        assert cfg["cutoffs"] == [20]
        assert cfg["graph_refresh"] == "per_batch"

    def test_comments_and_blanks_skipped(self, tmp_path):
        cfg = parse_config_text(
            '# leading comment\n\ninteractions = "a.tsv"\n'
            'features = {"img": "b.latf"}\n\n# more\nout_dir = "out"\n',
            tmp_path,
        )
        assert cfg["interactions"] == "a.tsv"

    def test_unknown_key_reports_line(self, tmp_path):
        with pytest.raises(ConfigError, match="line 2: unknown key 'reticulation'"):
            parse_config_text(
                'interactions = "a.tsv"\nreticulation = 4\n', tmp_path
            )

    def test_duplicate_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_config_text('k = 5\nk = 6\n', tmp_path)

    def test_invalid_json_value_reports_line(self, tmp_path):
        with pytest.raises(ConfigError, match="line 1.*not valid JSON"):
            parse_config_text("k = ,5\n", tmp_path)

    def test_missing_required_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="missing required key 'features'"):
            parse_config_text(
                'interactions = "a.tsv"\nout_dir = "out"\n', tmp_path
            )

    def test_bool_not_accepted_as_number(self, tmp_path):
        with pytest.raises(ConfigError, match="fuse_lambda"):
            parse_config_text(
                'interactions = "a.tsv"\nfeatures = {"i": "b"}\n'
                'out_dir = "o"\nfuse_lambda = true\n',
                tmp_path,
            )

    def test_integer_accepted_for_float_key(self, tmp_path):
        cfg = parse_config_text(
            'interactions = "a.tsv"\nfeatures = {"i": "b"}\n'
            'out_dir = "o"\nfuse_lambda = 1\n',
            tmp_path,
        )
        assert cfg["fuse_lambda"] == 1.0
        assert isinstance(cfg["fuse_lambda"], float)

    def test_out_of_range_value_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="item_layers"):
            parse_config_text(
                'interactions = "a.tsv"\nfeatures = {"i": "b"}\n'
                'out_dir = "o"\nitem_layers = 9\n',
                tmp_path,
            )

    def test_cutoffs_deduplicated(self, tmp_path):
        cfg = parse_config_text(
            'interactions = "a.tsv"\nfeatures = {"i": "b"}\n'
            'out_dir = "o"\ncutoffs = [20, 5, 20]\n',
            tmp_path,
        )
        assert cfg["cutoffs"] == [20, 5]

    def test_relative_paths_resolve_against_config_dir(self, tmp_path):
        cfg = parse_config_text(
            'interactions = "data/a.tsv"\nfeatures = {"i": "b.latf"}\n'
            'out_dir = "out"\n',
            tmp_path / "sub",
        )
        assert cfg.interactions_path == tmp_path / "sub" / "data" / "a.tsv"
        assert cfg.out_dir == tmp_path / "sub" / "out"

    def test_digest_tracks_values(self, tmp_path):
        text = (
            'interactions = "a.tsv"\nfeatures = {"i": "b"}\nout_dir = "o"\n'
        )
        a = parse_config_text(text, tmp_path)
        b = parse_config_text(text + "k = 10\n", tmp_path)  # the default
        c = parse_config_text(text + "k = 7\n", tmp_path)
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()
        assert len(a.digest()) == 12

    def test_with_values_rejects_unknown_key(self, tmp_path):
        cfg = parse_config_text(
            'interactions = "a.tsv"\nfeatures = {"i": "b"}\nout_dir = "o"\n',
            tmp_path,
        )
        with pytest.raises(ConfigError, match="unknown config key"):
            cfg.with_values(frobnication=3)

    def test_readme_lists_every_key_with_its_default(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
        table = readme.split("## Config keys\n", 1)[1].split("\n## ", 1)[0]
        rows = re.findall(r"^\| `(\w+)` \| (.+?) \|", table, flags=re.MULTILINE)
        assert rows == [
            (key, "required" if default is _REQUIRED else f"`{json.dumps(default)}`")
            for key, (default, _) in SCHEMA.items()
        ]

    def test_load_checks_referenced_files(self, workspace, tmp_path):
        missing = tmp_path / "missing.cfg"
        missing.write_text(BASE_CONFIG, encoding="utf-8")  # data lives elsewhere
        with pytest.raises(ConfigError, match="interactions file not found"):
            load_run_config(missing)
        good = load_run_config(workspace / "run.cfg")
        assert good.interactions_path.is_file()


    def test_byte_order_mark_is_dropped(self, workspace, tmp_path):
        # a UTF-8 BOM must not become part of the first key
        plain = load_run_config(workspace / "run.cfg")
        marked_path = workspace / "run_bom.cfg"
        marked_path.write_text("\ufeff" + BASE_CONFIG, encoding="utf-8")
        try:
            marked = load_run_config(marked_path)
        finally:
            marked_path.unlink()
        assert marked.values == plain.values
        assert marked.base_dir == plain.base_dir


REQUIRED_KEYS = 'interactions = "a.tsv"\nfeatures = {"i": "b"}\nout_dir = "o"\n'

# Per model or training key: values on the inside of each bound, and values
# just outside a bound or of a type the key does not take.
SETTING_BOUNDS = {
    "backend": (["mf", "lightgcn"], ["gcn", None]),
    "variant": (list(VARIANTS), ["plain", 1]),
    "embed_dim": ([1], [0, 1.0, True]),
    "hidden_dim": ([1], [0, 2.5]),
    "k": ([0], [-1, 1.0, True]),
    "fuse_lambda": ([0, 0.0, 1, 1.0], [-1e-4, 1.0001, True, "0.5", math.nan]),
    "item_layers": ([0, 4], [-1, 5]),
    "cf_layers": ([0], [-1]),
    "learning_rate": ([5e-324, 1, sys.float_info.max], [0, 0.0, -1e-3, math.inf, 10**400]),
    "l2_coeff": ([0, sys.float_info.max], [-5e-324, math.inf, math.nan]),
    "batch_size": ([1], [0]),
    "max_epochs": ([1], [0]),
    "patience": ([1], [0]),
    "seed": ([0], [-1]),
    "graph_refresh": (["per_batch", "per_epoch"], ["per_step"]),
}

SETTING_FIELDS = {f.name: (cls, f) for cls in (ModelConfig, TrainConfig) for f in fields(cls)}


def test_every_setting_key_has_bounds_under_test():
    assert sorted(SETTING_BOUNDS) == sorted(set(SETTING_FIELDS) & set(SCHEMA))


@pytest.mark.parametrize("key", sorted(SETTING_BOUNDS))
def test_setting_default_and_bounds_agree_everywhere(key, tmp_path):
    cls, field = SETTING_FIELDS[key]
    base = parse_config_text(REQUIRED_KEYS, tmp_path)
    assert SCHEMA[key][0] == field.default
    assert base[key] == field.default
    accepted, rejected = SETTING_BOUNDS[key]
    for value in accepted:
        cls(**{key: value})
        parsed = parse_config_text(REQUIRED_KEYS + f"{key} = {json.dumps(value)}", tmp_path)
        assert parsed[key] == value
        assert type(parsed[key]) is type(field.default)
        assert base.with_values(**{key: value})[key] == value
    for value in rejected:
        with pytest.raises(ConfigError, match=f"^{key}: "):
            parse_config_text(REQUIRED_KEYS + f"{key} = {json.dumps(value)}", tmp_path)
        with pytest.raises(ConfigError, match=f"^{key}: "):
            base.with_values(**{key: value})
        with pytest.raises(ValueError, match=f"^{key}: "):
            cls(**{key: value})


class TestPrepare:
    def test_writes_manifest(self, workspace, tmp_path, capsys):
        out = tmp_path / "prep"
        code = main(
            ["prepare", "--config", str(workspace / "run.cfg"), "--out", str(out)]
        )
        assert code == 0
        manifest = json.loads((out / "split_manifest.json").read_text())
        assert manifest["mode"] == "warm"
        total = sum(manifest["pairs"].values())
        assert total == 200
        assert "config_digest" in manifest
        assert "wrote" in capsys.readouterr().out

    def test_rerun_is_byte_identical(self, workspace, tmp_path):
        out = tmp_path / "prep"
        args = ["prepare", "--config", str(workspace / "run.cfg"), "--out", str(out)]
        assert main(args) == 0
        first = (out / "split_manifest.json").read_bytes()
        assert main(args) == 0
        assert (out / "split_manifest.json").read_bytes() == first

    def test_out_dir_naming_a_file_reports_error(self, workspace, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("a regular file\n", encoding="utf-8")
        code = main(["prepare", "--config", str(workspace / "run.cfg"), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert out.read_text(encoding="utf-8") == "a regular file\n"

    def test_runs_as_python_dash_m_module(self, workspace, tmp_path):
        src = Path(lattice.cli.__file__).resolve().parents[1]
        out = tmp_path / "m"
        argv = ["prepare", "--config", str(workspace / "run.cfg"), "--out", str(out)]
        proc = subprocess.run(
            [sys.executable, "-m", "lattice.cli", *argv],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert (out / "split_manifest.json").is_file()

    def test_dump_graphs_writes_tsv_and_meta(self, workspace, tmp_path):
        out = tmp_path / "prep"
        code = main(
            [
                "prepare",
                "--config",
                str(workspace / "run.cfg"),
                "--out",
                str(out),
                "--dump-graphs",
            ]
        )
        assert code == 0
        tsv = out / "graph_content.tsv"
        meta = json.loads((out / "graph_content.json").read_text())
        assert tsv.is_file()
        assert meta["modality"] == "content"
        assert meta["k"] == 3
        assert meta["mixture_weights"] == {"content": 1.0}
        header = tsv.read_text().splitlines()[0]
        assert header.split("\t") == ["src", "dst", "weight"]

    def test_dump_graphs_with_k_past_int64_cuts_at_item_count(self, workspace, tmp_path):
        # a row holds at most 20 entries, so k = 2**63 keeps what k = 20 does
        dumps = {}
        for k in (2**63, 20):
            cfg_path = workspace / f"k_{k}.cfg"
            cfg_path.write_text(BASE_CONFIG.replace("k = 3", f"k = {k}"), encoding="utf-8")
            out = tmp_path / str(k)
            assert main(["prepare", "--config", str(cfg_path), "--out", str(out), "--dump-graphs"]) == 0
            dumps[k] = (out / "graph_content.tsv").read_bytes()
        assert dumps[2**63] == dumps[20]


class TestTrain:
    def test_outputs_and_log_schema(self, workspace, trained):
        from lattice.model import load_checkpoint

        assert (trained / "split_manifest.json").is_file()
        _, _, meta = load_checkpoint(trained / "checkpoint.bin")
        lines = (trained / "train_log.jsonl").read_text().splitlines()
        assert 1 <= len(lines) <= 3
        assert len(lines) == meta["epochs_run"]
        entries = [json.loads(line) for line in lines]
        assert [e["epoch"] for e in entries] == list(range(1, len(lines) + 1))
        entry = entries[0]
        assert set(entry) == {
            "epoch",
            "train_loss",
            "val_recall@20",
            "val_ndcg@20",
            "alpha",
            "seconds",
        }
        assert entry["epoch"] == 1
        assert len(entry["alpha"]) == 1  # one modality
        assert entry["alpha"][0] == pytest.approx(1.0)

    def test_checkpoint_meta_identifies_run(self, workspace, trained):
        from lattice.model import load_checkpoint

        cfg = load_run_config(workspace / "run.cfg")
        _, _, meta = load_checkpoint(trained / "checkpoint.bin")
        expected = cfg.with_values(out_dir=str(trained)).digest()
        assert meta["config_digest"] == expected
        assert meta["epochs_run"] >= meta["best_epoch"] >= 1

    def test_resume_flag_rejected(self, workspace, tmp_path, capsys):
        code = main(
            [
                "train",
                "--config",
                str(workspace / "run.cfg"),
                "--out",
                str(tmp_path / "x"),
                "--checkpoint",
                "anything.bin",
            ]
        )
        assert code == 1
        assert "not supported" in capsys.readouterr().err

    def test_missing_data_reports_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "r.cfg"
        cfg_path.write_text(BASE_CONFIG, encoding="utf-8")
        code = main(["train", "--config", str(cfg_path)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_non_utf8_config_reports_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "r.cfg"
        cfg_path.write_bytes(("# caf\u00e9\n" + BASE_CONFIG).encode("latin-1"))
        code = main(["train", "--config", str(cfg_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: cannot read config {cfg_path}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("text", ["1e400", "1" + "0" * 400], ids=["exponent", "digits"])
    @pytest.mark.parametrize("key", ["learning_rate", "l2_coeff", "fuse_lambda", "item_fraction"])
    def test_beyond_float_range_reports_error(self, tmp_path, capsys, key, text):
        lines = [ln for ln in BASE_CONFIG.splitlines() if not ln.startswith(key)]
        cfg_path = tmp_path / "r.cfg"
        cfg_path.write_text("\n".join(lines + [f"{key} = {text}"]) + "\n", encoding="utf-8")
        code = main(["train", "--config", str(cfg_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {key}: ") and err.count("\n") == 1

    def test_user_without_negatives_reports_error(self, tmp_path, capsys):
        # u0 holds all 4 items; the warm split holds out floor(0.1 * 4) = 0
        (tmp_path / "interactions.tsv").write_text(
            "u0\ta\nu0\tb\nu0\tc\nu0\td\nu1\ta\n", encoding="utf-8"
        )
        write_features(tmp_path / "features_content.latf", np.eye(4, 2) + 1.0)
        cfg_path = tmp_path / "r.cfg"
        cfg_path.write_text(BASE_CONFIG, encoding="utf-8")
        code = main(["train", "--config", str(cfg_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err == "error: user 0 has no negative items to sample\n"

    def test_cold_fraction_below_two_items_reports_error(self, tmp_path, capsys):
        # floor(0.2 * 8) = 1 cold item, too few to split into valid and test
        (tmp_path / "interactions.tsv").write_text(
            "".join(f"u{u}\ti{i}\n" for u in range(3) for i in range(8)),
            encoding="utf-8",
        )
        write_features(tmp_path / "features_content.latf", np.eye(8, 3) + 1.0)
        cfg_path = tmp_path / "r.cfg"
        cfg_path.write_text(
            BASE_CONFIG + 'split_mode = "cold"\nitem_fraction = 0.2\n', encoding="utf-8"
        )
        code = main(["prepare", "--config", str(cfg_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err == "error: item_fraction 0.2 selects fewer than 2 of 8 items\n"

    def test_unallocatable_config_reports_error(self, workspace, tmp_path, capsys):
        # the first table would need petabytes; numpy refuses it before allocating
        cfg_path = workspace / "huge.cfg"
        cfg_path.write_text(
            BASE_CONFIG.replace("embed_dim = 8", "embed_dim = 1000000000000000"),
            encoding="utf-8",
        )
        argv = ["--config", str(cfg_path), "--out", str(tmp_path / "huge")]
        code = main(["train"] + argv)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: Unable to allocate ") and err.count("\n") == 1
        assert "1000000000000000" in err

    @pytest.mark.parametrize("key", ["embed_dim", "hidden_dim"])
    def test_unindexable_parameter_shape_reports_error(self, workspace, tmp_path, capsys, key):
        # 10**18 float64 columns are more bytes than numpy can index
        cfg_path = workspace / f"huge_{key}.cfg"
        cfg_path.write_text(
            BASE_CONFIG.replace(f"{key} = 8", f"{key} = 1000000000000000000"),
            encoding="utf-8",
        )
        code = main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "huge")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: parameter ") and err.count("\n") == 1
        assert "1000000000000000000" in err and "too big for a float64 array" in err


class TestEvaluate:
    def test_writes_report_for_each_partition(self, workspace, trained, capsys):
        for partition in ("valid", "test"):
            code = main(
                [
                    "evaluate",
                    "--config",
                    str(workspace / "run.cfg"),
                    "--out",
                    str(trained),
                    "--partition",
                    partition,
                ]
            )
            assert code == 0
            report = json.loads((trained / f"report_{partition}.json").read_text())
            assert report["partition"] == partition
            assert set(report["metrics"]) == {"5", "20"}
            assert report["num_users_evaluated"] == 20
            for block in report["metrics"].values():
                for v in block.values():
                    assert 0.0 <= v <= 1.0
        printed = capsys.readouterr().out
        assert '"partition": "test"' in printed

    def test_missing_checkpoint_fails_cleanly(self, workspace, tmp_path, capsys):
        code = main(
            [
                "evaluate",
                "--config",
                str(workspace / "run.cfg"),
                "--out",
                str(tmp_path / "nothing_here"),
            ]
        )
        assert code == 1
        assert "cannot read checkpoint" in capsys.readouterr().err

    def test_architecture_mismatch_rejected(self, workspace, trained, tmp_path, capsys):
        # config expects embed 4, checkpoint was trained with embed 8
        other_cfg = workspace / "narrow.cfg"
        other_cfg.write_text(
            BASE_CONFIG.replace("embed_dim = 8", "embed_dim = 4"), encoding="utf-8"
        )
        code = main(
            [
                "evaluate",
                "--config",
                str(other_cfg),
                "--out",
                str(tmp_path / "er"),
                "--checkpoint",
                str(trained / "checkpoint.bin"),
            ]
        )
        assert code == 1
        assert "architecture" in capsys.readouterr().err

    def test_corrupted_checkpoint_rejected(self, workspace, trained, tmp_path, capsys):
        blob = bytearray((trained / "checkpoint.bin").read_bytes())
        blob[0] ^= 0xFF
        bad = tmp_path / "bad.bin"
        bad.write_bytes(bytes(blob))
        code = main(
            [
                "evaluate",
                "--config",
                str(workspace / "run.cfg"),
                "--out",
                str(tmp_path / "er"),
                "--checkpoint",
                str(bad),
            ]
        )
        assert code == 1
        assert "not a checkpoint" in capsys.readouterr().err

    def test_modality_mismatch_rejected(self, workspace, trained, tmp_path, capsys):
        renamed = BASE_CONFIG.replace(
            'features = {"content": "features_content.latf"}',
            'features = {"imagery": "features_content.latf"}',
        )
        other_cfg = workspace / "renamed.cfg"
        other_cfg.write_text(renamed, encoding="utf-8")
        code = main(
            [
                "evaluate",
                "--config",
                str(other_cfg),
                "--out",
                str(tmp_path / "er"),
                "--checkpoint",
                str(trained / "checkpoint.bin"),
            ]
        )
        assert code == 1
        assert "modalities" in capsys.readouterr().err

    def test_feature_width_mismatch_rejected(self, workspace, trained, tmp_path, capsys):
        # the checkpoint's transforms take 8 content columns; this config's file has 6
        num_items = load_interactions(workspace / "interactions.tsv").num_items
        write_features(tmp_path / "narrow.latf", np.ones((num_items, 6)))
        narrow = BASE_CONFIG.replace(
            '"features_content.latf"', f'"{tmp_path / "narrow.latf"}"'
        )
        other_cfg = workspace / "narrow_features.cfg"
        other_cfg.write_text(narrow, encoding="utf-8")
        code = main(
            [
                "evaluate",
                "--config",
                str(other_cfg),
                "--out",
                str(tmp_path / "er"),
                "--checkpoint",
                str(trained / "checkpoint.bin"),
            ]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "transform_w.content" in err


class TestSweep:
    def test_k_axis_writes_table(self, workspace, tmp_path):
        out = tmp_path / "sw"
        code = main(
            [
                "sweep",
                "--config",
                str(workspace / "run.cfg"),
                "--out",
                str(out),
                "--axis",
                "k",
                "--values",
                "0,3",
            ]
        )
        assert code == 0
        lines = (out / "sweep_k.tsv").read_text().splitlines()
        assert lines[0].split("\t") == [
            "value",
            "recall@5",
            "precision@5",
            "ndcg@5",
            "recall@20",
            "precision@20",
            "ndcg@20",
        ]
        assert len(lines) == 3
        assert lines[1].split("\t")[0] == "0"
        assert lines[2].split("\t")[0] == "3"
        for point in ("0", "3"):
            assert sorted(p.name for p in (out / "sweep_k" / point).iterdir()) == POINT_FILES
        # table entries parse back to the report values exactly
        row = lines[2].split("\t")
        report3 = json.loads((out / "sweep_k" / "3" / "report_test.json").read_text())
        assert float(row[1]) == report3["metrics"]["5"]["recall"]

    def test_reloaded_point_checkpoint_reproduces_its_report(self, workspace, tmp_path):
        out = tmp_path / "sw"
        config = str(workspace / "run.cfg")
        assert main(["sweep", "--config", config, "--out", str(out), "--axis", "k",
                     "--values", "3"]) == 0
        point = out / "sweep_k" / "3"
        # the config's own k is 3, so its model config is the point's
        assert main(["evaluate", "--config", config, "--out", str(tmp_path / "ev"),
                     "--checkpoint", str(point / "checkpoint.bin")]) == 0
        reloaded = json.loads((tmp_path / "ev" / "report_test.json").read_text())
        in_memory = json.loads((point / "report_test.json").read_text())
        assert reloaded["metrics"] == in_memory["metrics"]
        assert reloaded["num_users_evaluated"] == in_memory["num_users_evaluated"]

    def test_lambda_axis(self, workspace, tmp_path):
        out = tmp_path / "sw"
        code = main(
            [
                "sweep",
                "--config",
                str(workspace / "run.cfg"),
                "--out",
                str(out),
                "--axis",
                "lambda",
                "--values",
                "0.25",
            ]
        )
        assert code == 0
        lines = (out / "sweep_lambda.tsv").read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].split("\t")[0] == "0.25"
        assert (out / "sweep_lambda" / "0.25" / "report_test.json").is_file()

    def test_duplicate_values_warn_and_collapse(self, workspace, tmp_path, capsys):
        out = tmp_path / "sw"
        code = main(
            [
                "sweep",
                "--config",
                str(workspace / "run.cfg"),
                "--out",
                str(out),
                "--axis",
                "k",
                "--values",
                "3,3",
            ]
        )
        assert code == 0
        assert "duplicate sweep values" in capsys.readouterr().err
        lines = (out / "sweep_k.tsv").read_text().splitlines()
        assert len(lines) == 2

    def test_unparseable_value_rejected(self, workspace, tmp_path, capsys):
        code = main(
            [
                "sweep",
                "--config",
                str(workspace / "run.cfg"),
                "--out",
                str(tmp_path / "sw"),
                "--axis",
                "k",
                "--values",
                "3,half",
            ]
        )
        assert code == 1
        assert "cannot parse" in capsys.readouterr().err

    def test_invalid_value_rejected_before_any_point_trains(self, workspace, tmp_path, capsys):
        out = tmp_path / "sw"
        code = main(
            [
                "sweep",
                "--config",
                str(workspace / "run.cfg"),
                "--out",
                str(out),
                "--axis",
                "k",
                "--values",
                "3,-1",
            ]
        )
        assert code == 1
        assert "k: invalid int value -1" in capsys.readouterr().err
        assert not (out / "sweep_k").exists()

    def test_serial_sweep_reads_the_config_once(self, workspace, tmp_path, monkeypatch):
        # each point's config is derived from the one main loaded
        calls = []

        def counting(path):
            calls.append(path)
            return load_run_config(path)

        monkeypatch.setattr(lattice.cli, "load_run_config", counting)
        argv = ["sweep", "--config", str(workspace / "run.cfg"), "--out", str(tmp_path / "sw"),
                "--axis", "k", "--values", "0,3"]
        assert main(argv) == 0
        assert len(calls) == 1

    def test_point_is_a_train_plus_an_evaluate(self, workspace, tmp_path):
        config = str(workspace / "run.cfg")
        assert main(["sweep", "--config", config, "--out", str(tmp_path), "--axis", "k",
                     "--values", "3"]) == 0
        point = tmp_path / "sweep_k" / "3"
        names = ("checkpoint.bin", "split_manifest.json", "report_test.json")
        swept = {name: (point / name).read_bytes() for name in names}
        swept_log = _log_without_seconds(point)
        # the config's own k is 3, so with --out at the point's directory the
        # resolved config, and with it every digest, is the point's
        assert main(["train", "--config", config, "--out", str(point)]) == 0
        assert main(["evaluate", "--config", config, "--out", str(point)]) == 0
        for name in names:
            assert (point / name).read_bytes() == swept[name], name
        assert _log_without_seconds(point) == swept_log

    def test_failed_point_leaves_no_table(self, workspace, tmp_path, monkeypatch, capsys):
        real_fit = lattice.cli.fit
        calls = []

        def fail_second(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise GradientError("non-finite gradient for parameter user_emb")
            return real_fit(*args, **kwargs)

        monkeypatch.setattr(lattice.cli, "fit", fail_second)
        out = tmp_path / "sw"
        argv = ["sweep", "--config", str(workspace / "run.cfg"), "--out", str(out),
                "--axis", "k", "--values", "0,3"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite gradient") and err.count("\n") == 1
        assert not (out / "sweep_k.tsv").exists()
        assert not [p for p in out.rglob("*") if p.name.endswith(".tmp")]
        assert sorted(p.name for p in (out / "sweep_k" / "0").iterdir()) == POINT_FILES
        assert not (out / "sweep_k" / "3" / "checkpoint.bin").exists()

    def test_relative_out_resolves_against_working_directory(
        self, workspace, tmp_path, monkeypatch
    ):
        cfg_dir = tmp_path / "cfgdir"
        cfg_dir.mkdir()
        inputs = ("run.cfg", "interactions.tsv", "features_content.latf")
        for name in inputs:
            (cfg_dir / name).write_bytes((workspace / name).read_bytes())
        monkeypatch.chdir(tmp_path)
        config = "cfgdir/run.cfg"
        assert main(["prepare", "--config", config, "--out", "prep"]) == 0
        assert (tmp_path / "prep" / "split_manifest.json").is_file()
        assert main(["sweep", "--config", config, "--out", "sw", "--axis", "k",
                     "--values", "3"]) == 0
        assert (tmp_path / "sw" / "sweep_k.tsv").is_file()
        assert (tmp_path / "sw" / "sweep_k" / "3" / "report_test.json").is_file()
        assert sorted(p.name for p in cfg_dir.iterdir()) == sorted(inputs)
        # without --out the config's own out_dir resolves once, beside it
        assert main(["sweep", "--config", config, "--axis", "k", "--values", "3"]) == 0
        assert (cfg_dir / "run" / "sweep_k" / "3" / "report_test.json").is_file()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfgdir", "prep", "sw"]


def _log_without_seconds(out_dir: Path) -> list:
    lines = (out_dir / "train_log.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    for record in records:
        del record["seconds"]
    return records


class TestAtomicOutputs:
    @pytest.mark.parametrize(
        "command, target",
        [
            (["prepare"], "split_manifest.json"),
            (["evaluate", "--partition", "test"], "report_test.json"),
            (["sweep", "--axis", "k", "--values", "3"], "sweep_k.tsv"),
            (["train"], "train_log.jsonl"),
        ],
    )
    def test_failed_rewrite_keeps_previous_output(
        self, workspace, trained, tmp_path, monkeypatch, capsys, command, target
    ):
        out = tmp_path / "out"
        out.mkdir()
        (out / "checkpoint.bin").write_bytes((trained / "checkpoint.bin").read_bytes())
        previous = out / target
        previous.write_bytes(b"previous run\n")
        real_replace = os.replace

        def crash_on_target(src, dst):
            if os.path.basename(dst) == target:
                raise OSError("simulated crash before rename")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", crash_on_target)
        argv = [command[0], "--config", str(workspace / "run.cfg"), "--out", str(out)]
        assert main(argv + command[1:]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: simulated crash") and err.count("\n") == 1
        assert previous.read_bytes() == b"previous run\n"
        assert not [p.name for p in out.iterdir() if p.name.endswith(".tmp")]

    def test_failed_train_keeps_previous_run(
        self, workspace, trained, tmp_path, monkeypatch, capsys
    ):
        out = tmp_path / "out"
        out.mkdir()
        names = ("checkpoint.bin", "train_log.jsonl", "split_manifest.json")
        for name in names:
            (out / name).write_bytes((trained / name).read_bytes())

        def failing_fit(model_cfg, train_cfg, split, features):
            raise GradientError("non-finite gradient for parameter user_emb")

        monkeypatch.setattr(lattice.cli, "fit", failing_fit)
        argv = ["train", "--config", str(workspace / "run.cfg"), "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite gradient") and err.count("\n") == 1
        for name in names:
            assert (out / name).read_bytes() == (trained / name).read_bytes()
        assert not [p.name for p in out.iterdir() if p.name.endswith(".tmp")]
