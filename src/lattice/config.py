"""Flat key = value run configuration files.

Values are JSON literals; unknown keys are rejected.  Relative paths resolve
against the config file's directory.  The digest of the fully resolved
config (defaults included, paths as written) is stamped into every output so
runs can be traced back to their settings.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .errors import ConfigError
from .model import BACKENDS, VARIANTS, ModelConfig
from .training import TrainConfig

DIGEST_CHARS = 12

_REQUIRED = object()


def _expect(kind, predicate=None, what=""):
    def check(key, value):
        if isinstance(value, bool):
            raise ConfigError(f"{key}: expected {what or kind.__name__}, got {value!r}")
        if kind is float and isinstance(value, int):
            value = float(value)
        if not isinstance(value, kind):
            raise ConfigError(f"{key}: expected {what or kind.__name__}, got {value!r}")
        if predicate is not None and not predicate(value):
            raise ConfigError(f"{key}: invalid value {value!r}")
        return value

    return check


def _expect_choice(*choices):
    def check(key, value):
        if value not in choices:
            raise ConfigError(f"{key}: expected one of {choices}, got {value!r}")
        return value

    return check


def _expect_features(key, value):
    if (
        not isinstance(value, dict)
        or not value
        or not all(isinstance(k, str) and isinstance(v, str) for k, v in value.items())
    ):
        raise ConfigError(
            f"{key}: expected a non-empty JSON object of modality -> path strings"
        )
    return dict(value)


def _expect_cutoffs(key, value):
    if (
        not isinstance(value, list)
        or not value
        or not all(isinstance(c, int) and not isinstance(c, bool) and c >= 1 for c in value)
    ):
        raise ConfigError(f"{key}: expected a non-empty JSON list of positive ints")
    deduped = list(dict.fromkeys(value))
    return deduped

SCHEMA = {
    "interactions": (_REQUIRED, _expect(str, what="a path string")),
    "features": (_REQUIRED, _expect_features),
    "out_dir": (_REQUIRED, _expect(str, what="a path string")),
    "split_mode": ("warm", _expect_choice("warm", "cold")),
    "split_seed": (0, _expect(int, lambda v: v >= 0)),
    "item_fraction": (0.2, _expect(float, lambda v: 0.0 < v < 1.0)),
    "backend": ("mf", _expect_choice(*BACKENDS)),
    "variant": ("full", _expect_choice(*VARIANTS)),
    "embed_dim": (64, _expect(int, lambda v: v >= 1)),
    "hidden_dim": (64, _expect(int, lambda v: v >= 1)),
    "k": (10, _expect(int, lambda v: v >= 0)),
    "fuse_lambda": (0.5, _expect(float, lambda v: 0.0 <= v <= 1.0)),
    "item_layers": (1, _expect(int, lambda v: 0 <= v <= 4)),
    "cf_layers": (3, _expect(int, lambda v: v >= 0)),
    "learning_rate": (1e-3, _expect(float, lambda v: v > 0)),
    "l2_coeff": (1e-4, _expect(float, lambda v: v >= 0)),
    "batch_size": (1024, _expect(int, lambda v: v >= 1)),
    "max_epochs": (100, _expect(int, lambda v: v >= 1)),
    "patience": (10, _expect(int, lambda v: v >= 1)),
    "seed": (0, _expect(int, lambda v: v >= 0)),
    "graph_refresh": ("per_batch", _expect_choice("per_batch", "per_epoch")),
    "cutoffs": ([20], _expect_cutoffs),
}


@dataclass(frozen=True)
class RunConfig:
    """One fully resolved run: data locations, split, model, training, eval."""

    values: dict
    base_dir: Path

    def __getitem__(self, key: str):
        return self.values[key]

    def resolve_path(self, raw: str) -> Path:
        path = Path(raw)
        return path if path.is_absolute() else self.base_dir / path

    @property
    def interactions_path(self) -> Path:
        return self.resolve_path(self.values["interactions"])

    @property
    def feature_paths(self) -> dict:
        return {m: self.resolve_path(p) for m, p in self.values["features"].items()}

    @property
    def out_dir(self) -> Path:
        return self.resolve_path(self.values["out_dir"])

    def _build(self, cls):
        return cls(**{f.name: self.values[f.name] for f in fields(cls)})

    def model_config(self) -> ModelConfig:
        return self._build(ModelConfig)

    def train_config(self) -> TrainConfig:
        return self._build(TrainConfig)

    def digest(self) -> str:
        canonical = json.dumps(self.values, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:DIGEST_CHARS]

    def with_values(self, **overrides) -> "RunConfig":
        merged = dict(self.values)
        for key, value in overrides.items():
            if key not in SCHEMA:
                raise ConfigError(f"unknown config key {key!r}")
            merged[key] = SCHEMA[key][1](key, value)
        return replace(self, values=merged)


def parse_config_text(text: str, base_dir, source: str = "<config>") -> RunConfig:
    """Parse key = value lines; blank lines and # comments are skipped."""
    raw: dict = {}
    for lineno, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}: line {lineno}: expected key = value")
        key, _, rest = stripped.partition("=")
        key = key.strip()
        rest = rest.strip()
        if key in raw:
            raise ConfigError(f"{source}: line {lineno}: duplicate key {key!r}")
        if key not in SCHEMA:
            raise ConfigError(f"{source}: line {lineno}: unknown key {key!r}")
        try:
            value = json.loads(rest)
        except (ValueError, RecursionError) as exc:
            raise ConfigError(
                f"{source}: line {lineno}: value for {key!r} is not valid JSON: {exc}"
            ) from exc
        raw[key] = value

    values: dict = {}
    for key, (default, validator) in SCHEMA.items():
        if key in raw:
            values[key] = validator(key, raw[key])
        elif default is _REQUIRED:
            raise ConfigError(f"{source}: missing required key {key!r}")
        else:
            values[key] = default
    cfg = RunConfig(values=values, base_dir=Path(base_dir))
    try:
        cfg.model_config()
        cfg.train_config()
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from exc
    return cfg


def load_run_config(path) -> RunConfig:
    """Read, validate, and resolve a config file; referenced inputs must exist."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    cfg = parse_config_text(text, base_dir=path.parent, source=str(path))
    if not cfg.interactions_path.is_file():
        raise ConfigError(f"interactions file not found: {cfg.interactions_path}")
    for m, p in cfg.feature_paths.items():
        if not p.is_file():
            raise ConfigError(f"feature file for modality {m!r} not found: {p}")
    return cfg
