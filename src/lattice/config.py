"""Flat key = value run configuration files.

Values are JSON literals; unknown keys are rejected.  Relative paths resolve
against the config file's directory.  The digest of the fully resolved
config (defaults included, paths as written) is stamped into every output so
runs can be traced back to their settings.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import Field, dataclass, fields, replace
from pathlib import Path

from .errors import ConfigError
from .model import ModelConfig, check_setting, setting
from .training import TrainConfig

DIGEST_CHARS = 12

_REQUIRED = object()


def _expect_path(key, value):
    if not isinstance(value, str):
        raise ConfigError(f"{key}: expected a path string, got {value!r}")
    return value


def _expect_setting(f: Field) -> tuple:
    """A setting's (default, check); float settings store floats, so 1 and 1.0 share a digest."""

    def check(key, value):
        try:
            check_setting(key, f, value)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        return float(value) if isinstance(f.default, float) else value

    return f.default, check


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
    "interactions": (_REQUIRED, _expect_path),
    "features": (_REQUIRED, _expect_features),
    "out_dir": (_REQUIRED, _expect_path),
    "split_mode": _expect_setting(setting("warm", ("warm", "cold"))),
    "split_seed": _expect_setting(setting(0, lambda v: v >= 0)),
    "item_fraction": _expect_setting(setting(0.2, lambda v: 0.0 < v < 1.0)),
    **{f.name: _expect_setting(f) for cls in (ModelConfig, TrainConfig) for f in fields(cls)},
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
    return RunConfig(values=values, base_dir=Path(base_dir))


def load_run_config(path) -> RunConfig:
    """Read, validate, and resolve a config file; referenced inputs must exist.

    The file is UTF-8; a byte-order mark at its start is dropped.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    cfg = parse_config_text(text, base_dir=path.parent, source=str(path))
    if not cfg.interactions_path.is_file():
        raise ConfigError(f"interactions file not found: {cfg.interactions_path}")
    for m, p in cfg.feature_paths.items():
        if not p.is_file():
            raise ConfigError(f"feature file for modality {m!r} not found: {p}")
    return cfg
