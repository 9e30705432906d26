"""Run configuration: flat key=value files with command-line overrides.

The file format is plain text, one ``key=value`` per line, ``#`` comments
allowed. Unknown keys are rejected so typos fail loudly. The ``lambda``
key (the style-regularizer weight) maps to the ``tsr_lambda`` field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from histadapter.adapter import FUSIONS, VARIANTS
from histadapter.vit import PRESETS

__all__ = ["RunConfig", "load_config", "parse_config_text"]

# config-file key -> dataclass field
_KEY_TO_FIELD = {"lambda": "tsr_lambda"}
_FIELD_TO_KEY = {v: k for k, v in _KEY_TO_FIELD.items()}


@dataclass
class RunConfig:
    preset: str = "toy"
    variant: str = "full"
    fusion: str = "sum"
    adapter_dim: int = 8
    theta: float = 0.7
    tsr_lambda: float = 0.1
    lr: float = 1e-4
    epochs: int = 20
    batch_size: int = 32
    seed: int = 0
    num_domains: int = 4
    held_out: int = 3
    few_shot_k: int = 0
    train_per_class: int = 24
    test_per_class: int = 64
    val_per_class: int = 48
    style_seed: int = 7
    out: str = "runs/default"

    def validate(self) -> "RunConfig":
        if self.preset not in PRESETS:
            raise ValueError(f"unknown preset {self.preset!r}")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.fusion not in FUSIONS:
            raise ValueError(f"unknown fusion {self.fusion!r}")
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError(f"theta must lie in [0, 1], got {self.theta}")
        if not (math.isfinite(self.tsr_lambda) and self.tsr_lambda >= 0):
            raise ValueError(f"lambda must be finite and >= 0, got {self.tsr_lambda}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and positive, got {self.lr}")
        for name in ("adapter_dim", "epochs", "batch_size", "num_domains",
                     "train_per_class", "test_per_class", "val_per_class"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0 <= self.held_out < self.num_domains:
            raise ValueError(
                f"held_out {self.held_out} out of range for {self.num_domains} domains"
            )
        for name in ("few_shot_k", "seed", "style_seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        first_line = f"out={self.out}".splitlines()[0]
        if parse_config_text(first_line).get("out") != self.out:
            raise ValueError(f"out {self.out!r} would not read back from config.txt")
        return self

    @property
    def protocol_name(self) -> str:
        tag = f"loo{self.held_out}of{self.num_domains}"
        if self.few_shot_k:
            tag += f"-{self.few_shot_k}shot"
        return tag

    def to_text(self) -> str:
        lines = []
        for f in fields(self):
            key = _FIELD_TO_KEY.get(f.name, f.name)
            lines.append(f"{key}={getattr(self, f.name)}")
        return "\n".join(lines) + "\n"


def parse_config_text(text: str) -> dict:
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        values[key] = value
    return values


def _coerce(field_type: str, value: str):
    if field_type == "int":
        return int(value)
    if field_type == "float":
        return float(value)
    return value


def load_config(path=None, overrides: dict | None = None) -> RunConfig:
    """Build a validated config from an optional file plus overrides."""
    cfg = RunConfig()
    field_types = {f.name: f.type for f in fields(RunConfig)}
    merged: dict = {}
    if path is not None:
        merged.update(parse_config_text(Path(path).read_text()))
    if overrides:
        merged.update({k: v for k, v in overrides.items() if v is not None})
    for key, value in merged.items():
        name = _KEY_TO_FIELD.get(key, key)
        if name not in field_types:
            raise ValueError(f"unknown config key {key!r}")
        setattr(cfg, name, _coerce(field_types[name], str(value)))
    return cfg.validate()
