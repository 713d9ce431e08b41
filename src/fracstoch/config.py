"""Run configuration: defaults, JSON file parsing, flag precedence."""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, fields as dc_fields

from .rng import NOISE_KINDS

__all__ = ["EXPERIMENTS", "RunConfig", "ConfigError", "parse_config", "parse_n_list"]

EXPERIMENTS = (
    "kernel",
    "caputo",
    "kantorovich_rates",
    "variance_scaling",
    "voronovskaya",
    "mollifier_rates",
    "mse",
    "burgers",
    "dissipation",
    "l2",
)


def _is_whole(value) -> bool:
    """An integer, or a float with an integral value (JSON may write 1000.0)."""
    return (
        isinstance(value, numbers.Real)
        and not isinstance(value, bool)
        and float(value).is_integer()
    )


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key."""


@dataclass
class RunConfig:
    """Validated experiment configuration.

    Defaults: q=1, lam=1, alpha=0.5, sigma=0.1, seed=42, replicates=1000,
    trunc_radius=40.  ``sigma`` doubles as the forcing intensity in the
    burgers experiment.
    """

    experiment: str = "kernel"
    q: float = 1.0
    lam: float = 1.0
    trunc_radius: int = 40
    alpha: float = 0.5
    s: float = 0.8
    nu: float = 0.1
    sigma: float = 0.1
    kind: str = "cell_multiplier"
    seed: int = 42
    replicates: int = 1000
    n_list: tuple = (8, 16, 32, 64)
    dim: int = 1
    points: int = 4096
    steps: int = 256
    workers: int = 1
    out_dir: str | None = None
    svg: bool = False

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"experiment: unknown name {self.experiment!r}; choose from {EXPERIMENTS}"
            )
        if not self.q > 0:
            raise ConfigError(f"q: must be positive, got {self.q}")
        if not self.lam > 0:
            raise ConfigError(f"lambda: must be positive, got {self.lam}")
        if self.trunc_radius < 1:
            raise ConfigError(f"trunc_radius: must be >= 1, got {self.trunc_radius}")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha: must lie strictly in (0, 1), got {self.alpha}")
        if not 0.0 < self.s <= 1.5:
            raise ConfigError(f"s: must lie in (0, 1.5], got {self.s}")
        if not self.nu > 0:
            raise ConfigError(f"nu: must be positive, got {self.nu}")
        if not self.sigma >= 0:  # also rejects NaN
            raise ConfigError(f"sigma: must be nonnegative, got {self.sigma}")
        if self.kind not in NOISE_KINDS:
            raise ConfigError(f"kind: unknown noise kind {self.kind!r}")
        if not _is_whole(self.replicates) or self.replicates < 1:
            raise ConfigError(f"replicates: must be an integer >= 1, got {self.replicates}")
        self.replicates = int(self.replicates)
        n_list = tuple(self.n_list)
        if not n_list or any(int(n) != n or n < 1 for n in n_list):
            raise ConfigError(f"n_list: needs positive integers, got {self.n_list}")
        if any(b <= a for a, b in zip(n_list, n_list[1:])):
            raise ConfigError(f"n_list: must be strictly increasing, got {self.n_list}")
        self.n_list = tuple(int(n) for n in n_list)
        if self.dim not in (1, 2):
            raise ConfigError(f"dim: must be 1 or 2, got {self.dim}")
        if self.points < 8 or (self.points & (self.points - 1)) != 0:
            raise ConfigError(f"points: must be a power of two >= 8, got {self.points}")
        if self.steps < 2:
            raise ConfigError(f"steps: must be >= 2, got {self.steps}")
        if self.workers < 1:
            raise ConfigError(f"workers: must be >= 1, got {self.workers}")

    def as_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in dc_fields(self)}
        out["n_list"] = list(self.n_list)
        return out


def parse_n_list(text) -> tuple:
    if isinstance(text, (list, tuple)):
        return tuple(int(v) for v in text)
    try:
        return tuple(int(part) for part in str(text).split(",") if part != "")
    except ValueError:
        raise ConfigError(f"n_list: cannot parse {text!r}; expected e.g. 8,16,32,64")


_ALIASES = {"lambda": "lam", "K": "trunc_radius"}
_FIELD_NAMES = {f.name for f in dc_fields(RunConfig)}


def parse_config(path: str | None = None, flags: dict | None = None) -> RunConfig:
    """Merge defaults <- JSON file <- flags (flags win) into a RunConfig.

    The file must be a flat JSON object; unknown keys are rejected with
    the key named in the message.
    """
    merged: dict = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path}: malformed JSON ({exc})") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config file {path}: expected a flat JSON object")
        for key, value in data.items():
            name = _ALIASES.get(key, key)
            if name not in _FIELD_NAMES:
                raise ConfigError(f"{key}: unknown configuration key")
            merged[name] = value
    for key, value in (flags or {}).items():
        if value is None:
            continue
        name = _ALIASES.get(key, key)
        if name not in _FIELD_NAMES:
            raise ConfigError(f"{key}: unknown configuration key")
        merged[name] = value
    if "n_list" in merged:
        merged["n_list"] = parse_n_list(merged["n_list"])
    try:
        return RunConfig(**merged)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
